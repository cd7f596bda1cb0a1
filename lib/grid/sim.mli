(** Deterministic discrete-event simulator.

    The whole Grid substrate (network transfers, compute slices, batch
    queues) runs on virtual time managed here.  Events scheduled for the
    same instant fire in scheduling order, which makes every simulation
    fully deterministic. *)

type t

type event_id

val create : ?obs:Obs.t -> unit -> t
(** [obs] (default [Obs.disabled]) receives the {!events_fired} count
    as [sim.events] and a max-queue-depth gauge. *)

val now : t -> float
(** Current virtual time in seconds. *)

val schedule : t -> delay:float -> (unit -> unit) -> event_id
(** [schedule t ~delay f] fires [f] at [now t +. delay].  Negative delays
    are clamped to zero. *)

val schedule_at : t -> time:float -> (unit -> unit) -> event_id
(** Fires at an absolute time (clamped to [now]). *)

val cancel : t -> event_id -> unit
(** Cancels the event, releasing its closure at once; the queue drops
    its entry when it reaches the front, or sooner if cancelled entries
    come to outnumber pending ones.  Cancelling an already-fired or
    already-cancelled event is a no-op. *)

val step : t -> bool
(** Processes the next event.  Returns [false] when no events remain. *)

val run : ?max_events:int -> t -> until:float -> unit
(** Processes events in order until the queue is empty, the next event
    lies beyond [until], or [max_events] have fired (safety valve,
    default unlimited).  The clock is left at the last fired event. *)

val pending : t -> int
(** Number of events still queued: scheduled, not yet fired, not
    cancelled. *)

val events_fired : t -> int

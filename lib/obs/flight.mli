(** Flight recorder: bounded per-subsystem ring buffers of recent
    structured events, dumped as one causally-ordered incident file when
    an anomaly trigger fires.

    Each subsystem (master, clients, net, pool, service) writes into its
    own ring via {!note}; a disabled recorder costs one branch per call
    site.  Events carry a global monotone sequence number — the run is
    single-threaded on virtual time, so seq order is a causal total
    order across subsystems.  Rings keep only the last [capacity]
    events per subsystem, so a dump is a bounded window ending at the
    trigger, not a full log. *)

type t

type event = {
  seq : int;  (** global causal order across all subsystems *)
  at : float;  (** virtual time *)
  sub : string;  (** subsystem ring the event was recorded into *)
  name : string;
  args : (string * Json.t) list;
}

val create : ?capacity:int -> unit -> t
(** A live recorder keeping the last [capacity] (default 256) events
    per subsystem, clocked by {!Clock.now} until {!set_clock}. *)

val disabled : t
(** Shared inert recorder: {!note} is a single branch, never records. *)

val is_enabled : t -> bool

val set_clock : t -> (unit -> float) -> unit
(** Point event timestamps at a custom time source (e.g. virtual
    simulation time). *)

val note : t -> sub:string -> ?args:(string * Json.t) list -> string -> unit
(** Record an event into subsystem [sub]'s ring, evicting the oldest
    when full. *)

val recorded : t -> int
(** Total events ever recorded. *)

val evicted : t -> int
(** Events evicted from rings (and so missing from the next dump). *)

val events : t -> event list
(** Surviving events across all rings, in causal (seq) order. *)

val dump : t -> at:float -> trigger:string -> ?detail:string -> unit -> Json.t
(** Incident document ([gridsat-flight/1]): the trigger, the covered
    time window, recorded/evicted totals, and the surviving events in
    causal order. *)

val file_name : at:float -> trigger:string -> string
(** Canonical incident file name [FLIGHT-<vtime>-<trigger>.json]; the
    trigger is sanitised to filesystem-safe characters and the virtual
    time zero-padded so names sort chronologically. *)

(** Job lifecycle journal: the service-level analogue of the master's
    write-ahead {!Gridsat_core.Journal}.

    Every admission decision and every job state transition is appended
    as a CRC-sealed record, so a service brought back after a crash can
    replay the log and recover which jobs were in flight, which had
    already reached a terminal state, and what that state was — run-level
    recovery (split trees, checkpoints) stays the per-run journal's
    business.  Sealing, scrubbing, the quota and degraded mode are
    {!Gridsat_core.Sealed_log}'s, under the metric name
    [service.joblog].  The joblog keeps no snapshot: its empty state
    costs 0 bytes, nothing compacts it, and degraded mode exits on quota
    relief or when a scrub drops it back under quota.  Its applied state
    ({!current}) is the one store of the service's job counts, so the
    counts it reports are those its log would recover. *)

type entry =
  | Submitted of {
      id : int;
      tenant : string;
      priority : string;
      digest : string;
      deadline : float option;
    }
  | Admitted of { id : int }
  | Shed of { id : int; retry_after : float }
  | Cache_hit of { id : int; answer : string }
  | Started of { id : int; hosts : int list }
  | Requeued of { id : int; reason : string }  (** preempted back into the queue *)
  | Finished of { id : int; terminal : string }
      (** [terminal] is {!Job.terminal_string} of the outcome *)

type jstate = Queued | Running | Done of string

type state = {
  jobs : (int, jstate) Hashtbl.t;
  mutable submitted : int;
  mutable admitted : int;
  mutable shed : int;
  mutable cache_hits : int;
  mutable requeues : int;  (** a requeue is only ever a preemption *)
  mutable verdicts : int;  (** [Finished] records of a [verdict:] terminal *)
  mutable deadline_expired : int;  (** [Finished] records of the [deadline] terminal *)
  mutable cancelled : int;  (** [Finished] records of a [cancelled:] terminal *)
}

type t

val create : ?obs:Obs.t -> ?quota:int -> unit -> t

val append : t -> entry -> unit
(** Also notes the record in the flight recorder. *)

val set_quota : t -> quota:int -> unit

include Gridsat_core.Sealed_log.READ with type t := t and type state := state

val entries : t -> entry list
(** Surviving records, oldest first (test hook: lets the property test
    count terminal records per job without replaying). *)

val digest : state -> string
(** Canonical digest of a replayed state (sorted job ids), for
    determinism checks.  Each job's terminal covers the verdict,
    deadline and cancellation tallies. *)

val pp_entry : Format.formatter -> entry -> unit

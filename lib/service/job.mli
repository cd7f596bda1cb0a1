(** A solve job: one CNF instance submitted to the multi-tenant service.

    A job moves through at most three states — queued, running, done —
    and lands in {e exactly one} terminal outcome.  The terminal set is
    the contract the property tests pin: whatever the chaos plan does to
    the masters underneath, every admitted job ends up with one of these
    and nothing else. *)

type priority = Low | Normal | High

val priority_level : priority -> int
(** [Low] is 0, [Normal] 1, [High] 2. *)

val priority_string : priority -> string

val priority_of_string : string -> (priority, string) result

type terminal =
  | Verdict of Gridsat_core.Master.answer
      (** the run finished on its own: SAT, UNSAT or Unknown (timeout) *)
  | Cached of Gridsat_core.Master.answer
      (** served from the verdict cache; no subproblem was dispatched *)
  | Shed of { retry_after : float }
      (** refused at admission (queue full); [retry_after] is the backoff
          hint returned to the submitter, in virtual seconds *)
  | Deadline_expired  (** the per-job deadline cancelled the run *)
  | Cancelled of string  (** external cancellation (operator abort, stall) *)

type state = Queued | Running | Done of terminal

type t = {
  id : int;
  tenant : string;
  priority : priority;
  label : string;
  cnf : Sat.Cnf.t;
  digest : string;  (** canonical CNF digest (see {!Cache.digest}) *)
  mutable deadline : float option;
      (** absolute virtual time, if any.  Advisory: a service brownout
          stretches it, and the armed expiry timer re-checks this field
          before cancelling. *)
  submitted_at : float;
  mutable state : state;
  mutable started_at : float option;  (** first dispatch (not re-set on requeue) *)
  mutable finished_at : float option;
  mutable preemptions : int;  (** times this job was preempted and requeued *)
  mutable result : Gridsat_core.Master.result option;
      (** the underlying run's result, when a run actually happened *)
}

val terminal_string : terminal -> string
(** Stable one-token-ish rendering used by the job log and reports:
    ["verdict:SAT"], ["cached:UNSAT"], ["shed"], ["deadline"],
    ["cancelled:<reason>"]. *)

val state_string : state -> string

val is_terminal : t -> bool

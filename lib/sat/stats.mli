(** Mutable counters describing a solver run.

    [bcp_seconds] / [total_seconds] back the paper's Section 2.4 claim that
    Boolean constraint propagation dominates run time (measured with the
    monotonic [Obs.Clock] at propagation-call granularity, so the cost of
    the instrumentation itself is negligible). *)

type t = {
  mutable decisions : int;
  mutable propagations : int; (* literals propagated; the solver's "step" unit *)
  mutable conflicts : int;
  mutable learned : int; (* learned clauses added *)
  mutable learned_literals : int;
  mutable deleted : int; (* learned clauses deleted by DB reduction *)
  mutable restarts : int;
  mutable max_decision_level : int;
  mutable root_simplifications : int;
  mutable foreign_merged : int; (* foreign shared clauses merged into the DB *)
  mutable foreign_discarded : int; (* foreign clauses discarded as root-satisfied *)
  mutable foreign_implications : int; (* foreign clauses that forced a root implication *)
  mutable bcp_seconds : float;
  mutable total_seconds : float;
}

val create : unit -> t

val copy : t -> t

val add : t -> t -> unit
(** [add acc x] accumulates [x] into [acc] (max for [max_decision_level]). *)

val avg_learned_length : t -> float

val bcp_fraction : t -> float
(** Fraction of measured run time spent in BCP, in [0, 1]; [0] when no
    time was recorded. *)

val pp : Format.formatter -> t -> unit
(** Print every field (counters, timings, and the derived averages). *)

val json : t -> Obs.Json.t
(** The counters plus [avg_learned_length], for embedding in a run
    report: deterministic for a seeded run. *)

val wall_json : t -> Obs.Json.t
(** The wall-clock timings, [bcp_seconds], [total_seconds] and
    [bcp_fraction]: a report's [wall] section, which two runs of one
    seed do not share. *)

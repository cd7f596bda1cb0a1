(** Per-tenant service-level objectives: rolling error budgets and
    multi-window burn-rate alerts over the job stream.

    Spec grammar (semicolon-separated tenant clauses, comma-separated
    targets, ['*'] as the wildcard tenant):

    {v
    spec       := tenant-slo (';' tenant-slo)*
    tenant-slo := tenant ':' target (',' target)*
    tenant     := '*' | name
    target     := 'queue_wait' '<' seconds ['@' objective]
                | 'solve'      '<' seconds ['@' objective]
                | 'errors'     '<' fraction
    v}

    e.g. ["*:queue_wait<30@0.9,solve<120@0.95,errors<0.05;batch:solve<600"].

    [queue_wait]/[solve] targets default to objective 0.9 (90% of jobs
    under the bound); [errors<f] is shorthand for objective [1-f] on the
    terminal-outcome stream.  Each (tenant, target) pair tracks a
    good/bad event stream; burn rate over a window is
    [bad_fraction / (1 - objective)] (1.0 = burning exactly the budget).
    A fast-burn alert fires when both the short and long windows burn
    past the threshold, the multi-window guard against one-off noise. *)

type spec

val parse : string -> (spec, string) result

val spec_string : spec -> string
(** The raw spec text the value was parsed from. *)

type t

val create : ?window_short:float -> ?window_long:float -> ?fast_burn:float -> spec -> t
(** Rolling windows default to 60s/600s of virtual time; [fast_burn]
    (default 6.0) is the burn-rate both windows must exceed to alert. *)

val on_fast_burn : t -> (tenant:string -> target:string -> burn:float -> unit) -> unit
(** Register an alert handler; called once per (tenant, target) edge
    into the fast-burning state (re-armed when burn drops back). *)

val note_queue_wait : t -> now:float -> tenant:string -> float -> unit
(** A job left the queue after waiting this many (virtual) seconds. *)

val note_solved : t -> now:float -> tenant:string -> float -> unit
(** A job reached a verdict with this end-to-end latency: a sample for
    [solve] targets and a good event for [errors] targets. *)

val note_error : t -> now:float -> tenant:string -> unit
(** A job ended without a verdict (deadline, shed, cancel): a bad event
    for [errors] targets. *)

val to_json : t -> now:float -> Json.t
(** The run report's ["slo"] section: per (tenant, target) totals,
    cumulative budget burn, and both window burn rates. *)

val summary : t -> now:float -> string
(** Human-oriented one-line-per-objective rendering. *)

(** Per-host health model and circuit breaker (DESIGN.md §9).

    Grid hosts degrade without dying: the paper's NWS forecasts rank raw
    capacity, but a host running 20× slower than advertised never misses
    a heartbeat and so is invisible to crash detection.  This module
    blends what the master can actually observe — ack latency, heartbeat
    jitter, solve-progress rate (decisions/s from heartbeats), and
    crash/corruption history — into a score in [(0, 1]] that multiplies
    into {!Scheduler.rank} next to the forecast.

    Repeat offenders trip a circuit breaker: the host enters exponential
    probation ([probation_base · 2^(streak-1)] virtual seconds) during
    which it receives no work, then {e half-open} — it is handed exactly
    one canary subproblem, and only a successful result re-admits it.

    The model owns an always-enabled metrics registry (independent of
    [--report]) because adaptive timeouts and hedging read percentiles
    from its histograms.  One instance may be shared across runs (the
    service does): host ids are pool-global. *)

type t

val create : ?probation_base:float -> unit -> t
(** [probation_base] (default 30 virtual seconds) is the first
    probation; each further breaker trip doubles it. *)

(** {1 Signal feeds} *)

val note_ack : t -> host:int -> latency:float -> unit
(** An acknowledged reliable send: round-trip [latency] seconds. *)

val note_heartbeat : t -> host:int -> now:float -> decisions:int -> unit
(** A heartbeat carrying the client's cumulative solver decision count;
    consecutive beats yield the gap (jitter) and progress-rate signals. *)

val note_duration : t -> elapsed:float -> unit
(** A subproblem reached a result after [elapsed] virtual seconds — the
    fleet-wide duration histogram that hedging compares against. *)

type incident = [ `Crash | `Quarantine | `Exhausted | `Corruption | `Retry ]

val incident : t -> host:int -> now:float -> incident -> float option
(** Record a bad event.  [`Crash], [`Quarantine] and [`Exhausted] (retry
    give-up) trip the breaker and return [Some until_t], the probation
    deadline; [`Corruption] and [`Retry] only weigh on the score and
    return [None]. *)

val note_assigned : t -> host:int -> unit
(** Work was handed to the host; in the half-open state this marks the
    canary as outstanding so no second problem lands before it
    resolves. *)

val note_success : t -> host:int -> bool
(** The host returned a good result.  [true] iff this was a half-open
    canary succeeding — the breaker closes and the probation streak
    resets. *)

(** {1 Queries} *)

val score : t -> host:int -> float
(** Blended health in [(0, 1]]: incident factor × relative ack latency ×
    relative progress rate, halved while half-open, floored at 0.05 (so
    a sick-but-admissible host still ranks above an open-breaker one).
    Unknown hosts score 1.0. *)

val admissible : t -> host:int -> now:float -> bool
(** Whether the host may receive work now.  Transitions an expired open
    breaker to half-open as a side effect; half-open hosts are
    admissible only while their canary slot is free. *)

val duration_p99 : t -> float option
(** p99 subproblem duration; [None] until ≥ 5 samples. *)

val suspect_timeout : t -> heartbeat_period:float -> default:float -> float
(** Adaptive lease: [3 × hb_gap_p99] clamped to
    [[2.5 × heartbeat_period, default]] — it may only tighten the
    configured constant, never loosen it. *)

val retry_base : t -> default:float -> float option
(** Adaptive retry base: [2 × ack_p99] clamped to
    [[default/4, default]]; [None] until enough samples. *)

(** {1 Reporting} *)

type view = {
  v_host : int;
  v_score : float;
  v_state : string;  (** ["ok"] | ["probation"] | ["canary"] *)
  v_ack_ewma : float;
  v_hb_jitter : float;
  v_rate : float;
  v_crashes : int;
  v_quarantines : int;
  v_corruptions : int;
  v_retries : int;
}

val views : t -> view list
(** Per-host table sorted by host id. *)

val to_json : t -> Obs.Json.t
(** The table as a JSON array (the service report's [health] section). *)

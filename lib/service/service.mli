(** Multi-tenant job service: many concurrent GridSAT runs over one
    shared host pool.

    The service owns the simulator, the network and the pool of hosts
    described by a {!Gridsat_core.Testbed}.  Each admitted job gets its
    own message bus and its own {!Gridsat_core.Master} over a sub-pool of
    leased hosts; when the run terminates (verdict, deadline expiry,
    preemption or cancellation) the lease returns to the pool and the
    next queued job is dispatched.  Batch and late hosts of the base
    testbed are ignored — the service schedules over the interactive
    pool only.

    Overload robustness:
    - a bounded admission queue sheds excess submissions immediately,
      with a retry-after hint that scales with queue depth;
    - dispatch order is priority- and fairness-aware with a starvation
      guard ({!Admission});
    - per-job deadlines cancel runs gracefully through
      {!Gridsat_core.Master.cancel} — hosts come back to the pool, the
      run journal closes with a clean [Unknown] verdict, no subproblem is
      orphaned — even when the deadline lands inside a master
      crash-failover window;
    - a strictly higher-priority queued job may preempt the weakest
      running job when the pool is exhausted; the victim is requeued,
      not lost;
    - verdicts are cached by canonical CNF digest ({!Cache}), so
      resubmitting a solved instance costs zero subproblems;
    - every lifecycle transition is journaled ({!Joblog}) with CRC
      seals, so a service restart can recover job states by replay.

    Determinism: given the same config (including [seed]), testbed and
    submission script, the whole multi-run schedule — admissions,
    dispatches, preemptions, per-job fault plans — replays identically. *)

type config = {
  queue_capacity : int;  (** bounded admission queue size *)
  hosts_per_job : int;  (** lease size for each dispatched run *)
  max_concurrent : int;  (** cap on simultaneously running jobs *)
  starvation_after : float;
      (** queued jobs gain one priority level per this many seconds *)
  retry_after_base : float;  (** base of the shed retry-after hint *)
  brownout_threshold : float;
      (** enter brownout when the healthy fraction of the pool drops
          below this ([0.] disables the policy, the default).  Exit has
          [+0.1] hysteresis so an oscillating host cannot flap it. *)
  brownout_stretch : float;
      (** multiplier applied to outstanding advisory deadlines when a
          brownout begins (>= 1) *)
  run : Gridsat_core.Config.t;  (** per-run master configuration *)
  faults :
    run:Gridsat_core.Config.t -> start:float -> hosts:int list -> Random.State.t -> Grid.Fault.spec list;
      (** the job's fault plan, from its run config, start time, leased
          host ids and the service RNG (drawn in dispatch order).  Armed
          by {!Gridsat_core.Master.arm_faults} with seed
          [seed + 31 * job id].  The default returns [[]], drawing nothing. *)
  seed : int;  (** seeds the fault plans and nothing else *)
}

val default_config : config

val chaos_plan :
  ?master_crash:bool -> ?corrupt_p:float -> ?crash_hosts:int -> ?slow_hosts:int ->
  ?slow_factor:float -> ?flaky:bool -> ?choke:int -> unit ->
  run:Gridsat_core.Config.t -> start:float -> hosts:int list -> Random.State.t ->
  Grid.Fault.spec list
(** The chaos preset for [faults], timed from the job's start.
    [master_crash] crashes the master 1-2.5 s in; it restarts 1-2 s later
    (never under [run.standby]: the standby promotes).  [corrupt_p]
    garbles payloads.  [crash_hosts] crash silently, always leaving one
    host alive.  [slow_hosts] from the lease's tail compute
    [slow_factor] (default 8) times slower, or oscillate with [flaky],
    while heartbeats stay on time.  [choke] caps every link at that many
    bytes per [run.share_window] (0, the default, disables it).  Raises
    [Invalid_argument] once applied to [()] if [corrupt_p] is outside
    [[0, 1]], or [slow_factor <= 0] with [slow_hosts > 0]. *)

type submit_outcome =
  | Accepted  (** queued; will run when resources allow *)
  | Cached of Gridsat_core.Master.answer  (** served from the verdict cache *)
  | Rejected of { retry_after : float }  (** shed: queue full, try later *)

type stats = {
  submitted : int;
  admitted : int;
  shed : int;
  cache_hits : int;
  deadline_expired : int;
  preempted : int;  (** preemption events (a job can count several times) *)
  cancelled : int;
  completed : int;  (** jobs that reached a run verdict *)
  hosts_total : int;
  hosts_free : int;
  hosts_healthy : int;
      (** hosts currently admissible with a health score >= 0.4 *)
  brownout : bool;  (** the service is in brownout right now *)
  brownouts : int;  (** brownout entries so far *)
  deadlines_stretched : int;
      (** advisory deadlines stretched by brownout entries *)
  resource_pressure : bool;
      (** the second brownout dimension is asserted right now: the joblog
          is over its disk quota, or a running master reports pressure
          (degraded run journal, a client outbox latched over its
          watermark, recent share-budget sheds) *)
  joblog_degraded_entries : int;
      (** joblog records appended while over its disk quota *)
}

type t

val create :
  ?obs:Obs.t ->
  ?slo:Obs.Slo.spec ->
  ?on_flight:(name:string -> Obs.Json.t -> unit) ->
  ?on_expo:(string -> unit) ->
  cfg:config ->
  testbed:Gridsat_core.Testbed.t ->
  unit ->
  t
(** Validates the configuration ([Invalid_argument] on nonsense: empty
    pool, [hosts_per_job] larger than the pool, non-positive capacities
    or [retry_after_base], invalid [run] config) and sets up the shared
    simulator, network and host pool.

    Observability wiring (all optional):
    - [slo]: a parsed {!Obs.Slo} spec; the service feeds it at
      schedule/terminal transitions, surfaces it in the report's ["slo"]
      section, and trips an [slo-fast-burn] anomaly on fast burn;
    - [on_flight]: called with the canonical file name and document each
      time an anomaly trigger dumps the flight recorder of [obs] (the
      dumps are also retained, see {!flight_dumps});
    - [on_expo]: called with the Prometheus-style exposition of the
      metrics registry every 30 virtual seconds
      while jobs are outstanding, and once more when {!run} returns. *)

val submit :
  t ->
  tenant:string ->
  priority:Job.priority ->
  ?deadline_in:float ->
  ?label:string ->
  Sat.Cnf.t ->
  submit_outcome
(** Submits a job at the current virtual time.  [deadline_in] is
    relative to submission; when it expires the job is cancelled
    gracefully wherever it is (queued or running).  Cache hits and sheds
    are decided — and the job made terminal — before this returns. *)

val submit_at :
  t ->
  at:float ->
  tenant:string ->
  priority:Job.priority ->
  ?deadline_in:float ->
  ?label:string ->
  Sat.Cnf.t ->
  unit
(** Scripts a future submission at absolute virtual time [at]; {!run}
    keeps driving the simulation until all scripted submissions have
    landed and resolved. *)

val cancel_job : t -> id:int -> reason:string -> bool
(** External cancellation.  [false] if the job is unknown or already
    terminal. *)

val run : t -> unit
(** Drives the simulation until every submitted and scripted job has
    reached a terminal state.  If the event queue ever drains with jobs
    still outstanding (should be impossible — the pump re-arms itself),
    the leftovers are cancelled with a clean ["service stalled"] terminal
    rather than raising. *)

val outstanding : t -> bool

val jobs : t -> Job.t list
(** All jobs ever submitted, in submission order. *)

val stats : t -> stats
(** The eight job counts, [submitted] to [completed], are tallies of
    the joblog's applied state ({!Joblog.current}), their one store;
    [preempted] counts its requeues.  The other fields are read live. *)

val joblog : t -> Joblog.t

val verdict_cache : t -> Cache.t

val sim : t -> Grid.Sim.t

val health : t -> Gridsat_core.Health.t
(** The pool-global host-health model shared across every run the
    service dispatches: a host that misbehaved under one job starts its
    next lease already demoted (or in probation). *)

val slo : t -> Obs.Slo.t option
(** The live SLO tracker, when the service was created with a spec. *)

val anomalies : t -> Obs.Anomaly.trigger list
(** All anomaly triggers fired so far (oldest first). *)

val flight_dumps : t -> (string * Obs.Json.t) list
(** Flight-recorder incident dumps captured so far, oldest first, as
    [(canonical file name, document)]. *)

val running_masters : t -> (int * Gridsat_core.Master.t) list
(** [(job id, master)] for currently running jobs — test hook for
    injecting faults mid-run. *)

val report : t -> Obs.Json.t
(** Aggregated service report: meta, the counters above (including
    brownout state), a per-host health table, per-job rows (state, wait,
    outcome, splits/messages when a run happened), plus the shared
    metrics registry and span summary. *)

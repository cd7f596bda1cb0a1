(** The GridSAT master (paper Section 3.3).

    The master owns the resource pool, launches empty clients, assigns the
    initial problem to the first registrant, brokers splits (including the
    backlog of denied requests, served longest-running-first), relays
    clause shares, directs migrations toward stronger idle resources —
    every host it sets aside for a split, migration or problem carries a
    {!Pool.hold} naming why — verifies reported models, submits/cancels
    the batch job, and decides
    termination: all subproblems exhausted means UNSAT, a verified model
    means SAT, and the overall timeout or an unrecoverable client death
    means no answer.

    Fault tolerance: the master runs a lease-based failure detector over
    client heartbeats ([heartbeat_period] / [suspect_timeout]); a silent
    monitored host is declared dead and its subproblem recovered from its
    checkpoint (or from the copy in its [Delivery] hold) onto an idle
    host, parking in a recovery queue when none is free.  When a dead
    client left no checkpoint its subproblem is re-derived from the
    original CNF and the guiding-path lineage journaled at every split —
    losing a client never loses search space.  Subproblems are tracked by
    identity (pid), so duplicated deliveries or re-homed copies cannot
    make the live count drift and cause a premature UNSAT.  Messages from
    hosts already declared dead are fenced.

    Master durability: every state transition is appended to a
    write-ahead {!Journal} (stable storage, with periodic compaction into
    snapshots).  {!crash_master} wipes all volatile state and drops the
    endpoint off the bus; a replacement master replays the journal, asks
    the surviving clients to resync, and after a grace window reconciles —
    adopting work the clients still hold, re-homing orphans from
    checkpoints or lineage, and fencing journal-dead hosts. *)

type answer = Sat of Sat.Model.t | Unsat | Unknown of string

type result = {
  answer : answer;
  time : float;  (** virtual seconds from start to termination *)
  messages : int;  (** = [counter r "messages"] *)
  bytes : int;  (** = [counter r "bytes"] *)
  ships : int;  (** = [counter r "ships"] *)
  counts : int array;
      (** every keyed run counter, in report order; read them through
          {!counter} and {!counters} *)
  solver_stats : Sat.Stats.t;  (** aggregated over all clients *)
  events : Events.t list;  (** chronological *)
}

val counters : result -> (string * int) list
(** Every keyed row of the master's run-counter ledger with its value, in
    report order: the report's run section between [answer]/[time] and
    [events].  The keys:
    - [max_clients]: peak number of simultaneously busy clients;
    - [splits]: completed splits, i.e. [Split_completed] events, across
      failovers;
    - [share_batches], [shared_clauses]: clause-share batches the
      master received and relayed, and the clauses in them, across
      failovers;
    - [messages], [bytes], [dropped_messages], [dropped_bytes]: bus
      traffic, and what injected faults ate;
    - [retries]: reliable-channel retransmissions, all senders;
    - [false_suspicions]: suspected-dead hosts that later proved alive
      (and were fenced);
    - [recoveries]: subproblems recovered from a checkpoint;
    - [rederivations]: lost subproblems rebuilt from the original CNF
      and the journaled lineage;
    - [master_crashes]: injected master failures survived;
    - [hedges]: straggling subproblems cloned onto a second host, and
      portfolio copies of the root pid;
      [hedge_cancellations]: losing copies fenced after their pid
      resolved elsewhere, or written off dead while another copy held
      it;
    - [checkpoint_bytes]: peak bytes held by the checkpoint store;
    - [corrupt_detected]: wire payloads, at any endpoint, that failed
      their integrity-frame digest and were refused; [nacks]: corrupt
      reliable envelopes NACKed for immediate retransmit;
    - [certified_fragments]: UNSAT fragments whose DRUP proof checked
      under the branch's guiding path (certify mode);
    - [quarantines]: clients written off because an answer failed
      verification;
    - [checkpoints_discarded], [journal_records_dropped]: snapshots
      and journal records rejected by their at-rest seal;
    - [ships]: journal batches shipped to the hot standby;
    - [promotions]: standby promotions (0 or 1 with one standby);
    - [stale_epoch_rejections]: frames refused, at any endpoint,
      because their epoch predates the highest one the receiver saw;
    - [replication_divergences]: standby shadow-log digests that
      failed to match the primary's — 0 in any sound run;
    - [shares_shed]: clause relays refused by a recipient link's
      share budget; [share_bytes]: share-relay bytes put on the
      wire; [share_link_peak]: most share bytes one link carried in
      one budget window (at most [Config.share_budget] when set);
    - [dup_suppressed]: foreign clauses clients refused as duplicates;
    - [outbox_shed], [outbox_peak]: outage-outbox messages shed by
      the watermark policy (always share batches), and the deepest
      any client's outbox got;
    - [forced_compactions], [degraded_entries], [journal_bytes]:
      quota-forced journal compactions, records appended in
      journaled-degraded mode, and peak journal occupancy in bytes. *)

val counter : result -> string -> int
(** [counter r key] is the run counter [key] of {!counters}.  Raises
    [Invalid_argument] for a key the ledger does not have. *)

val ledger : (string * string) list
(** Every row of the master's run-counter ledger as (key, registry
    series), [""] where a row has none.  With telemetry on, a row's
    series is a view of its value ({!counter} by key). *)

type t

val create :
  ?obs:Obs.t ->
  ?health:Health.t ->
  sim:Grid.Sim.t ->
  net:Grid.Network.t ->
  bus:Protocol.msg Grid.Everyware.t ->
  cfg:Config.t ->
  testbed:Testbed.t ->
  Sat.Cnf.t ->
  t
(** Sets up the run: registers the master endpoint, launches clients on
    every interactive host, submits the batch job if the testbed has one,
    arms the overall timeout, the NWS probes and the failure detector.
    [obs] (default [Obs.disabled]) is threaded through every layer the
    master owns (journal, checkpoints, reliable channel, clients and
    their solvers): scheduling/recovery counters and instant-spans land
    on the master track, and each split grant's five-message sequence is
    covered by a ["split"] span, closed where that split closes or at
    termination at the latest.
    [health] wires a host-health model into scheduling (probation
    withholding, score-blended ranking, hedging/adaptive-timeout
    percentiles); the service passes one shared across runs.  When
    omitted, a private model is created whenever the config enables
    hedging. *)

val finished : t -> bool

val result : t -> result
(** Raises [Invalid_argument] before the run has finished. *)

val busy_client_ids : t -> int list
(** Ids of currently busy clients, ascending (for fault injection). *)

val reserved_hosts : t -> int list
(** Ids of hosts currently parked in the [Reserved] state, ascending.
    Empty after termination (reservations are released). *)

val kill_client : t -> int -> unit
(** Failure injection for tests: kills the client and lets the master
    react immediately (free an idle resource; recover a busy client's
    subproblem from its checkpoint, or fail the run if there is none). *)

val crash_host : t -> int -> unit
(** Silent fault injection: the process dies but the master is not told —
    it discovers the death when the heartbeat lease expires. *)

val health : t -> Health.t option
(** The health model wired into this run's pool, if any. *)

val resource_pressure : t -> bool
(** Whether the run is under resource pressure right now: the journal is
    in degraded mode, a client's outage outbox is latched above its high
    watermark, or the share budget shed within the last window.  A
    service-brownout input. *)

val inject : t -> src:int -> Protocol.msg -> unit
(** Test hook: delivers a forged payload to the master as if [src] had
    sent it, bypassing the wire (so integrity framing cannot catch it).
    Exercises the certification and quarantine paths against answers
    that are well-formed but wrong — e.g. a {!Protocol.Finished_unsat}
    whose proof fragment does not check. *)

val crash_master : t -> unit
(** Failure injection: the master process dies.  Its endpoint disappears
    from the bus and every piece of volatile state is lost; only the
    journal and the checkpoint store (stable storage) survive.  Clients
    are not told — they discover the outage through retry exhaustion and
    keep solving autonomously.  No-op once finished or already down. *)

val arm_faults : t -> seed:int -> Grid.Fault.spec list -> unit
(** Arms a fault plan against this run: the one place a plan meets a
    master.  Raises [Invalid_argument] naming the bad spec if
    {!Grid.Fault.validate} rejects the plan.  Host, master and storage
    actions fire on the run's simulator clock through the master's own
    hooks; every send on the run's bus goes through the plan's message
    faults, and a corrupted payload is garbled by {!Protocol.corrupt}.
    [seed] seeds the plan's private RNG, so the same plan and seed replay
    the same schedule.  An empty plan is a no-op.

    Every host fault is silent.  [Hang_host] wedges the process (no
    compute, no heartbeats, still registered).  [Slow_host] and
    [Flaky_host] shrink its compute slices while heartbeats and acks stay
    on time, so only the health model's progress-rate signal and hedging
    catch the straggler.  [Crash_master]'s replacement replays the
    journal, resyncs the clients and reconciles; after a standby
    promotion it is a superseded zombie that lives until fenced.
    [Corrupt_storage] flips the seals of the newest journal records and,
    optionally, of every checkpoint.  [Disk_full] forces the journal's
    quota down (emergency compaction, then journaled-degraded mode) and
    lifts it at [until_t]. *)

val cancel : t -> reason:string -> unit
(** Graceful external cancellation (deadline expiry, preemption, operator
    abort): terminates the run with a clean [Unknown reason] verdict —
    reservations released, the verdict journaled, Stop broadcast to every
    surviving client.  If the master is down when the cancel lands (a
    deadline racing a crash-failover window), a replacement is restarted
    first so the Stop actually reaches the clients.  No-op once
    finished. *)

val journal : t -> Journal.t
(** The master's write-ahead journal (for tests and bench: replay
    determinism, append/compaction counters).  After a promotion this is
    the standby's shadow journal — the shipped prefix that took over as
    the authoritative log. *)

val epoch : t -> int
(** The current master epoch: 0 until a promotion bumps it.  Stamped into
    every outgoing integrity frame so stale-primary traffic is
    recognisable fleet-wide. *)

val promoted : t -> bool
(** Whether the hot standby has taken this run over. *)

val events_so_far : t -> Events.t list

val schedule : t -> delay:float -> (unit -> unit) -> unit
(** Schedules an action on the run's simulator clock.  Used by tests and
    examples to inject failures or observe the run at chosen instants. *)

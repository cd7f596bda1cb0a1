(** The GridSAT master (paper Section 3.3).

    The master owns the resource pool, launches empty clients, assigns the
    initial problem to the first registrant, brokers splits (including the
    backlog of denied requests, served longest-running-first), relays
    clause shares, directs migrations toward stronger idle resources,
    verifies reported models, submits/cancels the batch job, and decides
    termination: all subproblems exhausted means UNSAT, a verified model
    means SAT, and the overall timeout or an unrecoverable client death
    means no answer.

    Fault tolerance: the master runs a lease-based failure detector over
    client heartbeats ([heartbeat_period] / [suspect_timeout]); a silent
    monitored host is declared dead and its subproblem recovered from its
    checkpoint (or from the master's own in-flight copy) onto an idle
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
    endpoint off the bus; {!restart_master} replays the journal, asks the
    surviving clients to resync, and after a grace window reconciles —
    adopting work the clients still hold, re-homing orphans from
    checkpoints or lineage, and fencing journal-dead hosts. *)

type answer = Sat of Sat.Model.t | Unsat | Unknown of string

type result = {
  answer : answer;
  time : float;  (** virtual seconds from start to termination *)
  max_clients : int;  (** peak number of simultaneously busy clients *)
  splits : int;
  share_batches : int;
  shared_clauses : int;
  messages : int;
  bytes : int;
  dropped_messages : int;  (** messages eaten by injected faults *)
  dropped_bytes : int;
  retries : int;  (** reliable-channel retransmissions, all senders *)
  false_suspicions : int;
      (** suspected-dead hosts that later proved alive (and were fenced) *)
  recoveries : int;  (** subproblems recovered from a checkpoint *)
  rederivations : int;
      (** lost subproblems rebuilt from the original CNF + journaled lineage *)
  master_crashes : int;  (** injected master failures survived *)
  hedges : int;
      (** straggling subproblems cloned onto a second host (first result
          wins, the loser is cancelled and fenced) *)
  hedge_cancellations : int;
      (** losing hedge copies fenced after their pid resolved elsewhere *)
  checkpoint_bytes : int;
  corrupt_detected : int;
      (** wire payloads that failed their integrity-frame digest check
          (at any endpoint) and were refused *)
  nacks : int;
      (** corrupt reliable envelopes NACKed for immediate retransmit *)
  certified_fragments : int;
      (** UNSAT fragments whose DRUP proof checked under the branch's
          recorded guiding path (certify mode) *)
  quarantines : int;
      (** clients written off because an answer failed verification *)
  checkpoints_discarded : int;
      (** checkpoint snapshots rejected by their at-rest seal *)
  journal_records_dropped : int;
      (** journal records rejected by their at-rest seal during replay *)
  ships : int;  (** journal batches shipped to the hot standby *)
  promotions : int;
      (** standby promotions (0 or 1 with a single standby): the lease on
          the primary expired and the shadow journal took over the run *)
  stale_epoch_rejections : int;
      (** frames refused, at any endpoint, because their epoch predates
          the highest one the receiver had seen — a superseded primary's
          traffic after a partition heal or zombie restart *)
  replication_divergences : int;
      (** standby shadow-log digests that failed to match the primary's
          shipped log digest — must be 0 in any sound run *)
  shares_shed : int;
      (** clause relays refused because a recipient link's share-budget
          window was exhausted (0 without a budget) *)
  share_bytes : int;  (** share-relay bytes actually put on the wire *)
  share_link_peak : int;
      (** most share bytes any one recipient link carried in any single
          budget window — bounded by [Config.share_budget] by
          construction when a budget is set *)
  dup_suppressed : int;
      (** foreign clauses clients refused on ingestion as duplicates *)
  outbox_shed : int;
      (** outage-outbox messages shed by the watermark policy across all
          clients (always share batches, never control messages) *)
  outbox_peak : int;  (** deepest any client's outage outbox ever got *)
  forced_compactions : int;
      (** emergency journal compactions forced by the disk quota *)
  degraded_entries : int;
      (** journal records appended while in journaled-degraded mode *)
  journal_bytes : int;  (** peak estimated journal occupancy in bytes *)
  solver_stats : Sat.Stats.t;  (** aggregated over all clients *)
  events : Events.t list;  (** chronological *)
}

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
    on the master track, and the five-message split sequence is covered
    by a ["split"] span from grant to Split_ok/Split_failed.
    [health] wires a host-health model into scheduling (probation
    withholding, score-blended ranking, hedging/adaptive-timeout
    percentiles); the service passes one shared across runs.  When
    omitted, a private model is created whenever the config enables
    hedging or adaptive timeouts. *)

val finished : t -> bool

val result : t -> result
(** Raises [Invalid_argument] before the run has finished. *)

val busy_clients : t -> int

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

val hang_host : t -> int -> unit
(** Silent fault injection: the process wedges (stops computing and
    heartbeating) but stays registered on the network. *)

val slow_host : t -> int -> float -> unit
(** Silent fault injection: [slow_host t id factor] divides the host's
    per-slice compute budget by [factor] ([1.0] restores full speed).
    The host stays perfectly responsive — heartbeats and acks on time —
    so only the health model's progress-rate signal and the hedging
    comparison against the fleet duration p99 can catch it. *)

val health : t -> Health.t option
(** The health model wired into this run's pool, if any. *)

val set_journal_quota : t -> quota:int -> unit
(** Fault injection / operations: change the journal's disk quota at run
    time (0 lifts it).  Crossing the quota forces an emergency compaction
    and, if the journal is still over, enters journaled-degraded mode
    (durability alert logged, anomaly tripped, standby shipment paused);
    relief or shrinkage exits it.  This is the [Fault.Disk_full] hook. *)

val resource_pressure : t -> bool
(** Whether the run is under resource pressure right now: the journal is
    in degraded mode, a client's outage outbox is latched above its high
    watermark, or the share budget shed within the last window.  A
    service-brownout input. *)

val corrupt_storage : t -> journal_records:int -> checkpoints:bool -> unit
(** At-rest fault injection: flips the integrity seals of the newest
    [journal_records] journal records and, if [checkpoints], of every
    checkpoint snapshot.  Silent until a replay scrubs the journal tail
    or a recovery discards the snapshot and falls back to lineage
    re-derivation. *)

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

val restart_master : t -> unit
(** Failure injection: a replacement master starts.  It replays the
    journal, re-registers the endpoint, sends {!Protocol.Resync_request}
    to every not-known-dead client, and after [resync_grace] reconciles:
    subproblems the clients still hold are adopted, orphans are re-homed
    from their last holder's checkpoint or re-derived from lineage, and
    dispatching resumes.  No-op unless currently down — except after a
    standby promotion, where the restarted process is a superseded
    zombie: it rejoins at its old epoch and lives only until the first
    new-epoch frame fences it. *)

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

val replica : t -> Replica.t option
(** The hot-standby replica, when the config enables [standby] (for
    tests: applied counts, divergences, the shadow journal). *)

val events_so_far : t -> Events.t list

val schedule : t -> delay:float -> (unit -> unit) -> unit
(** Schedules an action on the run's simulator clock.  Used by tests and
    examples to inject failures or observe the run at chosen instants. *)

(** GridSAT run configuration.

    The defaults correspond to the paper's first experiment set
    (Section 4): learned clauses of length at most 10 are shared, a client
    asks for a split after running for twice its problem-transfer time
    (never less than 100 s), and the run aborts after 6000 s. *)

type scheduler_policy =
  | Nws_rank  (** rank idle resources by NWS forecast x speed and memory (the paper's scheduler) *)
  | Random_pick  (** ablation: pick an idle resource uniformly at random *)
  | First_fit  (** ablation: pick the first idle resource by id *)

type checkpoint_mode = No_checkpoint | Light | Heavy
(** Section 3.4: [Light] persists only root-level assignments; [Heavy]
    additionally persists the learned clauses. *)

type t = {
  share_max_len : int;  (** maximum length of shared learned clauses (paper: 10 or 3) *)
  split_timeout : float;  (** floor for the run-time split heuristic, seconds (paper: 100) *)
  overall_timeout : float;  (** give up after this much virtual time (paper: 6000/12000) *)
  slice : float;  (** compute-slice quantum in virtual seconds *)
  share_flush_interval : float;  (** how often a client broadcasts fresh short clauses *)
  mem_headroom : float;  (** request a split when the DB exceeds this fraction of the budget *)
  min_client_memory : int;  (** hosts below this memory refuse to run a client (paper: 128 MB) *)
  scheduler : scheduler_policy;
  nws_probe_interval : float;  (** how often the master samples host availability *)
  migration_enabled : bool;
  checkpoint : checkpoint_mode;
  checkpoint_period : float;
      (** how often a busy client persists its state (virtual seconds), so
          it stays recoverable even if it never splits *)
  heartbeat_period : float;  (** client liveness beacon interval *)
  suspect_timeout : float;
      (** lease length of the master's failure detector: a monitored host
          silent for longer is declared dead and its work recovered.  Must
          comfortably exceed [heartbeat_period]. *)
  retry_base : float;  (** first backoff delay of the reliable channel *)
  retry_max_attempts : int;
      (** reliable sends abandoned after this many unacked transmissions *)
  hedge : bool;
      (** straggler hedging: when a subproblem's elapsed time exceeds the
          fleet's p99 solve duration and an idle healthy host exists, the
          master dispatches a second copy of the same branch; the first
          result wins and the loser is cancelled (both copies share one
          pid, so accounting stays exactly-once).  Hedging also adapts the
          failure-detector lease and the retry base to latency
          percentiles (heartbeat-gap p99, ack p99), never past the
          configured [suspect_timeout]/[retry_base]. *)
  portfolio : bool;
      (** portfolio mode, the contrast to search-space splitting: every
          host that registers after the first assignment receives a copy
          of the whole problem (the root pid) as a hedge copy, and no
          split is ever granted, since the pid stays hedged.  Copies
          differ by their solver seed ([seed + client id]) and share
          short clauses; the first model or refutation ends the run and
          the other copies are fenced as hedge losers. *)
  journal_compact_every : int;
      (** fold the master's write-ahead journal into a snapshot every this
          many entries (bounds replay work after a master crash) *)
  resync_grace : float;
      (** how long a restarted master waits for client [Resync] reports
          before treating unclaimed live subproblems as orphans *)
  certify : bool;
      (** distributed UNSAT certification: clients log DRUP proofs and
          attach the fragment to [Finished_unsat]; the master RUP-checks
          every fragment against the original formula under the branch's
          journaled guiding path before tombstoning it, and quarantines
          clients whose answers fail.  Requires [share_max_len = 0]
          (foreign clauses are not locally derivable, so sharing runs
          cannot produce checkable per-branch proofs). *)
  standby : bool;
      (** hot-standby master replication: the master ships its journal
          records to a shadow replica that continuously verifies its
          log digest against the primary's; when the standby's lease
          on the primary expires it bumps the master epoch and promotes
          itself, reconciling through the normal resync path — clients
          are redirected, not restarted *)
  ship_sync : bool;
      (** ship every journal record the moment it is appended (zero
          replication lag at the cost of one wire message per append)
          instead of batching on [ship_interval].  Requires [standby]. *)
  ship_interval : float;
      (** how often (virtual seconds) the primary flushes the pending
          journal records to the standby in async ship mode; an empty
          batch is still shipped so the shipment stream doubles as the
          standby's liveness signal on an idle master *)
  standby_lease : float;
      (** how long the standby tolerates silence from the primary before
          promoting itself.  Must comfortably exceed [heartbeat_period]
          (the ship stream ticks at [ship_interval] <= lease). *)
  share_budget : int;
      (** per-link clause-sharing byte budget per [share_window] of
          virtual time (HordeSat-style bandwidth cap).  When a relay
          would exceed a recipient link's budget, the longest (lowest
          value) clauses are shed first and counted; 0 disables the
          budget and restores unconditional broadcast. *)
  share_window : float;
      (** length (virtual seconds) of the clause-sharing budget window *)
  journal_quota : int;
      (** disk quota (estimated bytes) for the master's write-ahead
          journal.  Crossing it forces an emergency snapshot compaction;
          if the journal is still over quota it enters journaled-degraded
          mode (durability alert, replica shipping paused) instead of
          raising.  0 disables the quota. *)
  outbox_cap : int;
      (** high watermark of a client's master-outage outbox, which holds
          share batches only: beyond this depth the biggest are shed
          (control messages wait on the reliable stream instead) *)
  solver_config : Sat.Solver.config;
  seed : int;
}

val default : t

val experiment_set_1 : t
(** Share length 10, 100 s split timeout, 6000 s overall — Table 1 solvable runs. *)

val experiment_set_2 : t
(** Share length 3 — Table 2 runs (the harder instances). *)

val validate : t -> (unit, string) result
(** Rejects inconsistent configurations with a descriptive message:
    non-positive periods/timeouts, [suspect_timeout <= heartbeat_period]
    (every healthy client would be declared dead), [retry_max_attempts <
    1], [mem_headroom] outside [(0, 1]], [certify] with clause
    sharing enabled, [ship_sync]
    without [standby], non-positive [ship_interval], [standby_lease]
    not exceeding [heartbeat_period], negative [share_budget] or
    [journal_quota], non-positive [share_window], [outbox_cap < 1], and
    similar contradictions that would silently wedge or corrupt a run. *)

val validate_exn : t -> unit
(** Raises [Invalid_argument] where {!validate} returns [Error].  Called
    by the {!Gridsat} entry points before a run starts. *)

(** Deterministic, seeded fault injection (paper Section 3.3's premise).

    Grid resources are unreliable: clients die, batch partitions expire,
    and wide-area links are slow and lossy.  A fault {e plan} scripts such
    conditions against the {!Sim} clock so a run can be subjected to the
    same faults, in the same order, on every execution:

    - {!Crash_host}: the host process dies silently at time [at] — nothing
      tells the master; it must {e detect} the death (missed heartbeats).
    - {!Hang_host}: the host stops responding at [at] but is not known
      dead (a wedged process or an unreachable NAT'd node).
    - {!Drop_messages}: each message on a link (either direction; [None]
      matches any site) is lost with probability [p] during a window.
    - {!Partition_site}: every message crossing the site boundary is lost
      during the window (an expired reservation, a downed uplink).
    - {!Latency_spike}: messages on a link arrive [extra] seconds late
      during the window.
    - {!Duplicate_messages}: each message is delivered twice with
      probability [p] (retransmission storms); the receiver-side dedup of
      the reliable-delivery layer must absorb the copies.

    Crash/hang actions are scheduled on the simulator when the plan is
    {!arm}ed; message faults are evaluated per send through
    {!Everyware.set_fault} with a private seeded RNG, so the whole run
    stays reproducible. *)

type spec =
  | Crash_host of { host : int; at : float }
  | Hang_host of { host : int; at : float }
  | Crash_master of { at : float; restart_after : float; by_verdict : bool }
      (** the master process dies at [at] (volatile state lost, endpoint
          gone) and a replacement replays the journal [restart_after]
          seconds after [at].  Clients keep solving autonomously in between.
          [restart_after = infinity] means no replacement ever starts —
          the shape used under hot-standby replication, where the
          standby's lease expiry promotes it instead.  With [by_verdict]
          a run that reaches a verdict first has its master die just
          before announcing it ({!verdict_due}). *)
  | Drop_messages of {
      src_site : string option;
      dst_site : string option;
      p : float;
      from_t : float;
      until_t : float;
    }
  | Partition_site of { site : string; from_t : float; until_t : float }
  | Latency_spike of {
      src_site : string option;
      dst_site : string option;
      extra : float;
      from_t : float;
      until_t : float;
    }
  | Duplicate_messages of { p : float; extra : float; from_t : float; until_t : float }
  | Corrupt_messages of {
      src_site : string option;
      dst_site : string option;
      p : float;
      from_t : float;
      until_t : float;
    }
      (** each message on a matching link has its payload garbled in flight
          with probability [p] during the window — the receiver gets the
          message on time, but its content is trash.  A lost message beats a
          garbled one when both fire. *)
  | Corrupt_storage of { at : float; journal_records : int; checkpoints : bool }
      (** at time [at], rot the newest [journal_records] write-ahead journal
          records and (if [checkpoints]) every checkpoint snapshot at rest *)
  | Slow_host of { host : int; at : float; factor : float }
      (** from time [at] on, the host computes [factor]× slower than its
          advertised speed ([factor] > 1 is a straggler; [factor] < 1 a
          speedup).  The host never misses a heartbeat — the slowdown is
          invisible to crash detection and must be caught by the health
          model's progress-rate signal. *)
  | Flaky_host of {
      host : int;
      factor : float;
      period : float;
      from_t : float;
      until_t : float;
    }
      (** oscillating speed: during [[from_t, until_t)] the host alternates
          between [factor]× slowdown (first half of each [period]) and full
          speed (second half); restored to full speed at [until_t]. *)
  | Choke_link of {
      src_site : string option;
      dst_site : string option;
      bytes_per_window : int;
      window : float;
      from_t : float;
      until_t : float;
    }
      (** a saturated link: during the window, each matching link (both
          directions share one ledger — the model is a physical pipe)
          delivers at most [bytes_per_window] bytes per [window] virtual
          seconds; messages beyond the budget are dropped and counted in
          [choked].  Deterministic — windows are a pure function of
          virtual time, no RNG draw is consumed. *)
  | Disk_full of { at : float; quota : int; until_t : float }
      (** the master's stable storage fills up: at [at] the journal's
          disk quota is forced down to [quota] bytes (emergency
          compaction, then journaled-degraded mode if still over); at
          [until_t] (if finite) the quota is lifted — relief after an
          operator cleaned the disk. *)

type counters = {
  crashes : int;
  hangs : int;
  master_crashes : int;
  dropped : int;  (** messages the plan decided to lose *)
  delayed : int;
  duplicated : int;
  corrupted : int;  (** messages whose payload the plan garbled in flight *)
  storage_corruptions : int;  (** [Corrupt_storage] actions fired *)
  slowdowns : int;  (** slowdown applications ([Slow_host] firings plus [Flaky_host] slow phases) *)
  choked : int;  (** messages dropped because a [Choke_link] byte window was exhausted *)
  disk_fulls : int;  (** [Disk_full] actions fired (relief events are not counted) *)
}

type t

val arm :
  sim:Sim.t ->
  seed:int ->
  on_crash:(int -> unit) ->
  on_hang:(int -> unit) ->
  ?on_master_crash:(unit -> unit) ->
  ?on_master_restart:(unit -> unit) ->
  ?on_storage_corrupt:(journal_records:int -> checkpoints:bool -> unit) ->
  ?on_slow:(int -> float -> unit) ->
  ?on_disk_full:(quota:int -> unit) ->
  spec list ->
  t
(** Schedules the plan's crash/hang actions on [sim] and returns the
    controller whose {!decide} implements the message faults.  [on_crash]
    and [on_hang] receive the host id at the scripted instant;
    [on_master_crash] / [on_master_restart] (default no-ops) fire at a
    {!Crash_master} spec's [at] and [at +. restart_after];
    [on_storage_corrupt] (default no-op) fires at a {!Corrupt_storage}
    spec's [at] with the spec's scope; [on_slow] (default no-op) receives
    [(host, factor)] at every {!Slow_host} / {!Flaky_host} speed change
    ([factor = 1.0] restores full speed); [on_disk_full] (default no-op)
    fires at a {!Disk_full} spec's [at] with the injected quota and again
    at [until_t] with [quota = 0] (relief). *)

val decide :
  t -> src_site:string -> dst_site:string -> bytes:int -> Everyware.fault_decision
(** The {!Everyware.set_fault} hook for this plan. *)

val verdict_due : t -> unit
(** The master is about to announce a verdict: fire each [by_verdict] crash not yet fired. *)

val counters : t -> counters
(** How many faults the plan has injected so far. *)

val validate : spec list -> (unit, string) result
(** Rejects malformed plans with a descriptive message: probabilities
    outside [[0, 1]], windows whose [until_t] precedes [from_t], negative
    times, delays or record counts, non-positive slowdown factors or
    periods, and overlapping {!Slow_host}/{!Flaky_host} windows on one
    host (the last toggle would win, making the schedule ambiguous).
    [Gridsat_core.Master.arm_faults], the one place a plan is armed, calls
    it first. *)

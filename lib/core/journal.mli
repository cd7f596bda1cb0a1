(** The master's write-ahead journal (durability layer).

    Every master state transition that matters for recovery — client
    registration, problem assignment, split grants and completions,
    clause-share accounting, suspicion, death, adoption, verdict — is
    appended to the journal {e before} the transition's messages go out.
    The journal models the master's stable storage: a crashed master loses
    all volatile state (reservations, in-flight transfers, backlogs) but
    the journal survives, and {!replay} folds it back into the state a
    restarted master needs to resume the run.

    Entries pending since the last snapshot are folded into a base
    snapshot every [compact_every] appends, bounding replay work — the
    classical WAL + checkpoint compaction scheme.

    Replay is deterministic: {!digest} renders the replayed state in
    canonical (sorted) order, so two replays of the same journal always
    produce identical digests.

    Beside the state, the journal keeps a rolling {!log_digest} of the
    log itself: each {!append} chains the entry's position and the two
    digests of its sealing pass into it, at O(1) cost.  Journal
    shipping compares log digests, never replayed state. *)

(** Re-export of {!Protocol.journal_entry}: the constructors are defined
    on the protocol side so a {!Protocol.Ship} message can carry entries
    to a hot-standby replica, but the journal remains the authority on
    their meaning. *)
type entry = Protocol.journal_entry =
  | Registered of { client : int }
  | Assigned of { pid : Protocol.pid; dst : int; path : Sat.Types.lit list }
      (** the master sent [pid] (with guiding-path lineage [path]) to [dst] *)
  | Started of { pid : Protocol.pid; client : int }
      (** [client] confirmed it is working on [pid] *)
  | Granted of { requester : int; partner : int }
  | Split of {
      donor : int;
      donor_pid : Protocol.pid;
      donor_path : Sat.Types.lit list;
      pid : Protocol.pid;
      dst : int;
      path : Sat.Types.lit list;
    }
      (** a completed split: the donor kept [donor_pid] (its lineage grew
          to [donor_path]) and handed the complementary branch [pid] with
          lineage [path] to [dst] *)
  | Refuted of { pid : Protocol.pid }
  | Shared of { clauses : int }
  | Suspected of { client : int }
  | Died of { client : int }
  | Adopted of { pid : Protocol.pid; client : int; path : Sat.Types.lit list }
      (** reconciliation: a resyncing client reported live work *)
  | Verdict of { answer : string }

type client_state = Alive | Dead

type state = {
  clients : (int, client_state) Hashtbl.t;
  live : (Protocol.pid, Sat.Types.lit list) Hashtbl.t;
      (** every unrefuted subproblem and its guiding-path lineage — enough
          to re-derive the subproblem from the original CNF *)
  holder : (Protocol.pid, int) Hashtbl.t;  (** last known holder of each live pid *)
  refuted : (Protocol.pid, unit) Hashtbl.t;
      (** tombstones: every pid ever refuted.  Pids are never reused, so a
          registration entry for a tombstoned pid is ignored on replay —
          a [Refuted] that was journaled before a reordered [Split] or
          [Adopted] entry must not resurrect the subproblem. *)
  mutable problem_assigned : bool;
  mutable splits : int;
  mutable share_batches : int;
  mutable shared_clauses : int;
  mutable verdict : string option;
}

type t

val create : ?obs:Obs.t -> ?quota:int -> compact_every:int -> unit -> t
(** [obs] (default [Obs.disabled]) receives append/compaction counters,
    an occupancy gauge, and a compaction instant-span on the master
    track.  [quota] (estimated bytes, default 0 = unlimited) is the disk
    quota enforced by {!append}/{!set_quota}. *)

val append : t -> entry -> unit
(** Appends one entry, compacting into the snapshot when [compact_every]
    entries have accumulated since the last compaction. *)

val replay : t -> state
(** Snapshot plus pending entries, folded into a fresh state.  Records
    whose at-rest integrity seal no longer matches (torn/rotted writes)
    are discarded — and counted in {!records_dropped} — rather than
    folded in as garbage.  Replaying twice yields equal states. *)

val digest : state -> string
(** Canonical hex digest of a replayed state (order-independent). *)

val appended : t -> int
(** Total entries ever appended. *)

val log_digest : t -> string
(** Rolling digest of every entry ever appended, in order: 32 hex
    characters, O(1) to read.  Two journals fed the same entries in the
    same order have equal log digests; dropping, reordering or altering
    an entry changes it.  Entries that leave the replayed state
    unchanged ([Granted], [Suspected]) count too.  It is taken at append
    time, so at-rest rot of the records ({!corrupt_tail}) does not move
    it: that surfaces where the log is read, in {!replay} or a
    compaction. *)

val set_quota : t -> quota:int -> unit
(** Change the disk quota (0 lifts it).  Tightening below the current
    occupancy forces an emergency compaction immediately; if the
    compacted snapshot alone still exceeds the quota the journal enters
    degraded mode.  Relief above the occupancy exits degraded mode. *)

val quota : t -> int

val occupancy : t -> int
(** Estimated on-disk bytes: the snapshot plus the pending records.  The
    estimate is deterministic, so quota crossings replay at the same
    virtual instants under the same seed. *)

val bytes_peak : t -> int
(** Highest occupancy ever observed. *)

val over_quota : t -> bool

val degraded : t -> bool
(** Journaled-degraded mode: occupancy exceeds the quota even after a
    forced compaction.  Appends continue (dropping recovery records
    would be strictly worse than overrunning an advisory quota) but each
    is counted in {!degraded_entries}; the owner is expected to raise a
    durability alert and pause replica shipping until recovery. *)

val degraded_entries : t -> int
(** Entries appended while the journal was in degraded mode. *)

val forced_compactions : t -> int
(** Emergency compactions forced by a quota crossing (in addition to the
    periodic [compact_every] ones, which {!compactions} also counts). *)

val compactions : t -> int
(** How many times pending entries were folded into the snapshot. *)

val entries_since_snapshot : t -> int

val records_dropped : t -> int
(** Pending records discarded because their integrity seal (CRC-32 of the
    canonical rendering, taken at append time) no longer matched. *)

val corrupt_tail : t -> n:int -> unit
(** Fault injection: rot the newest [n] not-yet-compacted records at rest,
    so their seals stop matching.  The next {!replay} or compaction
    discards them. *)

val pp_entry : Format.formatter -> entry -> unit
(** One line per record, e.g. [started 0.1 @ 4] or
    [split 0.1 @ 2 [1 -3] -> 2.1 @ 5 [1 3]]: the bytes whose CRC-32
    seals the record at rest. *)

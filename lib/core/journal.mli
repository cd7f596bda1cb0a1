(** The master's write-ahead journal, and the only writer of its split
    tree.

    Every master state transition that recovery reads — client
    registration, problem assignment, completed splits, refutations,
    deaths, adoptions and the verdict — is appended {e before} the
    transition's messages go out.  Nothing else is: each record kind
    changes the replayed state, and run counts live in the master's
    ledger.  Appending also applies the entry to {!current}: that state
    {e is} the master's split tree (live pids, their lineages and
    holders, tombstones), and the master reads it instead of keeping
    tables of its own.

    The journal models stable storage.  A crashed master loses all
    volatile state (reservations, in-flight transfers, backlogs) but the
    journal survives; recovery is {!recover}, which scrubs rotted records
    and adopts the replayed state.  The seal, scrub, quota and
    log-digest mechanism is {!Sealed_log}'s; this module adds the entry
    type and its meaning, snapshot compaction every [compact_every] appends
    (the classical WAL + checkpoint scheme) and the canonical {!digest}. *)

(** Re-export of {!Protocol.journal_entry}: the constructors are defined
    on the protocol side so a {!Protocol.Ship} message can carry entries
    to a hot-standby replica, but the journal remains the authority on
    their meaning. *)
type entry = Protocol.journal_entry =
  | Registered of { client : int }
  | Assigned of { pid : Protocol.pid; dst : int; path : Sat.Types.lit list }
      (** the master sent [pid] (with guiding-path lineage [path]) to [dst] *)
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
  | Died of { client : int }
  | Adopted of { pid : Protocol.pid; client : int; path : Sat.Types.lit list }
      (** a client reported holding [pid] (on receipt or at resync); in
          certify mode [path] is the lineage the master recorded *)
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
  mutable verdict : string option;
}

type t

val create : ?obs:Obs.t -> ?quota:int -> compact_every:int -> unit -> t
(** A {!Sealed_log} named ["journal"] (so its metrics are [journal.*]),
    plus [journal.compactions], [journal.forced_compactions] and a
    [journal.compact] instant-span on the master track.  [quota] is in
    estimated bytes; 0 (the default) is unlimited. *)

val append : t -> entry -> unit
(** Seals the entry and applies it to {!current}; compacts into the
    snapshot when [compact_every] entries have accumulated since the last
    compaction, and once more (a forced compaction) when the append first
    crosses the quota. *)

val set_quota : t -> quota:int -> unit
(** Tightening below the occupancy forces a compaction at once. *)

include Sealed_log.READ with type t := t and type state := state

val digest : state -> string
(** Canonical digest of a state (order-independent): the word and
    CRC lanes of its sorted tables, as [Joblog.digest] hashes its own. *)

val compactions : t -> int
(** Periodic and forced compactions. *)

val forced_compactions : t -> int

val pp_entry : Format.formatter -> entry -> unit
(** One line per record, e.g. [adopted 0.1 @ 4 []] or
    [split 0.1 @ 2 [1 -3] -> 2.1 @ 5 [1 3]]: the text form of the
    words ({!Protocol.emit_entry}) whose CRC lane seals the record at
    rest. *)

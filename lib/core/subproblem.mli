(** Transferable search subproblems.

    A subproblem is what travels between clients when the search space is
    split or a problem migrates (paper Figure 2): a root assignment — the
    globally valid [facts] plus the guiding-path [path] — and a clause set
    (original clauses and surviving learned clauses, already simplified
    against the root).  The paper reports these messages ranging from
    10 KB to 500 MB; {!bytes} provides the size the network model
    charges for.

    The clause set is one {!Sat.Arena.t}, shared and never mutated: the
    clauses in order, each as it was captured or received — not
    necessarily sorted or duplicate-free.  {!initial} shares the formula's
    own arena; {!capture}, the splits and {!prune} each fill one fresh
    arena; {!to_solver} only reads it. *)

type t = {
  nvars : int;
  facts : Sat.Types.lit list;  (** root literals implied by the global formula *)
  path : Sat.Types.lit list;  (** guiding-path assumptions accumulated by splits *)
  clauses : Sat.Arena.t;
}

val initial : Sat.Cnf.t -> t
(** The whole problem, as handed to the first client.  Copies nothing. *)

val bytes : t -> int
(** Serialised size estimate (what a transfer costs on the network):
    [48 * nclauses + 8 * literals + 8 * (facts + path) + 64].  O(1) in the
    clause set. *)

val nclauses : t -> int

val depth : t -> int
(** Length of the guiding path (number of splits on this branch). *)

val to_solver : config:Sat.Solver.config -> ?obs:Obs.t -> ?obs_tid:int -> t -> Sat.Solver.t
(** Instantiates a solver for the subproblem
    ({!Sat.Solver.create_with_roots}).  The subproblem's arena is only
    read: the solver copies the clauses into its own clause arena,
    normalises there only a clause that is not canonical, and installs
    the others as it copies them.  The solver's storage is what the last
    {!Sat.Solver.release} in this domain left, when it fits. *)

val capture : Sat.Solver.t -> t
(** Snapshot of a solver's current problem (for migration or
    checkpointing): its root assignment and active clauses.  Raises
    [Invalid_argument] if the solver is refuted: it may have stopped
    installing its clauses at the first root conflict, so its clause set
    can be partial and, shipped, could produce a false model. *)

val capture_root : Sat.Solver.t -> t
(** {!capture} without the clause set (an empty arena): only the root
    assignment, which is all a light checkpoint stores.  Copies no
    clauses; raises like {!capture}. *)

val of_lineage : Sat.Cnf.t -> Sat.Types.lit list -> t
(** Re-derives a subproblem from the original formula and its guiding-path
    lineage alone (Figure 2: a branch is fully determined by its ordered
    root assignments).  Root facts and learned clauses are rebuilt by the
    solver, so a branch whose holder {e and} checkpoint are both lost can
    still be reconstructed and requeued instead of aborting the run. *)

val split_from : Sat.Solver.t -> t option
(** Performs the Figure 2 split on a running solver: captures the clause
    set, commits the solver's first-decision branch locally, and returns
    the complementary subproblem (pruned against its own root).  [None]
    if the solver has no decision to split on. *)

val split_pure : origin:t -> Sat.Solver.t -> t option
(** Like {!split_from}, but {e lineage-pure} for certified runs: instead
    of the donor's current clause database (learned clauses, stripped
    literals), the new branch carries [origin]'s clause set — what the
    donor itself originally received — with no root facts, so the
    receiver's entire root state is its guiding path.  Inductively every
    certified transfer stays a subset of the original formula, which is
    what lets the master check the receiver's DRUP fragment against the
    original CNF under the journaled path alone. *)

val capture_pure : origin:t -> Sat.Solver.t -> t
(** Lineage-pure {!capture}: [origin]'s clauses under the solver's current
    guiding path, for migrations during certified runs. *)

val prune : t -> t
(** The paper's "inconsequential clause removal": drops clauses satisfied
    by the root assignment and strips false literals whose negation is a
    root {e fact} (path literals are kept so clauses stay globally
    valid). *)

val emit : Integrity.sink -> t -> unit
(** Writes the wire format to a sink: the one definition behind both
    {!to_string} and the digests that cover a subproblem (frame digests
    of [Problem]/[Orphaned], checkpoint seals). *)

val to_string : t -> string
(** Compact wire format: a DIMACS-like document with [f]/[a] header lines
    for the root facts and guiding-path assumptions.  This is what a
    non-simulated deployment would put on the socket. *)

val of_string : string -> t
(** Parses {!to_string}'s format with {!Sat.Dimacs.Scan}: the header line,
    then one line each for facts ([f]), path ([a]) and every clause, in
    order, as they were written (no normalisation).  Every line ends with a
    single [0]; literals must lie within the header's variable count.
    Whitespace and integers follow {!Sat.Dimacs}: tabs and CRs count as
    blanks, and a line's tag may follow leading blanks.  Raises [Failure],
    and nothing else, on malformed input. *)

val pp : Format.formatter -> t -> unit

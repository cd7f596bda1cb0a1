(** zChaff-class CDCL solver: the sequential core of GridSAT.

    The solver implements the Chaff algorithm as described in Section 2 of
    the paper: DPLL search with two-watched-literal Boolean constraint
    propagation, FirstUIP conflict-driven clause learning with
    non-chronological backjumping, literal-counter VSIDS decisions with
    periodic decay, optional restarts, learned-clause database reduction,
    and root-level formula simplification (the pruning optimisation the
    authors also added to their sequential zChaff baseline).

    Beyond a plain solver it exposes the hooks GridSAT needs:
    - {b steppable execution}: {!run} consumes a propagation budget and can
      return early, which lets the grid simulator interleave many clients
      and lets a client detect memory pressure instead of dying;
    - {b splitting}: {!split} performs the paper's Figure 2 transformation,
      returning the complementary subproblem while committing the local
      first-decision branch;
    - {b clause sharing}: {!drain_shares} exports freshly learned short
      clauses, {!queue_foreign_clauses} accepts clauses from peers which
      are batch-merged at the root level with the paper's four-case rule;
    - {b introspection}: enough visibility into the trail, antecedents and
      conflict analysis to replay the paper's Figure 1 example. *)

type t

type restart_strategy =
  | Luby  (** restart_base times the Luby sequence (the default) *)
  | Geometric of float  (** interval multiplied by the factor each restart *)
  | Fixed  (** every [restart_base] conflicts (zChaff-2001 style) *)

type config = {
  restarts_enabled : bool;
  restart_base : int;  (** conflicts before the first restart *)
  restart_strategy : restart_strategy;
  mem_limit_bytes : int;  (** clause-DB budget; exceeded => [Mem_pressure] *)
  learned_cap_factor : float;
      (** learned clauses are reduced when they exceed
          [learned_cap_factor * original clauses + learned_cap_min] *)
  learned_cap_min : int;
  reduce_db_enabled : bool;
      (** delete low-activity learned clauses when the DB grows.  zChaff-2001
          (the paper's baseline) kept everything until memory ran out; turn
          this off to reproduce its MEM_OUT behaviour. *)
  share_export_max : int;  (** record learned clauses up to this length for export *)
  emit_proof : bool;
      (** log a DRUP proof of every clause derivation; check it with
          {!Drup.check}.  Intended for runs without foreign clause
          injection (foreign clauses are not locally derivable, so proofs
          of sharing runs will not check). *)
  minimize_learned : bool;
      (** shrink learned clauses by self-subsuming resolution (off by
          default: zChaff-2001 did not minimize; ablated in the bench) *)
  phase_saving : bool;
      (** decide variables with their last assigned polarity instead of
          the higher literal score (off by default, likewise ablated) *)
  seed : int;
}

val default_config : config

val create : ?config:config -> ?obs:Obs.t -> ?obs_tid:int -> Cnf.t -> t
(** Builds a solver over the formula.  Unit clauses are asserted at the
    root level and propagated immediately.  [obs] (default
    [Obs.disabled]) receives per-solver metrics and phase spans; [obs_tid]
    is the telemetry track — the owning client's id in grid runs.  The
    formula's clauses are normalised already, so each is only copied. *)

val create_with_roots :
  ?config:config ->
  ?obs:Obs.t ->
  ?obs_tid:int ->
  ?facts:Types.lit list ->
  nvars:int ->
  Arena.t ->
  Types.lit list ->
  t
(** [create_with_roots ~facts ~nvars clauses path] builds a solver over
    the formula of [clauses] without building it: each clause is
    copied into the solver's own clause arena and normalised there
    ({!Arena.normalise_in_place}).  [clauses] is only read, so it may be
    shared (a received subproblem's is).
    It asserts two kinds of literals at decision level 0 — this is how a
    client instantiates a received subproblem (root assignments + clause
    set):
    - [facts] are implied by the global formula (original unit clauses,
      root consequences): they may be freely simplified away;
    - [path] are {e guiding-path assumptions} created by splits: they are
      tracked as tainted, kept inside clauses, and re-introduced into
      learned clauses so that every clause this solver learns — and hence
      every clause it shares — remains valid for the global problem. *)

type outcome =
  | Sat of Model.t
  | Unsat
  | Budget_exhausted  (** the propagation budget ran out; call {!run} again *)
  | Mem_pressure  (** the clause DB exceeds the memory limit even after reduction *)

val run : t -> budget:int -> outcome
(** [run t ~budget] continues the search for at most [budget] propagation
    steps.  The solver retains all state between calls. *)

val solve : ?budget:int -> t -> outcome
(** Convenience wrapper: runs with a very large (or given) budget. *)

val stats : t -> Stats.t

val set_obs_parent : t -> Obs.Span.id -> unit
(** Parent subsequent solver phase spans (reduce-DB, simplify, merges)
    under the given span — the client's per-subproblem solve span. *)

val nvars : t -> int

val decision_level : t -> int

val n_learned : t -> int

val db_bytes : t -> int
(** Estimated clause-database footprint in bytes (literals + per-clause
    overhead), the quantity compared against [mem_limit_bytes]. *)

val is_ok : t -> bool
(** [false] once the solver has derived a root-level conflict. *)

(** {1 Distributed hooks} *)

val drain_shares : t -> max_len:int -> Types.lit array list
(** Learned clauses of length [<= max_len] recorded since the previous
    drain (at most [share_export_max] long ones are recorded at all). *)

val queue_foreign_clauses : t -> Types.lit array list -> unit
(** Queues clauses learned by peers.  They are merged in a batch the next
    time the solver sits at decision level 0 (paper Section 3.2). *)

val pending_foreign : t -> int

val root_lits : t -> Types.lit list
(** The literals currently asserted at decision level 0, in trail order. *)

val root_facts : t -> Types.lit list
(** Root literals implied by the global formula (untainted). *)

val root_path : t -> Types.lit list
(** Root literals that are guiding-path assumptions (tainted). *)

val split : t -> (Types.lit list * Types.lit list) option
(** Performs the Figure 2 split.  Returns [Some (facts, path)] — the root
    assignment of the {e new} subproblem: the donor's root facts, plus the
    donor's guiding path extended with the complement of the donor's first
    decision.  As a side effect the donor commits its whole first decision
    level into its own root (as new guiding-path assumptions).  Returns
    [None] when there is no decision to split on. *)

val active_clauses : t -> Arena.t
(** All live clauses (original + learned), as currently simplified, in
    one fresh arena.  Used to serialise a subproblem for transfer. *)

val split_clauses : t -> Arena.t
(** The clause set a {!split} hands over, to be taken just before it:
    {!active_clauses} without the clauses the complement of the first
    decision satisfies — what pruning them against the new branch's root
    would leave.  Raises [Invalid_argument] at decision level 0. *)

val transfer_bytes : t -> int
(** Size estimate of a subproblem transfer message (root literals + active
    clauses), matching {!db_bytes} accounting. *)

(** {1 Introspection (Figure 1 replay and tests)} *)

type conflict_info = {
  conflicting_clause : Types.lit array;
  conflicting_var : int;
  implication_graph : (int * int * Types.lit array option) list;
      (** assigned (var, level, antecedent clause) at the moment of conflict,
          in trail order; [None] antecedent marks a decision or root unit *)
  learned : Types.lit array;  (** the FirstUIP learned clause; element 0 asserts *)
  uip_var : int;
  backjump_level : int;
}

val value_of_var : t -> int -> Types.value

val level_of_var : t -> int -> int
(** Decision level of an assigned variable; raises [Invalid_argument] if
    the variable is unassigned. *)

val antecedent_of_var : t -> int -> Types.lit array option
(** The clause that implied the variable, [None] for decisions/root units
    or unassigned variables. *)

val trail_literals : t -> Types.lit list
(** The trail in assignment order. *)

val decide_manual : t -> Types.lit -> unit
(** Opens a new decision level and assigns the literal.  Raises
    [Invalid_argument] if the variable is already assigned or propagation
    is pending. *)

val propagate_manual : t -> [ `Ok | `Conflict of conflict_info ]
(** Propagates to fixpoint.  On conflict, performs FirstUIP analysis,
    backjumps, records the learned clause, and returns the full
    {!conflict_info}, implication graph included. *)

val proof : t -> Drup.t
(** The DRUP proof logged so far (empty unless [emit_proof] is set).
    After an {!outcome} of [Unsat], [Drup.check] on the original formula
    and this proof independently certifies the answer. *)

(** Immutable CNF formulas.

    A formula is a conjunction of clauses over variables [1 .. nvars];
    each clause is an array of encoded literals (see {!Types}).  Building a
    formula normalises every clause: duplicate literals are removed and
    tautological clauses (containing both [l] and [~l]) are dropped.  An
    empty clause is kept — it makes the formula trivially unsatisfiable. *)

type t

val make : nvars:int -> int list list -> t
(** [make ~nvars clauses] builds a formula from DIMACS-style clauses
    (signed nonzero integers).  Raises [Invalid_argument] if a literal
    mentions a variable outside [1 .. nvars] or is zero. *)

val of_lit_arrays : nvars:int -> Types.lit array list -> t
(** Builds a formula from already-encoded literal arrays (normalised the
    same way as {!make}). *)

val normalise : nvars:int -> Types.lit array -> Types.lit array option
(** [normalise ~nvars lits] is one clause as every constructor here
    stores it: a fresh array of its distinct literals in strictly
    increasing order, or [None] if it is a tautology.  [lits] itself is
    only read.  Raises [Invalid_argument] like {!make} on a literal
    outside [1 .. nvars]. *)

val nvars : t -> int

val nclauses : t -> int

val clauses : t -> Types.lit array list
(** The normalised clauses, each strictly increasing (see {!normalise}).
    The returned arrays must not be mutated. *)

val iter : (Types.lit array -> unit) -> t -> unit

val nliterals : t -> int
(** Total number of literal occurrences. *)

val dropped_tautologies : t -> int
(** How many input clauses were dropped as tautologies during
    normalisation. *)

val has_empty_clause : t -> bool

val eval : t -> bool array -> bool
(** [eval t assignment] evaluates the formula under a total assignment
    ([assignment.(v)] is the value of variable [v]; index 0 unused). *)

val clause_eval : Types.lit array -> bool array -> bool
(** Evaluates a single clause under a total assignment. *)

val with_extra_clauses : t -> Types.lit array list -> t
(** [with_extra_clauses t cs] is [t] conjoined with [cs]. *)

val pp : Format.formatter -> t -> unit
(** Human-readable summary (variable/clause counts and the clauses). *)

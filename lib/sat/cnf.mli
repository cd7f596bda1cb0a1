(** Immutable CNF formulas.

    A formula is a conjunction of clauses over variables [1 .. nvars],
    held as one {!Arena.t} in input order.  Every clause is normalised in
    place as it is added: its literals sorted into strictly increasing
    order, duplicates removed, and a tautology (containing both [l] and
    [~l]) dropped.  An empty clause is kept — it makes the formula
    trivially unsatisfiable. *)

type t

type builder
(** A formula being read clause by clause, as {!Dimacs} does: the one
    builder behind every constructor here. *)

val builder : nvars:int -> clauses:int -> lits:int -> builder
(** An empty formula with room for about this many clauses and literals.
    Raises [Invalid_argument] if [nvars] is negative. *)

val buffer : builder -> Arena.buf
(** The arena the builder fills, for a reader that writes literals in
    place ({!Arena.close_normalised_at}). *)

val add : builder -> Types.lit -> unit

val end_clause : builder -> unit
(** Ends the clause of the literals added since the previous end,
    normalising it.  Raises [Invalid_argument] like {!make}. *)

val build : builder -> t
(** The formula; the builder must not be used again. *)

val make : nvars:int -> int list list -> t
(** [make ~nvars clauses] builds a formula from DIMACS-style clauses
    (signed nonzero integers).  Raises [Invalid_argument] if a literal
    mentions a variable outside [1 .. nvars] or is zero. *)

val of_lit_arrays : nvars:int -> Types.lit array list -> t
(** Builds a formula from already-encoded literal arrays (normalised the
    same way as {!make}). *)

val with_extra_clauses : t -> Types.lit array list -> t
(** [with_extra_clauses t cs] is [t] conjoined with [cs]. *)

val normalise : nvars:int -> Types.lit array -> Types.lit array option
(** [normalise ~nvars lits] is {!Arena.normalise} of the whole array. *)

val nvars : t -> int

val nclauses : t -> int

val clauses : t -> Arena.t
(** The normalised clauses themselves, shared: O(1). *)

val nliterals : t -> int

val dropped_tautologies : t -> int

val has_empty_clause : t -> bool

val eval : t -> bool array -> bool
(** [eval t assignment] evaluates the formula under a total assignment
    ([assignment.(v)] is the value of variable [v]; index 0 unused). *)

val clause_eval : Types.lit array -> bool array -> bool
(** Evaluates a single clause under a total assignment. *)

val pp : Format.formatter -> t -> unit
(** Human-readable summary (variable/clause counts and the clauses). *)

(** Basic types shared across the solver: literal encoding and truth values.

    Variables are positive integers [1 .. nvars].  Literals use the minisat
    encoding: the positive literal of variable [v] is [2 * v], the negative
    literal is [2 * v + 1].  This lets every literal index directly into
    arrays of size [2 * (nvars + 1)]. *)

type lit = int
(** An encoded literal.  Always [>= 2] for a valid variable. *)

type value = True | False | Unknown
(** Truth value of a variable or literal. *)

val pos : int -> lit
(** [pos v] is the positive literal of variable [v]. *)

val neg : int -> lit
(** [neg v] is the negative literal of variable [v]. *)

val lit_of_int : int -> lit
(** [lit_of_int i] converts a DIMACS-style signed integer ([i <> 0]) to a
    literal: positive integers map to positive literals. *)

val to_int : lit -> int
(** [to_int l] is the DIMACS-style signed integer for [l]. *)

val var : lit -> int
(** [var l] is the variable of [l]. *)

val is_pos : lit -> bool
(** [is_pos l] is [true] iff [l] is a positive literal. *)

val negate : lit -> lit
(** [negate l] is the complementary literal of [l]. *)

val lit_value : value -> lit -> value
(** [lit_value v l] is the value of literal [l] given that its variable has
    value [v]. *)

val pp_clause : Format.formatter -> lit array -> unit
(** Prints a clause as a disjunction of DIMACS literals, e.g. [(1 | -3 | 4)]. *)

val sort_lits : lit array -> unit
(** Sorts the array in place into ascending order, allocating nothing.
    Duplicates are kept. *)

val sort_sub : lit array -> int -> int -> unit
(** [sort_sub a pos len] is {!sort_lits} on [a.(pos .. pos + len - 1)]. *)

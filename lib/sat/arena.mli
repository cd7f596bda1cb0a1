(** Clause sets as one flat array: the one clause representation.

    Formulas, subproblems in transit and a solver's active clauses are all
    arenas: every clause's literals back to back in [lits], clause [k] at
    [lits.(starts.(k) .. starts.(k + 1) - 1)], with [starts.(0) = 0] and
    [Array.length starts = nclauses + 1].  Arenas are shared and never
    mutated: a reader that keeps or changes a clause copies it. *)

type t = { lits : Types.lit array; starts : int array }

val empty : t

val nclauses : t -> int

val nlits : t -> int

val clause : t -> int -> Types.lit array
(** A fresh copy of clause [k]. *)

val normalise : nvars:int -> Types.lit array -> int -> int -> Types.lit array option
(** [normalise ~nvars a pos len] is the clause [a.(pos .. pos + len - 1)]
    as formulas store it: a fresh array of its distinct literals in
    strictly increasing order, or [None] for a tautology.  Raises
    [Invalid_argument] naming the first literal outside [1 .. nvars]. *)

val normalise_in_place : nvars:int -> Types.lit array -> int -> int -> int
(** [normalise_in_place ~nvars a s e] normalises [a.(s .. e - 1)] as
    {!normalise} does, in place: its distinct literals, in strictly
    increasing order, end up in [a.(s .. r - 1)] and [r] is returned, or
    [-1] for a tautology.  Raises as {!normalise} does. *)

(** {1 Building} *)

type buf
(** An arena being filled: literals are pushed, and each close ends a
    clause. *)

val buffer : clauses:int -> lits:int -> buf
(** An empty buffer with room for this many clauses and literals; it
    grows past them.  Up to 2{^20} literals it is this domain's one
    reused buffer whenever no unfinished build holds it, so a build
    allocates little more than the two arrays {!contents} copies out. *)

val push : buf -> Types.lit -> unit

val push_slice : buf -> Types.lit array -> int -> int -> unit
(** [push_slice b a pos n] pushes [a.(pos .. pos + n - 1)]. *)

val close : buf -> unit
(** Ends the clause of the literals pushed since the previous close. *)

val close_normalised : nvars:int -> buf -> unit
(** {!close} after normalising the clause in place, as {!normalise} does;
    a tautology is discarded and counted in {!dropped}. *)

(** {2 Writing in place}

    A reader that decodes literals itself writes the open clause straight
    into the buffer's storage, from the end of the closed clauses on, and
    keeps its end in a local until it closes the clause. *)

val storage : buf -> Types.lit array
(** The array the literals are stored in; only {!grow_storage} replaces it. *)

val grow_storage : buf -> int -> Types.lit array
(** [grow_storage b e] doubles the storage, keeping its first [e] literals
    (the closed clauses and the open one up to [e]), and returns it. *)

val close_at : buf -> int -> unit
(** [close_at b e] is {!close} of the open clause written up to [e]. *)

val close_normalised_at : nvars:int -> buf -> int -> int
(** {!close_normalised} of the open clause written up to [e]; returns the
    new end of the closed clauses, where the next clause starts. *)

val dropped : buf -> int

val contents : buf -> t
(** The closed clauses, copied out.  The buffer must not be used again. *)

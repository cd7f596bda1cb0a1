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

(** {1 Spare storage}

    Builds that make the same arrays over and over (the build buffer
    below, a solver's clause arena and per-variable arrays, the verdict
    cache's digest scratch) lend them to each other through one store
    per domain.  A slot holds at most 2 spares, of at most 2{^20} words
    in all; a spare's contents are whatever its last user left. *)

type 'a slot

val slot : ('a -> int) -> 'a slot
(** A new slot whose spares weigh this many words each, empty in every
    domain; made once, at module initialisation. *)

val take : 'a slot -> ('a -> bool) -> 'a option
(** The newest of this domain's spares in the slot that passes the test,
    taken out of the slot, if there is one. *)

val give : 'a slot -> 'a -> unit
(** Adds a spare to the slot, unless the slot is full.  Whoever gives a
    value no longer reads or writes it. *)

val ints : unit -> int array slot
(** A slot of int arrays, weighed by their length. *)

val take_ints : int array slot -> int -> int array
(** [take_ints s n] is a spare of at least [n] words from [s], or else a
    new array of [n] zeros. *)

(** {1 Building} *)

type buf
(** An arena being filled: literals are pushed, and each close ends a
    clause. *)

val buffer : clauses:int -> lits:int -> buf
(** An empty buffer with room for this many clauses and literals; it
    grows past them.  Its two arrays are taken from spare slots and given
    back by {!contents}, so a build allocates little more than the two
    arrays {!contents} copies out. *)

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
(** The closed clauses, copied out.  The buffer must not be used again:
    its arrays are given back to the spare slots. *)

(** Indexed binary max-heap over variables, used for VSIDS decision order.

    The heap stores variable indices and orders them by a caller-owned
    float key per variable (normally the VSIDS activity).  Because keys
    change while a variable sits in the heap, the owner must call
    {!increase} after every key rise and {!rebuild} after lowering keys. *)

type t

val create : nvars:int -> key:float array -> t
(** [create ~nvars ~key] makes an empty heap able to hold variables
    [1 .. nvars], popping the variable with the largest [key.(v)] first.
    The heap reads [key] in place and never writes it.  Ties keep no
    particular order, but the same operations on the same keys always
    pop the same sequence. *)

val insert : t -> int -> unit
(** Inserts a variable; no-op if already present. *)

val mem : t -> int -> bool

val is_empty : t -> bool

val size : t -> int

val remove_max : t -> int
(** Pops the greatest variable.  Raises [Not_found] when empty. *)

val increase : t -> int -> unit
(** Restores heap order after the key of a member variable rose (or
    stayed put) by sifting it up; no-op if the variable is not in the
    heap.  A key that fell needs {!rebuild}. *)

val rebuild : t -> unit
(** Re-heapifies the whole structure (after a global score rescale). *)

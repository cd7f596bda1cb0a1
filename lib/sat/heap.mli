(** Indexed binary max-heap over variables, used for VSIDS decision order.

    The heap stores variable indices and orders them by a caller-owned
    float key per variable (normally the VSIDS activity).  Because keys
    change while a variable sits in the heap, the owner must call {!update}
    after every key change. *)

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

val update : t -> int -> unit
(** Restores heap order after the score of a member variable changed;
    no-op if the variable is not in the heap. *)

val rebuild : t -> unit
(** Re-heapifies the whole structure (after a global score rescale). *)

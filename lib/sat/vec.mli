(** Growable arrays used throughout the solver's hot paths.

    A deliberately small imperative vector: amortised O(1) push, O(1)
    random access, and in-place compaction helpers used by the trail,
    the clause lists and the conflict-analysis buffers.  A [dummy]
    element fills unused capacity so the implementation never needs
    [Obj.magic]. *)

type 'a t

val create : ?capacity:int -> 'a -> 'a t
(** [create dummy] makes an empty vector whose spare slots hold [dummy]. *)

val size : 'a t -> int

val is_empty : 'a t -> bool

val get : 'a t -> int -> 'a
(** [get t i] is element [i]; raises [Invalid_argument] out of bounds. *)

val set : 'a t -> int -> 'a -> unit

val push : 'a t -> 'a -> unit

val pop : 'a t -> 'a
(** Removes and returns the last element; raises [Invalid_argument] if empty. *)

val last : 'a t -> 'a

val clear : 'a t -> unit
(** Logically empties the vector (keeps capacity, overwrites with dummy). *)

val shrink : 'a t -> int -> unit
(** [shrink t n] keeps the first [n] elements. *)

val swap_remove : 'a t -> int -> unit
(** [swap_remove t i] removes element [i] in O(1) by moving the last
    element into its place. *)

val iter : ('a -> unit) -> 'a t -> unit

val iteri : (int -> 'a -> unit) -> 'a t -> unit

val fold : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc

val exists : ('a -> bool) -> 'a t -> bool

val to_list : 'a t -> 'a list

val of_list : 'a -> 'a list -> 'a t
(** [of_list dummy xs] builds a vector from [xs]. *)

val copy : 'a t -> 'a t

(** Content digests for integrity checking.

    Everything the distributed layer persists or puts on the wire can be
    corrupted: message payloads in flight, checkpoint snapshots and
    journal records at rest.  This module provides the two digests the
    stack seals records with, both dependency-free and deterministic:

    - {!fnv1a}, a 64-bit FNV-1a hash (truncated to OCaml's native int),
      used for in-flight message frames ({!Protocol.frame}) where speed
      matters and the adversary is random bit rot, not malice;
    - {!crc32}, the standard reflected CRC-32 (polynomial 0xEDB88320),
      used for at-rest records (journal entries, checkpoint snapshots)
      where we mirror what a storage layer would do.

    Records are digested by streaming their canonical bytes into a
    {!hasher}, never by rendering them to a string first.  Each record
    format has one byte emitter, written against a {!sink}: the same
    emitter feeds a hasher for digests and a buffer for the text form.

    A digest detects corruption; it does not authenticate.  Certification
    of {e answers} (which must not trust the sender at all) is the job of
    DRUP checking and model re-evaluation, not of this module. *)

(** {1 Incremental hashing} *)

type hasher
(** Running FNV-1a and CRC-32 state over the bytes added so far.  Adding
    bytes allocates nothing.  Feeding [s1] then [s2] gives the digests of
    [s1 ^ s2]. *)

val hasher : unit -> hasher
(** A hasher that has seen no bytes. *)

val add_char : hasher -> char -> unit

val add_string : hasher -> string -> unit

val add_int : hasher -> int -> unit
(** Adds the decimal text of the int, exactly the bytes of
    [string_of_int]. *)

val add_ints : hasher -> sep:char -> int array -> int -> int -> unit
(** [add_ints h ~sep a pos len] adds the decimal text of each of
    [a.(pos .. pos + len - 1)], each followed by [sep].

    Every int the stack digests goes through this kernel, {!add_int},
    {!put_int}, {!put_lit} and {!put_lits} included.  An int under
    10{^4} in magnitude is packed, sign, digits and separator, into one
    word by a branch on its digit count (no per-digit loop or recursion),
    and the word's bytes are folded into FNV-1a, and into CRC-32 when the
    digest needs it, with the hash state held in locals: the hasher is
    read and written once per int, never per byte.  A larger magnitude,
    [min_int] included, is taken in groups of four digits.  It allocates
    nothing.  [sep] must not be ['\000']. *)

val fnv1a_of : hasher -> int
(** FNV-1a of the bytes added so far. *)

val crc32_of : hasher -> int
(** CRC-32 of the bytes added so far. *)

val fnv1a : string -> int
(** 64-bit FNV-1a over the bytes of the string, truncated to [int]. *)

val crc32 : string -> int
(** CRC-32 (IEEE, reflected) over the bytes of the string, in [0, 2^32). *)

(** {1 Byte emitters} *)

type sink
(** Where an emitter's bytes go: into a hasher ({!hash}) or into a text
    buffer ({!render}). *)

val put_char : sink -> char -> unit

val put_string : sink -> string -> unit

val put_int : sink -> int -> unit
(** The decimal text of the int, as {!add_int}. *)

val put_lit : sink -> sep:char -> Sat.Types.lit -> unit
(** The literal as its DIMACS int, then [sep]. *)

val put_lits : sink -> sep:char -> Sat.Types.lit array -> int -> int -> unit
(** [put_lits sink ~sep a pos len] is {!put_lit} on each of
    [a.(pos .. pos + len - 1)], through the kernel of {!add_ints}: the
    form clause and path writers use. *)

val render : (sink -> 'a -> unit) -> 'a -> string
(** [render emit x] is the text [emit] writes for [x]. *)

val hash : (sink -> 'a -> unit) -> 'a -> hasher
(** [hash emit x] streams [emit]'s bytes for [x] into a fresh hasher:
    its digests equal those of [render emit x]. *)

val hash_fnv1a : (sink -> 'a -> unit) -> 'a -> int
(** [fnv1a_of (hash emit x)] without advancing CRC-32 on every byte: the
    digest of the records that need only FNV-1a (wire frames). *)

(** {1 Fault injection} *)

val corrupted : int -> int
(** [corrupted d] is a digest guaranteed to differ from [d] — how fault
    injection models a record whose bytes rotted while its seal (or the
    data under it) changed. *)

(** Content digests for integrity checking.

    Everything the distributed layer persists or puts on the wire can be
    corrupted: message payloads in flight, checkpoint snapshots and
    journal records at rest.  This module provides the one hasher the
    stack seals records with, dependency-free and deterministic.

    A record is digested as its canonical sequence of machine words, never
    as rendered text: an int is one word, a literal its internal code, a
    list or an array its length and then its elements, a string its
    length and then its bytes in 8-byte words, a float the two 32-bit
    halves of its bit pattern.  The words feed two lanes:

    - the {e word lane}, a 63-bit multiply–xorshift hash, used for
      in-flight message frames ({!Protocol.frame}) and the verdict-cache
      key, where speed matters and the adversary is random bit rot, not
      malice;
    - the {e CRC lane}, the standard reflected CRC-32 (polynomial
      0xEDB88320) over each word's 8 little-endian bytes (a string's own
      bytes after its length word), used for at-rest records (journal
      and job-log entries, checkpoint snapshots), as a storage layer
      would seal them.

    Every step of the word lane is a bijection of its state for a given
    word, so changing any one word of a record always changes its word
    digest.  Punctuation the text form needs ({!put_text}) is not
    hashed: lengths and constructor tags already delimit every field.

    Each record format has one emitter, written against a {!sink}: the
    same emitter feeds a hasher for digests and a buffer for the text
    form.

    A digest detects corruption; it does not authenticate.  Certification
    of {e answers} (which must not trust the sender at all) is the job of
    DRUP checking and model re-evaluation, not of this module. *)

(** {1 Hashers} *)

type hasher
(** Running word-lane and CRC-lane state over the words fed so far. *)

val word_of : hasher -> int
(** The word-lane digest of the words fed so far. *)

val crc32_of : hasher -> int
(** The CRC-lane digest of the words fed so far, in [0, 2^32). *)

val word_digest : int array -> int -> int -> int
(** [word_digest a pos len] is the word-lane digest of the array slice
    [a.(pos .. pos + len - 1)]: its length, then its elements.  It
    allocates nothing. *)

(** {1 Emitters} *)

type sink
(** Where an emitter's output goes: into a hasher ({!hash},
    {!hash_word}) or into a text buffer ({!render}). *)

val put_int : sink -> int -> unit
(** One word; its decimal text. *)

val put_length : sink -> int -> unit
(** The length word of a list whose text form shows no count; no text. *)

val put_string : sink -> string -> unit
(** Its length, then its bytes; the string itself as text. *)

val put_float : sink -> text:(float -> string) -> float -> unit
(** The two halves of the float's bit pattern, low half first; [text x]
    as text. *)

val put_lit : sink -> Sat.Types.lit -> unit
(** The literal's internal code; its DIMACS int as text. *)

val put_lits : sink -> sep:char -> Sat.Types.lit array -> int -> int -> unit
(** [put_lits sink ~sep a pos len]: the length, then the literals of
    [a.(pos .. pos + len - 1)]; as text, each literal's DIMACS int
    followed by [sep].  The form clause writers use. *)

val put_lit_list : sink -> sep:char -> Sat.Types.lit list -> unit
(** {!put_lits} for a list. *)

val put_text : sink -> string -> unit
(** Text only: punctuation, which hashers skip. *)

val render : (sink -> 'a -> unit) -> 'a -> string
(** [render emit x] is the text [emit] writes for [x]. *)

val hash : (sink -> 'a -> unit) -> 'a -> hasher
(** [hash emit x] feeds [emit]'s words for [x] to both lanes of a fresh
    hasher: the digests of at-rest seals. *)

val hash_word : (sink -> 'a -> unit) -> 'a -> int
(** [word_of (hash emit x)] without advancing the CRC lane: the digest
    of the records that need only the word lane (wire frames). *)

(** {1 Fault injection} *)

val corrupted : int -> int
(** [corrupted d] is a digest guaranteed to differ from [d] — how fault
    injection models a record whose bytes rotted while its seal (or the
    data under it) changed. *)

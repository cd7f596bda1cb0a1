(* FNV-1a, 64-bit variant, in native-int arithmetic: OCaml ints wrap
   modulo 2^63 and the xor only touches the low byte, so the state is the
   64-bit FNV-1a truncated to the native int, the same on every 64-bit
   platform, with no boxed Int64 per byte. *)
let fnv_offset = Int64.to_int 0xcbf29ce484222325L

let fnv_prime = 0x100000001b3

(* CRC-32 (IEEE 802.3, reflected).  Table built once at module load. *)
let crc_table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

(* The CRC register is kept pre-inversion and finalised on read.  Each
   [add_*] below takes [~crc]: whether CRC-32 advances too, or only
   FNV-1a. *)
type hasher = { mutable fnv : int; mutable crc : int }

let hasher () = { fnv = fnv_offset; crc = 0xFFFFFFFF }

let[@inline] fnv_step f b = (f lxor b) * fnv_prime

let[@inline] crc_step c b = Array.unsafe_get crc_table ((c lxor b) land 0xFF) lxor (c lsr 8)

let[@inline] add_byte h ~crc b =
  h.fnv <- fnv_step h.fnv b;
  if crc then h.crc <- crc_step h.crc b

let add_bytes h ~crc s =
  let fnv = ref h.fnv and c = ref h.crc in
  for i = 0 to String.length s - 1 do
    let b = Char.code (String.unsafe_get s i) in
    fnv := fnv_step !fnv b;
    if crc then c := crc_step !c b
  done;
  h.fnv <- !fnv;
  h.crc <- !c

(* ---------- the decimal kernel ---------- *)

(* Text packed one byte per 8 bits, the first byte in the lowest, so
   shifting right reads the bytes in order and the word is 0 once every
   byte is taken.  A separator byte of 0 is no separator. *)

(* [v] in [0, 10^4) as four digits, zero-padded on the left. *)
let[@inline] digits4 v =
  (48 + (v / 1000))
  lor ((48 + (v / 100 mod 10)) lsl 8)
  lor ((48 + (v / 10 mod 10)) lsl 16)
  lor ((48 + (v mod 10)) lsl 24)

(* [v] in [0, 10^4) without leading zeros, then the byte [sep]: by the
   digit count, not a digit loop, since this is the kernel's common case,
   a literal of a formula under 10^4 variables.  Not a table: 40 KB of
   static data moved the peak heap of t1-mitre5 from 6.4 to 6.9 MB. *)
let[@inline] small_text v sep =
  if v < 10 then (48 + v) lor (sep lsl 8)
  else if v < 100 then (48 + (v / 10)) lor ((48 + (v mod 10)) lsl 8) lor (sep lsl 16)
  else if v < 1000 then
    (48 + (v / 100))
    lor ((48 + (v / 10 mod 10)) lsl 8)
    lor ((48 + (v mod 10)) lsl 16)
    lor (sep lsl 24)
  else digits4 v lor (sep lsl 32)

let[@inline] signed n w = if n < 0 then (w lsl 8) lor 45 else w

let add_word h ~crc w =
  let fnv = ref h.fnv and c = ref h.crc and w = ref w in
  while !w <> 0 do
    let b = !w land 0xFF in
    fnv := fnv_step !fnv b;
    if crc then c := crc_step !c b;
    w := !w lsr 8
  done;
  h.fnv <- !fnv;
  h.crc <- !c

(* An int of 10^4 or more in magnitude, [min_int] included, then [sep]:
   groups of four digits from place value [p] down, the lower ones
   zero-padded.  Working on [m = -|n|] keeps [min_int] in range. *)
let add_large h ~crc n sep =
  let m = if n < 0 then n else -n and p = ref 10_000 in
  while m / !p <= -10_000 do
    p := !p * 10_000
  done;
  add_word h ~crc (signed n (small_text (-(m / !p)) 0));
  while !p > 1 do
    p := !p / 10_000;
    add_word h ~crc (digits4 (-(m / !p mod 10_000)))
  done;
  add_word h ~crc sep

(* [Sat.Types.to_int], repeated so that it inlines: a library built
   with [-opaque], as dune's default profile builds it, inlines no call
   into another module. *)
let[@inline] dimacs_int l =
  let v = l lsr 1 in
  if l land 1 = 0 then v else -v

(* The kernel under every decimal digest: the text of [n], then the byte
   [sep], into FNV-1a, and into CRC-32 too when [crc].  An int under 10^4
   in magnitude, sign, digits and separator, is one word, whose bytes
   [add_word] hashes with the state in locals: the hasher is read and
   written once per int, never per byte. *)
let add_decimal h ~crc n sep =
  if n > -10_000 && n < 10_000 then add_word h ~crc (signed n (small_text (abs n) sep))
  else add_large h ~crc n sep

(* [a.(pos .. pos + len - 1)] through the kernel; with [dimacs] the ints
   are literals, written as their DIMACS ints. *)
let add_slice h ~crc ~dimacs sep (a : int array) pos len =
  for i = pos to pos + len - 1 do
    let n = Array.unsafe_get a i in
    add_decimal h ~crc (if dimacs then dimacs_int n else n) sep
  done

let add_char h c = add_byte h ~crc:true (Char.code c)

let add_string h s = add_bytes h ~crc:true s

let add_int h n = add_decimal h ~crc:true n 0

let add_ints h ~sep a pos len = add_slice h ~crc:true ~dimacs:false (Char.code sep) a pos len

let fnv1a_of h = h.fnv

let crc32_of h = h.crc lxor 0xFFFFFFFF

let fnv1a s =
  let h = hasher () in
  add_bytes h ~crc:false s;
  fnv1a_of h

let crc32 s =
  let h = hasher () in
  add_string h s;
  crc32_of h

(* [Fnv] feeds a hasher whose CRC-32 is never read: only FNV-1a
   advances. *)
type sink = Hash of hasher | Fnv of hasher | Text of Buffer.t

let put_char sink c =
  match sink with
  | Hash h -> add_char h c
  | Fnv h -> add_byte h ~crc:false (Char.code c)
  | Text b -> Buffer.add_char b c

let put_string sink s =
  match sink with
  | Hash h -> add_string h s
  | Fnv h -> add_bytes h ~crc:false s
  | Text b -> Buffer.add_string b s

let put_int sink n =
  match sink with
  | Hash h -> add_int h n
  | Fnv h -> add_decimal h ~crc:false n 0
  | Text b -> Buffer.add_string b (string_of_int n)

let put_lits sink ~sep a pos len =
  match sink with
  | Hash h -> add_slice h ~crc:true ~dimacs:true (Char.code sep) a pos len
  | Fnv h -> add_slice h ~crc:false ~dimacs:true (Char.code sep) a pos len
  | Text b ->
      for i = pos to pos + len - 1 do
        Buffer.add_string b (string_of_int (Sat.Types.to_int a.(i)));
        Buffer.add_char b sep
      done

let put_lit sink ~sep l =
  match sink with
  | Hash h -> add_decimal h ~crc:true (dimacs_int l) (Char.code sep)
  | Fnv h -> add_decimal h ~crc:false (dimacs_int l) (Char.code sep)
  | Text b ->
      Buffer.add_string b (string_of_int (Sat.Types.to_int l));
      Buffer.add_char b sep

let render emit x =
  let b = Buffer.create 256 in
  emit (Text b) x;
  Buffer.contents b

let hash emit x =
  let h = hasher () in
  emit (Hash h) x;
  h

let hash_fnv1a emit x =
  let h = hasher () in
  emit (Fnv h) x;
  fnv1a_of h

let corrupted d = d lxor 0x5A5A5A5A

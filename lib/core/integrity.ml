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

(* Both digests advance together over every byte; the CRC register is
   kept pre-inversion and finalised on read. *)
type hasher = { mutable fnv : int; mutable crc : int }

let hasher () = { fnv = fnv_offset; crc = 0xFFFFFFFF }

let add_char h c =
  let b = Char.code c in
  h.fnv <- (h.fnv lxor b) * fnv_prime;
  h.crc <- Array.unsafe_get crc_table ((h.crc lxor b) land 0xFF) lxor (h.crc lsr 8)

let add_string h s =
  let fnv = ref h.fnv and crc = ref h.crc in
  for i = 0 to String.length s - 1 do
    let b = Char.code (String.unsafe_get s i) in
    fnv := (!fnv lxor b) * fnv_prime;
    crc := Array.unsafe_get crc_table ((!crc lxor b) land 0xFF) lxor (!crc lsr 8)
  done;
  h.fnv <- !fnv;
  h.crc <- !crc

(* Decimal digits of [m <= 0], most significant first.  Working on the
   non-positive side means [min_int] needs no special case. *)
let rec add_digits h m =
  if m <= -10 then add_digits h (m / 10);
  add_char h (Char.unsafe_chr (48 - (m mod 10)))

let add_int h n =
  if n < 0 then begin
    add_char h '-';
    add_digits h n
  end
  else add_digits h (-n)

let fnv1a_of h = h.fnv

let crc32_of h = h.crc lxor 0xFFFFFFFF

let fnv1a s =
  let h = hasher () in
  add_string h s;
  fnv1a_of h

let crc32 s =
  let h = hasher () in
  add_string h s;
  crc32_of h

type sink = Hash of hasher | Text of Buffer.t

let put_char sink c = match sink with Hash h -> add_char h c | Text b -> Buffer.add_char b c

let put_string sink s = match sink with Hash h -> add_string h s | Text b -> Buffer.add_string b s

let put_int sink n =
  match sink with Hash h -> add_int h n | Text b -> Buffer.add_string b (string_of_int n)

let render emit x =
  let b = Buffer.create 256 in
  emit (Text b) x;
  Buffer.contents b

let hash emit x =
  let h = hasher () in
  emit (Hash h) x;
  h

let corrupted d = d lxor 0x5A5A5A5A

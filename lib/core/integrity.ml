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

let[@inline] add_byte h ~crc b =
  h.fnv <- (h.fnv lxor b) * fnv_prime;
  if crc then h.crc <- Array.unsafe_get crc_table ((h.crc lxor b) land 0xFF) lxor (h.crc lsr 8)

let add_bytes h ~crc s =
  let fnv = ref h.fnv and c = ref h.crc in
  for i = 0 to String.length s - 1 do
    let b = Char.code (String.unsafe_get s i) in
    fnv := (!fnv lxor b) * fnv_prime;
    if crc then c := Array.unsafe_get crc_table ((!c lxor b) land 0xFF) lxor (!c lsr 8)
  done;
  h.fnv <- !fnv;
  h.crc <- !c

(* Decimal digits of [m <= 0], most significant first.  Working on the
   non-positive side means [min_int] needs no special case. *)
let rec add_digits h ~crc m =
  if m <= -10 then add_digits h ~crc (m / 10);
  add_byte h ~crc (48 - (m mod 10))

let add_decimal h ~crc n =
  if n < 0 then begin
    add_byte h ~crc (Char.code '-');
    add_digits h ~crc n
  end
  else add_digits h ~crc (-n)

let add_char h c = add_byte h ~crc:true (Char.code c)

let add_string h s = add_bytes h ~crc:true s

let add_int h n = add_decimal h ~crc:true n

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
  | Fnv h -> add_decimal h ~crc:false n
  | Text b -> Buffer.add_string b (string_of_int n)

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

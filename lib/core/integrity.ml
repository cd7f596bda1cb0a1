(* The word lane: xor a word into the state, multiply by an odd constant,
   xorshift.  Native ints wrap modulo 2^63, where an odd multiplier and an
   xorshift are both bijections, so one changed word always changes the
   state.  [finish] mixes the high bits into the low ones once more when
   the digest is read. *)
let word_seed = 0x2545F4914F6CDD1D

let[@inline] word_step h w =
  let h = (h lxor w) * 0x1E3779B97F4A7C15 in
  h lxor (h lsr 32)

let[@inline] finish h =
  let h = (h lxor (h lsr 29)) * 0x3C79AC492BA7B653 in
  h lxor (h lsr 32)

(* CRC-32 (IEEE 802.3, reflected).  Table built once at module load. *)
let crc_table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

(* Only the low byte of [b] counts. *)
let[@inline] crc_byte c b = Array.unsafe_get crc_table ((c lxor b) land 0xFF) lxor (c lsr 8)

(* The word's 8 little-endian bytes. *)
let[@inline] crc_word c w =
  let c = crc_byte c w in
  let c = crc_byte c (w lsr 8) in
  let c = crc_byte c (w lsr 16) in
  let c = crc_byte c (w lsr 24) in
  let c = crc_byte c (w lsr 32) in
  let c = crc_byte c (w lsr 40) in
  let c = crc_byte c (w lsr 48) in
  crc_byte c (w lsr 56)

(* The CRC register is kept pre-inversion and finalised on read.  A
   hasher without [both] advances the word lane only: frames never read
   the CRC lane. *)
type hasher = { mutable word : int; mutable crc : int; both : bool }

let word_of h = finish h.word

let crc32_of h = h.crc lxor 0xFFFFFFFF

let[@inline] fold h w =
  h.word <- word_step h.word w;
  if h.both then h.crc <- crc_word h.crc w

(* The word lane from state [w] over the length and then
   [a.(pos .. pos + len - 1)]. *)
let word_slice w (a : int array) pos len =
  let w = ref (word_step w len) in
  for i = pos to pos + len - 1 do
    w := word_step !w (Array.unsafe_get a i)
  done;
  !w

let word_digest a pos len = finish (word_slice word_seed a pos len)

let fold_slice h a pos len =
  h.word <- word_slice h.word a pos len;
  if h.both then begin
    let c = ref (crc_word h.crc len) in
    for i = pos to pos + len - 1 do
      c := crc_word !c (Array.unsafe_get a i)
    done;
    h.crc <- !c
  end

(* The length, then the bytes in 8-byte little-endian words: a full
   word's top bit, which a native int cannot hold, is folded into its
   bottom bit; the last partial word is zero-padded.  The CRC lane takes
   the bytes themselves. *)
let fold_string h s =
  let n = String.length s in
  fold h n;
  let w = ref h.word and i = ref 0 in
  while !i + 8 <= n do
    let x = String.get_int64_le s !i in
    w := word_step !w (Int64.to_int x lxor Int64.to_int (Int64.shift_right_logical x 63));
    i := !i + 8
  done;
  if !i < n then begin
    let x = ref 0 in
    for k = n - 1 downto !i do
      x := (!x lsl 8) lor Char.code (String.unsafe_get s k)
    done;
    w := word_step !w !x
  end;
  h.word <- !w;
  if h.both then h.crc <- String.fold_left (fun c ch -> crc_byte c (Char.code ch)) h.crc s

type sink = Hash of hasher | Text of Buffer.t

let put_int sink n =
  match sink with Hash h -> fold h n | Text b -> Buffer.add_string b (string_of_int n)

let put_length sink n = match sink with Hash h -> fold h n | Text _ -> ()

let put_string sink s = match sink with Hash h -> fold_string h s | Text b -> Buffer.add_string b s

let put_float sink ~text x =
  match sink with
  | Hash h ->
      let bits = Int64.bits_of_float x in
      fold h (Int64.to_int bits land 0xFFFF_FFFF);
      fold h (Int64.to_int (Int64.shift_right_logical bits 32))
  | Text b -> Buffer.add_string b (text x)

let add_lit_text b l = Buffer.add_string b (string_of_int (Sat.Types.to_int l))

let put_lit sink l = match sink with Hash h -> fold h l | Text b -> add_lit_text b l

let put_lits sink ~sep a pos len =
  match sink with
  | Hash h -> fold_slice h a pos len
  | Text b ->
      for i = pos to pos + len - 1 do
        add_lit_text b a.(i);
        Buffer.add_char b sep
      done

let put_lit_list sink ~sep ls =
  match sink with
  | Hash h ->
      fold h (List.length ls);
      List.iter (fold h) ls
  | Text b ->
      List.iter
        (fun l ->
          add_lit_text b l;
          Buffer.add_char b sep)
        ls

let put_text sink s = match sink with Text b -> Buffer.add_string b s | Hash _ -> ()

let render emit x =
  let b = Buffer.create 256 in
  emit (Text b) x;
  Buffer.contents b

let hash_with ~both emit x =
  let h = { word = word_seed; crc = 0xFFFFFFFF; both } in
  emit (Hash h) x;
  h

let hash emit x = hash_with ~both:true emit x

let hash_word emit x = word_of (hash_with ~both:false emit x)

let corrupted d = d lxor 0x5A5A5A5A

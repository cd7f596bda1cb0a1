(* Generators of DIMACS, subproblem and DRUP documents for the decoder tests:
   valid and invalid documents in every layout the grammar allows, their
   byte mutations, and the view of a document in which the old decoders
   ([Legacy]) must agree with the new ones. *)

open QCheck.Gen

let blank = oneofl [ " "; "  "; "\t"; " \t " ]

let eol = oneofl [ "\n"; "\r\n"; " \n"; "\t\r\n" ]

(* Text between two tokens of a line. *)
let gap = frequency [ (6, blank); (1, return "   ") ]

(* A literal of a formula over [nvars] variables: mostly in range, with
   duplicates and complements likely, sometimes out of range or extreme. *)
let int_lit nvars =
  frequency
    [
      (40, map2 (fun v s -> if s then v else -v) (int_range 1 (max 1 nvars)) bool);
      (1, map (fun v -> if v = 0 then nvars + 1 else v) (int_range (-(nvars + 3)) (nvars + 3)));
      (1, oneofl [ min_int; max_int; nvars + 1; -(nvars + 1) ]);
    ]

let join_with seps tokens = String.concat "" (List.map2 ( ^ ) tokens seps)

let spaced tokens = list_repeat (List.length tokens) gap >|= fun seps -> join_with seps tokens

(* ---------- DIMACS ---------- *)

(* What follows a data token: a blank, a line break, or a line break with
   a comment or blank line after it. *)
let dimacs_sep =
  frequency
    [
      (10, blank);
      (3, eol);
      (1, map2 (fun e c -> e ^ c ^ e) eol (oneofl [ "c note 1 -2 0"; "  c"; "c" ]));
      (1, map2 (fun e b -> e ^ b ^ e) eol blank);
    ]

let dimacs_header nvars nclauses =
  oneofl [ ""; " "; "\t" ] >>= fun lead ->
  spaced [ "p"; "cnf"; string_of_int nvars; string_of_int nclauses ] >|= fun h -> lead ^ h

let dimacs_doc =
  int_range 0 6 >>= fun nvars ->
  list_size (int_bound 8) (list_size (int_bound 5) (int_lit nvars)) >>= fun clauses ->
  bool >>= fun last_zero ->
  let tokens =
    List.concat
      (List.mapi
         (fun k c ->
           List.map string_of_int c
           @ if k < List.length clauses - 1 || last_zero then [ "0" ] else [])
         clauses)
  in
  list_repeat (List.length tokens) dimacs_sep >>= fun seps ->
  let data = join_with seps tokens in
  dimacs_header nvars (List.length clauses) >>= fun header ->
  eol >>= fun e ->
  oneofl [ ""; "c generated\n"; "c a\n\nc b\n"; "  \n" ] >>= fun preamble ->
  oneofl [ ""; "\n"; "\n%\n0\n"; "\r\n%\r\n0\r\n"; "\n %\n0\nnot data\n" ] >>= fun trailer ->
  frequency
    [
      (12, return (preamble ^ header ^ e ^ data ^ trailer));
      (1, return (preamble ^ data ^ trailer));
      (1, return (preamble ^ header ^ e ^ header ^ e ^ data));
      (1, return (data ^ e ^ header ^ e));
      (1, map (fun h -> h ^ e ^ data) (oneofl [ "p cnf -1 2"; "p dnf 3 1"; "p cnf 3"; "p cnf 3 1 0" ]));
    ]

let trimmed_starts_with c line =
  let l = String.trim line in
  l <> "" && l.[0] = c

(* The document as the old DIMACS decoder must read it to agree with the
   new one: tabs and CRs become spaces, and a line starting with [%] ends
   the data. *)
let dimacs_legacy_view doc =
  let doc = String.map (function '\t' | '\r' -> ' ' | c -> c) doc in
  let rec upto_percent = function
    | [] -> []
    | l :: rest -> if trimmed_starts_with '%' l then [] else l :: upto_percent rest
  in
  String.concat "\n" (upto_percent (String.split_on_char '\n' doc))

(* ---------- subproblem wire format ---------- *)

let sub_line tag ints =
  oneofl [ ""; ""; " "; "\t" ] >>= fun lead ->
  frequency
    [
      (40, return (ints @ [ "0" ]));
      (1, return ints);
      (1, return (ints @ [ "0"; "0" ]));
      (1, return ("0" :: ints @ [ "0" ]));
    ]
  >>= fun tokens ->
  spaced (if tag = "" then tokens else tag :: tokens) >>= fun body ->
  eol >|= fun e -> lead ^ body ^ e

let sub_doc =
  int_range 0 6 >>= fun nvars ->
  let ints = map (List.map string_of_int) (list_size (int_bound 4) (int_lit nvars)) in
  ints >>= fun facts ->
  ints >>= fun path ->
  list_size (int_bound 8) ints >>= fun clauses ->
  sub_line "f" facts >>= fun f ->
  sub_line "a" path >>= fun a ->
  flatten_l (List.map (sub_line "") clauses) >>= fun lines ->
  spaced [ "p"; "subproblem"; string_of_int nvars; string_of_int (List.length clauses) ]
  >>= fun header ->
  eol >>= fun e ->
  oneofl [ ""; "\n"; " \n\t\n" ] >>= fun lead ->
  frequency
    [
      (10, return (lead ^ header ^ e ^ f ^ a ^ String.concat "" lines));
      (1, return (lead ^ header ^ e ^ String.concat "" lines ^ a ^ f));
      (1, return (lead ^ header ^ e ^ f ^ "\n" ^ f ^ String.concat "\n" lines));
      (1, return (f ^ a ^ String.concat "" lines));
      (1, return "");
    ]

(* As {!dimacs_legacy_view}: tabs and CRs become spaces, and a line's tag
   no longer follows leading blanks. *)
let sub_legacy_view doc =
  String.map (function '\t' | '\r' -> ' ' | c -> c) doc
  |> String.split_on_char '\n'
  |> List.map (fun l ->
         let n = String.length l in
         let i = ref 0 in
         while !i < n && l.[!i] = ' ' do
           incr i
         done;
         String.sub l !i (n - !i))
  |> String.concat "\n"

(* ---------- DRUP text ---------- *)

(* A proof step's integer: small literals, a sign or leading zeros now
   and then, and integers beyond [int].  Not [min_int]: the old decoder
   read it with [int_of_string_opt], the new one finds its magnitude out
   of range (a divergence the unit tests pin). *)
let drup_int =
  frequency
    [
      (30, map (fun v -> string_of_int (if v = 0 then 1 else v)) (int_range (-9) 9));
      (2, oneofl [ "+2"; "-03"; "007" ]);
      (1, oneofl [ string_of_int max_int; "99999999999999999999"; "-99999999999999999999" ]);
      (1, oneofl [ "x"; "1a"; "--1"; "d" ]);
    ]

let drup_line =
  oneofl [ ""; ""; ""; " "; "\t" ] >>= fun lead ->
  frequency [ (4, return []); (1, return [ "d" ]) ] >>= fun tag ->
  list_size (int_bound 4) drup_int >>= fun ints ->
  frequency
    [
      (30, return (ints @ [ "0" ]));
      (1, return ints);
      (1, return (ints @ [ "0"; "0" ]));
      (1, return ("0" :: ints @ [ "0" ]));
      (1, return [ "d0" ]);
    ]
  >>= fun tokens ->
  spaced (tag @ tokens) >>= fun body ->
  eol >|= fun e -> lead ^ body ^ e

(* Steps, [d 0] and [0] lines among them, with blank lines between. *)
let drup_doc =
  list_size (int_bound 8)
    (frequency
       [
         (10, drup_line);
         (1, oneofl [ "d 0\n"; "0\n"; " d\t0\r\n"; "\n"; "\t \r\n"; "d\n" ]);
       ])
  >>= fun lines ->
  oneofl [ ""; "0"; "1 0"; " \t" ] >|= fun last -> String.concat "" lines ^ last

(* As {!dimacs_legacy_view}: tabs and CRs become spaces. *)
let drup_legacy_view doc = String.map (function '\t' | '\r' -> ' ' | c -> c) doc

(* ---------- byte mutations ---------- *)

let interesting_byte =
  frequency
    [
      (4, oneofl [ '0'; '1'; '9'; '-'; '+'; ' '; '\n'; '\t'; '\r' ]);
      (2, oneofl [ 'c'; 'p'; 'f'; 'a'; '%'; 'x'; '_'; 'b'; 'o'; 'e'; '.' ]);
      (1, char);
    ]

(* [doc] with up to four bytes replaced, inserted or deleted. *)
let mutate doc =
  let edit s =
    let n = String.length s in
    int_bound (max 0 n) >>= fun i ->
    interesting_byte >>= fun c ->
    oneofl [ `Replace; `Insert; `Delete ] >|= fun op ->
    let c = String.make 1 c in
    match op with
    | `Replace when i < n -> String.sub s 0 i ^ c ^ String.sub s (i + 1) (n - i - 1)
    | `Delete when i < n -> String.sub s 0 i ^ String.sub s (i + 1) (n - i - 1)
    | _ -> String.sub s 0 i ^ c ^ String.sub s i (n - i)
  in
  int_range 1 4 >>= fun k ->
  let rec go k s = if k = 0 then return s else edit s >>= go (k - 1) in
  go k doc

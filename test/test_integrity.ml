(* Integrity digests: the hasher's two lanes against a reference written
   from their definition, the text sink's rendering, and what the record
   digests must guarantee: a flipped bit in any field a frame, a seal or a
   log digest covers changes it, and the verdict-cache key is a function
   of the clause set alone. *)

module T = Sat.Types
module Cnf = Sat.Cnf
module C = Gridsat_core
module I = C.Integrity
module P = C.Protocol
module Sub = C.Subproblem
module J = C.Journal
module Joblog = Gridsat_service.Joblog
module Cache = Gridsat_service.Cache

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int
let str = Alcotest.string

(* ---------- reference: the two lanes from their definition ---------- *)

module Ref = struct
  let crc_table =
    Array.init 256 (fun n ->
        let c = ref n in
        for _ = 0 to 7 do
          c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
        done;
        !c)

  let crc32 s =
    let crc = ref 0xFFFFFFFF in
    String.iter
      (fun ch -> crc := crc_table.((!crc lxor Char.code ch) land 0xFF) lxor (!crc lsr 8))
      s;
    !crc lxor 0xFFFFFFFF

  let word ws =
    let step h w =
      let h = (h lxor w) * 0x1E3779B97F4A7C15 in
      h lxor (h lsr 32)
    in
    let h = List.fold_left step 0x2545F4914F6CDD1D ws in
    let h = (h lxor (h lsr 29)) * 0x3C79AC492BA7B653 in
    h lxor (h lsr 32)

  (* A word's 8 little-endian bytes: its 63 bits, zero-extended. *)
  let le8 n =
    let b = Bytes.create 8 in
    Bytes.set_int64_le b 0 (Int64.logand (Int64.of_int n) Int64.max_int);
    Bytes.to_string b

  (* A string's words after its length: 8-byte little-endian chunks, a
     chunk's top bit folded into its bottom bit, the last chunk
     zero-padded. *)
  let string_words s =
    let n = String.length s in
    List.init ((n + 7) / 8) (fun k ->
        let chunk = Bytes.make 8 '\000' in
        Bytes.blit_string s (8 * k) chunk 0 (min 8 (n - (8 * k)));
        let x = Bytes.get_int64_le chunk 0 in
        Int64.to_int x lxor Int64.to_int (Int64.shift_right_logical x 63))

  let subproblem_to_string (t : Sub.t) =
    let buf = Buffer.create 4096 in
    Buffer.add_string buf
      (Printf.sprintf "p subproblem %d %d\n" t.Sub.nvars (Sat.Arena.nclauses t.Sub.clauses));
    let add_ints prefix lits =
      Buffer.add_string buf prefix;
      List.iter (fun l -> Buffer.add_string buf (string_of_int (T.to_int l) ^ " ")) lits;
      Buffer.add_string buf "0\n"
    in
    add_ints "f " t.Sub.facts;
    add_ints "a " t.Sub.path;
    List.iter
      (fun c ->
        Array.iter (fun l -> Buffer.add_string buf (string_of_int (T.to_int l) ^ " ")) c;
        Buffer.add_string buf "0\n")
      (Clause_lists.to_list t.Sub.clauses);
    Buffer.contents buf
end

(* ---------- known answers ---------- *)

let test_known_answers () =
  check int "crc32 check value" 0xCBF43926 (Ref.crc32 "123456789");
  check int "crc32 of nothing" 0 (Ref.crc32 "");
  (* the CRC lane of one int is the CRC-32 of its little-endian bytes:
     "12345678" *)
  check int "crc lane of an int" (Ref.crc32 "12345678")
    (I.crc32_of (I.hash I.put_int 0x3837363534333231));
  check int "crc lane of nothing" 0 (I.crc32_of (I.hash (fun _ () -> ()) ()));
  (* the word lane pinned: a change of constants moves every digest *)
  check int "word lane of nothing" 0x2f0f774e54ddb2bb (I.hash_word (fun _ () -> ()) ());
  check int "word digest of [1; 2; 3]" 0x13e9fc4d42f49ed6 (I.word_digest [| 1; 2; 3 |] 0 3);
  check int "word digest of nothing" (Ref.word [ 0 ]) (I.word_digest [||] 0 0)

let edge_ints =
  List.concat_map (fun n -> [ n; -n ]) [ 0; 9; 10; 99; 100; 999; 1000; 9999; 10000; max_int ] @ [ min_int ]

(* The text sink writes exactly what the text forms have always shown. *)
let test_ints_as_text () =
  List.iter
    (fun n -> check str ("rendered " ^ string_of_int n) (string_of_int n) (I.render I.put_int n))
    edge_ints;
  let lits = Array.of_list (List.map T.lit_of_int [ 3; -1; 10_000; -77 ]) in
  check str "put_lits" "-1;10000;-77;"
    (I.render (fun sink () -> I.put_lits sink ~sep:';' lits 1 3) ());
  check str "put_lit_list" "3 -1 10000 -77 "
    (I.render (fun sink () -> I.put_lit_list sink ~sep:' ' (Array.to_list lits)) ());
  check str "put_lit" "-77" (I.render I.put_lit lits.(3));
  check str "punctuation, strings, lengths, floats" "[ab]x 0x1.8p+1"
    (I.render
       (fun sink () ->
         I.put_text sink "[";
         I.put_string sink "ab";
         I.put_text sink "]x ";
         I.put_length sink 7;
         I.put_float sink ~text:(Printf.sprintf "%h") 3.)
       ())

(* ---------- the hasher against the reference ---------- *)

type piece =
  | Int of int
  | Len of int
  | Str of string
  | Flt of float
  | Lits of T.lit list
  | Slice of T.lit array * int * int
  | Punct of string

let gen_lit =
  QCheck.Gen.(
    map
      (fun i -> T.lit_of_int (if i = 0 then 1 else i))
      (oneof [ small_signed_int; int_range (-(1 lsl 40)) (1 lsl 40) ]))

let gen_piece =
  let open QCheck.Gen in
  let any_int = oneof [ oneofl edge_ints; int; small_signed_int ] in
  oneof
    [
      map (fun n -> Int n) any_int;
      map (fun n -> Len n) any_int;
      map (fun s -> Str s) (string_size ~gen:char (int_bound 30));
      map (fun x -> Flt x) (oneof [ float; oneofl [ 0.; -0.; nan; infinity ] ]);
      map (fun ls -> Lits ls) (list_size (int_bound 6) gen_lit);
      ( array_size (int_bound 8) gen_lit >>= fun a ->
        let n = Array.length a in
        int_bound n >>= fun pos ->
        int_bound (n - pos) >|= fun len -> Slice (a, pos, len) );
      map (fun s -> Punct s) (string_size ~gen:printable (int_bound 4));
    ]

let emit_piece sink = function
  | Int n -> I.put_int sink n
  | Len n -> I.put_length sink n
  | Str s -> I.put_string sink s
  | Flt x -> I.put_float sink ~text:string_of_float x
  | Lits ls -> I.put_lit_list sink ~sep:' ' ls
  | Slice (a, pos, len) -> I.put_lits sink ~sep:' ' a pos len
  | Punct s -> I.put_text sink s

(* A piece's words, and the bytes its CRC lane sees. *)
let words_of = function
  | Int n | Len n -> [ n ]
  | Str s -> String.length s :: Ref.string_words s
  | Flt x ->
      let b = Int64.bits_of_float x in
      [ Int64.to_int b land 0xFFFF_FFFF; Int64.to_int (Int64.shift_right_logical b 32) ]
  | Lits ls -> List.length ls :: ls
  | Slice (a, pos, len) -> len :: Array.to_list (Array.sub a pos len)
  | Punct _ -> []

let crc_bytes_of = function
  | Str s -> Ref.le8 (String.length s) ^ s
  | p -> String.concat "" (List.map Ref.le8 (words_of p))

let prop_hasher_is_the_word_sequence =
  QCheck.Test.make ~name:"hasher equals hashing the concatenated words" ~count:500
    (QCheck.make QCheck.Gen.(list_size (int_bound 12) gen_piece))
    (fun pieces ->
      let emit sink ps = List.iter (emit_piece sink) ps in
      let h = I.hash emit pieces in
      let words = List.concat_map words_of pieces in
      I.word_of h = Ref.word words
      && I.hash_word emit pieces = Ref.word words
      && I.crc32_of h = Ref.crc32 (String.concat "" (List.map crc_bytes_of pieces))
      && List.for_all
           (function
             | Slice (a, pos, len) as p -> I.word_digest a pos len = Ref.word (words_of p)
             | _ -> true)
           pieces)

(* ---------- random wire messages ---------- *)

let gen_int = QCheck.Gen.(oneof [ small_signed_int; int; oneofl [ 0; -1; max_int; min_int ] ])

let gen_lits = QCheck.Gen.(list_size (int_bound 6) gen_lit)

let gen_clauses = QCheck.Gen.(list_size (int_bound 5) (array_size (int_bound 4) gen_lit))

let gen_pid = QCheck.Gen.pair gen_int gen_int

let gen_text = QCheck.Gen.(string_size ~gen:char (int_bound 12))

let gen_sp =
  QCheck.Gen.(
    map
      (fun (nvars, facts, path, clauses) ->
        { Sub.nvars; facts; path; clauses = Clause_lists.of_list clauses })
      (quad gen_int gen_lits gen_lits gen_clauses))

let gen_entry : P.journal_entry QCheck.Gen.t =
  QCheck.Gen.(
    oneof
      [
        map (fun client -> P.Registered { client }) gen_int;
        map3 (fun pid dst path -> P.Assigned { pid; dst; path }) gen_pid gen_int gen_lits;
        map3
          (fun (donor, donor_pid, donor_path) (pid, dst) path ->
            P.Split { donor; donor_pid; donor_path; pid; dst; path })
          (triple gen_int gen_pid gen_lits) (pair gen_pid gen_int) gen_lits;
        map (fun pid -> P.Refuted { pid }) gen_pid;
        map (fun client -> P.Died { client }) gen_int;
        map3 (fun pid client path -> P.Adopted { pid; client; path }) gen_pid gen_int gen_lits;
        map (fun answer -> P.Verdict { answer }) gen_text;
      ])

let gen_model =
  QCheck.Gen.(map Sat.Model.of_array (array_size (int_range 1 10) bool))

let rec gen_msg depth : P.msg QCheck.Gen.t =
  let open QCheck.Gen in
  let flat =
    [
      return P.Register;
      map3 (fun pid sp sent_at -> P.Problem { pid; sp; sent_at }) gen_pid gen_sp float;
      map3
        (fun (pid, from) bytes path -> P.Problem_received { pid; from; bytes; path })
        (pair gen_pid gen_int) gen_int gen_lits;
      return (P.Split_request `Memory);
      return (P.Split_request `Long_running);
      map (fun partner -> P.Split_partner { partner }) gen_int;
      map3
        (fun (pid, donor_pid, dst) (bytes, path) donor_path ->
          P.Split_ok { pid; donor_pid; dst; bytes; path; donor_path })
        (triple gen_pid gen_pid gen_int) (pair gen_int gen_lits) gen_lits;
      map (fun partner -> P.Split_failed { partner }) gen_int;
      map (fun clauses -> P.Shares { clauses }) gen_clauses;
      map2 (fun origin clauses -> P.Share_relay { origin; clauses }) gen_int gen_clauses;
      map2 (fun pid proof -> P.Finished_unsat { pid; proof }) gen_pid (opt gen_text);
      map (fun m -> P.Found_model m) gen_model;
      map (fun target -> P.Migrate_to { target }) gen_int;
      map (fun pid -> P.Cancel { pid }) gen_pid;
      map2 (fun pid sp -> P.Orphaned { pid; sp }) gen_pid gen_sp;
      return P.Resync_request;
      map3 (fun pid path busy_since -> P.Resync { pid; path; busy_since }) (opt gen_pid) gen_lits float;
      return P.Stop;
      map (fun decisions -> P.Heartbeat { decisions }) gen_int;
      map3
        (fun seq entries log_digest -> P.Ship { seq; entries; log_digest })
        gen_int (list_size (int_bound 5) gen_entry) gen_text;
      return P.Epoch_notice;
      map (fun mid -> P.Ack { mid }) gen_int;
      map (fun mid -> P.Nack { mid }) gen_int;
      return P.Corrupt_payload;
    ]
  in
  if depth = 0 then oneof flat
  else
    let inner = gen_msg (depth - 1) in
    frequency
      [
        (4, oneof flat);
        (1, map3 (fun mid low payload -> P.Reliable { mid; low; payload }) gen_int gen_int inner);
        (1, map3 (fun digest epoch payload -> P.Framed { digest; epoch; payload }) gen_int gen_int inner);
      ]

(* ---------- single-bit flips ---------- *)

(* [int f n] flips bit [f.bit] of the [f.k]-th value the flipper is
   applied to, counting from 0, and passes every other value through; a
   string is one value per byte, a float one value.  Run with [k = -1],
   it only counts: [seen] is then the number of values a record has. *)
module Flip = struct
  type t = { mutable seen : int; k : int; bit : int }

  let make k bit = { seen = 0; k; bit }

  let hit f =
    let i = f.seen in
    f.seen <- i + 1;
    i = f.k

  let int f n = if hit f then n lxor (1 lsl (f.bit mod 63)) else n

  let float f x =
    if hit f then
      let mask = Int64.shift_left 1L (f.bit mod 64) in
      Int64.float_of_bits (Int64.logxor (Int64.bits_of_float x) mask)
    else x

  let string f s =
    String.map (fun c -> if hit f then Char.chr (Char.code c lxor (1 lsl (f.bit mod 8))) else c) s

  let pair f (a, b) =
    let a = int f a in
    (a, int f b)

  let lits f ls = List.map (int f) ls

  let sp f (sp : Sub.t) =
    let nvars = int f sp.Sub.nvars in
    let facts = lits f sp.Sub.facts in
    let path = lits f sp.Sub.path in
    let clauses = Clause_lists.to_list sp.Sub.clauses |> List.map (Array.map (int f)) in
    { Sub.nvars; facts; path; clauses = Clause_lists.of_list clauses }

  let model f m =
    Sat.Model.of_array
      (Array.mapi (fun v b -> if v > 0 && hit f then not b else b) (Sat.Model.to_array m))

  let entry f : P.journal_entry -> P.journal_entry = function
    | Registered { client } -> Registered { client = int f client }
    | Assigned { pid = p; dst; path } ->
        let pid = pair f p in
        let dst = int f dst in
        Assigned { pid; dst; path = lits f path }
    | Split { donor; donor_pid; donor_path; pid = p; dst; path } ->
        let donor = int f donor in
        let donor_pid = pair f donor_pid in
        let donor_path = lits f donor_path in
        let pid = pair f p in
        let dst = int f dst in
        Split { donor; donor_pid; donor_path; pid; dst; path = lits f path }
    | Refuted { pid = p } -> Refuted { pid = pair f p }
    | Died { client } -> Died { client = int f client }
    | Adopted { pid = p; client; path } ->
        let pid = pair f p in
        let client = int f client in
        Adopted { pid; client; path = lits f path }
    | Verdict { answer } -> Verdict { answer = string f answer }

  (* Every field the digest covers: not a reliable envelope's low-water
     mark, a header outside it.  (An outermost frame's epoch is outside
     its digest too, being no part of the framed payload.) *)
  let rec msg f : P.msg -> P.msg = function
    | (Register | Split_request _ | Resync_request | Stop | Epoch_notice | Corrupt_payload) as m ->
        m
    | Problem { pid = p; sp = s; sent_at } ->
        let pid = pair f p in
        let sp = sp f s in
        Problem { pid; sp; sent_at = float f sent_at }
    | Problem_received { pid = p; from; bytes; path } ->
        let pid = pair f p in
        let from = int f from in
        let bytes = int f bytes in
        Problem_received { pid; from; bytes; path = lits f path }
    | Split_partner { partner } -> Split_partner { partner = int f partner }
    | Split_ok { pid = p; donor_pid; dst; bytes; path; donor_path } ->
        let pid = pair f p in
        let donor_pid = pair f donor_pid in
        let dst = int f dst in
        let bytes = int f bytes in
        let path = lits f path in
        Split_ok { pid; donor_pid; dst; bytes; path; donor_path = lits f donor_path }
    | Split_failed { partner } -> Split_failed { partner = int f partner }
    | Shares { clauses } -> Shares { clauses = List.map (Array.map (int f)) clauses }
    | Share_relay { origin; clauses } ->
        let origin = int f origin in
        Share_relay { origin; clauses = List.map (Array.map (int f)) clauses }
    | Finished_unsat { pid = p; proof } ->
        let pid = pair f p in
        Finished_unsat { pid; proof = Option.map (string f) proof }
    | Found_model m -> Found_model (model f m)
    | Migrate_to { target } -> Migrate_to { target = int f target }
    | Cancel { pid = p } -> Cancel { pid = pair f p }
    | Orphaned { pid = p; sp = s } ->
        let pid = pair f p in
        Orphaned { pid; sp = sp f s }
    | Resync { pid = p; path; busy_since } ->
        let pid = Option.map (pair f) p in
        let path = lits f path in
        Resync { pid; path; busy_since = float f busy_since }
    | Heartbeat { decisions } -> Heartbeat { decisions = int f decisions }
    | Ship { seq; entries; log_digest } ->
        let seq = int f seq in
        let entries = List.map (entry f) entries in
        Ship { seq; entries; log_digest = string f log_digest }
    | Ack { mid } -> Ack { mid = int f mid }
    | Nack { mid } -> Nack { mid = int f mid }
    | Reliable { mid; low; payload } ->
        let mid = int f mid in
        Reliable { mid; low; payload = msg f payload }
    | Framed { digest; epoch; payload } ->
        let digest = int f digest in
        let epoch = int f epoch in
        Framed { digest; epoch; payload = msg f payload }

  let job f : Joblog.entry -> Joblog.entry = function
    | Submitted { id; tenant; priority; digest; deadline } ->
        let id = int f id in
        let tenant = string f tenant in
        let priority = string f priority in
        let digest = string f digest in
        Submitted { id; tenant; priority; digest; deadline = Option.map (float f) deadline }
    | Admitted { id } -> Admitted { id = int f id }
    | Shed { id; retry_after } ->
        let id = int f id in
        Shed { id; retry_after = float f retry_after }
    | Cache_hit { id; answer } ->
        let id = int f id in
        Cache_hit { id; answer = string f answer }
    | Started { id; hosts } ->
        let id = int f id in
        Started { id; hosts = List.map (int f) hosts }
    | Requeued { id; reason } ->
        let id = int f id in
        Requeued { id; reason = string f reason }
    | Finished { id; terminal } ->
        let id = int f id in
        Finished { id; terminal = string f terminal }

  (* Whether [digest] moves under every single-bit flip of [x]: one flip
     per value, at a bit drawn by [bit k]. *)
  let all_change ~bit mutate digest x =
    let counter = make (-1) 0 in
    ignore (mutate counter x);
    let d = digest x in
    List.for_all (fun k -> digest (mutate (make k (bit k)) x) <> d) (List.init counter.seen Fun.id)
end

let gen_bits = QCheck.Gen.(array_size (return 64) (int_bound 63))

let prop_protocol_digest_bit_flip =
  QCheck.Test.make ~name:"Protocol.digest changes when any bit of any field flips" ~count:1000
    (QCheck.make QCheck.Gen.(pair (gen_msg 3) gen_bits))
    (fun (msg, bits) -> Flip.all_change ~bit:(fun k -> bits.(k mod 64)) Flip.msg P.digest msg)

let prop_subproblem_text_and_seal =
  QCheck.Test.make ~name:"subproblem text and checkpoint seal cover every field" ~count:300
    ~long_factor:20
    (QCheck.make QCheck.Gen.(pair gen_sp gen_bits))
    (fun (sp, bits) ->
      Sub.to_string sp = Ref.subproblem_to_string sp
      && Flip.all_change ~bit:(fun k -> bits.(k mod 64)) Flip.sp C.Checkpoint.seal_of sp)

(* A one-record log's digest: its last 16 hex characters are the CRC
   lane, a bijection of the record's seal, so they move exactly when the
   seal does. *)
let seal_lane log_digest = String.sub log_digest 16 16

let journal_seal e =
  let j = J.create ~compact_every:1000 () in
  J.append j e;
  seal_lane (J.log_digest j)

let joblog_seal e =
  let l = Joblog.create () in
  Joblog.append l e;
  seal_lane (Joblog.log_digest l)

let gen_job : Joblog.entry QCheck.Gen.t =
  QCheck.Gen.(
    oneof
      [
        map3
          (fun (id, tenant) (priority, digest) deadline ->
            Joblog.Submitted { id; tenant; priority; digest; deadline })
          (pair gen_int gen_text) (pair gen_text gen_text) (opt float);
        map (fun id -> Joblog.Admitted { id }) gen_int;
        map2 (fun id retry_after -> Joblog.Shed { id; retry_after }) gen_int float;
        map2 (fun id answer -> Joblog.Cache_hit { id; answer }) gen_int gen_text;
        map2
          (fun id hosts -> Joblog.Started { id; hosts })
          gen_int
          (list_size (int_bound 5) gen_int);
        map2 (fun id reason -> Joblog.Requeued { id; reason }) gen_int gen_text;
        map2 (fun id terminal -> Joblog.Finished { id; terminal }) gen_int gen_text;
      ])

let prop_record_seals_bit_flip =
  QCheck.Test.make ~name:"journal and joblog seals cover every field" ~count:300
    (QCheck.make QCheck.Gen.(triple gen_entry gen_job gen_bits))
    (fun (e, job, bits) ->
      let bit k = bits.(k mod 64) in
      Flip.all_change ~bit Flip.entry journal_seal e
      && Flip.all_change ~bit Flip.job joblog_seal job)

(* ---------- verdict-cache keys ---------- *)

(* Formulas whose canonical form must absorb duplicated clauses, permuted
   literals and clauses that are prefixes of others. *)
let gen_cache_cnf =
  let open QCheck.Gen in
  int_range 1 12 >>= fun nv ->
  let lit = map2 (fun v s -> if s then v else -v) (int_range 1 nv) bool in
  list_size (int_bound 15) (list_size (int_range 1 5) lit) >>= fun base ->
  let variant c =
    oneof
      [
        return c;
        shuffle_l c;
        map (fun k -> List.filteri (fun j _ -> j <= k) c) (int_bound (List.length c - 1));
      ]
  in
  (if base = [] then return [] else list_size (int_bound 10) (oneofl base >>= variant))
  >>= fun extra -> shuffle_l (base @ extra) >|= fun clauses -> Cnf.make ~nvars:nv clauses

(* Bigger formulas too: long clauses (heap-sorted by Cnf), wide
   variable ranges (multi-digit DIMACS ints), and many clauses sharing
   prefixes. *)
let gen_cache_cnf_wide =
  let open QCheck.Gen in
  int_range 1 400 >>= fun nv ->
  let lit = map2 (fun v s -> if s then v else -v) (int_range 1 nv) bool in
  list_size (int_bound 60) (list_size (int_range 1 30) lit) >|= fun clauses ->
  Cnf.make ~nvars:nv clauses

(* A formula's clauses as DIMACS int lists, and as a set of sets. *)
let dimacs cnf = List.map (fun c -> Array.to_list (Array.map T.to_int c)) (Clause_lists.to_list (Cnf.clauses cnf))

let clause_set cnf = List.sort_uniq compare (List.map (List.sort_uniq compare) (dimacs cnf))

(* The same clause set written another way: clauses shuffled, each
   clause's literals shuffled, some clauses repeated. *)
let prop_cache_digest_set_semantics =
  let gen =
    let open QCheck.Gen in
    oneof [ gen_cache_cnf; gen_cache_cnf_wide ] >>= fun cnf ->
    let cs = dimacs cnf in
    (if cs = [] then return [] else list_size (int_bound 5) (oneofl cs)) >>= fun again ->
    flatten_l (List.map shuffle_l (cs @ again)) >>= shuffle_l >|= fun written ->
    (cnf, Cnf.make ~nvars:(Cnf.nvars cnf) written)
  in
  let print (a, b) = Format.asprintf "%a / %a" Cnf.pp a Cnf.pp b in
  QCheck.Test.make ~name:"Cache.digest ignores clause order, literal order and duplicates"
    ~count:500 (QCheck.make ~print gen) (fun (cnf, written) ->
      let key = Cache.digest cnf in
      String.length key = 25 && key = Cache.digest written)

(* One clause more, one literal flipped, or one variable more: a
   different formula, a different key.  Adding a clause the formula
   holds, or a flip that lands on another clause it holds, leaves the
   clause set as it was, and those cases are skipped. *)
let prop_cache_digest_sensitive =
  let gen =
    let open QCheck.Gen in
    oneof [ gen_cache_cnf; gen_cache_cnf_wide ] >>= fun cnf ->
    let lit = map2 (fun v s -> if s then v else -v) (int_range 1 (Cnf.nvars cnf)) bool in
    triple (return cnf) (list_size (int_range 1 4) lit) (pair nat nat)
  in
  QCheck.Test.make ~name:"Cache.digest changes with a clause, a literal or nvars" ~count:500
    (QCheck.make gen) (fun (cnf, extra, (ci, li)) ->
      let nv = Cnf.nvars cnf and cs = dimacs cnf and key = Cache.digest cnf in
      let moves other = clause_set other = clause_set cnf || Cache.digest other <> key in
      let flip_at k c = List.mapi (fun j l -> if j = k mod List.length c then -l else l) c in
      let flipped =
        List.mapi (fun k c -> if k = ci mod List.length cs && c <> [] then flip_at li c else c) cs
      in
      Cache.digest (Cnf.make ~nvars:(nv + 1) cs) <> key
      && moves (Cnf.make ~nvars:nv (extra :: cs))
      && moves (Cnf.make ~nvars:nv flipped))

(* ---------- journal record text ---------- *)

let test_journal_entry_text () =
  let text e = Format.asprintf "%a" J.pp_entry e in
  let lits = List.map T.lit_of_int in
  List.iter
    (fun (expected, e) -> check str expected expected (text e))
    [
      ("registered 3", J.Registered { client = 3 });
      ("assigned 0.1 -> 4 [1 -3]", J.Assigned { pid = (0, 1); dst = 4; path = lits [ 1; -3 ] });
      ( "split 0.1 @ 2 [1 -3] -> 2.1 @ 5 [1 3]",
        J.Split
          {
            donor = 2;
            donor_pid = (0, 1);
            donor_path = lits [ 1; -3 ];
            pid = (2, 1);
            dst = 5;
            path = lits [ 1; 3 ];
          } );
      ("refuted 2.1", J.Refuted { pid = (2, 1) });
      ("died 4", J.Died { client = 4 });
      ("adopted 2.1 @ 6 []", J.Adopted { pid = (2, 1); client = 6; path = [] });
      ("verdict UNSAT", J.Verdict { answer = "UNSAT" });
    ];
  (* a path far wider than any margin still renders on one line *)
  let long = List.init 200 (fun k -> T.lit_of_int (k + 1)) in
  let s = text (J.Adopted { pid = (0, 1); client = 2; path = long }) in
  check bool "no line break in a long record" false (String.contains s '\n')

(* ---------- journal log digest ---------- *)

(* One field of the entry changed. *)
let alter_entry : P.journal_entry -> P.journal_entry = function
  | Registered { client } -> Registered { client = client + 1 }
  | Assigned a -> Assigned { a with dst = a.dst + 1 }
  | Split s -> Split { s with dst = s.dst + 1 }
  | Refuted { pid = a, b } -> Refuted { pid = (a, b + 1) }
  | Died { client } -> Died { client = client + 1 }
  | Adopted a -> Adopted { a with client = a.client + 1 }
  | Verdict { answer } -> Verdict { answer = answer ^ "!" }

let log_digest_of entries =
  let j = J.create ~compact_every:1000 () in
  List.iter (J.append j) entries;
  J.log_digest j

(* A primary appends one entry at a time and compacts often; a shadow is
   fed the same entries in random batches and never compacts.  After
   every batch their log digests agree, and at the end so do their
   replayed states.  Dropping an entry, swapping two distinct entries or
   altering one field moves the log digest. *)
let prop_log_digest =
  let gen =
    QCheck.Gen.(
      list_size (int_range 1 30) gen_entry >>= fun es ->
      let n = List.length es in
      quad (return es)
        (list_size (int_bound 8) (int_range 1 6))
        (int_range 1 8)
        (triple (int_bound (n - 1)) (int_bound (n - 1)) (int_bound (n - 1))))
  in
  let print (es, batches, every, (k, i, j)) =
    Printf.sprintf "entries [%s], batches [%s], compact_every %d, k %d, swap %d %d"
      (String.concat "; " (List.map (Format.asprintf "%a" J.pp_entry) es))
      (String.concat " " (List.map string_of_int batches))
      every k i j
  in
  QCheck.Test.make ~name:"journal log digest tracks the exact log" ~count:300
    (QCheck.make ~print gen) (fun (es, batches, every, (k, i, j)) ->
      let arr = Array.of_list es in
      let n = Array.length arr in
      let primary = J.create ~compact_every:every () and shadow = J.create ~compact_every:1000 () in
      let rec feed start batches =
        start >= n
        ||
        let size, rest =
          match batches with b :: rest -> (min b (n - start), rest) | [] -> (n - start, [])
        in
        for x = start to start + size - 1 do
          J.append primary arr.(x)
        done;
        let shipped = J.log_digest primary in
        for x = start to start + size - 1 do
          J.append shadow arr.(x)
        done;
        String.equal shipped (J.log_digest shadow) && feed (start + size) rest
      in
      feed 0 batches
      && J.digest (J.replay primary) = J.digest (J.replay shadow)
      &&
      let full = J.log_digest primary in
      String.length full = 32
      && log_digest_of (List.filteri (fun x _ -> x <> k) es) <> full
      && log_digest_of (List.mapi (fun x e -> if x = k then alter_entry e else e) es) <> full
      && (arr.(i) = arr.(j)
         || log_digest_of
              (List.mapi (fun x e -> if x = i then arr.(j) else if x = j then arr.(i) else e) es)
            <> full))

(* Every record kind is there for recovery: appended to an empty
   journal, any entry changes the replayed state.  An audit-only kind,
   one that a replay ignores, fails here. *)
let prop_every_entry_changes_state =
  let print e = Format.asprintf "%a" J.pp_entry e in
  QCheck.Test.make ~name:"every journal entry changes the replayed state" ~count:300
    (QCheck.make ~print gen_entry) (fun e ->
      let empty = J.create ~compact_every:1000 () and one = J.create ~compact_every:1000 () in
      J.append one e;
      J.digest (J.replay one) <> J.digest (J.replay empty))

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "integrity"
    [
      ( "hasher",
        [
          Alcotest.test_case "known answers" `Quick test_known_answers;
          Alcotest.test_case "ints as decimal text" `Quick test_ints_as_text;
        ]
        @ qsuite [ prop_hasher_is_the_word_sequence ] );
      ( "streamed digests",
        qsuite
          [
            prop_protocol_digest_bit_flip;
            prop_subproblem_text_and_seal;
            prop_record_seals_bit_flip;
            prop_cache_digest_set_semantics;
            prop_cache_digest_sensitive;
          ] );
      ( "journal",
        [ Alcotest.test_case "record text" `Quick test_journal_entry_text ]
        @ qsuite [ prop_log_digest; prop_every_entry_changes_state ] );
    ]

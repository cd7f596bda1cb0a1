(* Integrity digests: known answers for the two hashes, the incremental
   hasher against one-shot hashing, and every streamed digest against the
   render-then-hash definition it replaced.  Frame digests, checkpoint
   seals and verdict-cache keys must keep their exact values, because
   cache keys appear in job-log records and reports. *)

module T = Sat.Types
module Cnf = Sat.Cnf
module C = Gridsat_core
module I = C.Integrity
module P = C.Protocol
module Sub = C.Subproblem
module J = C.Journal

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int
let str = Alcotest.string

(* ---------- reference: digests by rendering to a string first ---------- *)

module Ref = struct
  let fnv1a s =
    let h = ref 0xcbf29ce484222325L in
    String.iter
      (fun c -> h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
      s;
    Int64.to_int !h

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

  let render_entry buf (e : P.journal_entry) =
    let pf fmt = Printf.bprintf buf fmt in
    let lits ls = List.iter (fun l -> pf "%d " (T.to_int l)) ls in
    match e with
    | Registered { client } -> pf "jreg %d" client
    | Assigned { pid = o, n; dst; path } ->
        pf "jasn %d.%d %d " o n dst;
        lits path
    | Started { pid = o, n; client } -> pf "jsta %d.%d %d" o n client
    | Granted { requester; partner } -> pf "jgra %d %d" requester partner
    | Split { donor; donor_pid = a, b; donor_path; pid = o, n; dst; path } ->
        pf "jspl %d %d.%d " donor a b;
        lits donor_path;
        pf "-> %d.%d %d " o n dst;
        lits path
    | Refuted { pid = o, n } -> pf "jref %d.%d" o n
    | Shared { clauses } -> pf "jshr %d" clauses
    | Suspected { client } -> pf "jsus %d" client
    | Died { client } -> pf "jdie %d" client
    | Adopted { pid = o, n; client; path } ->
        pf "jado %d.%d %d " o n client;
        lits path
    | Verdict { answer } -> pf "jver %s" answer

  let rec render buf (msg : P.msg) =
    let pf fmt = Printf.bprintf buf fmt in
    let lits ls = List.iter (fun l -> pf "%d " (T.to_int l)) ls in
    let clauses cs =
      List.iter
        (fun c ->
          Array.iter (fun l -> pf "%d " (T.to_int l)) c;
          Buffer.add_char buf '/')
        cs
    in
    match msg with
    | Register -> pf "register"
    | Problem { pid = o, n; sp; sent_at } ->
        pf "problem %d.%d %h " o n sent_at;
        Buffer.add_string buf (subproblem_to_string sp)
    | Problem_received { pid = o, n; from; bytes; path } ->
        pf "received %d.%d %d %d " o n from bytes;
        lits path
    | Split_request `Memory -> pf "split? mem"
    | Split_request `Long_running -> pf "split? long"
    | Split_partner { partner } -> pf "partner %d" partner
    | Split_ok { pid = o, n; donor_pid = o', n'; dst; bytes; path; donor_path } ->
        pf "split_ok %d.%d %d.%d %d %d p " o n o' n' dst bytes;
        lits path;
        pf "d ";
        lits donor_path
    | Split_failed { partner } -> pf "split_failed %d" partner
    | Shares { clauses = cs } ->
        pf "shares ";
        clauses cs
    | Share_relay { origin; clauses = cs } ->
        pf "relay %d " origin;
        clauses cs
    | Finished_unsat { pid = o, n; proof } ->
        pf "unsat %d.%d " o n;
        Option.iter (Buffer.add_string buf) proof
    | Found_model m -> List.iter (pf "%d ") (Sat.Model.true_literals m)
    | Migrate_to { target } -> pf "migrate %d" target
    | Cancel { pid = o, n } -> pf "cancel %d.%d" o n
    | Orphaned { pid = o, n; sp } ->
        pf "orphaned %d.%d " o n;
        Buffer.add_string buf (subproblem_to_string sp)
    | Resync_request -> pf "resync?"
    | Resync { pid; path; busy_since } ->
        (match pid with None -> pf "resync idle " | Some (o, n) -> pf "resync %d.%d " o n);
        pf "%h " busy_since;
        lits path
    | Stop -> pf "stop"
    | Heartbeat { decisions } -> pf "hb %d" decisions
    | Ship { seq; entries; log_digest } ->
        pf "ship %d %s " seq log_digest;
        List.iter
          (fun e ->
            render_entry buf e;
            Buffer.add_char buf '/')
          entries
    | Epoch_notice -> pf "epoch!"
    | Ack { mid } -> pf "ack %d" mid
    | Nack { mid } -> pf "nack %d" mid
    | Reliable { mid; low = _; payload } ->
        pf "rel %d " mid;
        render buf payload
    | Framed { digest; epoch; payload } ->
        pf "frame %d @%d " digest epoch;
        render buf payload
    | Corrupt_payload -> pf "garbage"

  let protocol_digest msg =
    let buf = Buffer.create 256 in
    render buf msg;
    fnv1a (Buffer.contents buf)

  let cache_digest cnf =
    let clause arr = Array.to_list arr |> List.map T.to_int |> List.sort compare in
    let clauses = List.sort_uniq compare (List.map clause (Clause_lists.to_list (Cnf.clauses cnf))) in
    let buf = Buffer.create 256 in
    Buffer.add_string buf (Printf.sprintf "p %d;" (Cnf.nvars cnf));
    List.iter
      (fun c ->
        List.iter
          (fun l ->
            Buffer.add_string buf (string_of_int l);
            Buffer.add_char buf ' ')
          c;
        Buffer.add_char buf ';')
      clauses;
    let s = Buffer.contents buf in
    Printf.sprintf "%x-%x" (fnv1a s) (crc32 s)

  (* The streamed key as first written: every clause copied, converted to
     DIMACS and sorted, the clause arrays then sorted themselves. *)
  let compare_clauses (a : int array) (b : int array) =
    let la = Array.length a and lb = Array.length b in
    let rec from k =
      if k = la || k = lb then Int.compare la lb
      else match Int.compare a.(k) b.(k) with 0 -> from (k + 1) | c -> c
    in
    from 0

  let cache_digest_streamed cnf =
    let clauses =
      Array.of_list (Clause_lists.to_list (Sat.Cnf.clauses cnf))
      |> Array.map (fun c ->
             let ints = Array.map Sat.Types.to_int c in
             Array.stable_sort Int.compare ints;
             ints)
    in
    Array.stable_sort compare_clauses clauses;
    let h = I.hasher () in
    I.add_string h "p ";
    I.add_int h (Sat.Cnf.nvars cnf);
    I.add_char h ';';
    Array.iteri
      (fun k c ->
        if k = 0 || compare_clauses clauses.(k - 1) c <> 0 then begin
          Array.iter
            (fun l ->
              I.add_int h l;
              I.add_char h ' ')
            c;
          I.add_char h ';'
        end)
      clauses;
    Printf.sprintf "%x-%x" (I.fnv1a_of h) (I.crc32_of h)
end

(* ---------- known answers ---------- *)

let test_known_answers () =
  check int "crc32 check value" 0xCBF43926 (I.crc32 "123456789");
  check int "crc32 of nothing" 0 (I.crc32 "");
  check int "fnv1a of nothing is the offset basis"
    (Int64.to_int 0xcbf29ce484222325L)
    (I.fnv1a "");
  check int "fnv1a of a" (Int64.to_int 0xaf63dc4c8601ec8cL) (I.fnv1a "a");
  List.iter
    (fun s ->
      check int ("fnv1a matches the Int64 definition on " ^ String.escaped s) (Ref.fnv1a s) (I.fnv1a s))
    [ ""; "a"; "foobar"; "123456789"; String.make 300 '\xff' ]

let test_add_int_is_decimal_text () =
  List.iter
    (fun n ->
      let h = I.hasher () in
      I.add_int h n;
      let text = string_of_int n in
      check int ("fnv1a of " ^ text) (I.fnv1a text) (I.fnv1a_of h);
      check int ("crc32 of " ^ text) (I.crc32 text) (I.crc32_of h);
      check str ("rendered " ^ text) text (I.render I.put_int n))
    [ 0; 1; -1; 9; 10; -10; 99; 100; 123456789; max_int; min_int; min_int + 1 ]

type piece = C of char | S of string | N of int

let prop_hasher_streams_concatenation =
  let gen =
    QCheck.Gen.(
      list_size (int_bound 20)
        (oneof
           [
             map (fun c -> C c) char;
             map (fun s -> S s) (string_size ~gen:char (int_bound 12));
             map (fun n -> N n) (oneof [ small_signed_int; int ]);
           ]))
  in
  QCheck.Test.make ~name:"hasher equals hashing the concatenated bytes" ~count:300 (QCheck.make gen)
    (fun pieces ->
      let h = I.hasher () in
      let text =
        String.concat ""
          (List.map
             (function
               | C c ->
                   I.add_char h c;
                   String.make 1 c
               | S s ->
                   I.add_string h s;
                   s
               | N n ->
                   I.add_int h n;
                   string_of_int n)
             pieces)
      in
      I.fnv1a_of h = Ref.fnv1a text && I.crc32_of h = Ref.crc32 text)

(* The decimal kernel at the edges of its packing: each change of digit
   count, the end of the one-word path at 10^4, and the extremes, which
   take groups of four digits.  Slices are drawn
   from these and from any int; the hashed bytes must be those of the
   rendered text, through the hasher (FNV-1a and CRC-32), through an
   FNV-1a-only sink, and as literals through [put_lits]. *)
let edge_ints =
  List.concat_map (fun n -> [ n; -n ]) [ 0; 9; 10; 99; 100; 999; 1000; 9999; 10000; max_int ] @ [ min_int ]

let prop_kernel_is_rendered_text =
  let gen =
    QCheck.Gen.(
      triple
        (list_size (int_bound 12) (oneof [ oneofl edge_ints; int; small_signed_int ]))
        (oneofl [ ' '; ';'; '\n'; '/' ])
        (pair (int_bound 3) (int_bound 3)))
  in
  QCheck.Test.make ~name:"decimal kernel equals hashing the rendered text" ~count:500
    (QCheck.make gen) (fun (ns, sep, (drop_front, drop_back)) ->
      let a = Array.of_list ns in
      let pos = min drop_front (Array.length a) in
      let len = max 0 (Array.length a - pos - drop_back) in
      let slice = Array.to_list (Array.sub a pos len) in
      let text xs = String.concat "" (List.map (fun n -> string_of_int n ^ String.make 1 sep) xs) in
      let h = I.hasher () in
      I.add_ints h ~sep a pos len;
      let fnv_only =
        I.hash_fnv1a
          (fun sink xs ->
            List.iter
              (fun n ->
                I.put_int sink n;
                I.put_char sink sep)
              xs)
          slice
      in
      (* literals: every nonzero int that is a variable's DIMACS int *)
      let dimacs = List.filter (fun n -> n <> 0 && n <> min_int && abs n <= max_int / 2) slice in
      let lits = Array.of_list (List.map T.lit_of_int dimacs) in
      let put_lits sink () = I.put_lits sink ~sep lits 0 (Array.length lits) in
      I.fnv1a_of h = Ref.fnv1a (text slice)
      && I.crc32_of h = Ref.crc32 (text slice)
      && fnv_only = Ref.fnv1a (text slice)
      && I.crc32_of (I.hash put_lits ()) = Ref.crc32 (text dimacs)
      && I.hash_fnv1a put_lits () = Ref.fnv1a (text dimacs)
      && I.render put_lits () = text dimacs)

(* ---------- random wire messages ---------- *)

let gen_int = QCheck.Gen.(oneof [ small_signed_int; int; oneofl [ 0; -1; max_int; min_int ] ])

let gen_lit =
  QCheck.Gen.(
    map
      (fun i -> T.lit_of_int (if i = 0 then 1 else i))
      (oneof [ small_signed_int; int_range (-(1 lsl 40)) (1 lsl 40) ]))

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
        map2 (fun pid client -> P.Started { pid; client }) gen_pid gen_int;
        map2 (fun requester partner -> P.Granted { requester; partner }) gen_int gen_int;
        map3
          (fun (donor, donor_pid, donor_path) (pid, dst) path ->
            P.Split { donor; donor_pid; donor_path; pid; dst; path })
          (triple gen_int gen_pid gen_lits) (pair gen_pid gen_int) gen_lits;
        map (fun pid -> P.Refuted { pid }) gen_pid;
        map (fun clauses -> P.Shared { clauses }) gen_int;
        map (fun client -> P.Suspected { client }) gen_int;
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

let prop_protocol_digest =
  QCheck.Test.make ~name:"Protocol.digest equals the rendered-text digest" ~count:1000
    (QCheck.make (gen_msg 3))
    (fun msg -> P.digest msg = Ref.protocol_digest msg)

let prop_subproblem_text_and_seal =
  QCheck.Test.make ~name:"subproblem text and checkpoint seal unchanged" ~count:300
    (QCheck.make gen_sp)
    (fun sp ->
      let text = Sub.to_string sp in
      text = Ref.subproblem_to_string sp
      && C.Checkpoint.seal_of sp = I.crc32 text
      && C.Checkpoint.seal_of sp = Ref.crc32 text)

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

let prop_cache_digest =
  QCheck.Test.make ~name:"Cache.digest equals the rendered-text key" ~count:500
    (QCheck.make gen_cache_cnf)
    (fun cnf -> Gridsat_service.Cache.digest cnf = Ref.cache_digest cnf)

(* Bigger formulas too: long clauses (heap-sorted by Cnf), wide
   variable ranges (multi-digit DIMACS ints), and many clauses sharing
   prefixes. *)
let gen_cache_cnf_wide =
  let open QCheck.Gen in
  int_range 1 400 >>= fun nv ->
  let lit = map2 (fun v s -> if s then v else -v) (int_range 1 nv) bool in
  list_size (int_bound 60) (list_size (int_range 1 30) lit) >|= fun clauses ->
  Cnf.make ~nvars:nv clauses

let prop_cache_digest_streamed =
  QCheck.Test.make ~name:"Cache.digest equals the sort-every-clause key" ~count:500
    (QCheck.make (QCheck.Gen.oneof [ gen_cache_cnf; gen_cache_cnf_wide ]))
    (fun cnf -> Gridsat_service.Cache.digest cnf = Ref.cache_digest_streamed cnf)

(* ---------- journal record text ---------- *)

let test_journal_entry_text () =
  let text e = Format.asprintf "%a" J.pp_entry e in
  let lits = List.map T.lit_of_int in
  List.iter
    (fun (expected, e) -> check str expected expected (text e))
    [
      ("registered 3", J.Registered { client = 3 });
      ("assigned 0.1 -> 4 [1 -3]", J.Assigned { pid = (0, 1); dst = 4; path = lits [ 1; -3 ] });
      ("started 0.1 @ 4", J.Started { pid = (0, 1); client = 4 });
      ("granted 2 + 5", J.Granted { requester = 2; partner = 5 });
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
      ("shared 7", J.Shared { clauses = 7 });
      ("suspected 4", J.Suspected { client = 4 });
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
  | Started s -> Started { s with client = s.client + 1 }
  | Granted g -> Granted { g with partner = g.partner + 1 }
  | Split s -> Split { s with dst = s.dst + 1 }
  | Refuted { pid = a, b } -> Refuted { pid = (a, b + 1) }
  | Shared { clauses } -> Shared { clauses = clauses + 1 }
  | Suspected { client } -> Suspected { client = client + 1 }
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

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "integrity"
    [
      ( "hasher",
        [
          Alcotest.test_case "known answers" `Quick test_known_answers;
          Alcotest.test_case "ints as decimal text" `Quick test_add_int_is_decimal_text;
        ]
        @ qsuite [ prop_hasher_streams_concatenation; prop_kernel_is_rendered_text ] );
      ( "streamed digests",
        qsuite
          [
            prop_protocol_digest;
            prop_subproblem_text_and_seal;
            prop_cache_digest;
            prop_cache_digest_streamed;
          ] );
      ( "journal",
        [ Alcotest.test_case "record text" `Quick test_journal_entry_text ]
        @ qsuite [ prop_log_digest ] );
    ]

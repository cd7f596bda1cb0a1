(* Unit, integration and property tests for the CDCL core (lib/sat). *)

module T = Sat.Types
module Cnf = Sat.Cnf
module Solver = Sat.Solver
module Brute = Sat.Brute
module Model = Sat.Model
module Heap = Sat.Heap
module Dimacs = Sat.Dimacs

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

(* ---------- helpers ---------- *)

let solve_cnf ?config cnf =
  let s = Solver.create ?config cnf in
  Solver.solve s

let is_sat = function Solver.Sat _ -> true | _ -> false
let is_unsat = function Solver.Unsat -> true | _ -> false

let random_cnf_gen ~max_vars ~max_clauses ~max_len =
  let open QCheck.Gen in
  int_range 1 max_vars >>= fun nv ->
  int_range 0 max_clauses >>= fun nc ->
  let lit_gen = map2 (fun v s -> if s then v else -v) (int_range 1 nv) bool in
  let clause_gen = list_size (int_range 1 max_len) lit_gen in
  list_size (return nc) clause_gen >|= fun clauses -> Cnf.make ~nvars:nv clauses

let arbitrary_cnf =
  QCheck.make
    ~print:(fun c -> Format.asprintf "%a" Cnf.pp c)
    (random_cnf_gen ~max_vars:10 ~max_clauses:40 ~max_len:4)

(* ---------- Types ---------- *)

let test_lit_encoding () =
  check int "pos var" 3 (T.var (T.pos 3));
  check int "neg var" 3 (T.var (T.neg 3));
  check bool "pos polarity" true (T.is_pos (T.pos 5));
  check bool "neg polarity" false (T.is_pos (T.neg 5));
  check int "negate pos" (T.neg 4) (T.negate (T.pos 4));
  check int "negate neg" (T.pos 4) (T.negate (T.neg 4));
  check int "dimacs roundtrip pos" 7 (T.to_int (T.lit_of_int 7));
  check int "dimacs roundtrip neg" (-7) (T.to_int (T.lit_of_int (-7)))

let test_lit_of_int_zero () =
  Alcotest.check_raises "zero rejected" (Invalid_argument "Types.lit_of_int: zero") (fun () ->
      ignore (T.lit_of_int 0))

let test_lit_value () =
  check bool "pos under true" true (T.lit_value T.True (T.pos 1) = T.True);
  check bool "neg under true" true (T.lit_value T.True (T.neg 1) = T.False);
  check bool "pos under false" true (T.lit_value T.False (T.pos 1) = T.False);
  check bool "neg under false" true (T.lit_value T.False (T.neg 1) = T.True);
  check bool "unknown" true (T.lit_value T.Unknown (T.pos 1) = T.Unknown)

let prop_lit_roundtrip =
  QCheck.Test.make ~name:"lit_of_int/to_int roundtrip" ~count:200
    QCheck.(map (fun i -> if i = 0 then 1 else i) (int_range (-1000) 1000))
    (fun i -> T.to_int (T.lit_of_int i) = i)

let prop_negate_involution =
  QCheck.Test.make ~name:"negate is an involution" ~count:200
    QCheck.(int_range 1 1000)
    (fun v -> T.negate (T.negate (T.pos v)) = T.pos v)

(* ---------- Heap ---------- *)

let test_heap_pop_order () =
  let score = [| 0.; 5.; 1.; 9.; 3.; 7. |] in
  let h = Heap.create ~nvars:5 ~key:score in
  List.iter (Heap.insert h) [ 1; 2; 3; 4; 5 ];
  let order = List.init 5 (fun _ -> Heap.remove_max h) in
  check bool "pops by descending score" true (order = [ 3; 5; 1; 4; 2 ]);
  check bool "empty afterwards" true (Heap.is_empty h)

let test_heap_update () =
  let score = Array.make 6 0. in
  let h = Heap.create ~nvars:5 ~key:score in
  List.iter (Heap.insert h) [ 1; 2; 3; 4; 5 ];
  score.(2) <- 100.;
  Heap.increase h 2;
  check int "updated var first" 2 (Heap.remove_max h)

let test_heap_duplicate_insert () =
  let h = Heap.create ~nvars:3 ~key:[| 0.; 1.; 2.; 3. |] in
  Heap.insert h 2;
  Heap.insert h 2;
  check int "no duplicate" 1 (Heap.size h)

let prop_heap_sorts =
  let gen = QCheck.(list_of_size (QCheck.Gen.int_range 1 50) (float_range 0. 100.)) in
  QCheck.Test.make ~name:"heap pops in score order" ~count:100 gen (fun scores ->
      let n = List.length scores in
      QCheck.assume (n > 0);
      let score = Array.of_list (0. :: scores) in
      let h = Heap.create ~nvars:n ~key:score in
      for v = 1 to n do
        Heap.insert h v
      done;
      let popped = List.init n (fun _ -> Heap.remove_max h) in
      let keys = List.map (fun v -> score.(v)) popped in
      List.sort (fun a b -> Float.compare b a) keys = keys)

(* ---------- more Stats / Model coverage ---------- *)

let test_stats_add_and_averages () =
  let a = Sat.Stats.create () and b = Sat.Stats.create () in
  a.Sat.Stats.learned <- 2;
  a.Sat.Stats.learned_literals <- 10;
  a.Sat.Stats.max_decision_level <- 4;
  b.Sat.Stats.learned <- 3;
  b.Sat.Stats.learned_literals <- 5;
  b.Sat.Stats.max_decision_level <- 9;
  Sat.Stats.add a b;
  check int "learned summed" 5 a.Sat.Stats.learned;
  check bool "avg length" true (abs_float (Sat.Stats.avg_learned_length a -. 3.) < 1e-9);
  check int "max level maxed" 9 a.Sat.Stats.max_decision_level;
  check bool "bcp fraction zero without time" true (Sat.Stats.bcp_fraction a = 0.)

let test_model_accessors () =
  let m = Model.of_array [| false; true; false; true |] in
  check int "nvars" 3 (Model.nvars m);
  check bool "value" true (Model.value m 1);
  check bool "signed literals" true (Model.true_literals m = [ 1; -2; 3 ]);
  Alcotest.check_raises "out of range" (Invalid_argument "Model.value: variable out of range")
    (fun () -> ignore (Model.value m 4))

let test_cnf_with_extra_clauses () =
  let base = Cnf.make ~nvars:3 [ [ 1; 2 ] ] in
  let extended = Cnf.with_extra_clauses base [ [| T.neg 1 |]; [| T.neg 2 |] ] in
  check int "clauses appended" 3 (Cnf.nclauses extended);
  check bool "combination unsat" true (Brute.solve extended = Brute.Unsat);
  check bool "base unchanged" true (Cnf.nclauses base = 1)

let test_dimacs_file_roundtrip () =
  let cnf = Cnf.make ~nvars:4 [ [ 1; 2 ]; [ -1; 3 ]; [ 2; -4 ]; [ -3 ] ] in
  let path = Filename.temp_file "gridsat_test" ".cnf" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Dimacs.write_file path cnf;
      let back = Dimacs.parse_file path in
      check int "vars survive" (Cnf.nvars cnf) (Cnf.nvars back);
      check int "clauses survive" (Cnf.nclauses cnf) (Cnf.nclauses back))

(* ---------- Cnf ---------- *)

let test_cnf_normalisation () =
  let cnf = Cnf.make ~nvars:3 [ [ 1; 1; 2 ]; [ 1; -1 ]; [ 3 ] ] in
  check int "tautology dropped" 1 (Cnf.dropped_tautologies cnf);
  check int "clauses kept" 2 (Cnf.nclauses cnf);
  check int "duplicate literal removed" 3 (Cnf.nliterals cnf)

let prop_sort_lits =
  QCheck.Test.make ~name:"sort_lits sorts in place" ~count:300
    QCheck.(array_of_size (Gen.int_bound 60) (int_range 2 80))
    (fun a ->
      let sorted = Array.copy a in
      T.sort_lits sorted;
      Array.to_list sorted = List.sort compare (Array.to_list a))

(* The definition [normalise] must meet: the sorted distinct literals,
   none for a tautology.  Half the inputs arrive already sorted, as
   formula and subproblem clauses do. *)
let prop_normalise =
  let gen =
    QCheck.Gen.(
      int_range 1 30 >>= fun nv ->
      list_size (int_bound 40) (map2 (fun v s -> if s then T.pos v else T.neg v) (int_range 1 nv) bool)
      >>= fun lits ->
      bool >|= fun presorted ->
      (nv, Array.of_list (if presorted then List.sort_uniq compare lits else lits)))
  in
  QCheck.Test.make ~name:"Cnf.normalise sorts, dedupes, drops tautologies" ~count:500
    (QCheck.make gen) (fun (nvars, lits) ->
      let input = Array.copy lits in
      let distinct = List.sort_uniq compare (Array.to_list lits) in
      let expected =
        if List.exists (fun l -> List.mem (T.negate l) distinct) distinct then None
        else Some distinct
      in
      Option.map Array.to_list (Cnf.normalise ~nvars lits) = expected
      && lits = input
      && match Cnf.normalise ~nvars lits with Some c -> lits = [||] || c != lits | None -> true)

(* Every constructor goes through the one builder: clause by clause in
   input order, each normalised, tautologies dropped and counted.  The
   buffers start small, so long clauses make them grow. *)
let prop_builder =
  let gen =
    QCheck.Gen.(
      int_range 1 12 >>= fun nv ->
      let lit = map2 (fun v s -> if s then T.pos v else T.neg v) (int_range 1 nv) bool in
      pair (list_size (int_bound 30) (array_size (int_bound 40) lit)) (list_size (int_bound 5) (array_size (int_bound 6) lit))
      >|= fun (cs, extra) -> (nv, cs, extra))
  in
  QCheck.Test.make ~name:"Cnf builder keeps order, normalises, counts tautologies" ~count:300
    (QCheck.make gen) (fun (nvars, cs, extra) ->
      let b = Cnf.builder ~nvars ~clauses:0 ~lits:0 in
      List.iter
        (fun c ->
          Array.iter (Cnf.add b) c;
          Cnf.end_clause b)
        cs;
      let cnf = Cnf.build b in
      let kept = List.filter_map (Cnf.normalise ~nvars) cs in
      let joined = Cnf.with_extra_clauses cnf extra and whole = Cnf.of_lit_arrays ~nvars (cs @ extra) in
      Clause_lists.to_list (Cnf.clauses cnf) = kept
      && Cnf.dropped_tautologies cnf = List.length cs - List.length kept
      && Cnf.has_empty_clause cnf = List.mem [||] kept
      && Clause_lists.to_list (Cnf.clauses joined) = Clause_lists.to_list (Cnf.clauses whole)
      && Cnf.dropped_tautologies joined = Cnf.dropped_tautologies whole
      && Clause_lists.to_list (Clause_lists.of_list cs) = cs)

let test_normalise_out_of_range () =
  List.iter
    (fun (ints, bad) ->
      Alcotest.check_raises "first bad literal of the input named"
        (Invalid_argument (Printf.sprintf "Cnf: literal %d out of range (nvars = 3)" bad))
        (fun () -> ignore (Cnf.normalise ~nvars:3 (Array.of_list (List.map T.lit_of_int ints)))))
    [ ([ 1; 5; 2 ], 5); ([ 7; -9 ], 7); ([ -9; 7 ], -9); ([ 2; 1; -4 ], -4); ([ 4; 4 ], 4) ]

(* Builds share one reused buffer per domain: a second build started while
   the first is unfinished, or after one abandoned by an exception, must
   not disturb either. *)
let test_builders_interleave () =
  let clause b ints =
    List.iter (fun i -> Cnf.add b (T.lit_of_int i)) ints;
    Cnf.end_clause b
  in
  let b1 = Cnf.builder ~nvars:3 ~clauses:2 ~lits:4 in
  clause b1 [ 3; -1 ];
  let b2 = Cnf.builder ~nvars:2 ~clauses:1 ~lits:2 in
  clause b2 [ 2; 2 ];
  clause b1 [ 2 ];
  let c2 = Cnf.build b2 and c1 = Cnf.build b1 in
  let ints cnf = List.map (fun c -> List.map T.to_int (Array.to_list c)) (Clause_lists.to_list (Cnf.clauses cnf)) in
  check Alcotest.(list (list int)) "first" [ [ -1; 3 ]; [ 2 ] ] (ints c1);
  check Alcotest.(list (list int)) "second" [ [ 2 ] ] (ints c2);
  (match Dimacs.parse_string "p cnf 2 2\n1 -2 0\n3 0\n" with
  | exception Dimacs.Parse_error _ -> ()
  | _ -> Alcotest.fail "expected Parse_error");
  check Alcotest.(list (list int)) "after an abandoned parse" [ [ 1; -2 ] ]
    (ints (Dimacs.parse_string "p cnf 2 1\n1 -2 0\n"));
  check Alcotest.(list (list int)) "first, still" [ [ -1; 3 ]; [ 2 ] ] (ints c1)

let test_cnf_empty_clause () =
  let cnf = Cnf.make ~nvars:2 [ []; [ 1 ] ] in
  check bool "empty clause detected" true (Cnf.has_empty_clause cnf);
  check bool "solver reports unsat" true (is_unsat (solve_cnf cnf))

let test_cnf_out_of_range () =
  Alcotest.check_raises "literal out of range"
    (Invalid_argument "Cnf: literal 5 out of range (nvars = 3)") (fun () ->
      ignore (Cnf.make ~nvars:3 [ [ 5 ] ]))

let test_cnf_eval () =
  let cnf = Cnf.make ~nvars:3 [ [ 1; -2 ]; [ 3 ] ] in
  check bool "satisfying" true (Cnf.eval cnf [| false; true; true; true |]);
  check bool "falsifying" false (Cnf.eval cnf [| false; false; true; true |])

let prop_cnf_eval_total =
  QCheck.Test.make ~name:"eval agrees with clause-wise eval" ~count:100 arbitrary_cnf
    (fun cnf ->
      let n = Cnf.nvars cnf in
      let a = Array.init (n + 1) (fun i -> i mod 2 = 0) in
      Cnf.eval cnf a
      = List.for_all (fun c -> Cnf.clause_eval c a) (Clause_lists.to_list (Cnf.clauses cnf)))

(* ---------- Dimacs ---------- *)

let test_dimacs_parse () =
  let doc = "c a comment\np cnf 3 2\n1 -2 0\n2 3 0\n" in
  let cnf = Dimacs.parse_string doc in
  check int "nvars" 3 (Cnf.nvars cnf);
  check int "nclauses" 2 (Cnf.nclauses cnf)

let test_dimacs_multiline_clause () =
  let doc = "p cnf 3 1\n1\n-2\n3 0\n" in
  let cnf = Dimacs.parse_string doc in
  check int "one clause across lines" 1 (Cnf.nclauses cnf)

let test_dimacs_errors () =
  let expect_fail doc =
    match Dimacs.parse_string doc with
    | exception Dimacs.Parse_error _ -> ()
    | _ -> Alcotest.fail "expected Parse_error"
  in
  expect_fail "1 2 0\n";
  expect_fail "p cnf x y\n";
  expect_fail "p cnf 2 1\n3 0\n";
  expect_fail "p cnf 2 1\np cnf 2 1\n1 0\n"

(* [abs min_int] is negative, so a range check through [abs] let this
   literal reach [Cnf.make], which raised [Invalid_argument]. *)
let test_dimacs_min_int_literal () =
  let doc = Printf.sprintf "p cnf 3 1\n%d 0\n" min_int in
  match Dimacs.parse_string doc with
  | exception Dimacs.Parse_error _ -> ()
  | _ -> Alcotest.fail "expected Parse_error"

let expect_parse_error doc =
  match Dimacs.parse_string doc with
  | exception Dimacs.Parse_error _ -> ()
  | _ -> Alcotest.failf "expected Parse_error on %S" doc

(* Integers are decimal: OCaml literal syntax used to slip through
   [int_of_string_opt], so [0x2 -0b11] read as (2 -3), [1_0] as 10, and a
   hexadecimal header count was accepted. *)
let test_dimacs_decimal_only () =
  expect_parse_error "p cnf 3 1\n0x2 -0b11 0\n";
  expect_parse_error "p cnf 10 1\n1_0 0\n";
  expect_parse_error "p cnf 0x3 1\n1 0\n";
  expect_parse_error "p cnf 3 1\n0o1 0\n";
  expect_parse_error "p cnf 3 1\n2a 0\n";
  expect_parse_error "p cnf 3 1\n- 0\n";
  expect_parse_error "p cnf 3 1\n99999999999999999999 0\n";
  expect_parse_error "p cnf 3 1\n-99999999999999999999 0\n";
  expect_parse_error "p cnf 99999999999999999999 1\n1 0\n";
  let cnf = Dimacs.parse_string "p cnf 3 1\n+2 -03 0\n" in
  check bool "signs and leading zeros are decimal" true
    (Clause_lists.to_list (Cnf.clauses cnf) = [ [| T.pos 2; T.neg 3 |] ])

(* SATLIB [uf*]/[uuf*] files end with [%] then [0]. *)
let test_dimacs_percent_trailer () =
  let cnf = Dimacs.parse_string "c uf3\np cnf 3 2\n 1 -2 0\n2 3 0\n%\n0\n\n" in
  check int "clauses before the trailer" 2 (Cnf.nclauses cnf);
  check int "nothing after it" 0
    (Cnf.nclauses (Dimacs.parse_string "p cnf 3 1\n%\n1 2 0\nnot dimacs\n"))

(* Tabs, CRs and spaces are one whitespace class, in the header too. *)
let test_dimacs_whitespace () =
  let cnf = Dimacs.parse_string "p\tcnf\t3 1\r\n1\t-3\r2 0\r\n" in
  check int "header with tabs" 3 (Cnf.nvars cnf);
  check bool "clause split on tab and CR" true
    (Clause_lists.to_list (Cnf.clauses cnf) = [ [| T.pos 1; T.pos 2; T.neg 3 |] ])

(* The old decoder's clauses, normalised by the definition [Cnf] must
   meet: sorted distinct literals, tautologies dropped. *)
let legacy_normalised (raw : int list list) =
  let norm c =
    let d = List.sort_uniq compare (List.map T.lit_of_int c) in
    if List.exists (fun l -> List.mem (T.negate l) d) d then None else Some (Array.of_list d)
  in
  List.filter_map norm raw

let prop_dimacs_matches_legacy =
  QCheck.Test.make ~name:"decoder matches the old one outside the documented divergences"
    ~count:2000 ~long_factor:20 (QCheck.make ~print:String.escaped Doc_gen.dimacs_doc) (fun doc ->
      let fresh = try Ok (Dimacs.parse_string doc) with Dimacs.Parse_error m -> Error m in
      let old = try Some (Legacy.Dimacs.parse_raw (Doc_gen.dimacs_legacy_view doc)) with _ -> None in
      match (fresh, old) with
      | Ok cnf, Some (nvars, raw) ->
          let expected = legacy_normalised raw in
          Cnf.nvars cnf = nvars
          && Clause_lists.to_list (Cnf.clauses cnf) = expected
          && Cnf.dropped_tautologies cnf = List.length raw - List.length expected
          && Cnf.has_empty_clause cnf = List.exists (fun c -> c = [||]) expected
      | Error _, None -> true
      | _ -> false)

(* The reader checks each clause as it reads it and normalises only those
   not already sorted, distinct and tautology-free: each document here
   sits at that check's boundary, and must read as the old decoder's
   clauses normalised. *)
let test_dimacs_canonical_boundary () =
  let same_as_legacy doc =
    let cnf = Dimacs.parse_string doc in
    let nvars, raw = Legacy.Dimacs.parse_raw (Doc_gen.dimacs_legacy_view doc) in
    let expected = legacy_normalised raw in
    check int (doc ^ ": nvars") nvars (Cnf.nvars cnf);
    check bool (doc ^ ": clauses") true (Clause_lists.to_list (Cnf.clauses cnf) = expected);
    check int (doc ^ ": tautologies") (List.length raw - List.length expected)
      (Cnf.dropped_tautologies cnf)
  in
  List.iter same_as_legacy
    [
      "p cnf 4 2\n1 2 4 3 0\n-1 -2 0\n";
      "p cnf 3 2\n1 2 -3 3 0\n3 -3 0\n";
      "p cnf 3 2\n-3 3 0\n1 0\n";
      "p cnf 3 1\n1 2 2 0\n";
      "p cnf 3 1\n-1 2 -2 0\n";
      "p cnf 3 2\n1 2\nc a comment\n3 0\n2 1\nc\n0\n";
      "p cnf 3 2\n1 -2 0\n3 2";
      "p cnf 3 2\n1 -2 0\n3 3";
      "p cnf 3 2\n1 2 0\n2 3 0\n%\n0\n";
      "p cnf 3 2\n1 2 0\n3 1\n%\n0\n";
      "p cnf 3 1\n0\n";
    ];
  let raises doc =
    (match Legacy.Dimacs.parse_raw (Doc_gen.dimacs_legacy_view doc) with
    | exception Legacy.Dimacs.Parse_error _ -> ()
    | _ -> Alcotest.failf "%S: the old decoder accepted it" doc);
    Alcotest.check_raises doc (Dimacs.Parse_error "literal 4 exceeds declared variable count 3")
      (fun () -> ignore (Dimacs.parse_string doc))
  in
  raises "p cnf 3 1\n1 2 4 0\n";
  raises "p cnf 3 2\n1 2 0\n-1 3\n4 0\n"

let prop_dimacs_mutations =
  QCheck.Test.make ~name:"byte mutations raise only Parse_error" ~count:2000 ~long_factor:20
    (QCheck.make ~print:String.escaped QCheck.Gen.(Doc_gen.dimacs_doc >>= Doc_gen.mutate))
    (fun doc ->
      match Dimacs.parse_string doc with
      | _ | (exception Dimacs.Parse_error _) -> true)

let prop_dimacs_roundtrip =
  QCheck.Test.make ~name:"dimacs print/parse roundtrip" ~count:100 ~long_factor:20 arbitrary_cnf
    (fun cnf ->
      let cnf' = Dimacs.parse_string (Dimacs.to_string cnf) in
      Cnf.nvars cnf' = Cnf.nvars cnf
      && Clause_lists.to_list (Cnf.clauses cnf') = Clause_lists.to_list (Cnf.clauses cnf))

(* ---------- Brute ---------- *)

let test_brute_simple () =
  let sat = Cnf.make ~nvars:2 [ [ 1; 2 ]; [ -1; 2 ] ] in
  (match Brute.solve sat with
  | Brute.Sat m -> check bool "model satisfies" true (Model.satisfies sat m)
  | Brute.Unsat -> Alcotest.fail "expected sat");
  let unsat = Cnf.make ~nvars:1 [ [ 1 ]; [ -1 ] ] in
  check bool "unsat" true (Brute.solve unsat = Brute.Unsat)

let test_brute_count () =
  (* x1 or x2 has 3 models out of 4 *)
  let cnf = Cnf.make ~nvars:2 [ [ 1; 2 ] ] in
  check int "model count" 3 (Brute.count_models cnf)

(* ---------- Solver: basic behaviours ---------- *)

let test_solver_empty_formula () =
  let cnf = Cnf.make ~nvars:3 [] in
  check bool "trivially sat" true (is_sat (solve_cnf cnf))

let test_solver_unit_propagation () =
  let cnf = Cnf.make ~nvars:3 [ [ 1 ]; [ -1; 2 ]; [ -2; 3 ] ] in
  match solve_cnf cnf with
  | Solver.Sat m ->
      check bool "v1" true (Model.value m 1);
      check bool "v2" true (Model.value m 2);
      check bool "v3" true (Model.value m 3)
  | _ -> Alcotest.fail "expected sat"

let test_solver_conflict_at_root () =
  let cnf = Cnf.make ~nvars:2 [ [ 1 ]; [ -1; 2 ]; [ -2 ] ] in
  check bool "root conflict unsat" true (is_unsat (solve_cnf cnf))

let php ~pigeons ~holes =
  (* pigeon p in hole h is variable (p-1)*holes + h *)
  let v p h = ((p - 1) * holes) + h in
  let at_least =
    List.init pigeons (fun p -> List.init holes (fun h -> v (p + 1) (h + 1)))
  in
  let at_most =
    List.concat_map
      (fun h ->
        List.concat_map
          (fun p1 ->
            List.filter_map
              (fun p2 -> if p2 > p1 then Some [ -v p1 h; -v p2 h ] else None)
              (List.init pigeons (fun i -> i + 1)))
          (List.init pigeons (fun i -> i + 1)))
      (List.init holes (fun i -> i + 1))
  in
  Cnf.make ~nvars:(pigeons * holes) (at_least @ at_most)

let test_solver_php () =
  check bool "php(4,3) unsat" true (is_unsat (solve_cnf (php ~pigeons:4 ~holes:3)));
  check bool "php(5,4) unsat" true (is_unsat (solve_cnf (php ~pigeons:5 ~holes:4)));
  check bool "php(4,4) sat" true (is_sat (solve_cnf (php ~pigeons:4 ~holes:4)))

let test_solver_model_verified () =
  let cnf = php ~pigeons:4 ~holes:4 in
  match solve_cnf cnf with
  | Solver.Sat m -> check bool "model checks" true (Model.satisfies cnf m)
  | _ -> Alcotest.fail "expected sat"

let test_solver_budget_resume () =
  let cnf = php ~pigeons:7 ~holes:6 in
  let s = Solver.create cnf in
  let steps = ref 0 in
  let rec loop () =
    incr steps;
    if !steps > 1_000_000 then Alcotest.fail "did not terminate";
    match Solver.run s ~budget:100 with
    | Solver.Budget_exhausted -> loop ()
    | r -> r
  in
  check bool "resumable run finds unsat" true (is_unsat (loop ()));
  check bool "took several slices" true (!steps > 1)

let test_solver_budget_matches_single_run () =
  (* Chunked execution must reach the same answer as one big run. *)
  let cnf = php ~pigeons:6 ~holes:5 in
  let one = solve_cnf cnf in
  let s = Solver.create cnf in
  let rec loop () =
    match Solver.run s ~budget:57 with Solver.Budget_exhausted -> loop () | r -> r
  in
  check bool "same answer" true (is_unsat one && is_unsat (loop ()))

let test_solver_stats_populated () =
  let cnf = php ~pigeons:5 ~holes:4 in
  let s = Solver.create cnf in
  ignore (Solver.solve s);
  let st = Solver.stats s in
  check bool "decisions > 0" true (st.Sat.Stats.decisions > 0);
  check bool "propagations > 0" true (st.Sat.Stats.propagations > 0);
  check bool "conflicts > 0" true (st.Sat.Stats.conflicts > 0);
  check bool "learned > 0" true (st.Sat.Stats.learned > 0)

let test_solver_mem_pressure () =
  let cnf = php ~pigeons:8 ~holes:7 in
  let config = { Solver.default_config with mem_limit_bytes = 2_000 } in
  let s = Solver.create ~config cnf in
  let rec loop n =
    if n = 0 then Alcotest.fail "never reported memory pressure"
    else
      match Solver.run s ~budget:10_000 with
      | Solver.Mem_pressure -> ()
      | Solver.Budget_exhausted -> loop (n - 1)
      | Solver.Unsat -> Alcotest.fail "solved despite tiny memory (unexpected for this test)"
      | Solver.Sat _ -> Alcotest.fail "php is unsat"
  in
  loop 10_000

let test_solver_roots () =
  let cnf = Cnf.make ~nvars:3 [ [ 1; 2 ]; [ -1; 3 ] ] in
  let s = Solver.create_with_roots ~nvars:3 (Cnf.clauses cnf) [ T.neg 2 ] in
  (match Solver.solve s with
  | Solver.Sat m ->
      check bool "root respected" false (Model.value m 2);
      check bool "v1 forced" true (Model.value m 1);
      check bool "v3 forced" true (Model.value m 3)
  | _ -> Alcotest.fail "expected sat");
  let s2 = Solver.create_with_roots ~nvars:3 (Cnf.clauses cnf) [ T.neg 2; T.neg 1 ] in
  check bool "contradictory roots unsat" true (is_unsat (Solver.solve s2))

let test_solver_restarts_happen () =
  let cnf = php ~pigeons:7 ~holes:6 in
  let config = { Solver.default_config with restart_base = 8 } in
  let s = Solver.create ~config cnf in
  ignore (Solver.solve s);
  check bool "restarted" true ((Solver.stats s).Sat.Stats.restarts > 0)

let test_solver_no_restarts () =
  let cnf = php ~pigeons:5 ~holes:4 in
  let config = { Solver.default_config with restarts_enabled = false } in
  let s = Solver.create ~config cnf in
  ignore (Solver.solve s);
  check int "no restarts" 0 (Solver.stats s).Sat.Stats.restarts

(* ---------- Solver vs Brute (the key correctness property) ---------- *)

let prop_solver_matches_brute =
  QCheck.Test.make ~name:"CDCL agrees with brute force" ~count:400 arbitrary_cnf (fun cnf ->
      match (solve_cnf cnf, Brute.solve cnf) with
      | Solver.Sat m, Brute.Sat _ -> Model.satisfies cnf m
      | Solver.Unsat, Brute.Unsat -> true
      | Solver.Sat _, Brute.Unsat | Solver.Unsat, Brute.Sat _ -> false
      | (Solver.Budget_exhausted | Solver.Mem_pressure), _ -> false)

let prop_solver_deterministic =
  QCheck.Test.make ~name:"same seed => same statistics" ~count:50 arbitrary_cnf (fun cnf ->
      let run () =
        let s = Solver.create cnf in
        ignore (Solver.solve s);
        let st = Solver.stats s in
        (st.Sat.Stats.decisions, st.Sat.Stats.conflicts, st.Sat.Stats.propagations)
      in
      run () = run ())

let prop_learned_clauses_implied =
  (* Any clause the solver learns must be implied by the original formula:
     formula AND (negation of learned clause) must be unsatisfiable. *)
  QCheck.Test.make ~name:"learned clauses are implied" ~count:60
    (QCheck.make (random_cnf_gen ~max_vars:8 ~max_clauses:30 ~max_len:3))
    (fun cnf ->
      let config = { Solver.default_config with share_export_max = 100 } in
      let s = Solver.create ~config cnf in
      ignore (Solver.solve s);
      let learned = Solver.drain_shares s ~max_len:100 in
      List.for_all
        (fun clause ->
          let negation = List.map (fun l -> [ T.to_int (T.negate l) ]) (Array.to_list clause) in
          let augmented = Cnf.make ~nvars:(Cnf.nvars cnf) negation in
          let combined = Cnf.with_extra_clauses augmented (Clause_lists.to_list (Cnf.clauses cnf)) in
          Brute.solve combined = Brute.Unsat)
        learned)

(* ---------- Split ---------- *)

let force_split s =
  (* Drive the solver until it has at least one decision, then split.
     Clauses are captured before the split commits the branch, exactly as
     a GridSAT client does. *)
  let rec loop n =
    if n = 0 then None
    else
      match Solver.run s ~budget:30 with
      | Solver.Budget_exhausted ->
          if Solver.decision_level s > 0 then begin
            let clauses = Solver.active_clauses s in
            match Solver.split s with
            | Some (facts, path) -> Some (clauses, facts, path)
            | None -> None
          end
          else loop (n - 1)
      | _ -> None
  in
  loop 2000

let prop_split_preserves_satisfiability =
  QCheck.Test.make ~name:"split: sat(P) = sat(A) || sat(B)" ~count:150
    (QCheck.make (random_cnf_gen ~max_vars:10 ~max_clauses:42 ~max_len:3))
    (fun cnf ->
      let expected = Brute.solve cnf <> Brute.Unsat in
      let s = Solver.create cnf in
      match force_split s with
      | None -> QCheck.assume_fail () (* solved before any split opportunity *)
      | Some (clauses, facts, path) ->
          (* side A: the mutated original solver; side B: fresh solver on the
             transferred clauses + new roots *)
          let b = Solver.create_with_roots ~facts ~nvars:(Cnf.nvars cnf) clauses path in
          let sat_a = is_sat (Solver.solve s) in
          let sat_b = is_sat (Solver.solve b) in
          (sat_a || sat_b) = expected)

let prop_split_branches_disjoint =
  QCheck.Test.make ~name:"split: branches disagree on the split literal" ~count:100
    (QCheck.make (random_cnf_gen ~max_vars:10 ~max_clauses:42 ~max_len:3))
    (fun cnf ->
      let s = Solver.create cnf in
      match force_split s with
      | None -> QCheck.assume_fail ()
      | Some (_, _, path) ->
          (* the last path literal of B complements a root literal of A,
             and A's committed branch is tracked as tainted *)
          let d = List.nth path (List.length path - 1) in
          List.mem (T.negate d) (Solver.root_path s))

let test_split_at_root_is_none () =
  let cnf = Cnf.make ~nvars:2 [ [ 1 ] ] in
  let s = Solver.create cnf in
  check bool "no decision yet" true (Solver.split s = None)

(* ---------- Clause sharing ---------- *)

let test_foreign_merge_implication () =
  let cnf = Cnf.make ~nvars:3 [ [ 1; 2; 3 ] ] in
  let s = Solver.create cnf in
  Solver.queue_foreign_clauses s [ [| T.pos 2 |] ];
  check int "queued" 1 (Solver.pending_foreign s);
  (match Solver.solve s with
  | Solver.Sat m -> check bool "foreign unit forced" true (Model.value m 2)
  | _ -> Alcotest.fail "expected sat");
  check int "queue drained" 0 (Solver.pending_foreign s);
  check bool "implication recorded" true
    ((Solver.stats s).Sat.Stats.foreign_implications >= 1)

let test_foreign_merge_conflict () =
  let cnf = Cnf.make ~nvars:2 [ [ 1 ] ] in
  let s = Solver.create cnf in
  Solver.queue_foreign_clauses s [ [| T.neg 1 |] ];
  check bool "conflicting foreign clause => unsat" true (is_unsat (Solver.solve s))

let test_foreign_merge_discard_satisfied () =
  let cnf = Cnf.make ~nvars:2 [ [ 1 ] ] in
  let s = Solver.create cnf in
  Solver.queue_foreign_clauses s [ [| T.pos 1; T.pos 2 |] ];
  ignore (Solver.solve s);
  check bool "satisfied clause discarded" true
    ((Solver.stats s).Sat.Stats.foreign_discarded >= 1)

let prop_sharing_preserves_answer =
  (* Feeding a solver clauses learned from the *same* formula by a peer
     never changes the answer. *)
  QCheck.Test.make ~name:"clause sharing is sound" ~count:100
    (QCheck.make (random_cnf_gen ~max_vars:10 ~max_clauses:40 ~max_len:3))
    (fun cnf ->
      let peer = Solver.create ~config:{ Solver.default_config with seed = 1 } cnf in
      ignore (Solver.solve peer);
      let shares = Solver.drain_shares peer ~max_len:10 in
      let s = Solver.create cnf in
      Solver.queue_foreign_clauses s shares;
      let expected = Brute.solve cnf <> Brute.Unsat in
      (match Solver.solve s with
      | Solver.Sat m -> expected && Model.satisfies cnf m
      | Solver.Unsat -> not expected
      | Solver.Budget_exhausted | Solver.Mem_pressure -> false))

let random_assumptions nv seed =
  (* a deterministic pseudo-random guiding path over distinct variables *)
  let st = Random.State.make [| seed; nv |] in
  let k = Random.State.int st (max 1 (nv / 2)) in
  let vars = List.sort_uniq compare (List.init k (fun _ -> 1 + Random.State.int st nv)) in
  List.map (fun v -> if Random.State.bool st then T.pos v else T.neg v) vars

let prop_shares_from_assumed_solver_globally_valid =
  (* The crux of sound distributed sharing: clauses exported by a client
     working under guiding-path assumptions must be implied by the ORIGINAL
     formula alone (taint tracking re-introduces the assumptions). *)
  QCheck.Test.make ~name:"shares under assumptions are globally valid" ~count:120
    QCheck.(
      pair (QCheck.make (random_cnf_gen ~max_vars:8 ~max_clauses:28 ~max_len:3)) (int_range 0 1000))
    (fun (cnf, seed) ->
      let path = random_assumptions (Cnf.nvars cnf) seed in
      let config = { Solver.default_config with share_export_max = 100 } in
      let s = Solver.create_with_roots ~config ~nvars:(Cnf.nvars cnf) (Cnf.clauses cnf) path in
      ignore (Solver.solve s);
      let shares = Solver.drain_shares s ~max_len:100 in
      List.for_all
        (fun clause ->
          Array.length clause > 0
          &&
          let negation = List.map (fun l -> [ T.to_int (T.negate l) ]) (Array.to_list clause) in
          let augmented = Cnf.make ~nvars:(Cnf.nvars cnf) negation in
          let combined = Cnf.with_extra_clauses augmented (Clause_lists.to_list (Cnf.clauses cnf)) in
          Brute.solve combined = Brute.Unsat)
        shares)

let prop_cross_subproblem_sharing_sound =
  (* Full distributed scenario: split a problem, let one side share into the
     other, answers must still combine to the brute-force answer. *)
  QCheck.Test.make ~name:"cross-subproblem sharing preserves the answer" ~count:100
    (QCheck.make (random_cnf_gen ~max_vars:10 ~max_clauses:42 ~max_len:3))
    (fun cnf ->
      let expected = Brute.solve cnf <> Brute.Unsat in
      let s = Solver.create ~config:{ Solver.default_config with share_export_max = 100 } cnf in
      match force_split s with
      | None -> QCheck.assume_fail ()
      | Some (clauses, facts, path) ->
          let b =
            Solver.create_with_roots
              ~config:{ Solver.default_config with share_export_max = 100 }
              ~facts ~nvars:(Cnf.nvars cnf) clauses path
          in
          (* run A a bit more so it learns under its committed assumptions,
             then inject its shares into B, and vice versa *)
          ignore (Solver.run s ~budget:200);
          Solver.queue_foreign_clauses b (Solver.drain_shares s ~max_len:100);
          ignore (Solver.run b ~budget:200);
          Solver.queue_foreign_clauses s (Solver.drain_shares b ~max_len:100);
          let sat_a = is_sat (Solver.solve s) in
          let sat_b = is_sat (Solver.solve b) in
          (sat_a || sat_b) = expected)

let test_drain_shares_respects_length () =
  let cnf = php ~pigeons:5 ~holes:4 in
  let s = Solver.create cnf in
  ignore (Solver.solve s);
  let shares = Solver.drain_shares s ~max_len:3 in
  check bool "all short" true (List.for_all (fun c -> Array.length c <= 3) shares);
  check bool "drained" true (Solver.drain_shares s ~max_len:10 = [])

(* ---------- root simplification / transfer ---------- *)

let test_active_clauses_pruned () =
  (* clause (1 2) is satisfied once root forces 1: it must not be transferred *)
  let cnf = Cnf.make ~nvars:3 [ [ 1 ]; [ 1; 2 ]; [ -1; 2; 3 ] ] in
  let s = Solver.create cnf in
  let active = Clause_lists.to_list (Solver.active_clauses s) in
  check bool "satisfied clause dropped" true
    (not
       (List.exists
          (fun c -> List.sort compare (Array.to_list c) = List.sort compare [ T.pos 1; T.pos 2 ])
          active));
  (* the false literal -1 must have been stripped from the last clause *)
  check bool "false literal stripped" true
    (List.exists (fun c -> Array.to_list c = [ T.pos 2; T.pos 3 ] || Array.to_list c = [ T.pos 3; T.pos 2 ]) active
    || List.for_all (fun c -> not (Array.exists (fun l -> l = T.neg 1) c)) active)

let test_transfer_bytes_positive () =
  let cnf = php ~pigeons:4 ~holes:3 in
  let s = Solver.create cnf in
  check bool "positive size" true (Solver.transfer_bytes s > 0)

let test_db_bytes_tracks_learning () =
  let cnf = php ~pigeons:6 ~holes:5 in
  let s = Solver.create cnf in
  let before = Solver.db_bytes s in
  ignore (Solver.run s ~budget:20_000);
  check bool "db grows with learning" true (Solver.db_bytes s >= before)

let prop_restart_strategies_preserve_answers =
  QCheck.Test.make ~name:"all restart strategies agree" ~count:100 arbitrary_cnf (fun cnf ->
      let answers =
        List.map
          (fun strategy ->
            let config =
              { Solver.default_config with Solver.restart_strategy = strategy; restart_base = 16 }
            in
            is_sat (solve_cnf ~config cnf))
          [ Solver.Luby; Solver.Geometric 1.5; Solver.Fixed ]
      in
      match answers with
      | [ a; b; c ] -> a = b && b = c && a = (Brute.solve cnf <> Brute.Unsat)
      | _ -> false)

let test_fixed_restarts_more_frequent () =
  let cnf = php ~pigeons:7 ~holes:6 in
  let restarts strategy =
    let config =
      { Solver.default_config with Solver.restart_strategy = strategy; restart_base = 16 }
    in
    let s = Solver.create ~config cnf in
    ignore (Solver.solve s);
    (Solver.stats s).Sat.Stats.restarts
  in
  check bool "fixed restarts at least as often as luby" true
    (restarts Solver.Fixed >= restarts Solver.Luby)

(* ---------- Preprocess ---------- *)

module Pre = Sat.Preprocess

let prop_preprocess_equisatisfiable =
  QCheck.Test.make ~name:"preprocessing preserves satisfiability" ~count:300 arbitrary_cnf
    (fun cnf ->
      let r = Pre.run cnf in
      let before = Brute.solve cnf <> Brute.Unsat in
      let after = Brute.solve r.Pre.cnf <> Brute.Unsat in
      before = after)

let prop_preprocess_models_extend =
  QCheck.Test.make ~name:"extended models satisfy the original" ~count:300 arbitrary_cnf
    (fun cnf ->
      let r = Pre.run cnf in
      match Solver.solve (Solver.create r.Pre.cnf) with
      | Solver.Sat m -> Model.satisfies cnf (Pre.extend r m)
      | Solver.Unsat -> Brute.solve cnf = Brute.Unsat
      | Solver.Budget_exhausted | Solver.Mem_pressure -> false)

let test_preprocess_subsumption () =
  (* (1 2) subsumes (1 2 3); (1) self-subsumes (-1 2) to (2) *)
  let cnf = Cnf.make ~nvars:3 [ [ 1; 2 ]; [ 1; 2; 3 ] ] in
  let r = Pre.run cnf in
  check bool "clause count shrinks" true (r.Pre.clauses_after < r.Pre.clauses_before)

let test_preprocess_pure_literal () =
  (* variable 3 occurs only positively: eliminated for free *)
  let cnf = Cnf.make ~nvars:3 [ [ 1; 3 ]; [ 2; 3 ]; [ 1; -2 ] ] in
  let r = Pre.run cnf in
  check bool "eliminations happened" true (r.Pre.eliminated > 0);
  match Solver.solve (Solver.create r.Pre.cnf) with
  | Solver.Sat m -> check bool "model valid" true (Model.satisfies cnf (Pre.extend r m))
  | _ -> Alcotest.fail "expected sat"

let test_preprocess_keeps_unsat () =
  let cnf = php ~pigeons:5 ~holes:4 in
  let r = Pre.run cnf in
  check bool "still unsat after preprocessing" true (is_unsat (solve_cnf r.Pre.cnf))

let test_preprocess_empty_formula () =
  let r = Pre.run (Cnf.make ~nvars:2 []) in
  check int "nothing to do" 0 r.Pre.clauses_after;
  match Solver.solve (Solver.create r.Pre.cnf) with
  | Solver.Sat _ -> ()
  | _ -> Alcotest.fail "expected sat"

(* ---------- extensions: minimization and phase saving ---------- *)

let minimize_config = { Solver.default_config with Solver.minimize_learned = true }
let phase_config = { Solver.default_config with Solver.phase_saving = true }

let prop_minimization_preserves_answers =
  QCheck.Test.make ~name:"clause minimization preserves answers" ~count:200 arbitrary_cnf
    (fun cnf ->
      match (solve_cnf ~config:minimize_config cnf, Brute.solve cnf) with
      | Solver.Sat m, Brute.Sat _ -> Model.satisfies cnf m
      | Solver.Unsat, Brute.Unsat -> true
      | _ -> false)

let prop_phase_saving_preserves_answers =
  QCheck.Test.make ~name:"phase saving preserves answers" ~count:200 arbitrary_cnf (fun cnf ->
      let config = { phase_config with Solver.minimize_learned = true } in
      match (solve_cnf ~config cnf, Brute.solve cnf) with
      | Solver.Sat m, Brute.Sat _ -> Model.satisfies cnf m
      | Solver.Unsat, Brute.Unsat -> true
      | _ -> false)

let prop_minimized_learned_still_implied =
  QCheck.Test.make ~name:"minimized learned clauses are implied" ~count:60
    (QCheck.make (random_cnf_gen ~max_vars:8 ~max_clauses:30 ~max_len:3))
    (fun cnf ->
      let config = { minimize_config with Solver.share_export_max = 100 } in
      let s = Solver.create ~config cnf in
      ignore (Solver.solve s);
      List.for_all
        (fun clause ->
          let negation = List.map (fun l -> [ T.to_int (T.negate l) ]) (Array.to_list clause) in
          let augmented = Cnf.make ~nvars:(Cnf.nvars cnf) negation in
          Brute.solve (Cnf.with_extra_clauses augmented (Clause_lists.to_list (Cnf.clauses cnf)))
          = Brute.Unsat)
        (Solver.drain_shares s ~max_len:100))

let test_minimization_shortens_clauses () =
  let cnf = php ~pigeons:7 ~holes:6 in
  let run config =
    let s = Solver.create ~config cnf in
    ignore (Solver.solve s);
    Sat.Stats.avg_learned_length (Solver.stats s)
  in
  let base = run Solver.default_config in
  let minimized = run minimize_config in
  check bool "average learned clause no longer" true (minimized <= base)

let prop_minimized_proofs_check =
  QCheck.Test.make ~name:"proofs with minimization still check" ~count:80
    (QCheck.make (random_cnf_gen ~max_vars:8 ~max_clauses:40 ~max_len:3))
    (fun cnf ->
      QCheck.assume (Brute.solve cnf = Brute.Unsat);
      let config = { minimize_config with Solver.emit_proof = true } in
      let s = Solver.create ~config cnf in
      match Solver.solve s with
      | Solver.Unsat -> Sat.Drup.check cnf (Solver.proof s) = Ok ()
      | _ -> false)

(* ---------- DRUP proofs ---------- *)

module Drup = Sat.Drup

let proof_config = { Solver.default_config with Solver.emit_proof = true }

let unsat_with_proof cnf =
  let s = Solver.create ~config:proof_config cnf in
  match Solver.solve s with
  | Solver.Unsat -> Some (Solver.proof s)
  | _ -> None

let test_drup_php_proof () =
  let cnf = php ~pigeons:6 ~holes:5 in
  match unsat_with_proof cnf with
  | None -> Alcotest.fail "expected unsat"
  | Some proof ->
      check bool "proof nonempty" true (proof <> []);
      check bool "proof checks" true (Drup.check cnf proof = Ok ())

let test_drup_tampered_proof_fails () =
  let cnf = php ~pigeons:5 ~holes:4 in
  match unsat_with_proof cnf with
  | None -> Alcotest.fail "expected unsat"
  | Some proof ->
      (* drop all Add steps: the remaining proof cannot reach the empty clause *)
      let holes_only =
        List.filter (function Drup.Add _ -> false | Drup.Delete _ -> true) proof
      in
      (match Drup.check cnf holes_only with
      | Error _ -> ()
      | Ok () -> Alcotest.fail "gutted proof must fail");
      (* inserting a non-RUP clause must fail *)
      let bogus = Drup.Add [| T.pos 1 |] :: Drup.Add [| T.neg 1 |] :: [] in
      let cnf2 = Cnf.make ~nvars:2 [ [ 1; 2 ] ] in
      match Drup.check cnf2 bogus with
      | Error _ -> ()
      | Ok () -> Alcotest.fail "non-RUP step must fail"

let test_drup_sat_run_has_no_refutation () =
  let cnf = Cnf.make ~nvars:3 [ [ 1; 2 ]; [ -1; 3 ] ] in
  let s = Solver.create ~config:proof_config cnf in
  (match Solver.solve s with Solver.Sat _ -> () | _ -> Alcotest.fail "expected sat");
  match Drup.check cnf (Solver.proof s) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "a satisfiable formula must not have a checking refutation"

let test_drup_rup_single () =
  let cnf = Cnf.make ~nvars:2 [ [ 1; 2 ]; [ 1; -2 ] ] in
  check bool "unit 1 is RUP" true (Drup.check_clause_rup cnf [] [| T.pos 1 |]);
  check bool "unit 2 is not RUP" false (Drup.check_clause_rup cnf [] [| T.pos 2 |])

let test_drup_text_roundtrip () =
  let proof =
    [ Drup.Add [| T.pos 1; T.neg 2 |]; Drup.Delete [| T.pos 3 |]; Drup.Add [||] ]
  in
  check bool "roundtrip" true (Drup.of_string (Drup.to_string proof) = proof);
  (match Drup.of_string "1 2 0\nd 3 0\n0\n" with
  | [ Drup.Add _; Drup.Delete _; Drup.Add [||] ] -> ()
  | _ -> Alcotest.fail "parse shape");
  Alcotest.check_raises "unterminated line" (Failure "Drup.of_string: line not terminated by 0")
    (fun () -> ignore (Drup.of_string "1 2\n"))

(* Proof text that crossed the network is untrusted: every malformed
   shape must yield a clean [Failure] from [of_string] (which the master
   turns into a certification failure), never a crash or a silently
   truncated proof. *)
let test_drup_of_string_garbage () =
  let rejects text =
    match Drup.of_string text with
    | exception Failure _ -> ()
    | _ -> Alcotest.fail (Printf.sprintf "garbage accepted: %S" text)
  in
  rejects "1 2\n";
  (* merged lines: a 0 in the middle of a clause *)
  rejects "1 0 2 0\n";
  rejects "frobnicate 0\n";
  rejects "1 2 zork 0\n";
  rejects "d\n";
  rejects "0 0\n";
  (* well-formed text still parses, including blank lines and d-steps *)
  match Drup.of_string "  \n\n1 -2 0\nd 1 -2 0\n0\n" with
  | [ Drup.Add _; Drup.Delete _; Drup.Add [||] ] -> ()
  | _ -> Alcotest.fail "valid proof text mangled"

(* DRUP text shares the DIMACS scanner: byte mutations of a valid proof
   must still end in a clean [Failure] or a parse. *)
let prop_drup_mutations =
  let step =
    QCheck.Gen.(
      map2
        (fun del lits ->
          let lits = Array.of_list (List.map T.lit_of_int lits) in
          if del then Drup.Delete lits else Drup.Add lits)
        bool
        (list_size (int_bound 4) (map (fun v -> if v = 0 then 1 else v) (int_range (-9) 9))))
  in
  QCheck.Test.make ~name:"text byte mutations raise only Failure" ~count:1000 ~long_factor:20
    (QCheck.make ~print:String.escaped
       QCheck.Gen.(list_size (int_bound 6) step >>= fun p -> Doc_gen.mutate (Drup.to_string p)))
    (fun text ->
      match Drup.of_string text with
      | _ | (exception Failure _) -> true)

let prop_drup_matches_legacy =
  QCheck.Test.make ~name:"DRUP decoder matches the old one outside the documented divergences"
    ~count:2000 ~long_factor:20 (QCheck.make ~print:String.escaped Doc_gen.drup_doc) (fun doc ->
      let fresh = try Some (Drup.of_string doc) with Failure _ -> None in
      let old =
        try Some (Legacy.Drup.of_string (Doc_gen.drup_legacy_view doc)) with Failure _ -> None
      in
      fresh = old)

(* The one integer the old decoder read that this one refuses. *)
let test_drup_min_int () =
  let text = Printf.sprintf "%d 0\n" min_int in
  check bool "old decoder" true (Legacy.Drup.of_string text <> []);
  Alcotest.check_raises "new decoder"
    (Failure (Printf.sprintf "Drup.of_string: integer out of range: %d" min_int))
    (fun () -> ignore (Drup.of_string text))

let prop_drup_to_string =
  let lit =
    QCheck.Gen.(
      frequency [ (8, map (fun i -> T.lit_of_int (if i = 0 then 1 else i)) (int_range (-300) 300)); (1, int) ])
  in
  let step =
    QCheck.Gen.(
      map2
        (fun del lits -> if del then Drup.Delete lits else Drup.Add lits)
        bool (array_size (int_bound 6) lit))
  in
  QCheck.Test.make ~name:"text is the old encoder's, byte for byte" ~count:500 ~long_factor:20
    (QCheck.make QCheck.Gen.(list_size (int_bound 20) step))
    (fun proof -> Drup.to_string proof = Legacy.Drup.to_string proof)

(* [check_under] certifies cnf /\ assumptions |= false: a branch's
   refutation must be valid under its guiding path and invalid globally,
   and out-of-range literals (in steps or assumptions) must come back as
   [Error], not an exception. *)
let test_drup_check_under () =
  (* satisfiable formula, refutable under the branch ~2 *)
  let cnf = Cnf.make ~nvars:2 [ [ 1; 2 ]; [ -1; 2 ] ] in
  check bool "empty proof checks under the branch" true
    (Drup.check_under cnf ~assumptions:[ T.neg 2 ] [] = Ok ());
  check bool "same proof fails globally" true (Drup.check cnf [] <> Ok ());
  (* a unit that is RUP only thanks to the assumptions is accepted *)
  let proof = [ Drup.Add [| T.pos 1 |]; Drup.Add [||] ] in
  check bool "assumption-dependent step accepted under the branch" true
    (Drup.check_under cnf ~assumptions:[ T.neg 2 ] proof = Ok ());
  check bool "assumption-dependent step rejected globally" true
    (Drup.check cnf proof <> Ok ());
  (* untrusted input: out-of-range literals are diagnosed, not fatal *)
  (match Drup.check_under cnf ~assumptions:[] [ Drup.Add [| T.pos 99 |] ] with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "out-of-range proof literal accepted");
  match Drup.check_under cnf ~assumptions:[ T.pos 99 ] [] with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "out-of-range assumption accepted"

let prop_drup_random_unsat_proofs_check =
  QCheck.Test.make ~name:"random UNSAT proofs check" ~count:120 ~long_factor:20
    (QCheck.make (random_cnf_gen ~max_vars:8 ~max_clauses:40 ~max_len:3))
    (fun cnf ->
      QCheck.assume (Brute.solve cnf = Brute.Unsat);
      match unsat_with_proof cnf with
      | None -> false
      | Some proof -> Drup.check cnf proof = Ok ())

(* ---------- pinned search ---------- *)

(* The exact course of the search, recorded once and pinned: any change to
   the order of watches, heap ties, installed literals or learned clauses
   moves at least one of these numbers.  Each case runs a fixed budget,
   captures the solver and splits it part-way through, continues the
   donor, and runs the split-off branch as a fresh solver.  Counters are
   decisions, propagations, conflicts, learned, learned literals, deleted,
   restarts and root simplifications; digests are MD5s of
   [Subproblem.to_string]. *)

module Sp = Gridsat_core.Subproblem

let tight_db = { Solver.default_config with Solver.learned_cap_factor = 0.05; learned_cap_min = 60 }

let pin_formulas =
  [
    ("php-8-7", lazy (Workloads.Php.instance ~pigeons:8 ~holes:7));
    ("mitre5", lazy (Workloads.Equiv.multiplier_mitre ~bits:5 ~bug:false));
    ("planted3-60", lazy (Workloads.Random_sat.planted ~nvars:60 ~ratio:4.26 ~seed:7 ()));
    ("planted4-60", lazy (Workloads.Random_sat.planted ~k:4 ~nvars:60 ~ratio:9.9 ~seed:7 ()));
    ("tseitin-20", lazy (Workloads.Tseitin.instance ~nvertices:20 ~degree:3 ~charge:`Odd ~seed:3));
  ]

(* (formula, config, seed, after the budget, capture, split branch, donor
   after a second budget, branch after one budget) *)
let pinned =
  [
    ("php-8-7", Solver.default_config, 1,
     [ 298; 3006; 205; 205; 3396; 0; 1; 0 ],
     "624190f074396b35ad4ae722c40d5b9f",
     "ad04a28d65333509cd9dbdf29537c836",
     [ 521; 6006; 418; 418; 6423; 0; 2; 1 ],
     [ 240; 3007; 226; 226; 3662; 0; 1; 1 ] );
    ("php-8-7", tight_db, 2,
     [ 264; 3001; 195; 195; 3069; 140; 1; 0 ],
     "f3899cb44e6bd0db9f038b0e7f1c9aa4",
     "2b347e6a49de0b9bcbd4879486b6e57b",
     [ 489; 6006; 403; 403; 5924; 346; 2; 1 ],
     [ 246; 3011; 237; 237; 3858; 180; 1; 1 ] );
    ("mitre5", Solver.default_config, 1,
     [ 25; 3158; 18; 18; 677; 0; 0; 1 ],
     "4c3d9b89a352759ac6026828a9feeef0",
     "0f238e1b0f502db7d70a45242ab16f58",
     [ 93; 6257; 64; 64; 1713; 0; 0; 1 ],
     [ 32; 3116; 23; 23; 691; 0; 0; 1 ] );
    ("mitre5", tight_db, 2,
     [ 25; 3158; 18; 18; 677; 0; 0; 1 ],
     "4c3d9b89a352759ac6026828a9feeef0",
     "0f238e1b0f502db7d70a45242ab16f58",
     [ 74; 6183; 57; 57; 1852; 0; 0; 1 ],
     [ 26; 3131; 22; 22; 814; 0; 0; 1 ] );
    ("planted3-60", Solver.default_config, 1,
     [ 29; 60; 0; 0; 0; 0; 0; 0 ],
     "7a6a91e5b3eb73e69f8cc137fe5c8a54",
     "113e76899eab8809b2b24aeb8754f670",
     [ 54; 120; 0; 0; 0; 0; 0; 0 ],
     [ 19; 138; 5; 5; 24; 0; 0; 1 ] );
    ("planted3-60", tight_db, 2,
     [ 29; 60; 0; 0; 0; 0; 0; 0 ],
     "7a6a91e5b3eb73e69f8cc137fe5c8a54",
     "113e76899eab8809b2b24aeb8754f670",
     [ 55; 120; 0; 0; 0; 0; 0; 0 ],
     [ 19; 133; 5; 5; 25; 0; 0; 1 ] );
    ("planted4-60", Solver.default_config, 1,
     [ 146; 1156; 84; 84; 1087; 0; 0; 0 ],
     "b8d145409eafe3483a018db0d8685d1a",
     "d0a80fd6ae9dcd120a0073d6ba8026dc",
     [ 431; 4178; 299; 299; 3607; 0; 2; 1 ],
     [ 264; 3005; 233; 233; 2739; 0; 1; 1 ] );
    ("planted4-60", tight_db, 2,
     [ 139; 1078; 75; 75; 975; 0; 0; 0 ],
     "8722e97d7dcd955caf28b54fdc0fe39a",
     "09fd20cec254112956fb962b13ab0517",
     [ 412; 4119; 289; 289; 3589; 221; 2; 1 ],
     [ 291; 3017; 235; 235; 2735; 184; 1; 1 ] );
    ("tseitin-20", Solver.default_config, 1,
     [ 279; 3009; 251; 251; 2170; 0; 1; 0 ],
     "1a7d8e3ec2e8f310298a28d9b49c8fca",
     "a2ab00c6a2a78b57491af6eb179a8ff4",
     [ 483; 5154; 437; 436; 3778; 0; 2; 1 ],
     [ 196; 2037; 174; 173; 1389; 0; 1; 1 ] );
    ("tseitin-20", tight_db, 2,
     [ 309; 3005; 260; 260; 2222; 224; 2; 0 ],
     "e4ec5b30551accf315b2b351803822b0",
     "f12f71355e1db4e0accdd4802b2ebeca",
     [ 608; 6008; 517; 517; 4424; 480; 3; 1 ],
     [ 303; 3008; 257; 257; 2268; 224; 2; 2 ] );
  ]

let search_counters s =
  let st = Solver.stats s in
  Sat.Stats.
    [
      st.decisions; st.propagations; st.conflicts; st.learned; st.learned_literals; st.deleted;
      st.restarts; st.root_simplifications;
    ]

let md5 s = Digest.to_hex (Digest.string s)

let test_pinned_search () =
  let ints = Alcotest.(list int) in
  let budget = 3000 in
  List.iter
    (fun (name, base, seed, after, capture, branch, donor, receiver) ->
      let config = { base with Solver.seed } in
      let label what = Printf.sprintf "%s seed %d: %s" name seed what in
      let s = Solver.create ~config (Lazy.force (List.assoc name pin_formulas)) in
      ignore (Solver.run s ~budget);
      check ints (label "after the budget") after (search_counters s);
      check Alcotest.string (label "capture") capture (md5 (Sp.to_string (Sp.capture s)));
      let sp = Option.get (Sp.split_from s) in
      check Alcotest.string (label "split branch") branch (md5 (Sp.to_string sp));
      ignore (Solver.run s ~budget);
      check ints (label "donor after the split") donor (search_counters s);
      let r = Sp.to_solver ~config sp in
      ignore (Solver.run r ~budget);
      check ints (label "branch solver") receiver (search_counters r))
    pinned

let test_pinned_proof () =
  let config =
    { Solver.default_config with Solver.emit_proof = true; minimize_learned = true; seed = 3 }
  in
  let s = Solver.create ~config (Workloads.Php.instance ~pigeons:6 ~holes:5) in
  check bool "unsat" true (is_unsat (Solver.solve s));
  check Alcotest.(list int) "counters" [ 125; 1484; 123; 122; 811; 0; 0; 0 ] (search_counters s);
  check Alcotest.string "proof text" "2d724f8c1e4d623603d23e280829ac34"
    (md5 (Drup.to_string (Solver.proof s)))

(* One search run to its verdict under [tight_db], long enough that
   [reduce_db] and [simplify_db] run many times and the clause arena is
   compacted more than once: the cases above stop within 6,000
   propagations.  The capture is taken part-way, after the first
   compactions. *)
let test_pinned_long () =
  let config = { tight_db with Solver.emit_proof = true; minimize_learned = true; seed = 1 } in
  let cnf = Lazy.force (List.assoc "mitre5" pin_formulas) in
  let s = Solver.create ~config cnf in
  ignore (Solver.run s ~budget:300_000);
  check Alcotest.string "capture" "e2990ff5cb0a0a05c169aca171648d25"
    (md5 (Sp.to_string (Sp.capture s)));
  check bool "unsat" true (is_unsat (Solver.solve s));
  check Alcotest.(list int) "counters"
    [ 4393; 377136; 3905; 3904; 76609; 3781; 14; 3 ]
    (search_counters s);
  let proof = Solver.proof s in
  check Alcotest.string "proof text" "137b0b8c22e3e1609be3d720e8df7450"
    (md5 (Drup.to_string proof));
  check bool "proof checks" true (Drup.check cnf proof = Ok ())

(* ---------- the clause arena ---------- *)

(* A learned-clause cap of zero reduces the database after every
   conflict.  The formula's own clauses, queued as foreign ones, are
   merged as learned clauses, so each reduction frees enough of the arena
   to compact it, again and again while reasons and watches point into
   it (about one compaction per instance; without them, none in 100).
   They are in the formula, so the proof still checks.  Random 3-SAT at
   the threshold ratio gives both verdicts. *)
let prop_compaction_oracle =
  let config =
    {
      Solver.default_config with
      Solver.learned_cap_factor = 0.;
      learned_cap_min = 0;
      emit_proof = true;
    }
  in
  QCheck.Test.make ~name:"zero learned cap agrees with brute force" ~count:100
    QCheck.(pair (int_range 3 20) (int_range 0 1_000_000))
    (fun (nvars, seed) ->
      let cnf = Workloads.Random_sat.instance ~nvars ~ratio:4.26 ~seed () in
      let s = Solver.create ~config cnf in
      let own = Cnf.clauses cnf in
      Solver.queue_foreign_clauses s (List.init (Sat.Arena.nclauses own) (Sat.Arena.clause own));
      match (Solver.solve s, Brute.solve cnf) with
      | Solver.Sat m, Brute.Sat _ -> Model.satisfies cnf m
      | Solver.Unsat, Brute.Unsat -> Drup.check cnf (Solver.proof s) = Ok ()
      | _ -> false)

(* ---------- construction fast paths ---------- *)

(* A raw clause set over [nvars] variables: literals in any order,
   repeated, a clause now and then a tautology or empty, with a few
   facts and a guiding path. *)
let raw_roots_gen =
  let open QCheck.Gen in
  int_range 1 10 >>= fun nvars ->
  let lit = map2 (fun v s -> T.lit_of_int (if s then v else -v)) (int_range 1 nvars) bool in
  let clause = frequency [ (1, return []); (25, list_size (int_range 1 6) lit) ] in
  map3
    (fun clauses facts path -> (nvars, clauses, facts, path))
    (list_size (int_range 0 45) clause)
    (list_size (int_bound 3) lit)
    (list_size (int_bound 3) lit)

let arena_of clauses =
  let lits = Array.of_list (List.concat clauses) in
  let starts = Array.make (List.length clauses + 1) 0 in
  List.iteri (fun k c -> starts.(k + 1) <- starts.(k) + List.length c) clauses;
  { Sat.Arena.lits; starts }

(* What a solve shows: the verdict and model, the search counters and
   the proof text.  The solver is released after, as a client does. *)
let solve_view ~nvars ~facts ~path clauses =
  let config = { Solver.default_config with Solver.emit_proof = true } in
  let s = Solver.create_with_roots ~config ~facts ~nvars clauses path in
  let verdict =
    match Solver.solve s with
    | Solver.Sat m -> Some (Model.to_array m)
    | _ -> None
  in
  let view = (verdict, search_counters s, Drup.to_string (Solver.proof s)) in
  Solver.release s;
  view

(* A build on storage that a released solver over as many variables
   left full of its own clauses and assignments: its formula is twice
   the raw one and more, so its arena is long enough to be taken. *)
let solve_view_on_junk ~nvars ~facts ~path ~raw clauses =
  let more = Cnf.clauses (Workloads.Random_sat.instance ~k:(min 3 nvars) ~nvars ~ratio:4.26 ~seed:nvars ()) in
  let more = List.init (Sat.Arena.nclauses more) (fun k -> Array.to_list (Sat.Arena.clause more k)) in
  let junk = Solver.create_with_roots ~nvars (arena_of (raw @ raw @ more)) [] in
  ignore (Solver.run junk ~budget:200);
  Solver.release junk;
  solve_view ~nvars ~facts ~path clauses

(* Raw input and its normalised form solve alike, whether the solver is
   built on new storage (a new domain has no spares) or on reused
   storage filled with junk; a released solver refuses to run. *)
let prop_raw_and_canonical_solve_alike =
  QCheck.Test.make ~name:"raw and canonical input, new and reused storage, solve alike" ~count:100
    (QCheck.make raw_roots_gen)
    (fun (nvars, clauses, facts, path) ->
      let canonical =
        List.filter_map
          (fun c ->
            let a = Array.of_list c in
            Option.map Array.to_list (Sat.Arena.normalise ~nvars a 0 (Array.length a)))
          clauses
      in
      let raw = arena_of clauses and canonical = arena_of canonical in
      let fresh = Domain.join (Domain.spawn (fun () -> solve_view ~nvars ~facts ~path raw)) in
      let released = Solver.create_with_roots ~nvars raw path in
      Solver.release released;
      fresh = solve_view ~nvars ~facts ~path canonical
      && fresh = solve_view_on_junk ~nvars ~facts ~path ~raw:clauses raw
      && fresh = solve_view_on_junk ~nvars ~facts ~path ~raw:clauses canonical
      &&
      match Solver.run released ~budget:10 with
      | _ -> false
      | exception Invalid_argument _ -> true)

(* ---------- memory ---------- *)

(* [Array.make] and [Array.init] force a minor collection when they build
   an array of more than 256 words whose first element is a young block.
   Building a solver fills each such array from a static element; filling
   the watch table and the clause list with [Array.init] caused 2 here. *)
let test_create_no_minor_gc () =
  let cnf = Workloads.Random_sat.planted ~nvars:1000 ~ratio:0.5 ~seed:1 () in
  Gc.minor ();
  let before = (Gc.quick_stat ()).minor_collections in
  let s = Solver.create cnf in
  let after = (Gc.quick_stat ()).minor_collections in
  ignore (Sys.opaque_identity s);
  check int "minor collections" 0 (after - before)

(* Live words per clause held by 20 solvers built from one received
   subproblem: the mitre5 split that [Solver.default_config] reaches at
   budget 20,000 (1,165 clauses, 9,498 literals, 287 variables).  Storing
   each clause as a record, a one-slot activity array and a literal array
   took 30.60 words per clause, one int block per clause 22.89; one int
   arena per solver, with its spare quarter, takes 21.13. *)
let test_solver_words_per_clause () =
  let s = Solver.create (Workloads.Equiv.multiplier_mitre ~bits:5 ~bug:false) in
  ignore (Solver.run s ~budget:20_000);
  let sp = Option.get (Sp.split_from s) in
  check (Alcotest.list int) "subproblem" [ 1165; 9498; 287 ]
    [ Sp.nclauses sp; Sat.Arena.nlits sp.Sp.clauses; sp.Sp.nvars ];
  let solvers = 20 in
  Gc.full_major ();
  let before = (Gc.stat ()).live_words in
  let kept = List.init solvers (fun _ -> Sp.to_solver ~config:Solver.default_config sp) in
  Gc.full_major ();
  let after = (Gc.stat ()).live_words in
  ignore (Sys.opaque_identity kept);
  let per_clause = float_of_int (after - before) /. float_of_int (solvers * Sp.nclauses sp) in
  check bool (Printf.sprintf "%.2f words per clause, at most 25.6" per_clause) true (per_clause <= 25.6)

(* ---------- suite ---------- *)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "sat"
    [
      ( "types",
        [
          Alcotest.test_case "literal encoding" `Quick test_lit_encoding;
          Alcotest.test_case "zero literal rejected" `Quick test_lit_of_int_zero;
          Alcotest.test_case "literal valuation" `Quick test_lit_value;
        ]
        @ qsuite [ prop_lit_roundtrip; prop_negate_involution ] );
      ( "heap",
        [
          Alcotest.test_case "pop order" `Quick test_heap_pop_order;
          Alcotest.test_case "update" `Quick test_heap_update;
          Alcotest.test_case "duplicate insert" `Quick test_heap_duplicate_insert;
        ]
        @ qsuite [ prop_heap_sorts ] );
      ( "coverage",
        [
          Alcotest.test_case "stats arithmetic" `Quick test_stats_add_and_averages;
          Alcotest.test_case "model accessors" `Quick test_model_accessors;
          Alcotest.test_case "cnf extension" `Quick test_cnf_with_extra_clauses;
          Alcotest.test_case "dimacs file roundtrip" `Quick test_dimacs_file_roundtrip;
        ] );
      ( "cnf",
        [
          Alcotest.test_case "normalisation" `Quick test_cnf_normalisation;
          Alcotest.test_case "empty clause" `Quick test_cnf_empty_clause;
          Alcotest.test_case "range check" `Quick test_cnf_out_of_range;
          Alcotest.test_case "eval" `Quick test_cnf_eval;
          Alcotest.test_case "normalise range check" `Quick test_normalise_out_of_range;
          Alcotest.test_case "builders interleave" `Quick test_builders_interleave;
        ]
        @ qsuite [ prop_cnf_eval_total; prop_sort_lits; prop_normalise; prop_builder ] );
      ( "dimacs",
        [
          Alcotest.test_case "parse" `Quick test_dimacs_parse;
          Alcotest.test_case "multiline clause" `Quick test_dimacs_multiline_clause;
          Alcotest.test_case "errors" `Quick test_dimacs_errors;
          Alcotest.test_case "min_int literal rejected" `Quick test_dimacs_min_int_literal;
          Alcotest.test_case "decimal integers only" `Quick test_dimacs_decimal_only;
          Alcotest.test_case "percent trailer ends the data" `Quick test_dimacs_percent_trailer;
          Alcotest.test_case "one whitespace class" `Quick test_dimacs_whitespace;
          Alcotest.test_case "canonical-check boundary" `Quick test_dimacs_canonical_boundary;
        ]
        @ qsuite [ prop_dimacs_roundtrip; prop_dimacs_matches_legacy; prop_dimacs_mutations ] );
      ( "brute",
        [
          Alcotest.test_case "simple" `Quick test_brute_simple;
          Alcotest.test_case "model count" `Quick test_brute_count;
        ] );
      ( "solver",
        [
          Alcotest.test_case "empty formula" `Quick test_solver_empty_formula;
          Alcotest.test_case "unit propagation" `Quick test_solver_unit_propagation;
          Alcotest.test_case "root conflict" `Quick test_solver_conflict_at_root;
          Alcotest.test_case "pigeonhole" `Slow test_solver_php;
          Alcotest.test_case "model verified" `Quick test_solver_model_verified;
          Alcotest.test_case "budgeted resume" `Slow test_solver_budget_resume;
          Alcotest.test_case "chunked = monolithic" `Slow test_solver_budget_matches_single_run;
          Alcotest.test_case "stats populated" `Quick test_solver_stats_populated;
          Alcotest.test_case "memory pressure" `Slow test_solver_mem_pressure;
          Alcotest.test_case "root assumptions" `Quick test_solver_roots;
          Alcotest.test_case "restarts happen" `Quick test_solver_restarts_happen;
          Alcotest.test_case "restarts disabled" `Quick test_solver_no_restarts;
        ]
        @ qsuite
            [ prop_solver_matches_brute; prop_solver_deterministic; prop_learned_clauses_implied ]
      );
      ( "split",
        [ Alcotest.test_case "no decision => no split" `Quick test_split_at_root_is_none ]
        @ qsuite [ prop_split_preserves_satisfiability; prop_split_branches_disjoint ] );
      ( "sharing",
        [
          Alcotest.test_case "foreign implication" `Quick test_foreign_merge_implication;
          Alcotest.test_case "foreign conflict" `Quick test_foreign_merge_conflict;
          Alcotest.test_case "foreign discard" `Quick test_foreign_merge_discard_satisfied;
          Alcotest.test_case "drain respects length" `Quick test_drain_shares_respects_length;
        ]
        @ qsuite
            [
              prop_sharing_preserves_answer;
              prop_shares_from_assumed_solver_globally_valid;
              prop_cross_subproblem_sharing_sound;
            ] );
      ( "preprocess",
        [
          Alcotest.test_case "subsumption" `Quick test_preprocess_subsumption;
          Alcotest.test_case "pure literal" `Quick test_preprocess_pure_literal;
          Alcotest.test_case "unsat preserved" `Quick test_preprocess_keeps_unsat;
          Alcotest.test_case "empty formula" `Quick test_preprocess_empty_formula;
        ]
        @ qsuite [ prop_preprocess_equisatisfiable; prop_preprocess_models_extend ] );
      ( "extensions",
        [
          Alcotest.test_case "minimization shortens" `Slow test_minimization_shortens_clauses;
          Alcotest.test_case "fixed restart cadence" `Quick test_fixed_restarts_more_frequent;
        ]
        @ qsuite [ prop_restart_strategies_preserve_answers ]
        @ qsuite
            [
              prop_minimization_preserves_answers;
              prop_phase_saving_preserves_answers;
              prop_minimized_learned_still_implied;
              prop_minimized_proofs_check;
            ] );
      ( "drup",
        [
          Alcotest.test_case "pigeonhole proof" `Slow test_drup_php_proof;
          Alcotest.test_case "tampered proof fails" `Quick test_drup_tampered_proof_fails;
          Alcotest.test_case "sat run refutes nothing" `Quick test_drup_sat_run_has_no_refutation;
          Alcotest.test_case "single RUP check" `Quick test_drup_rup_single;
          Alcotest.test_case "text roundtrip" `Quick test_drup_text_roundtrip;
          Alcotest.test_case "garbage text rejected" `Quick test_drup_of_string_garbage;
          Alcotest.test_case "check under assumptions" `Quick test_drup_check_under;
          Alcotest.test_case "min_int out of range" `Quick test_drup_min_int;
        ]
        @ qsuite
            [
              prop_drup_random_unsat_proofs_check;
              prop_drup_mutations;
              prop_drup_matches_legacy;
              prop_drup_to_string;
            ] );
      ( "transfer",
        [
          Alcotest.test_case "active clauses pruned" `Quick test_active_clauses_pruned;
          Alcotest.test_case "transfer bytes" `Quick test_transfer_bytes_positive;
          Alcotest.test_case "db bytes track learning" `Quick test_db_bytes_tracks_learning;
        ] );
      ( "pinned",
        [
          Alcotest.test_case "search, captures and splits" `Quick test_pinned_search;
          Alcotest.test_case "minimized proof" `Quick test_pinned_proof;
          Alcotest.test_case "long search to its verdict" `Quick test_pinned_long;
        ] );
      ("arena", qsuite [ prop_compaction_oracle ]);
      ("fast paths", qsuite [ prop_raw_and_canonical_solve_alike ]);
      ( "memory",
        [
          Alcotest.test_case "create forces no minor collection" `Quick test_create_no_minor_gc;
          Alcotest.test_case "words per solver clause" `Quick test_solver_words_per_clause;
        ] );
    ]

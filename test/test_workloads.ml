(* Tests for the workload generators: every family's satisfiability status
   must match its mathematical ground truth, instances must be
   deterministic in their seeds, and the registry must be well-formed. *)

module Cnf = Sat.Cnf
module Solver = Sat.Solver
module Brute = Sat.Brute
module Model = Sat.Model
module W = Workloads

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let solve cnf =
  match Solver.solve (Solver.create cnf) with
  | Solver.Sat m ->
      check bool "model verifies" true (Model.satisfies cnf m);
      `Sat m
  | Solver.Unsat -> `Unsat
  | Solver.Budget_exhausted | Solver.Mem_pressure -> Alcotest.fail "solver gave up"

let is_sat cnf = match solve cnf with `Sat _ -> true | `Unsat -> false

let same_cnf a b =
  Cnf.nvars a = Cnf.nvars b
  && Clause_lists.to_list (Cnf.clauses a) = Clause_lists.to_list (Cnf.clauses b)

(* ---------- Circuit ---------- *)

let bits_of_int c n value =
  List.init n (fun i ->
      if value land (1 lsl i) <> 0 then W.Circuit.snot (W.Circuit.snot (W.Circuit.input c))
      else W.Circuit.input c)

let test_circuit_adder () =
  (* constrain the inputs to constants and check the sum is forced *)
  let cases = [ (3, 5); (0, 0); (7, 7); (12, 9) ] in
  List.iter
    (fun (x, y) ->
      let c = W.Circuit.create () in
      let a = List.init 4 (fun _ -> W.Circuit.input c) in
      let b = List.init 4 (fun _ -> W.Circuit.input c) in
      W.Circuit.assert_equal_const c a x;
      W.Circuit.assert_equal_const c b y;
      let sum = W.Circuit.ripple_add c a b in
      W.Circuit.assert_equal_const c sum (x + y);
      check bool (Printf.sprintf "%d+%d consistent" x y) true (is_sat (W.Circuit.to_cnf c));
      (* and the wrong sum must be unsatisfiable *)
      let c2 = W.Circuit.create () in
      let a = List.init 4 (fun _ -> W.Circuit.input c2) in
      let b = List.init 4 (fun _ -> W.Circuit.input c2) in
      W.Circuit.assert_equal_const c2 a x;
      W.Circuit.assert_equal_const c2 b y;
      let sum = W.Circuit.ripple_add c2 a b in
      W.Circuit.assert_equal_const c2 sum (x + y + 1);
      check bool (Printf.sprintf "%d+%d wrong sum rejected" x y) false
        (is_sat (W.Circuit.to_cnf c2)))
    cases

let test_circuit_multiplier () =
  List.iter
    (fun (x, y) ->
      let c = W.Circuit.create () in
      let a = List.init 4 (fun _ -> W.Circuit.input c) in
      let b = List.init 4 (fun _ -> W.Circuit.input c) in
      W.Circuit.assert_equal_const c a x;
      W.Circuit.assert_equal_const c b y;
      let prod = W.Circuit.multiplier c a b in
      W.Circuit.assert_equal_const c prod (x * y);
      check bool (Printf.sprintf "%d*%d consistent" x y) true (is_sat (W.Circuit.to_cnf c)))
    [ (3, 5); (15, 15); (0, 9); (7, 11) ]

let test_circuit_gates () =
  (* xor truth table via satisfiability of forced assignments *)
  List.iter
    (fun (x, y) ->
      let c = W.Circuit.create () in
      let a = W.Circuit.input c and b = W.Circuit.input c in
      let o = W.Circuit.sxor c a b in
      W.Circuit.assert_sig c (if x then a else W.Circuit.snot a);
      W.Circuit.assert_sig c (if y then b else W.Circuit.snot b);
      W.Circuit.assert_sig c (if x <> y then o else W.Circuit.snot o);
      check bool "xor table" true (is_sat (W.Circuit.to_cnf c)))
    [ (false, false); (false, true); (true, false); (true, true) ]

let test_circuit_constants () =
  let c = W.Circuit.create () in
  check bool "and with false" true (W.Circuit.sand c W.Circuit.tru W.Circuit.fls = W.Circuit.fls);
  check bool "not true" true (W.Circuit.snot W.Circuit.tru = W.Circuit.fls);
  ignore (bits_of_int c 2 1)

(* ---------- Pigeonhole ---------- *)

let test_php_status () =
  check bool "5 into 4 unsat" false (is_sat (W.Php.instance ~pigeons:5 ~holes:4));
  check bool "4 into 4 sat" true (is_sat (W.Php.instance ~pigeons:4 ~holes:4));
  check bool "3 into 4 sat" true (is_sat (W.Php.instance ~pigeons:3 ~holes:4))

(* ---------- Random ---------- *)

let test_random_deterministic () =
  let a = W.Random_sat.instance ~nvars:50 ~ratio:4.0 ~seed:7 () in
  let b = W.Random_sat.instance ~nvars:50 ~ratio:4.0 ~seed:7 () in
  check bool "same seed same instance" true (same_cnf a b);
  let c = W.Random_sat.instance ~nvars:50 ~ratio:4.0 ~seed:8 () in
  check bool "different seed differs" false (same_cnf a c)

let test_random_planted_sat () =
  (* planted instances are satisfiable even above the threshold *)
  List.iter
    (fun seed ->
      check bool "planted sat" true
        (is_sat (W.Random_sat.planted ~nvars:40 ~ratio:6.0 ~seed ())))
    [ 1; 2; 3 ]

let test_random_clause_count () =
  let cnf = W.Random_sat.instance ~nvars:100 ~ratio:4.0 ~seed:1 () in
  check int "clause count" 400 (Cnf.nclauses cnf)

(* ---------- Parity / Tseitin ---------- *)

let test_xor_clauses_semantics () =
  (* compare against brute-force parity for 3 variables *)
  List.iter
    (fun rhs ->
      let cnf = Cnf.make ~nvars:3 (W.Tseitin.xor_clauses [ 1; 2; 3 ] rhs) in
      check int "model count is 4"
        4 (Brute.count_models cnf);
      match Brute.solve cnf with
      | Brute.Sat m ->
          let parity =
            List.fold_left (fun acc v -> if Model.value m v then not acc else acc) false [ 1; 2; 3 ]
          in
          check bool "parity honoured" rhs parity
      | Brute.Unsat -> Alcotest.fail "xor system should be satisfiable")
    [ true; false ]

let test_parity_planted_sat () =
  check bool "uncorrupted parity sat" true
    (is_sat (W.Parity.instance ~nbits:30 ~nsamples:35 ~subset:3 ~corrupted:0 ~seed:3))

let test_tseitin_charge () =
  check bool "odd charge unsat" false
    (is_sat (W.Tseitin.instance ~nvertices:8 ~degree:3 ~charge:`Odd ~seed:2));
  check bool "even charge sat" true
    (is_sat (W.Tseitin.instance ~nvertices:8 ~degree:3 ~charge:`Even ~seed:2))

(* ---------- Counter / mixer ---------- *)

let test_counter_bmc () =
  check bool "counter reaches steps mod 2^bits" true
    (is_sat (W.Counter.instance ~bits:4 ~steps:5 ~target:5));
  check bool "wrap-around" true (is_sat (W.Counter.instance ~bits:3 ~steps:9 ~target:1));
  check bool "wrong target unsat" false (is_sat (W.Counter.instance ~bits:4 ~steps:5 ~target:6));
  check int "reachable helper" 1 (W.Counter.reachable ~bits:3 ~steps:9)

let test_lfsr_inversion () =
  check bool "lfsr preimage exists" true (is_sat (W.Counter.lfsr ~bits:12 ~steps:6 ~target:0x35))

let test_mixer_preimage_sat () =
  List.iter
    (fun seed ->
      check bool "mixer preimage planted sat" true
        (is_sat (W.Counter.mixer_preimage ~bits:16 ~rounds:4 ~seed)))
    [ 1; 5; 11 ]

let test_mixer_deterministic () =
  let a = W.Counter.mixer_preimage ~bits:16 ~rounds:4 ~seed:1 in
  let b = W.Counter.mixer_preimage ~bits:16 ~rounds:4 ~seed:1 in
  check bool "deterministic" true (same_cnf a b)

(* ---------- Factoring ---------- *)

let test_factoring_semiprime () =
  let product = W.Factoring.semiprime ~bits:6 ~seed:4 in
  let cnf = W.Factoring.instance ~abits:6 ~bbits:6 ~product in
  match solve cnf with
  | `Sat m ->
      let a, b = W.Factoring.decode_factors ~abits:6 ~bbits:6 m in
      check int "factors multiply back" product (a * b);
      check bool "both nontrivial" true (a > 1 && b > 1)
  | `Unsat -> Alcotest.fail "semiprime must factor"

let test_factoring_prime_unsat () =
  let product = W.Factoring.prime ~bits:6 ~seed:4 in
  check bool "prime target unsat" false
    (is_sat (W.Factoring.instance ~abits:6 ~bbits:6 ~product))

let test_prime_helpers () =
  let p = W.Factoring.prime ~bits:5 ~seed:1 in
  check bool "prime is prime" true
    (let rec loop d = d * d > p || (p mod d <> 0 && loop (d + 1)) in
     p > 1 && loop 2);
  check bool "prime needs full width" true (p > (1 lsl 5) - 1)

(* ---------- Quasigroup ---------- *)

let test_quasigroup_status () =
  check bool "plain latin square sat" true
    (is_sat (W.Quasigroup.instance ~n:4 ~idempotent:false ~symmetric:false));
  check bool "idempotent odd order sat" true
    (is_sat (W.Quasigroup.instance ~n:5 ~idempotent:true ~symmetric:true));
  check bool "idempotent symmetric even order unsat" false
    (is_sat (W.Quasigroup.instance ~n:4 ~idempotent:true ~symmetric:true))

(* ---------- Hanoi ---------- *)

let test_hanoi_status () =
  check int "optimal steps" 7 (W.Hanoi.optimal_steps 3);
  check bool "solvable at optimal" true
    (is_sat (W.Hanoi.instance ~disks:3 ~steps:7));
  check bool "solvable with slack" true (is_sat (W.Hanoi.instance ~disks:3 ~steps:9));
  check bool "unsolvable below optimal" false (is_sat (W.Hanoi.instance ~disks:3 ~steps:6))

(* ---------- Coloring ---------- *)

let test_coloring_cycle () =
  check bool "odd cycle 2 colors unsat" false (is_sat (W.Coloring.cycle ~n:5 ~colors:2));
  check bool "odd cycle 3 colors sat" true (is_sat (W.Coloring.cycle ~n:5 ~colors:3));
  check bool "even cycle 2 colors sat" true (is_sat (W.Coloring.cycle ~n:6 ~colors:2))

let test_coloring_grid () =
  check bool "grid with diagonals needs 4" false
    (is_sat (W.Coloring.grid ~rows:3 ~cols:3 ~colors:3));
  check bool "grid 4-colorable" true (is_sat (W.Coloring.grid ~rows:3 ~cols:3 ~colors:4))

let test_coloring_mycielski () =
  (* M4 is the Groetzsch graph: chromatic number 4, triangle-free *)
  check bool "M4 3 colors unsat" false (is_sat (W.Coloring.mycielski ~levels:4 ~colors:3));
  check bool "M4 4 colors sat" true (is_sat (W.Coloring.mycielski ~levels:4 ~colors:4))

let test_coloring_random_deterministic () =
  let a = W.Coloring.random_graph ~n:30 ~avg_degree:5. ~colors:3 ~seed:2 in
  let b = W.Coloring.random_graph ~n:30 ~avg_degree:5. ~colors:3 ~seed:2 in
  check bool "deterministic" true (same_cnf a b)

(* ---------- Equivalence mitres ---------- *)

let test_adder_mitre () =
  check bool "equivalent adders: mitre unsat" false
    (is_sat (W.Equiv.adder_mitre ~bits:6 ~bug:false));
  check bool "bugged adder: mitre sat" true (is_sat (W.Equiv.adder_mitre ~bits:6 ~bug:true))

let test_multiplier_mitre () =
  check bool "commutativity mitre unsat" false
    (is_sat (W.Equiv.multiplier_mitre ~bits:4 ~bug:false));
  check bool "bugged multiplier mitre sat" true
    (is_sat (W.Equiv.multiplier_mitre ~bits:4 ~bug:true))

(* ---------- Registry ---------- *)

let test_registry_shape () =
  check int "42 Table 1 rows" 42 (List.length W.Registry.table1);
  check int "9 Table 2 rows" 9 (List.length W.Registry.table2);
  check bool "find works" true (W.Registry.find "6pipe.cnf" <> None);
  check bool "find missing" true (W.Registry.find "nonexistent.cnf" = None);
  check bool "several families" true (List.length W.Registry.families >= 6)

let test_registry_generators_work () =
  (* every analog generates a well-formed, nonempty formula *)
  List.iter
    (fun (e : W.Registry.entry) ->
      let cnf = e.W.Registry.gen () in
      check bool (e.W.Registry.name ^ " nonempty") true
        (Cnf.nvars cnf > 0 && Cnf.nclauses cnf > 0))
    W.Registry.table1

let test_registry_categories () =
  let count c = List.length (List.filter (fun e -> e.W.Registry.category = c) W.Registry.table1) in
  check int "both-solved rows" 23 (count W.Registry.Both_solved);
  check int "gridsat-only rows" 10 (count W.Registry.Gridsat_only);
  check int "neither rows" 9 (count W.Registry.Neither_solved)

let () =
  Alcotest.run "workloads"
    [
      ( "circuit",
        [
          Alcotest.test_case "adder" `Quick test_circuit_adder;
          Alcotest.test_case "multiplier" `Quick test_circuit_multiplier;
          Alcotest.test_case "gates" `Quick test_circuit_gates;
          Alcotest.test_case "constants" `Quick test_circuit_constants;
        ] );
      ("php", [ Alcotest.test_case "status" `Quick test_php_status ]);
      ( "random",
        [
          Alcotest.test_case "deterministic" `Quick test_random_deterministic;
          Alcotest.test_case "planted sat" `Quick test_random_planted_sat;
          Alcotest.test_case "clause count" `Quick test_random_clause_count;
        ] );
      ( "parity",
        [
          Alcotest.test_case "xor semantics" `Quick test_xor_clauses_semantics;
          Alcotest.test_case "planted sat" `Quick test_parity_planted_sat;
          Alcotest.test_case "tseitin charge" `Quick test_tseitin_charge;
        ] );
      ( "counter",
        [
          Alcotest.test_case "bmc" `Quick test_counter_bmc;
          Alcotest.test_case "lfsr" `Quick test_lfsr_inversion;
          Alcotest.test_case "mixer sat" `Quick test_mixer_preimage_sat;
          Alcotest.test_case "mixer deterministic" `Quick test_mixer_deterministic;
        ] );
      ( "factoring",
        [
          Alcotest.test_case "semiprime" `Quick test_factoring_semiprime;
          Alcotest.test_case "prime unsat" `Quick test_factoring_prime_unsat;
          Alcotest.test_case "prime helpers" `Quick test_prime_helpers;
        ] );
      ("quasigroup", [ Alcotest.test_case "status" `Slow test_quasigroup_status ]);
      ("hanoi", [ Alcotest.test_case "status" `Quick test_hanoi_status ]);
      ( "coloring",
        [
          Alcotest.test_case "cycle" `Quick test_coloring_cycle;
          Alcotest.test_case "grid" `Quick test_coloring_grid;
          Alcotest.test_case "mycielski" `Quick test_coloring_mycielski;
          Alcotest.test_case "random deterministic" `Quick test_coloring_random_deterministic;
        ] );
      ( "equiv",
        [
          Alcotest.test_case "adder mitre" `Quick test_adder_mitre;
          Alcotest.test_case "multiplier mitre" `Quick test_multiplier_mitre;
        ] );
      ( "registry",
        [
          Alcotest.test_case "shape" `Quick test_registry_shape;
          Alcotest.test_case "generators" `Slow test_registry_generators_work;
          Alcotest.test_case "categories" `Quick test_registry_categories;
        ] );
    ]

(* Tests for the shared-memory (domains) parallel backend. *)

module Cnf = Sat.Cnf
module Brute = Sat.Brute
module Par = Par.Par_solver

let check = Alcotest.check
let bool = Alcotest.bool

let php ~pigeons ~holes =
  let v p h = ((p - 1) * holes) + h in
  let at_least = List.init pigeons (fun p -> List.init holes (fun h -> v (p + 1) (h + 1))) in
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

(* A worker splits while fewer problems are outstanding than there are
   domains, whether or not the other domains have started yet, so the
   first worker's first open slice always splits. *)
let test_par_unsat () =
  let outcome, stats = Par.solve ~num_domains:3 ~slice_budget:2_000 (php ~pigeons:7 ~holes:6) in
  check bool "unsat" true (outcome = Par.Unsat);
  check bool "several subproblems exhausted" true (stats.Par.subproblems_solved >= 1);
  check bool "work was split" true (stats.Par.splits >= 1)

let test_par_sat_verified () =
  let cnf = php ~pigeons:7 ~holes:7 in
  match Par.solve ~num_domains:3 ~slice_budget:2_000 cnf with
  | Par.Sat m, _ -> check bool "model verified" true (Sat.Model.satisfies cnf m)
  | (Par.Unsat | Par.Budget_exhausted), _ -> Alcotest.fail "expected sat"

let test_par_single_domain () =
  let outcome, stats = Par.solve ~num_domains:1 (php ~pigeons:6 ~holes:5) in
  check bool "unsat with one domain" true (outcome = Par.Unsat);
  check bool "one domain reported" true (stats.Par.domains = 1)

let test_par_budget () =
  let outcome, _ = Par.solve ~num_domains:2 ~total_budget:5_000 (php ~pigeons:9 ~holes:8) in
  check bool "budget exhausted" true (outcome = Par.Budget_exhausted)

let test_par_trivial () =
  let sat = Cnf.make ~nvars:2 [ [ 1; 2 ] ] in
  (match Par.solve ~num_domains:2 sat with
  | Par.Sat _, _ -> ()
  | _ -> Alcotest.fail "expected sat");
  let unsat = Cnf.make ~nvars:1 [ [ 1 ]; [ -1 ] ] in
  match Par.solve ~num_domains:2 unsat with
  | Par.Unsat, _ -> ()
  | _ -> Alcotest.fail "expected unsat"

let test_par_empty_formula () =
  match Par.solve ~num_domains:2 (Cnf.make ~nvars:3 []) with
  | Par.Sat _, _ -> ()
  | _ -> Alcotest.fail "expected sat"

let prop_par_matches_brute =
  let gen =
    let open QCheck.Gen in
    int_range 1 9 >>= fun nv ->
    int_range 0 36 >>= fun nc ->
    let lit = map2 (fun v s -> if s then v else -v) (int_range 1 nv) bool in
    list_size (return nc) (list_size (int_range 1 3) lit) >|= fun cs -> Cnf.make ~nvars:nv cs
  in
  QCheck.Test.make ~name:"par solver agrees with brute force" ~count:60 (QCheck.make gen)
    (fun cnf ->
      let outcome, _ = Par.solve ~num_domains:2 ~slice_budget:500 cnf in
      match (outcome, Brute.solve cnf) with
      | Par.Sat m, Brute.Sat _ -> Sat.Model.satisfies cnf m
      | Par.Unsat, Brute.Unsat -> true
      | _ -> false)

let test_portfolio_unsat () =
  let outcome, stats = Par.portfolio ~num_domains:3 ~slice_budget:2_000 (php ~pigeons:6 ~holes:5) in
  check bool "unsat" true (outcome = Par.Unsat);
  check bool "portfolio never splits" true (stats.Par.splits = 0)

let test_portfolio_sat () =
  let cnf = php ~pigeons:7 ~holes:7 in
  match Par.portfolio ~num_domains:3 ~slice_budget:2_000 cnf with
  | Par.Sat m, _ -> check bool "model verified" true (Sat.Model.satisfies cnf m)
  | _ -> Alcotest.fail "expected sat"

let prop_portfolio_matches_brute =
  let gen =
    let open QCheck.Gen in
    int_range 1 9 >>= fun nv ->
    int_range 0 36 >>= fun nc ->
    let lit = map2 (fun v s -> if s then v else -v) (int_range 1 nv) bool in
    list_size (return nc) (list_size (int_range 1 3) lit) >|= fun cs -> Cnf.make ~nvars:nv cs
  in
  QCheck.Test.make ~name:"portfolio agrees with brute force" ~count:40 (QCheck.make gen)
    (fun cnf ->
      let outcome, _ = Par.portfolio ~num_domains:2 ~slice_budget:500 cnf in
      match (outcome, Brute.solve cnf) with
      | Par.Sat m, Brute.Sat _ -> Sat.Model.satisfies cnf m
      | Par.Unsat, Brute.Unsat -> true
      | _ -> false)

let test_par_shares_flow () =
  let _, stats =
    Par.solve ~num_domains:3 ~slice_budget:1_000 ~share_max_len:16 (php ~pigeons:8 ~holes:7)
  in
  check bool "clauses were shared" true (stats.Par.shared_clauses > 0)

let () =
  Alcotest.run "par"
    [
      ( "par_solver",
        [
          Alcotest.test_case "unsat" `Slow test_par_unsat;
          Alcotest.test_case "sat verified" `Slow test_par_sat_verified;
          Alcotest.test_case "single domain" `Quick test_par_single_domain;
          Alcotest.test_case "budget cap" `Slow test_par_budget;
          Alcotest.test_case "trivial cases" `Quick test_par_trivial;
          Alcotest.test_case "empty formula" `Quick test_par_empty_formula;
          Alcotest.test_case "shares flow" `Slow test_par_shares_flow;
          Alcotest.test_case "portfolio unsat" `Slow test_portfolio_unsat;
          Alcotest.test_case "portfolio sat" `Slow test_portfolio_sat;
        ]
        @ [
            QCheck_alcotest.to_alcotest prop_par_matches_brute;
            QCheck_alcotest.to_alcotest prop_portfolio_matches_brute;
          ] );
    ]

(* Replays the paper's Section 2.3 / Figure 1 worked example and checks the
   solver reproduces it exactly: the implication cascade at decision level 6,
   the conflict on V3, the FirstUIP node V5, the learned clause
   (~V10 + ~V7 + V8 + V9 + ~V5), the backjump to level 4 (the level of V9's
   assignment), and the asserting implication V5 = false.

   Note: the paper's prose sets V10 false while its figure and learned clause
   require V10 true; we follow the figure (clause 8 is adjusted accordingly,
   see examples/paper_example.ml for the full narrative). *)

module T = Sat.Types
module Cnf = Sat.Cnf
module Solver = Sat.Solver

(* The reconstructed formula: 14 variables, 9 clauses. *)
let formula =
  Cnf.make ~nvars:14
    [
      [ -11; 12 ] (* c1 *);
      [ -12; -10; 5 ] (* c2 *);
      [ -5; -7; 1 ] (* c3 *);
      [ -5; 8; 2 ] (* c4 *);
      [ 4; -6; 14 ] (* c5: inert once V14 holds *);
      [ -1; -10; 9; 3 ] (* c6: implies V3 true *);
      [ -2; -3 ] (* c7: implies V3 false -> conflict *);
      [ -10; -13 ] (* c8 *);
      [ 14 ] (* c9: unit *);
    ]

let decisions = [ 10; 7; -8; -9; 6 ] (* levels 1..5; level 6 decides V11 *)

let run_to_conflict () =
  let s = Solver.create formula in
  List.iter
    (fun d ->
      Solver.decide_manual s (T.lit_of_int d);
      match Solver.propagate_manual s with
      | `Ok -> ()
      | `Conflict _ -> Alcotest.fail "premature conflict")
    decisions;
  Solver.decide_manual s (T.lit_of_int 11);
  match Solver.propagate_manual s with
  | `Ok -> Alcotest.fail "expected a conflict at level 6"
  | `Conflict info -> (s, info)

let sorted_ints lits = List.sort compare (List.map T.to_int (Array.to_list lits))

let test_level0_unit () =
  let s = Solver.create formula in
  Alcotest.(check bool) "V14 forced at root" true (Solver.value_of_var s 14 = T.True);
  Alcotest.(check int) "V14 at level 0" 0 (Solver.level_of_var s 14)

let test_clause8_implication () =
  let s = Solver.create formula in
  Solver.decide_manual s (T.lit_of_int 10);
  (match Solver.propagate_manual s with
  | `Ok -> ()
  | `Conflict _ -> Alcotest.fail "no conflict expected");
  Alcotest.(check bool) "V13 implied false" true (Solver.value_of_var s 13 = T.False);
  Alcotest.(check int) "V13 at level 1" 1 (Solver.level_of_var s 13);
  (* V13's antecedent is clause 8 *)
  match Solver.antecedent_of_var s 13 with
  | Some c -> Alcotest.(check (list int)) "antecedent is c8" [ -13; -10 ] (sorted_ints c)
  | None -> Alcotest.fail "V13 should have an antecedent"

let test_conflict_on_v3 () =
  let _, info = run_to_conflict () in
  Alcotest.(check (list int))
    "conflicting clause is c7" [ -3; -2 ]
    (sorted_ints info.Solver.conflicting_clause);
  Alcotest.(check bool)
    "conflict variable is V2 or V3" true
    (info.Solver.conflicting_var = 2 || info.Solver.conflicting_var = 3)

let test_learned_clause () =
  let _, info = run_to_conflict () in
  Alcotest.(check (list int))
    "learned clause matches the paper" [ -10; -7; -5; 8; 9 ]
    (sorted_ints info.Solver.learned);
  Alcotest.(check int) "asserting literal is ~V5" (-5) (T.to_int info.Solver.learned.(0))

let test_first_uip () =
  let _, info = run_to_conflict () in
  Alcotest.(check int) "FirstUIP is V5" 5 info.Solver.uip_var

let test_backjump_level () =
  let _, info = run_to_conflict () in
  Alcotest.(check int) "backjump to level 4 (level of ~V9)" 4 info.Solver.backjump_level

let test_asserting_implication () =
  let s, _ = run_to_conflict () in
  Alcotest.(check int) "now at level 4" 4 (Solver.decision_level s);
  Alcotest.(check bool) "V5 asserted false" true (Solver.value_of_var s 5 = T.False);
  Alcotest.(check int) "V5 at level 4" 4 (Solver.level_of_var s 5);
  (* the asserting implication cascades: c2 forces ~V12, then c1 forces ~V11 *)
  match Solver.propagate_manual s with
  | `Conflict _ -> Alcotest.fail "no further conflict expected"
  | `Ok ->
      Alcotest.(check bool) "V12 implied false" true (Solver.value_of_var s 12 = T.False);
      Alcotest.(check bool) "V11 implied false" true (Solver.value_of_var s 11 = T.False)

let test_implication_graph_snapshot () =
  let _, info = run_to_conflict () in
  let graph = info.Solver.implication_graph in
  let level6 = List.filter (fun (_, lvl, _) -> lvl = 6) graph in
  let vars = List.map (fun (v, _, _) -> v) level6 |> List.sort compare in
  Alcotest.(check (list int)) "level-6 nodes of the graph" [ 1; 2; 3; 5; 11; 12 ] vars;
  (* the decision V11 has no antecedent; every other level-6 node has one *)
  List.iter
    (fun (v, _, ante) ->
      if v = 11 then Alcotest.(check bool) "decision has no antecedent" true (ante = None)
      else Alcotest.(check bool) (Printf.sprintf "V%d has an antecedent" v) true (ante <> None))
    level6

let test_formula_is_satisfiable () =
  (* the example formula itself is easily satisfiable; the conflict is an
     artifact of the scripted decisions *)
  match Sat.Brute.solve formula with
  | Sat.Brute.Sat _ -> ()
  | Sat.Brute.Unsat -> Alcotest.fail "example formula should be satisfiable"

let test_solver_finishes_after_replay () =
  let s, _ = run_to_conflict () in
  match Solver.solve s with
  | Solver.Sat m -> Alcotest.(check bool) "model valid" true (Sat.Model.satisfies formula m)
  | _ -> Alcotest.fail "expected sat"

(* ---------- Figure 2 on the same formula ----------

   The paper's split example continues from the Figure 1 state: client A
   keeps the branch with its first decision (V10 true) committed to the
   root, and client B receives the complement (~V10).  The paper notes
   that A can drop clauses 8 and 9 (satisfied at its new root) while B can
   drop clause 9 *and the newly learned clause* (satisfied by ~V10). *)

let test_figure2_split_of_figure1_state () =
  let s, _ = run_to_conflict () in
  (* settle the asserting implication so the stack matches the figure *)
  (match Solver.propagate_manual s with `Ok -> () | `Conflict _ -> Alcotest.fail "unexpected");
  let module Sub = Gridsat_core.Subproblem in
  match Sub.split_from s with
  | None -> Alcotest.fail "expected a split"
  | Some sp ->
      (* client A committed V10 (and its implication ~V13) to the root *)
      let a_path = List.map T.to_int (Solver.root_path s) in
      Alcotest.(check bool) "A's guiding path holds V10" true (List.mem 10 a_path);
      Alcotest.(check bool) "A's guiding path holds ~V13" true (List.mem (-13) a_path);
      (* client B's guiding path is the complement of A's first decision *)
      let b_path = List.map T.to_int sp.Sub.path in
      Alcotest.(check (list int)) "B starts from ~V10" [ -10 ] b_path;
      (* A dropped the clauses satisfied at its root: c8 (~V10|~V13) and
         c9 (V14) *)
      let a_clauses = List.map sorted_ints (Clause_lists.to_list (Solver.active_clauses s)) in
      Alcotest.(check bool) "A dropped clause 8" true
        (not (List.mem [ -13; -10 ] a_clauses));
      Alcotest.(check bool) "A dropped clause 9" true (not (List.mem [ 14 ] a_clauses));
      (* B dropped clause 9 and the learned clause (satisfied by ~V10) *)
      let b_clauses = List.map sorted_ints (Clause_lists.to_list sp.Sub.clauses) in
      Alcotest.(check bool) "B dropped clause 9" true (not (List.mem [ 14 ] b_clauses));
      Alcotest.(check bool) "B dropped the learned clause" true
        (not (List.mem [ -10; -7; -5; 8; 9 ] b_clauses));
      (* B still carries clause 8? it is satisfied by ~V10 as well *)
      Alcotest.(check bool) "B dropped clause 8 too" true
        (not (List.mem [ -13; -10 ] b_clauses));
      (* both halves remain satisfiable (the original formula is) *)
      let b = Sub.to_solver ~config:Solver.default_config sp in
      let sat solver = match Solver.solve solver with Solver.Sat _ -> true | _ -> false in
      Alcotest.(check bool) "some branch is satisfiable" true (sat s || sat b)

let () =
  Alcotest.run "paper_example"
    [
      ( "figure1",
        [
          Alcotest.test_case "unit clause at level 0" `Quick test_level0_unit;
          Alcotest.test_case "clause 8 implication" `Quick test_clause8_implication;
          Alcotest.test_case "conflict on V3" `Quick test_conflict_on_v3;
          Alcotest.test_case "learned clause" `Quick test_learned_clause;
          Alcotest.test_case "FirstUIP node" `Quick test_first_uip;
          Alcotest.test_case "backjump level" `Quick test_backjump_level;
          Alcotest.test_case "asserting implication" `Quick test_asserting_implication;
          Alcotest.test_case "implication graph" `Quick test_implication_graph_snapshot;
          Alcotest.test_case "formula satisfiable" `Quick test_formula_is_satisfiable;
          Alcotest.test_case "search completes" `Quick test_solver_finishes_after_replay;
          Alcotest.test_case "figure 2 split" `Quick test_figure2_split_of_figure1_state;
        ] );
    ]

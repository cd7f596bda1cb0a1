(* Quickstart: build a formula, solve it sequentially, then solve a harder
   one on a small simulated grid, by splitting and as a portfolio.

   Run with: dune exec examples/quickstart.exe *)

let () =
  (* 1. A formula from DIMACS text. *)
  let dimacs = "c (x1 | ~x2) & (x2 | x3) & (~x1 | ~x3)\np cnf 3 3\n1 -2 0\n2 3 0\n-1 -3 0\n" in
  let cnf = Sat.Dimacs.parse_string dimacs in
  Format.printf "--- sequential solve ---@.";
  (match Sat.Solver.solve (Sat.Solver.create cnf) with
  | Sat.Solver.Sat model ->
      Format.printf "SAT, model: %a@." Sat.Model.pp model;
      assert (Sat.Model.satisfies cnf model)
  | Sat.Solver.Unsat -> Format.printf "UNSAT@."
  | Sat.Solver.Budget_exhausted | Sat.Solver.Mem_pressure -> assert false);

  (* 2. A pigeonhole instance on a simulated 8-host grid. *)
  Format.printf "@.--- GridSAT on a simulated 8-host grid ---@.";
  let hard = Workloads.Php.instance ~pigeons:9 ~holes:8 in
  let testbed = Gridsat_core.Testbed.uniform ~n:8 ~speed:2000. () in
  let config =
    { Gridsat_core.Config.default with Gridsat_core.Config.split_timeout = 5. }
  in
  let result = Gridsat_core.Gridsat.solve ~config ~testbed hard in
  Format.printf "%a@." Gridsat_core.Gridsat.pp_result result;

  (* 3. The same instance and grid as a portfolio: every host races a
     differently seeded copy of the whole problem, and nothing splits. *)
  Format.printf "@.--- the same grid as a portfolio ---@.";
  let portfolio = { config with Gridsat_core.Config.portfolio = true } in
  let raced = Gridsat_core.Gridsat.solve ~config:portfolio ~testbed hard in
  Format.printf "%a@." Gridsat_core.Gridsat.pp_result raced

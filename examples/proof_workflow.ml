(* UNSAT certification workflow: preprocess a formula, solve it with DRUP
   proof logging, and verify the proof with the independent checker — the
   trust story the 2003 paper could not yet offer for UNSAT answers.

   Run with: dune exec examples/proof_workflow.exe *)

let () =
  Format.printf "=== certifying an UNSAT answer end to end ===@.@.";
  let cnf = Workloads.Php.instance ~pigeons:8 ~holes:7 in
  Format.printf "instance: pigeonhole 8/7 (%d vars, %d clauses) — provably unsatisfiable@.@."
    (Sat.Cnf.nvars cnf) (Sat.Cnf.nclauses cnf);

  (* 1. preprocessing *)
  let pre = Sat.Preprocess.run cnf in
  Format.printf "preprocessing: %d -> %d clauses (%d vars eliminated, %d subsumed)@."
    pre.Sat.Preprocess.clauses_before pre.Sat.Preprocess.clauses_after
    pre.Sat.Preprocess.eliminated pre.Sat.Preprocess.subsumed;

  (* 2. solve the simplified formula with proof logging *)
  let config = { Sat.Solver.default_config with Sat.Solver.emit_proof = true } in
  let solver = Sat.Solver.create ~config pre.Sat.Preprocess.cnf in
  (match Sat.Solver.solve solver with
  | Sat.Solver.Unsat -> Format.printf "solver: UNSATISFIABLE@."
  | _ -> failwith "expected unsat");
  let stats = Sat.Solver.stats solver in
  Format.printf "search: %d conflicts, %d propagations@." stats.Sat.Stats.conflicts
    stats.Sat.Stats.propagations;

  (* 3. verify the DRUP proof with the independent checker *)
  let proof = Sat.Solver.proof solver in
  Format.printf "proof: %d steps (%d bytes as DRUP text)@." (List.length proof)
    (String.length (Sat.Drup.to_string proof));
  (match Sat.Drup.check pre.Sat.Preprocess.cnf proof with
  | Ok () -> Format.printf "checker: VERIFIED — the UNSAT answer is certified@."
  | Error e -> Format.printf "checker: FAILED (%s)@." e);

  (* 4. and the preprocessor's own steps are certifiable too: the original
     formula implies every simplified clause *)
  let simplified = Sat.Cnf.clauses pre.Sat.Preprocess.cnf in
  let spot_check =
    List.for_all
      (fun clause -> Sat.Drup.check_clause_rup cnf [] clause)
      (List.init (min 20 (Sat.Arena.nclauses simplified)) (Sat.Arena.clause simplified))
  in
  Format.printf "preprocessed clauses RUP-check against the original: %b@." spot_check

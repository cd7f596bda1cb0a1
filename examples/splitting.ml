(* Demonstrates the paper's Figure 2: splitting a running solver's search
   space into two subproblems, with inconsequential-clause removal.

   Run with: dune exec examples/splitting.exe *)

module T = Sat.Types
module Solver = Sat.Solver
module Sub = Gridsat_core.Subproblem

let lits_string lits = String.concat " " (List.map (fun l -> string_of_int (T.to_int l)) lits)

let () =
  Format.printf "=== Figure 2: splitting a problem between two clients ===@.@.";
  let cnf = Workloads.Php.instance ~pigeons:7 ~holes:6 in
  Format.printf "instance: pigeonhole 7/6 — %d variables, %d clauses@.@." (Sat.Cnf.nvars cnf)
    (Sat.Cnf.nclauses cnf);
  let solver = Solver.create cnf in
  (* run until the solver has built up a decision stack *)
  let rec advance () =
    match Solver.run solver ~budget:200 with
    | Solver.Budget_exhausted -> if Solver.decision_level solver < 3 then advance ()
    | _ -> failwith "instance solved before we could split (unexpected here)"
  in
  advance ();
  Format.printf "client A has been searching for a while:@.";
  Format.printf "  decision level: %d@." (Solver.decision_level solver);
  Format.printf "  root facts:  [%s]@." (lits_string (Solver.root_facts solver));
  Format.printf "  learned clauses so far: %d@." (Solver.n_learned solver);
  Format.printf "  clause-database size: %d bytes@.@." (Solver.db_bytes solver);

  let before = Sat.Arena.nclauses (Solver.active_clauses solver) in
  match Sub.split_from solver with
  | None -> failwith "no decision to split on"
  | Some sp ->
      Format.printf "split! client A keeps its first-decision branch:@.";
      Format.printf "  A's root facts: [%s]@." (lits_string (Solver.root_facts solver));
      Format.printf "  A's guiding path (committed branch): [%s]@.@."
        (lits_string (Solver.root_path solver));
      Format.printf "the complementary subproblem goes to client B:@.";
      Format.printf "  B's root facts: [%s]@." (lits_string sp.Sub.facts);
      Format.printf "  B's guiding path: [%s]  (complement of A's first decision)@."
        (lits_string sp.Sub.path);
      Format.printf "  clauses transferred: %d of %d (satisfied ones removed)@."
        (Sub.nclauses sp) before;
      Format.printf "  transfer size: %d bytes@.@." (Sub.bytes sp);

      (* both sides now run to completion; the instance is UNSAT so both
         branches must be exhausted *)
      let b = Sub.to_solver ~config:Solver.default_config sp in
      let run name s =
        match Solver.solve s with
        | Solver.Unsat -> Format.printf "client %s: subproblem UNSAT@." name
        | Solver.Sat _ -> Format.printf "client %s: found a model@." name
        | _ -> assert false
      in
      run "A" solver;
      run "B" b;
      Format.printf "both branches exhausted: the instance is UNSAT@."

(* Reproduction of Table 2: the hard "remaining" instances on the second
   apparatus — 27 faster interactive hosts plus an IBM Blue Horizon batch
   job (share length 3).  The interactive grid covers the batch queue
   wait; if an instance is still open when the job starts, the batch nodes
   join the computation, and the run ends when the job expires. *)

module R = Workloads.Registry
module C = Gridsat_core

let run () =
  Printf.printf "== Table 2: testbed + Blue Horizon on the harder problems ==\n";
  Printf.printf
    "(batch job: 16 nodes, mean queue wait %.0f vs (~550 realised), duration %.0f vs; share length 3)\n\n"
    Scale.set2_batch_wait Scale.set2_batch_duration;
  Printf.printf "%-32s %-6s | %9s %6s %7s | %9s | %s\n" "File name" "status" "GridSAT" "maxcl"
    "batch?" "paper" "real";
  Printf.printf "%s\n" (String.make 92 '-');
  let testbed = Scale.set2 () in
  let results =
    List.map
      (fun (e : R.entry) ->
        let t0 = Unix.gettimeofday () in
        let cnf = e.R.gen () in
        let timeout = Scale.set2_overall_timeout in
        let config = Scale.t2_config ~timeout in
        let grid = C.Gridsat.solve ~config ~testbed cnf in
        let used_batch =
          List.exists
            (fun ev ->
              match ev.C.Events.kind with
              | C.Events.Batch_job_started _ -> true
              | _ -> false)
            grid.C.Master.events
        in
        let cancelled =
          List.exists
            (fun ev ->
              match ev.C.Events.kind with C.Events.Batch_job_cancelled -> true | _ -> false)
            grid.C.Master.events
        in
        let batch_note =
          if cancelled && not used_batch then "no"
          else if used_batch then "yes"
          else "-"
        in
        Printf.printf "%-32s %-6s | %9s %6d %7s | %9s | %.0fs\n%!" e.R.name
          (Runner.status_string e.R.status)
          (Runner.grid_time_string grid)
          (C.Master.counter grid "max_clients") batch_note
          (Runner.paper_time_string e.R.paper_gridsat)
          (Unix.gettimeofday () -. t0);
        (e, grid, used_batch))
      R.table2
  in
  let solved =
    List.filter
      (fun (_, (g : C.Master.result), _) ->
        match g.C.Master.answer with C.Master.Unknown _ -> false | _ -> true)
      results
  in
  Printf.printf "\nsolved %d/%d; paper solved 3/9 (rand-net70, glassybp before the batch job;\n"
    (List.length solved) (List.length results);
  Printf.printf "par32-1-c only after the Blue Horizon nodes joined)\n";
  results

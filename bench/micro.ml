(* Bechamel micro-benchmarks: one [Test.make] per reproduced table plus a
   set covering the substrate hot paths.  The table tests run scaled-down
   single-row microcosms so the whole suite stays fast; the full tables
   are regenerated by the [table1]/[table2] harness commands. *)

open Bechamel
open Toolkit

let cnf_medium = lazy (Workloads.Php.instance ~pigeons:8 ~holes:7)

let test_table1 =
  Test.make ~name:"table1:row-microcosm"
    (Staged.stage (fun () ->
         let cnf = Lazy.force cnf_medium in
         let testbed = Gridsat_core.Testbed.uniform ~n:4 ~speed:2000. () in
         let config =
           {
             Gridsat_core.Config.default with
             Gridsat_core.Config.split_timeout = 5.;
             overall_timeout = 10_000.;
           }
         in
         ignore (Gridsat_core.Gridsat.solve ~config ~testbed cnf)))

let test_table2 =
  Test.make ~name:"table2:batch-microcosm"
    (Staged.stage (fun () ->
         let cnf = Lazy.force cnf_medium in
         let base = Gridsat_core.Testbed.uniform ~n:2 ~speed:2000. () in
         let testbed =
           {
             base with
             Gridsat_core.Testbed.batch =
               Some
                 {
                   Gridsat_core.Testbed.site = "local";
                   nodes = 2;
                   node_speed = 4000.;
                   node_mem = 64 * 1024 * 1024;
                   duration = 10_000.;
                   mean_wait = 5.;
                   queue_seed = 0;
                 };
           }
         in
         let config =
           {
             Gridsat_core.Config.default with
             Gridsat_core.Config.split_timeout = 5.;
             overall_timeout = 10_000.;
           }
         in
         ignore (Gridsat_core.Gridsat.solve ~config ~testbed cnf)))

let test_bcp =
  Test.make ~name:"solver:bcp-throughput"
    (Staged.stage (fun () ->
         let s = Sat.Solver.create (Lazy.force cnf_medium) in
         ignore (Sat.Solver.run s ~budget:20_000)))

let test_dimacs =
  let doc = lazy (Sat.Dimacs.to_string (Lazy.force cnf_medium)) in
  Test.make ~name:"dimacs:parse"
    (Staged.stage (fun () -> ignore (Sat.Dimacs.parse_string (Lazy.force doc))))

let test_heap =
  Test.make ~name:"heap:insert-remove"
    (Staged.stage (fun () ->
         let score = Array.init 1001 (fun i -> float_of_int ((i * 7919) mod 1001)) in
         let h = Sat.Heap.create ~nvars:1000 ~key:score in
         for v = 1 to 1000 do
           Sat.Heap.insert h v
         done;
         while not (Sat.Heap.is_empty h) do
           ignore (Sat.Heap.remove_max h)
         done))

let test_network =
  Test.make ~name:"grid:network-transfer-model"
    (Staged.stage (fun () ->
         let net = Grid.Network.create () in
         for i = 0 to 999 do
           ignore (Grid.Network.transfer_time net ~src:"utk" ~dst:"ucsd" ~bytes:(i * 1000))
         done))

let test_sim =
  Test.make ~name:"grid:simulator-events"
    (Staged.stage (fun () ->
         let sim = Grid.Sim.create () in
         for i = 0 to 999 do
           ignore (Grid.Sim.schedule sim ~delay:(float_of_int (i mod 17)) (fun () -> ()))
         done;
         Grid.Sim.run sim ~until:20.))

let test_bcp_obs_enabled =
  Test.make ~name:"solver:bcp-obs-enabled"
    (Staged.stage (fun () ->
         let s = Sat.Solver.create ~obs:(Obs.create ()) (Lazy.force cnf_medium) in
         ignore (Sat.Solver.run s ~budget:20_000)))

let test_subproblem =
  Test.make ~name:"core:subproblem-prune"
    (Staged.stage (fun () ->
         let sp = Gridsat_core.Subproblem.initial (Lazy.force cnf_medium) in
         let sp = { sp with Gridsat_core.Subproblem.path = [ Sat.Types.pos 1; Sat.Types.neg 9 ] } in
         ignore (Gridsat_core.Subproblem.prune sp)))

(* The three layers a formula crosses after [dimacs:parse], on the same
   PHP(8,7): a branch of it, mid-search, decoded from its wire text and
   instantiated as a solver, and the verdict-cache key of the formula. *)
let branch_medium =
  lazy
    (let s = Sat.Solver.create (Lazy.force cnf_medium) in
     ignore (Sat.Solver.run s ~budget:2_000);
     Option.get (Gridsat_core.Subproblem.split_from s))

let test_sub_of_string =
  let text = lazy (Gridsat_core.Subproblem.to_string (Lazy.force branch_medium)) in
  Test.make ~name:"subproblem:of_string"
    (Staged.stage (fun () -> ignore (Gridsat_core.Subproblem.of_string (Lazy.force text))))

let test_sub_to_solver =
  Test.make ~name:"subproblem:to_solver"
    (Staged.stage (fun () ->
         ignore
           (Gridsat_core.Subproblem.to_solver ~config:Sat.Solver.default_config
              (Lazy.force branch_medium))))

(* The same build with the solver kept, as a client keeps it for its
   run: the last 64 stay alive, so the minor heap's survivors are
   promoted and the promotion is timed too. *)
let test_sub_to_solver_kept =
  let kept = Array.make 64 None and next = ref 0 in
  Test.make ~name:"subproblem:to_solver-kept"
    (Staged.stage (fun () ->
         kept.(!next) <-
           Some
             (Gridsat_core.Subproblem.to_solver ~config:Sat.Solver.default_config
                (Lazy.force branch_medium));
         next := (!next + 1) land 63))

(* The service batch's shape: a 22-variable planted 3-SAT formula at
   ratio 5 (110 canonical clauses), built and then released as a client
   releases its solver when the run ends, so each build after the first
   reuses the storage the last one left. *)
let test_sub_to_solver_small =
  let sp =
    lazy
      (Gridsat_core.Subproblem.initial
         (Workloads.Random_sat.planted ~nvars:22 ~ratio:5.0 ~seed:1 ()))
  in
  Test.make ~name:"subproblem:to_solver-small"
    (Staged.stage (fun () ->
         Sat.Solver.release
           (Gridsat_core.Subproblem.to_solver ~config:Sat.Solver.default_config (Lazy.force sp))))

(* A refutation of PHP(7,6) as the solver logs it: the DRUP text a
   certified fragment travels as, written by the client and read by the
   master. *)
let proof_medium =
  lazy
    (let s =
       Sat.Solver.create
         ~config:{ Sat.Solver.default_config with Sat.Solver.emit_proof = true }
         (Workloads.Php.instance ~pigeons:7 ~holes:6)
     in
     ignore (Sat.Solver.solve s);
     Sat.Solver.proof s)

let test_drup_of_string =
  let text = lazy (Sat.Drup.to_string (Lazy.force proof_medium)) in
  Test.make ~name:"drup:of_string"
    (Staged.stage (fun () -> ignore (Sat.Drup.of_string (Lazy.force text))))

let test_drup_to_string =
  Test.make ~name:"drup:to_string"
    (Staged.stage (fun () -> ignore (Sat.Drup.to_string (Lazy.force proof_medium))))

let test_cache_digest =
  Test.make ~name:"cache:digest"
    (Staged.stage (fun () -> ignore (Gridsat_service.Cache.digest (Lazy.force cnf_medium))))

(* The replication check of one journal ship: the primary reads its log
   digest at flush time and the standby compares it with its own.  The
   journals hold 10^2 and 10^4 refutations, whose tombstones only ever
   accumulate; the per-ship cost must not grow with them. *)
let test_ship_check =
  let module J = Gridsat_core.Journal in
  let journal n =
    let j = J.create ~compact_every:64 () in
    for k = 1 to n do
      J.append j (J.Refuted { pid = (k, 0) })
    done;
    j
  in
  Test.make_indexed ~name:"journal:ship-check" ~args:[ 100; 10_000 ] (fun n ->
      let primary = journal n and shadow = journal n in
      Staged.stage (fun () -> String.equal (J.log_digest primary) (J.log_digest shadow)))

let all_tests =
  [
    test_table1; test_table2; test_bcp; test_bcp_obs_enabled; test_dimacs; test_sub_of_string;
    test_drup_of_string; test_drup_to_string; test_sub_to_solver; test_sub_to_solver_kept;
    test_sub_to_solver_small;
    test_cache_digest; test_heap; test_network; test_sim; test_subproblem; test_ship_check;
  ]

(* The tentpole's zero-cost claim: with telemetry off, every instrumented
   hot-path site reduces to one predictable branch.  Measured directly —
   the same BCP-heavy workload with the disabled context vs a live one;
   the disabled run must sit within noise of free (<2% of the enabled
   run's instrument cost, i.e. indistinguishable from it in practice). *)
let obs_overhead () =
  Printf.printf "== obs: telemetry overhead on a BCP-heavy workload ==\n\n";
  let cnf = Lazy.force cnf_medium in
  let time_run obs =
    let reps = 25 in
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      let s = match obs with None -> Sat.Solver.create cnf | Some o -> Sat.Solver.create ~obs:o cnf in
      ignore (Sat.Solver.run s ~budget:50_000)
    done;
    (Unix.gettimeofday () -. t0) /. float_of_int reps
  in
  ignore (time_run None) (* warm-up *);
  let off = time_run None in
  let on = time_run (Some (Obs.create ())) in
  Printf.printf "telemetry disabled  %8.2f ms/run\n" (1e3 *. off);
  Printf.printf "telemetry enabled   %8.2f ms/run\n" (1e3 *. on);
  Printf.printf "enabled cost        %+7.1f%%\n\n" (100. *. (on -. off) /. off);
  (* What the disabled run pays over un-instrumented code: one predicted
     branch per site.  Time the branch in isolation, count the guarded
     sites one run executes, and bound the overhead. *)
  let n = 100_000_000 in
  let flag = Sys.opaque_identity false in
  let sink = ref 0 in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to n do
    if flag then incr sink
  done;
  let per_site = (Unix.gettimeofday () -. t0) /. float_of_int n in
  let st =
    let s = Sat.Solver.create cnf in
    ignore (Sat.Solver.run s ~budget:50_000);
    Sat.Solver.stats s
  in
  let sites =
    (* counter guards fire on decide/conflict/learn/restart; [propagate]
       itself has no telemetry guard *)
    st.Sat.Stats.decisions + st.Sat.Stats.conflicts + st.Sat.Stats.learned
    + st.Sat.Stats.restarts
  in
  let disabled_overhead = 100. *. (per_site *. float_of_int sites) /. off in
  Printf.printf "disabled guard      %8.2f ns/site x %d sites/run = %.4f%% of run time\n"
    (1e9 *. per_site) sites disabled_overhead;
  Printf.printf "disabled-telemetry overhead %s the 2%% budget\n"
    (if disabled_overhead < 2. then "within" else "EXCEEDS");
  (* The observability layer's newer disabled paths must stay in the
     same per-site class: a flight-recorder note against the disabled
     recorder, an anomaly observation through an inert detector, and a
     counter bump obtained from a scoped disabled registry all reduce to
     a guard (the scoped handle is the inert instrument itself). *)
  let m = 10_000_000 in
  let time_calls label f =
    let t0 = Unix.gettimeofday () in
    for i = 1 to m do
      f i
    done;
    let per_call = (Unix.gettimeofday () -. t0) /. float_of_int m in
    Printf.printf "%-32s %8.2f ns/call\n" label (1e9 *. per_call);
    per_call
  in
  Printf.printf "\n-- disabled observability paths (flight/anomaly/scoped metrics) --\n";
  let flight = Obs.Flight.disabled in
  let per_flight = time_calls "Flight.note (disabled)" (fun _ -> Obs.Flight.note flight ~sub:"bench" "tick") in
  let det = Obs.Anomaly.detector Obs.Anomaly.disabled ~name:"bench" () in
  let per_anom =
    time_calls "Anomaly.observe (inert)" (fun i -> Obs.Anomaly.observe det ~at:(float_of_int i) 1.0)
  in
  let scoped = Obs.Metrics.scope (Obs.Metrics.create ~enabled:false) ~labels:[ ("job", "1") ] in
  let c = Obs.Metrics.counter scoped "bench.ticks" in
  let per_ctr = time_calls "Metrics.incr (scoped, disabled)" (fun _ -> Obs.Metrics.incr c) in
  let worst = List.fold_left Float.max per_flight [ per_anom; per_ctr ] in
  (* Same budget framing as above: at the measured site count the worst
     disabled path must stay far below the run-time budget. *)
  let new_path_overhead = 100. *. (worst *. float_of_int sites) /. off in
  Printf.printf "worst disabled path %8.2f ns/site x %d sites/run = %.4f%% of run time\n"
    (1e9 *. worst) sites new_path_overhead;
  Printf.printf "disabled flight/anomaly overhead %s the 2%% budget\n"
    (if new_path_overhead < 2. then "within" else "EXCEEDS")

let run () =
  Printf.printf "== Bechamel micro-benchmarks ==\n\n";
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:100 ~quota:(Time.second 0.5) ~kde:(Some 100) () in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let results = Analyze.all ols Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ t ] -> Printf.printf "%-28s %12.0f ns/run\n%!" name t
          | _ -> Printf.printf "%-28s (no estimate)\n%!" name)
        results)
    all_tests

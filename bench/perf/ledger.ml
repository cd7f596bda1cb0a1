(* Per-layer kernels, measured in isolation on inputs taken from the
   workload that just ran, plus the counts the program's own registry
   recorded during that run.  Every timing here is the bench's: a wall
   clock read around calls into a layer's public functions, never a span
   recorded inside the program. *)

module C = Gridsat_core
module S = Gridsat_service.Service
module J = Gridsat_service.Job
module W = Workload

let now = Unix.gettimeofday

let mb words = float words *. float (Sys.word_size / 8) /. 1_048_576.

(* Calls [f] until [min_s] seconds have passed (at least three times);
   returns the calls made and the seconds they took. *)
let loop ~min_s f =
  let t0 = now () in
  let n = ref 0 in
  while !n < 3 || now () -. t0 < min_s do
    f ();
    incr n
  done;
  (float !n, now () -. t0)

let span spans name f =
  let sid = Obs.Span.enter spans ~cat:"kernel" name in
  let x = f () in
  Obs.Span.exit spans sid;
  x

let registry obs name =
  match List.assoc_opt name (Obs.Metrics.export_merged (Obs.metrics obs)) with
  | Some (Obs.Metrics.Counter n) -> float n
  | Some (Obs.Metrics.Gauge g) -> g
  | Some (Obs.Metrics.Histogram h) -> float h.count
  | None -> 0.

(* [Solver.run ~budget] over the workload's formulas, cycled until
   [target] propagations have been made. *)
let sat_kernel ~config ~target cnfs =
  let props = ref 0 and secs = ref 0. and words = ref 0. in
  let cnfs = Array.of_list cnfs in
  let i = ref 0 in
  while !props < target do
    let s = Sat.Solver.create ~config cnfs.(!i mod Array.length cnfs) in
    let w0 = Gc.minor_words () and t0 = now () in
    ignore (Sat.Solver.run s ~budget:(target - !props));
    secs := !secs +. (now () -. t0);
    words := !words +. (Gc.minor_words () -. w0);
    props := !props + max 1 (Sat.Solver.stats s).Sat.Stats.propagations;
    incr i
  done;
  (float !props /. !secs, !words /. float !props)

(* A deterministic solver part-way into its search, with a decision to
   split on: the largest of a few budgets that leaves the search open. *)
let mid_search ~config cnfs =
  let attempt cnf budget =
    let s = Sat.Solver.create ~config cnf in
    match Sat.Solver.run s ~budget with
    | Sat.Solver.Budget_exhausted when Sat.Solver.decision_level s > 0 -> Some budget
    | _ -> None
  in
  List.find_map
    (fun cnf ->
      List.find_map (fun b -> Option.map (fun b -> (cnf, b)) (attempt cnf b)) [ 20_000; 2_000; 200; 20 ])
    cnfs
  |> Option.map (fun (cnf, budget) () ->
         let s = Sat.Solver.create ~config cnf in
         ignore (Sat.Solver.run s ~budget);
         s)

(* [capture] and [to_solver] cost per subproblem byte, on splits taken
   from a solver part-way into the workload's own formula. *)
let subproblem_kernel ~loop ~config fresh =
  let t_cap = ref 0. and b_cap = ref 0 and t_to = ref 0. and b_to = ref 0 in
  let captured = ref None in
  ignore
    (loop (fun () ->
         let s = fresh () in
         let t0 = now () in
         let sp = C.Subproblem.capture s in
         t_cap := !t_cap +. (now () -. t0);
         b_cap := !b_cap + C.Subproblem.bytes sp;
         captured := Some sp;
         match C.Subproblem.split_from s with
         | None -> ()
         | Some branch ->
             let t0 = now () in
             ignore (C.Subproblem.to_solver ~config branch);
             t_to := !t_to +. (now () -. t0);
             b_to := !b_to + C.Subproblem.bytes branch));
  (1e9 *. !t_cap /. float !b_cap, 1e9 *. !t_to /. float (max 1 !b_to), Option.get !captured)

(* [Protocol.frame] + [Protocol.verify] of a captured subproblem. *)
let wire_kernel ~loop sp =
  let msg = C.Protocol.Problem { pid = (0, 0); sp; sent_at = 0. } in
  let n, secs =
    loop (fun () ->
        match C.Protocol.verify (C.Protocol.frame msg) with
        | `Ok _ -> ()
        | `Corrupt _ -> failwith "wire kernel: a sealed frame failed its own check")
  in
  float (C.Protocol.size msg) *. n /. secs /. 1e6

(* [Sim.schedule] + [Sim.step] with [depth] other events pending. *)
let grid_kernel ~loop ~depth =
  let sim = Grid.Sim.create () in
  for _ = 1 to depth do
    ignore (Grid.Sim.schedule sim ~delay:1e12 ignore)
  done;
  let batch = 1000 in
  let n, secs =
    loop (fun () ->
        for _ = 1 to batch do
          ignore (Grid.Sim.schedule sim ~delay:1e-3 ignore);
          ignore (Grid.Sim.step sim)
        done)
  in
  1e9 *. secs /. (n *. float batch)

let answer_of ~config (cnf, expect) =
  match expect with
  | W.Expect_unsat -> C.Master.Unsat
  | W.Expect_sat -> (
      match Sat.Solver.solve (Sat.Solver.create ~config cnf) with
      | Sat.Solver.Sat m -> C.Master.Sat m
      | _ -> failwith "ledger: a SAT input did not solve")

(* The run's last finished master; the service keeps none, so for it
   one solve of the workload's first formula on a job-sized lease. *)
let master_for ~(config : C.Config.t) ~last_master cnfs =
  match last_master with
  | Some m -> m
  | None ->
      let m = ref None in
      let testbed = C.Testbed.uniform ~n:W.service_config.S.hosts_per_job ~speed:500. () in
      ignore
        (C.Gridsat.solve ~config ~on_master:(fun x -> m := Some x) ~testbed (fst (List.hd cnfs)));
      Option.get !m

(* [quick] shrinks every kernel (for the smoke run); otherwise the solver
   kernel makes two million propagations. *)
let measure ~quick ~spans ~obs ~(config : C.Config.t) ~cnfs ~last_master ~service ~retained =
  let min_s = if quick then 0.01 else 0.2 in
  let loop f = loop ~min_s f in
  let per_call_ms f =
    let n, secs = loop f in
    1e3 *. secs /. n
  in
  (* live heap with the call's outputs reachable, before any kernel runs *)
  Gc.full_major ();
  let retained_mb = mb (Gc.quick_stat ()).Gc.live_words in
  ignore (Sys.opaque_identity retained);
  let sconfig = config.C.Config.solver_config in
  let formulas = List.map fst cnfs in
  let kernel_props_per_s, minor_words_per_prop =
    span spans "kernel.sat" (fun () ->
        sat_kernel ~config:sconfig ~target:(if quick then 50_000 else 2_000_000) formulas)
  in
  let fresh =
    match mid_search ~config:sconfig formulas with
    | Some f -> f
    | None -> failwith "ledger: no workload formula leaves a search open to split"
  in
  let capture_ns, to_solver_ns, sp =
    span spans "kernel.subproblem" (fun () -> subproblem_kernel ~loop ~config:sconfig fresh)
  in
  let digest_mb_per_s = span spans "kernel.wire" (fun () -> wire_kernel ~loop sp) in
  let depth = int_of_float (registry obs "sim.pending.max") in
  let step_ns = span spans "kernel.grid" (fun () -> grid_kernel ~loop ~depth) in
  let master = master_for ~config ~last_master cnfs in
  let journal = C.Master.journal master in
  let replay_ms =
    span spans "kernel.journal" (fun () ->
        per_call_ms (fun () -> ignore (C.Journal.digest (C.Journal.replay journal))))
  in
  let result_ms =
    span spans "kernel.master" (fun () -> per_call_ms (fun () -> ignore (C.Master.result master)))
  in
  let probe = S.create ~cfg:W.service_config ~testbed:(W.service_pool ()) () in
  let hit_cnf = List.hd cnfs in
  let digest = Gridsat_service.Cache.digest (fst hit_cnf) in
  Gridsat_service.Cache.store (S.verdict_cache probe) ~digest (answer_of ~config:sconfig hit_cnf);
  let submit_hit_us, digest_us =
    span spans "kernel.service" (fun () ->
        let submit () =
          match S.submit probe ~tenant:"t0" ~priority:J.Normal (fst hit_cnf) with
          | S.Cached _ -> ()
          | S.Accepted | S.Rejected _ -> failwith "ledger: a cached formula missed the cache"
        in
        ( 1e3 *. per_call_ms submit,
          1e3 *. per_call_ms (fun () -> ignore (Gridsat_service.Cache.digest (fst hit_cnf))) ))
  in
  let joblog = S.joblog (Option.value service ~default:probe) in
  let joblog_replay_ms =
    span spans "kernel.joblog" (fun () ->
        per_call_ms (fun () ->
            ignore (Gridsat_service.Joblog.digest (Gridsat_service.Joblog.replay joblog))))
  in
  [
    ("sat.kernel_props_per_s", kernel_props_per_s);
    ("sat.kernel_minor_words_per_prop", minor_words_per_prop);
    ("subproblem.capture_ns_per_byte", capture_ns);
    ("subproblem.to_solver_ns_per_byte", to_solver_ns);
    ("wire.digest_mb_per_s", digest_mb_per_s);
    ("journal.appends", registry obs "journal.appends");
    ("journal.replay_ms", replay_ms);
    ("grid.events", registry obs "sim.events");
    ("grid.pending_max", float depth);
    ("grid.step_ns", step_ns);
    ("master.result_ms", result_ms);
    ("service.submit_hit_us", submit_hit_us);
    ("cache.digest_us", digest_us);
    ("joblog.appends", registry obs "service.joblog.appends");
    ("joblog.replay_ms", joblog_replay_ms);
    ("service.retained_mb", retained_mb);
    ("obs.series", float (List.length (Obs.Metrics.export_all (Obs.metrics obs))));
  ]

(* Benchmarks for the paper's quantitative claims outside the two tables:
   C1 the BCP-dominance claim (Section 2.4), C2 the share-length trade-off
   (Section 3.2), C3 the ping-pong effect (Section 3.1), C4 NWS-ranked
   scheduling (Section 3.3), and C5 the Blue Horizon processor-hours
   narrative (Section 4.1). *)

module C = Gridsat_core
module W = Workloads

let medium_unsat () = W.Random_sat.instance ~nvars:200 ~ratio:5.0 ~seed:1 ()

let grid_time (r : C.Master.result) =
  match r.C.Master.answer with
  | C.Master.Sat _ | C.Master.Unsat -> Printf.sprintf "%8.1f" r.C.Master.time
  | C.Master.Unknown _ -> " TIMEOUT"

(* C1: fraction of solver run time spent in BCP ("more than 90%" in the
   paper, measured on 2003 hardware; the shape — BCP strongly dominant —
   is what we reproduce). *)
let bcp () =
  Printf.printf "== C1: BCP share of sequential run time (paper: >90%%) ==\n\n";
  Printf.printf "%-28s %10s %12s %9s\n" "instance" "conflicts" "propagations" "bcp-share";
  let cases =
    [
      ("pigeonhole 10/9", W.Php.instance ~pigeons:10 ~holes:9);
      ("random-unsat n=200", medium_unsat ());
      ("tseitin n=20", W.Tseitin.instance ~nvertices:20 ~degree:4 ~charge:`Odd ~seed:1);
      ("factoring 12x12", W.Factoring.instance ~abits:12 ~bbits:12
                            ~product:(W.Factoring.prime ~bits:12 ~seed:3));
      ("mixer 40x10", W.Counter.mixer_preimage ~bits:40 ~rounds:10 ~seed:5);
    ]
  in
  let rows = ref [] in
  List.iter
    (fun (name, cnf) ->
      let s = Sat.Solver.create cnf in
      ignore (Sat.Solver.solve ~budget:6_000_000 s);
      let st = Sat.Solver.stats s in
      rows :=
        (name, Obs.Json.Obj [ ("solver", Sat.Stats.json st); ("wall", Sat.Stats.wall_json st) ])
        :: !rows;
      Printf.printf "%-28s %10d %12d %8.1f%%\n%!" name st.Sat.Stats.conflicts
        st.Sat.Stats.propagations
        (100. *. Sat.Stats.bcp_fraction st))
    cases;
  Snapshot.write "bcp" (Obs.Json.Obj (List.rev !rows))

(* C2: sharing length ablation (the paper used 10 and 3 and argues short
   clauses trade pruning power against communication volume). *)
let sharing () =
  Printf.printf "== C2: clause-share length ablation (paper used 10 and 3) ==\n\n";
  Printf.printf "%-10s %9s %8s %10s %12s\n" "max len" "time" "splits" "clauses" "bytes";
  let testbed = Scale.grads () in
  let cnf = medium_unsat () in
  List.iter
    (fun len ->
      let config =
        { (Scale.t1_config ~timeout:Scale.gridsat_timeout_challenge) with
          C.Config.share_max_len = len }
      in
      let r = C.Gridsat.solve ~config ~testbed cnf in
      Printf.printf "%-10d %s %8d %10d %12d\n%!" len (grid_time r) (C.Master.counter r "splits")
        (C.Master.counter r "shared_clauses") r.C.Master.bytes)
    [ 0; 3; 10; 20 ]

(* C3: the ping-pong effect — splitting too eagerly makes the system spend
   its time moving subproblems instead of solving them. *)
let pingpong () =
  Printf.printf "== C3: split-timeout sweep (the ping-pong effect) ==\n\n";
  Printf.printf "%-14s %9s %8s %8s %12s\n" "split timeout" "time" "splits" "maxcl" "bytes";
  let testbed = Scale.grads () in
  let cnf = medium_unsat () in
  List.iter
    (fun split_timeout ->
      let config =
        { (Scale.t1_config ~timeout:Scale.gridsat_timeout_challenge) with
          C.Config.split_timeout }
      in
      let r = C.Gridsat.solve ~config ~testbed cnf in
      Printf.printf "%-14.2f %s %8d %8d %12d\n%!" split_timeout (grid_time r)
        (C.Master.counter r "splits") (C.Master.counter r "max_clients") r.C.Master.bytes)
    [ 0.05; 0.25; 1.0; 2.5; 10.0; 60.0 ]

(* C4: scheduler ablation on the heterogeneous testbed. *)
let scheduler () =
  Printf.printf "== C4: resource-selection policy ablation ==\n\n";
  Printf.printf "%-12s %9s %8s %8s\n" "policy" "time" "splits" "maxcl";
  let testbed = Scale.grads () in
  let cnf = medium_unsat () in
  List.iter
    (fun (name, policy) ->
      let config =
        { (Scale.t1_config ~timeout:Scale.gridsat_timeout_challenge) with
          C.Config.scheduler = policy }
      in
      let r = C.Gridsat.solve ~config ~testbed cnf in
      Printf.printf "%-12s %s %8d %8d\n%!" name (grid_time r) (C.Master.counter r "splits")
        (C.Master.counter r "max_clients"))
    [ ("nws-rank", C.Config.Nws_rank); ("random", C.Config.Random_pick);
      ("first-fit", C.Config.First_fit) ]

(* C5: the Blue Horizon narrative — compare solving the par32 analog with
   interactive hosts covering the queue wait vs batch-only. *)
let bluehorizon () =
  Printf.printf "== C5: batch-queue coverage (the par32-1-c story) ==\n\n";
  let e =
    match W.Registry.find "par32-1-c.cnf" with Some e -> e | None -> assert false
  in
  let cnf = e.W.Registry.gen () in
  let timeout = Scale.set2_overall_timeout in
  let run name testbed =
    let config = Scale.t2_config ~timeout in
    let r = C.Gridsat.solve ~config ~testbed cnf in
    Printf.printf "%-26s answer=%-18s time=%s maxcl=%d\n%!" name
      (C.Gridsat.answer_string r.C.Master.answer)
      (grid_time r) (C.Master.counter r "max_clients");
    r
  in
  let both = run "interactive + batch" (Scale.set2 ()) in
  let batch_only =
    let tb = Scale.set2 () in
    run "batch only" { tb with C.Testbed.hosts = [ C.Testbed.fastest tb ] }
  in
  (match (both.C.Master.answer, batch_only.C.Master.answer) with
  | (C.Master.Sat _ | C.Master.Unsat), (C.Master.Sat _ | C.Master.Unsat) ->
      let saved_nodeseconds =
        Float.max 0. (batch_only.C.Master.time -. both.C.Master.time) *. 16.
      in
      Printf.printf
        "\ninteractive grid shortened time-to-solution by %.0f vs and saved ~%.0f\n"
        (batch_only.C.Master.time -. both.C.Master.time)
        saved_nodeseconds;
      Printf.printf "batch node-seconds (paper: 3200 processor-hours saved, 4 h faster)\n"
  | _ ->
      Printf.printf "\n(one of the runs timed out; see rows above)\n")

(* C6: the parallelism profile — "the number of active clients starts at
   one and varies during the run" (Section 4.1). *)
let profile () =
  Printf.printf "== C6: active clients over time ==\n\n";
  let cnf = W.Php.instance ~pigeons:9 ~holes:8 in
  let config = Scale.t1_config ~timeout:Scale.gridsat_timeout_challenge in
  let r = C.Gridsat.solve ~config ~testbed:(Scale.grads ()) cnf in
  let curve = C.Timeline.busy_curve r.C.Master.events in
  print_string (C.Timeline.ascii_chart curve);
  Printf.printf "\npeak %d clients, average %.1f, %.0f client-seconds consumed (answer: %s)\n"
    (C.Timeline.peak curve) (C.Timeline.average curve) (C.Timeline.client_seconds curve)
    (C.Gridsat.answer_string r.C.Master.answer)

(* C7: sequential-solver feature ablation (extensions beyond zChaff-2001:
   clause minimization and phase saving). *)
let solver_ablation () =
  Printf.printf "== C7: solver feature ablation (extensions) ==\n\n";
  Printf.printf "%-26s %12s %10s %10s %8s\n" "configuration" "propagations" "conflicts"
    "avg-len" "answer";
  let cases =
    [
      ("zChaff-2001 (base)", Sat.Solver.default_config);
      ("+ minimization", { Sat.Solver.default_config with Sat.Solver.minimize_learned = true });
      ("+ phase saving", { Sat.Solver.default_config with Sat.Solver.phase_saving = true });
      ( "+ both",
        { Sat.Solver.default_config with Sat.Solver.minimize_learned = true; phase_saving = true }
      );
    ]
  in
  List.iter
    (fun (instance_name, cnf) ->
      Printf.printf "--- %s ---\n" instance_name;
      List.iter
        (fun (name, config) ->
          let s = Sat.Solver.create ~config cnf in
          let answer =
            match Sat.Solver.solve ~budget:6_000_000 s with
            | Sat.Solver.Sat _ -> "SAT"
            | Sat.Solver.Unsat -> "UNSAT"
            | _ -> "-"
          in
          let st = Sat.Solver.stats s in
          Printf.printf "%-26s %12d %10d %10.1f %8s\n%!" name st.Sat.Stats.propagations
            st.Sat.Stats.conflicts
            (Sat.Stats.avg_learned_length st)
            answer)
        cases)
    [
      ("pigeonhole 10/9", W.Php.instance ~pigeons:10 ~holes:9);
      ("random-unsat n=200", medium_unsat ());
      ("factoring 13x13", W.Factoring.instance ~abits:13 ~bbits:13
                            ~product:(W.Factoring.prime ~bits:13 ~seed:3));
    ]

(* C8: checkpointing and fault tolerance — the paper's Section 3.4 sketches
   light/heavy checkpoints and defers their analysis to future work; this
   bench provides that analysis.  Clients are killed at a fixed cadence;
   light checkpoints persist only root assignments, heavy ones the whole
   clause set. *)
let fault_tolerance () =
  Printf.printf "== C8: checkpointing under client failures (paper: future work) ==\n\n";
  Printf.printf "%-22s %-10s %9s %8s %10s %12s\n" "scenario" "answer" "time" "kills"
    "recoveries" "ckpt-bytes";
  let cnf = W.Php.instance ~pigeons:9 ~holes:8 in
  let testbed = C.Testbed.uniform ~n:12 ~speed:1500. () in
  let run name ~checkpoint ~kill_period =
    let config =
      {
        C.Config.default with
        C.Config.split_timeout = 5.;
        slice = 1.0;
        overall_timeout = 100_000.;
        checkpoint;
      }
    in
    let kills = ref 0 in
    let on_master m =
      match kill_period with
      | None -> ()
      | Some period ->
          let rec tick () =
            C.Master.schedule m ~delay:period (fun () ->
                if not (C.Master.finished m) then begin
                  (match C.Master.busy_client_ids m with
                  | [] -> ()
                  | id :: _ ->
                      incr kills;
                      C.Master.kill_client m id);
                  tick ()
                end)
          in
          tick ()
    in
    let r = C.Gridsat.solve ~config ~on_master ~testbed cnf in
    let recoveries =
      List.length
        (List.filter
           (fun ev ->
             match ev.C.Events.kind with
             | C.Events.Recovered_from_checkpoint _ -> true
             | _ -> false)
           r.C.Master.events)
    in
    Printf.printf "%-22s %-10s %9s %8d %10d %12d\n%!" name
      (C.Gridsat.answer_string r.C.Master.answer)
      (grid_time r) !kills recoveries (C.Master.counter r "checkpoint_bytes")
  in
  run "no failures" ~checkpoint:C.Config.No_checkpoint ~kill_period:None;
  run "no ckpt + failures" ~checkpoint:C.Config.No_checkpoint ~kill_period:(Some 25.);
  run "light ckpt + failures" ~checkpoint:C.Config.Light ~kill_period:(Some 25.);
  run "heavy ckpt + failures" ~checkpoint:C.Config.Heavy ~kill_period:(Some 25.);
  Printf.printf
    "\n(without checkpoints a dead client's subproblem is re-derived from the master's\n\
     journaled lineage — more recomputation, zero stored bytes; checkpoints trade\n\
     stored bytes for resuming closer to where the dead client stopped)\n"

(* C9: splitting vs portfolio — the paper partitions the search space
   along guiding paths; modern parallel solvers often race diversified
   copies of the whole problem instead (HordeSat; Kotthoff & Moore frame
   the trade-off).  Both run on the same simulated 4-host cluster with
   the same clause sharing: the portfolio is [Config.portfolio], every
   host solving the root pid under its own seed. *)
let par_modes () =
  Printf.printf "== C9: search-space splitting vs portfolio (4 uniform hosts) ==\n\n";
  Printf.printf "%-26s %-10s %-7s %8s %12s %7s %7s\n" "instance" "mode" "answer" "time"
    "propagations" "splits" "shared";
  let cases =
    [
      ("php-9-8", "pigeonhole 9/8 (UNSAT)", W.Php.instance ~pigeons:9 ~holes:8);
      ("mixer-38x9", "mixer 38x9 (SAT)", W.Counter.mixer_preimage ~bits:38 ~rounds:9 ~seed:5);
      ("random-200", "random n=200 (UNSAT)", medium_unsat ());
    ]
  in
  let split = { C.Config.default with C.Config.split_timeout = 5.; overall_timeout = 100_000. } in
  let counter n = Obs.Json.Obj [ ("type", Obs.Json.String "counter"); ("value", Obs.Json.Int n) ] in
  let rows =
    List.map
      (fun (key, name, cnf) ->
        let modes =
          List.map
            (fun (mode, config) ->
              let r =
                C.Gridsat.solve ~config ~testbed:(C.Testbed.uniform ~n:4 ~speed:2000. ()) cnf
              in
              let answer = C.Gridsat.answer_string r.C.Master.answer in
              let props = r.C.Master.solver_stats.Sat.Stats.propagations in
              let splits = C.Master.counter r "splits"
              and shared = C.Master.counter r "shared_clauses" in
              Printf.printf "%-26s %-10s %-7s %s %12d %7d %7d\n%!" name mode answer (grid_time r)
                props splits shared;
              ( mode,
                Obs.Json.Obj
                  [
                    ("answer", Obs.Json.String answer);
                    ("time", Obs.Json.Float r.C.Master.time);
                    ("propagations", counter props);
                    ("splits", counter splits);
                    ("shared_clauses", counter shared);
                  ] ))
            [ ("splitting", split); ("portfolio", { split with C.Config.portfolio = true }) ]
        in
        (key, Obs.Json.Obj modes))
      cases
  in
  Snapshot.write "parmodes" (Obs.Json.Obj rows)

(* C10: fault-injection chaos sweep — the robustness layer this
   reproduction adds on top of the paper: heartbeat failure detection,
   ack/retry delivery and checkpoint-driven recovery must keep the
   verdict identical to the fault-free run under scripted crashes,
   hangs, partitions and message loss. *)
let chaos ?(seed = 0) () =
  Printf.printf "== C10: verdict stability under injected faults (seed %d) ==\n\n" seed;
  Printf.printf "%-18s %-10s %9s %8s %8s %10s %8s\n" "plan" "answer" "time" "dropped"
    "retries" "recoveries" "same?";
  let module F = Grid.Fault in
  let cnf = W.Php.instance ~pigeons:7 ~holes:6 in
  let testbed () =
    let base = C.Testbed.uniform ~n:6 ~speed:1000. () in
    let hosts =
      List.mapi
        (fun i (h : C.Testbed.host) ->
          let r = h.C.Testbed.resource in
          let site = if i < 3 then "east" else "west" in
          {
            h with
            C.Testbed.resource =
              Grid.Resource.make ~id:r.Grid.Resource.id ~name:r.Grid.Resource.name ~site
                ~speed:r.Grid.Resource.speed ~mem_bytes:r.Grid.Resource.mem_bytes
                ~kind:r.Grid.Resource.kind;
          })
        base.C.Testbed.hosts
    in
    { base with C.Testbed.name = "chaos-bench"; master_site = "east"; hosts }
  in
  let config =
    {
      C.Config.default with
      C.Config.split_timeout = 2.;
      slice = 0.5;
      overall_timeout = 100_000.;
      checkpoint = C.Config.Light;
      checkpoint_period = 5.;
      heartbeat_period = 5.;
      suspect_timeout = 30.;
      seed;
    }
  in
  let baseline = C.Gridsat.solve ~config ~testbed:(testbed ()) cnf in
  let t = baseline.C.Master.time in
  let plans =
    [
      ("none", []);
      ("crash@30%", [ F.Crash_host { host = 1; at = 0.3 *. t } ]);
      ("hang@30%", [ F.Hang_host { host = 1; at = 0.3 *. t } ]);
      ( "partition 10-80%",
        [ F.Partition_site { site = "west"; from_t = 0.1 *. t; until_t = 0.8 *. t } ] );
      ( "loss p=0.2",
        [
          F.Drop_messages
            { src_site = None; dst_site = None; p = 0.2; from_t = 0.; until_t = infinity };
        ] );
    ]
  in
  let snaps = ref [] in
  List.iter
    (fun (name, fault_plan) ->
      let obs = Snapshot.obs () in
      let r = C.Gridsat.solve ~config ~fault_plan ~obs ~testbed:(testbed ()) cnf in
      if Snapshot.enabled () then
        snaps :=
          ( name,
            C.Run_report.build
              ~meta:[ ("plan", Obs.Json.String name); ("seed", Obs.Json.Int seed) ]
              ~obs r )
          :: !snaps;
      Printf.printf "%-18s %-10s %s %8d %8d %10d %8s\n%!" name
        (C.Gridsat.answer_string r.C.Master.answer)
        (grid_time r) (C.Master.counter r "dropped_messages") (C.Master.counter r "retries")
        (C.Master.counter r "recoveries")
        (if
           C.Gridsat.answer_string r.C.Master.answer
           = C.Gridsat.answer_string baseline.C.Master.answer
         then "yes"
         else "NO")
    )
    plans;
  Snapshot.write (Printf.sprintf "chaos_seed%d" seed) (Obs.Json.Obj (List.rev !snaps));
  Printf.printf
    "\n(crashes are detected by the heartbeat lease and recovered from checkpoints;\n\
     partitions and loss are absorbed by the ack/retry channel)\n"

(* C11: master durability — kill the master mid-run and restart it from its
   write-ahead journal.  The verdict must match the fault-free run, the
   surviving clients must be re-adopted through the resync protocol, and
   the overhead must stay bounded (clients keep solving autonomously
   during the outage, so the wall-clock cost is roughly the outage length
   plus the resync grace, not a restart from scratch). *)
let master_crash () =
  Printf.printf "== C11: master crash + journal-replay failover ==\n\n";
  let module F = Grid.Fault in
  let cnf = W.Php.instance ~pigeons:8 ~holes:7 in
  let testbed () = C.Testbed.uniform ~n:8 ~speed:1000. () in
  let config =
    {
      C.Config.default with
      C.Config.split_timeout = 2.;
      slice = 0.5;
      overall_timeout = 100_000.;
      checkpoint = C.Config.Light;
      checkpoint_period = 5.;
      heartbeat_period = 5.;
      suspect_timeout = 30.;
      retry_base = 0.5;
      retry_max_attempts = 4;
      resync_grace = 5.;
    }
  in
  Printf.printf "%-24s %-10s %9s %8s %8s %8s %10s\n" "scenario" "answer" "time" "crashes"
    "resyncs" "rederiv" "journal";
  let count_events p (r : C.Master.result) =
    List.length (List.filter (fun e -> p e.C.Events.kind) r.C.Master.events)
  in
  let run ?(obs = Obs.disabled) name ~fault_plan =
    let captured = ref None in
    let r =
      C.Gridsat.solve ~config ~fault_plan ~obs ~testbed:(testbed ())
        ~on_master:(fun m -> captured := Some m)
        cnf
    in
    let journal_cell =
      match !captured with
      | Some m ->
          let j = C.Master.journal m in
          Printf.sprintf "%d/%d" (C.Journal.appended j) (C.Journal.compactions j)
      | None -> "-"
    in
    Printf.printf "%-24s %-10s %s %8d %8d %8d %10s\n%!" name
      (C.Gridsat.answer_string r.C.Master.answer)
      (grid_time r) (C.Master.counter r "master_crashes")
      (count_events (function C.Events.Client_resynced _ -> true | _ -> false) r)
      (C.Master.counter r "rederivations") journal_cell;
    r
  in
  let baseline = run "fault-free" ~fault_plan:[] in
  let t = baseline.C.Master.time in
  let obs = Snapshot.obs () in
  let crashed =
    run ~obs "crash @30%, +15% down"
      ~fault_plan:
        [
          F.Crash_master
            {
              at = Float.max 4. (0.3 *. t);
              restart_after = Float.max 10. (0.15 *. t);
              by_verdict = false;
            };
        ]
  in
  if Snapshot.enabled () then
    Snapshot.write "mastercrash"
      (C.Run_report.build ~meta:[ ("scenario", Obs.Json.String "crash@30%+15%down") ] ~obs crashed);
  let same =
    C.Gridsat.answer_string baseline.C.Master.answer
    = C.Gridsat.answer_string crashed.C.Master.answer
  in
  Printf.printf "\nverdict preserved across the failover: %s" (if same then "yes" else "NO");
  (match (baseline.C.Master.answer, crashed.C.Master.answer) with
  | (C.Master.Sat _ | C.Master.Unsat), (C.Master.Sat _ | C.Master.Unsat) ->
      Printf.printf "; overhead %.0f%% of fault-free time\n"
        (100. *. (crashed.C.Master.time -. t) /. t)
  | _ -> print_newline ());
  Printf.printf
    "(journal column is appends/compactions; clients solve on through the outage and\n\
     the replacement master adopts their work via resync instead of restarting them)\n"

(* C12: the multi-tenant job service under overload.  A fixed 8-host
   pool (4 concurrent 2-host runs) is offered increasing batches of
   jobs, all at t=0.  The claim is graceful degradation: completions
   track pool capacity, the excess is shed at admission with a
   retry-after hint instead of queueing without bound, admitted jobs
   keep bounded waits, and no outcome is lost — every job lands in
   exactly one terminal state.  A resubmission pass then shows the
   verdict cache serving the whole solved batch with zero runs. *)
let service_overload () =
  let module S = Gridsat_service.Service in
  let module J = Gridsat_service.Job in
  Printf.printf "== C12: multi-tenant service under overload (8 hosts, 4 run slots) ==\n\n";
  Printf.printf "%-8s %9s %6s %10s %10s %10s %10s\n" "offered" "admitted" "shed" "completed"
    "mean-wait" "makespan" "terminal";
  let instance i =
    if i mod 4 = 0 then W.Php.instance ~pigeons:6 ~holes:5
    else W.Random_sat.planted ~nvars:22 ~ratio:5.0 ~seed:(100 + i) ()
  in
  let cfg =
    {
      S.default_config with
      S.hosts_per_job = 2;
      max_concurrent = 4;
      queue_capacity = 8;
      retry_after_base = 20.;
      run = { C.Config.default with C.Config.split_timeout = 5. };
    }
  in
  let last_report = ref None in
  List.iter
    (fun offered ->
      let svc = S.create ~obs:(Snapshot.obs ()) ~cfg ~testbed:(C.Testbed.uniform ~n:8 ~speed:500. ()) () in
      for i = 0 to offered - 1 do
        ignore
          (S.submit svc
             ~tenant:(Printf.sprintf "t%d" (i mod 3))
             ~priority:(if i mod 5 = 0 then J.High else J.Normal)
             (instance i))
      done;
      S.run svc;
      let jobs = S.jobs svc in
      let st = S.stats svc in
      let waits =
        List.filter_map
          (fun (j : J.t) ->
            match j.J.started_at with Some s -> Some (s -. j.J.submitted_at) | None -> None)
          jobs
      in
      let mean_wait =
        if waits = [] then 0. else List.fold_left ( +. ) 0. waits /. float (List.length waits)
      in
      let makespan =
        List.fold_left (fun acc (j : J.t) ->
            match j.J.finished_at with Some f -> Float.max acc f | None -> acc)
          0. jobs
      in
      let all_terminal = List.for_all J.is_terminal jobs in
      Printf.printf "%-8d %9d %6d %10d %9.1fs %9.1fs %10s\n%!" offered st.S.admitted st.S.shed
        st.S.completed mean_wait makespan
        (if all_terminal && st.S.hosts_free = st.S.hosts_total then "all-clean" else "LEAK");
      if offered = 32 then last_report := Some (S.report svc))
    [ 4; 8; 16; 32 ];
  (match !last_report with
  | Some doc when Snapshot.enabled () -> Snapshot.write "service" doc
  | _ -> ());
  (* Cache pass: resubmit a solved batch to a fresh service warmed with
     the same instances — zero subproblems are dispatched the second
     time. *)
  let svc = S.create ~cfg ~testbed:(C.Testbed.uniform ~n:8 ~speed:500. ()) () in
  for i = 0 to 7 do
    ignore (S.submit svc ~tenant:"warm" ~priority:J.Normal (instance i))
  done;
  S.run svc;
  let before = (S.stats svc).S.completed in
  let hits =
    List.length
      (List.filter
         (fun i -> match S.submit svc ~tenant:"again" ~priority:J.Normal (instance i) with
            | S.Cached _ -> true
            | _ -> false)
         [ 0; 1; 2; 3; 4; 5; 6; 7 ])
  in
  Printf.printf
    "\nresubmitting 8 solved instances: %d/8 served from the verdict cache,\n\
     %d runs before the resubmission and %d after (zero new dispatches)\n" hits before
    (S.stats svc).S.completed;
  Printf.printf
    "(admission control sheds the overflow up front — completions and waits stay pinned\n\
     to pool capacity instead of collapsing as offered load quadruples)\n"

(* C13: straggler defense.  One host turns into an extreme silent
   straggler — heartbeats and acks stay on time, compute collapses — so
   crash detection never fires and the tail of the run is hostage to
   the slowed host.  With the defense on (health-aware ranking, adaptive
   deadlines, hedged re-execution) the master clones the stuck branch to
   an idle healthy host and the first copy wins.  The claim: tail (p99
   over straggler placements) completion improves, the verdict never
   changes, and hedging is exactly-once — every launched hedge is
   fenced, the pool comes home. *)
let straggler () =
  Printf.printf "== C13: hedged re-execution under injected stragglers (10 hosts) ==\n\n";
  let module F = Grid.Fault in
  let cnf = W.Php.instance ~pigeons:8 ~holes:7 in
  let testbed () = C.Testbed.uniform ~n:10 ~speed:500. () in
  let no_hedge =
    {
      C.Config.default with
      C.Config.split_timeout = 2.;
      slice = 0.5;
      share_flush_interval = 1.;
      overall_timeout = 100_000.;
      nws_probe_interval = 5.;
      checkpoint = C.Config.Light;
      checkpoint_period = 5.;
      heartbeat_period = 2.;
      suspect_timeout = 30.;
      (* no clause sharing: a stuck branch cannot be refuted for free by
         an imported clause, which is exactly the regime hedging is for *)
      share_max_len = 0;
    }
  in
  let hedged_cfg =
    { no_hedge with C.Config.hedge = true }
  in
  let baseline = C.Gridsat.solve ~config:no_hedge ~testbed:(testbed ()) cnf in
  Printf.printf "fault-free baseline: %s in %s s\n\n"
    (C.Gridsat.answer_string baseline.C.Master.answer)
    (String.trim (grid_time baseline));
  Printf.printf "%-10s %10s %10s %8s %8s %13s\n" "straggler" "no-hedge" "hedged" "hedges"
    "fenced" "exactly-once?";
  let rows = ref [] in
  let samples =
    List.map
      (fun host ->
        (* three consecutive stragglers per placement: enough pinned
           branches that split-stealing alone cannot absorb the damage *)
        let fault_plan =
          List.map (fun h -> F.Slow_host { host = h; at = 2.; factor = 10_000. }) [ host; host + 1; host + 2 ]
        in
        let slow = C.Gridsat.solve ~config:no_hedge ~fault_plan ~testbed:(testbed ()) cnf in
        let hedged = C.Gridsat.solve ~config:hedged_cfg ~fault_plan ~testbed:(testbed ()) cnf in
        let launched, fenced =
          List.fold_left
            (fun (l, f) e ->
              match e.C.Events.kind with
              | C.Events.Hedge_launched { pid; _ } -> (pid :: l, f)
              | C.Events.Hedge_cancelled { pid; _ } -> (l, pid :: f)
              | _ -> (l, f))
            ([], []) hedged.C.Master.events
        in
        let exactly_once =
          List.sort compare launched = List.sort compare fenced
          && List.length launched = C.Master.counter hedged "hedges"
          && C.Gridsat.answer_string hedged.C.Master.answer
             = C.Gridsat.answer_string baseline.C.Master.answer
        in
        Printf.printf "host %-5d %10s %10s %8d %8d %13s\n%!" host
          (String.trim (grid_time slow))
          (String.trim (grid_time hedged))
          (C.Master.counter hedged "hedges") (C.Master.counter hedged "hedge_cancellations")
          (if exactly_once then "yes" else "NO");
        rows :=
          ( Printf.sprintf "host%d" host,
            Obs.Json.Obj
              [
                ("no_hedge_time", Obs.Json.Float slow.C.Master.time);
                ("hedged_time", Obs.Json.Float hedged.C.Master.time);
                ("hedges", Obs.Json.Int (C.Master.counter hedged "hedges"));
                ("fenced", Obs.Json.Int (C.Master.counter hedged "hedge_cancellations"));
                ("exactly_once", Obs.Json.Bool exactly_once);
              ] )
          :: !rows;
        (slow.C.Master.time, hedged.C.Master.time))
      [ 1; 2; 3; 4; 5; 6; 7; 8 ]
  in
  let p99 xs = List.fold_left Float.max 0. xs in
  let mean xs = List.fold_left ( +. ) 0. xs /. float (List.length xs) in
  let slow_times = List.map fst samples and hedged_times = List.map snd samples in
  Printf.printf
    "\np99 completion: %.1fs without hedging, %.1fs with — mean %.1fs vs %.1fs\n"
    (p99 slow_times) (p99 hedged_times) (mean slow_times) (mean hedged_times);
  Printf.printf
    "(the straggler is invisible to crash detection; only the duration-percentile\n\
     monitor catches it, and the clone races it on an idle healthy host)\n";
  (* A summary block with the tail percentiles joins the per-placement
     rows so `gridsat report --diff` can gate on a stable p99 leaf. *)
  let summary =
    Obs.Json.Obj
      [
        ( "no_hedge",
          Obs.Json.Obj
            [ ("mean", Obs.Json.Float (mean slow_times)); ("p99", Obs.Json.Float (p99 slow_times)) ]
        );
        ( "hedged",
          Obs.Json.Obj
            [
              ("mean", Obs.Json.Float (mean hedged_times));
              ("p99", Obs.Json.Float (p99 hedged_times));
            ] );
      ]
  in
  Snapshot.write "straggler" (Obs.Json.Obj (("summary", summary) :: List.rev !rows))

(* C14: hot-standby failover vs journal-replay restart.  The same master
   crash is injected into two otherwise identical runs per seed: one that
   waits for a cold replacement master to replay the journal (the C11
   path), and one with a hot standby that has been consuming shipped
   journal batches and promotes itself when the primary's lease expires.
   Downtime is measured the way a client feels it — from the crash to the
   first client re-adopted by a live master — and the claim is that the
   standby's p99 downtime sits strictly below the replay-restart
   baseline at equal fault seeds, with zero replication divergences. *)
let failover () =
  Printf.printf "== C14: hot-standby promotion vs replay-restart (8 hosts) ==\n\n";
  let module F = Grid.Fault in
  let cnf = W.Php.instance ~pigeons:7 ~holes:6 in
  let testbed () = C.Testbed.uniform ~n:8 ~speed:1000. () in
  let base seed =
    {
      C.Config.default with
      C.Config.split_timeout = 2.;
      slice = 0.5;
      overall_timeout = 100_000.;
      checkpoint = C.Config.Light;
      checkpoint_period = 5.;
      heartbeat_period = 2.;
      suspect_timeout = 30.;
      retry_base = 0.5;
      retry_max_attempts = 6;
      resync_grace = 5.;
      seed;
    }
  in
  (* the cold-replacement arm provisions a fresh master 12 virtual
     seconds after the crash; the standby arm never gets a replacement
     (restart_after = infinity) and must live off the promotion *)
  let cold_restart = 12. in
  let standby_cfg seed =
    { (base seed) with C.Config.standby = true; ship_interval = 1.; standby_lease = 4. }
  in
  let baseline = C.Gridsat.solve ~config:(base 0) ~testbed:(testbed ()) cnf in
  let t = baseline.C.Master.time in
  let crash_at = Float.max 4. (0.3 *. t) in
  Printf.printf "fault-free baseline: %s in %s s, crash injected at %.1fs\n\n"
    (C.Gridsat.answer_string baseline.C.Master.answer)
    (String.trim (grid_time baseline))
    crash_at;
  Printf.printf "%-6s %-8s %-8s %10s %10s %8s %8s %8s\n" "seed" "restart" "standby" "down(re)"
    "down(st)" "ships" "promote" "diverge";
  let downtime (r : C.Master.result) =
    let crash = ref None and back = ref None in
    List.iter
      (fun e ->
        match e.C.Events.kind with
        | C.Events.Master_crashed when !crash = None -> crash := Some e.C.Events.time
        | C.Events.Client_resynced _ when !back = None && !crash <> None ->
            back := Some e.C.Events.time
        | _ -> ())
      r.C.Master.events;
    match (!crash, !back) with Some c, Some b -> b -. c | _ -> nan
  in
  let rows = ref [] in
  let samples =
    List.map
      (fun seed ->
        (* seeded background loss keeps the per-seed downtimes from being
           degenerate: retries around the crash window land differently
           under each fault RNG, so the p99 is a real tail, not a copy of
           the mean *)
        let loss =
          F.Drop_messages { src_site = None; dst_site = None; p = 0.05; from_t = 0.; until_t = infinity }
        in
        let restart =
          C.Gridsat.solve ~config:(base seed)
            ~fault_plan:
              [
                loss;
                F.Crash_master { at = crash_at; restart_after = cold_restart; by_verdict = false };
              ]
            ~testbed:(testbed ()) cnf
        in
        let standby =
          C.Gridsat.solve ~config:(standby_cfg seed)
            ~fault_plan:
              [
                loss;
                F.Crash_master { at = crash_at; restart_after = infinity; by_verdict = false };
              ]
            ~testbed:(testbed ()) cnf
        in
        let d_re = downtime restart and d_st = downtime standby in
        Printf.printf "%-6d %-8s %-8s %9.1fs %9.1fs %8d %8d %8d\n%!" seed
          (String.trim (grid_time restart))
          (String.trim (grid_time standby))
          d_re d_st standby.C.Master.ships (C.Master.counter standby "promotions")
          (C.Master.counter standby "replication_divergences");
        rows :=
          ( Printf.sprintf "seed%d" seed,
            Obs.Json.Obj
              [
                ("restart_downtime", Obs.Json.Float d_re);
                ("standby_downtime", Obs.Json.Float d_st);
                ("restart_time", Obs.Json.Float restart.C.Master.time);
                ("standby_time", Obs.Json.Float standby.C.Master.time);
                ("ships", Obs.Json.Int standby.C.Master.ships);
                ("promotions", Obs.Json.Int (C.Master.counter standby "promotions"));
                ("divergences", Obs.Json.Int (C.Master.counter standby "replication_divergences"));
              ] )
          :: !rows;
        let ok =
          C.Gridsat.answer_string restart.C.Master.answer
          = C.Gridsat.answer_string baseline.C.Master.answer
          && C.Gridsat.answer_string standby.C.Master.answer
             = C.Gridsat.answer_string baseline.C.Master.answer
          && C.Master.counter standby "promotions" = 1
          && C.Master.counter standby "replication_divergences" = 0
        in
        (d_re, d_st, ok))
      [ 0; 3; 7; 11; 23 ]
  in
  let p99 xs = List.fold_left Float.max 0. xs in
  let mean xs = List.fold_left ( +. ) 0. xs /. float (List.length xs) in
  let re = List.map (fun (d, _, _) -> d) samples in
  let st = List.map (fun (_, d, _) -> d) samples in
  let all_ok = List.for_all (fun (_, _, ok) -> ok) samples in
  Printf.printf
    "\np99 downtime: %.1fs replay-restart, %.1fs hot standby — mean %.1fs vs %.1fs\n"
    (p99 re) (p99 st) (mean re) (mean st);
  Printf.printf "standby p99 strictly below replay-restart: %s\n"
    (if p99 st < p99 re then "yes" else "NO");
  Printf.printf "verdicts preserved, one promotion each, zero divergences: %s\n"
    (if all_ok then "yes" else "NO");
  Printf.printf
    "(the standby's shadow state machine is already caught up when the lease\n\
    \ expires, so promotion pays only the lease + resync grace, never the\n\
    \ replacement provisioning + journal replay of the cold path)\n";
  let summary =
    Obs.Json.Obj
      [
        ( "restart",
          Obs.Json.Obj [ ("mean", Obs.Json.Float (mean re)); ("p99", Obs.Json.Float (p99 re)) ] );
        ( "standby",
          Obs.Json.Obj [ ("mean", Obs.Json.Float (mean st)); ("p99", Obs.Json.Float (p99 st)) ] );
      ]
  in
  Snapshot.write "failover" (Obs.Json.Obj (("summary", summary) :: List.rev !rows))

(* C15: resource-exhaustion defense.  Per seed, the same instance runs
   unconstrained and then under the full resource gauntlet — per-link
   share budget, bounded outage outbox, a choked fabric and a mid-run
   disk-full window.  The claim: every verdict is unchanged, the largest
   byte total any share link carried inside one window never exceeds the
   budget (it is bounded by construction, so this doubles as a harness
   check), no queue grows without bound, the journal enters and exits
   degraded mode exactly inside the injected disk-full window, and the
   whole constrained run is byte-stable across same-seed repeats. *)
let resource () =
  Printf.printf "== C15: resource exhaustion — budgets, quotas, chokes (6 hosts) ==\n\n";
  let module F = Grid.Fault in
  let cnf = W.Php.instance ~pigeons:7 ~holes:6 in
  let testbed () = C.Testbed.uniform ~n:6 ~speed:500. () in
  let share_budget = 512 and outbox_cap = 8 in
  let base seed =
    {
      C.Config.default with
      C.Config.split_timeout = 2.;
      slice = 0.5;
      share_flush_interval = 1.;
      overall_timeout = 100_000.;
      checkpoint = C.Config.Light;
      checkpoint_period = 5.;
      heartbeat_period = 5.;
      suspect_timeout = 30.;
      seed;
    }
  in
  let constrained seed =
    {
      (base seed) with
      C.Config.share_budget;
      share_window = 5.;
      outbox_cap;
    }
  in
  Printf.printf "%-6s %-8s %-8s %7s %9s %9s %7s %8s %8s\n" "seed" "free" "bound" "shed"
    "linkpeak" "dups" "outbox" "degraded" "stable";
  let rows = ref [] in
  let ok_all = ref true in
  List.iter
    (fun seed ->
      let free = C.Gridsat.solve ~config:(base seed) ~testbed:(testbed ()) cnf in
      let t = free.C.Master.time in
      let disk_at = 0.3 *. t and disk_until = 0.6 *. t in
      let plan =
        [
          F.Choke_link
            {
              src_site = None;
              dst_site = None;
              bytes_per_window = 4096;
              window = 2.;
              from_t = 0.;
              until_t = Float.max 3. (0.25 *. t);
            };
          F.Disk_full { at = disk_at; quota = 1; until_t = disk_until };
        ]
      in
      let run () =
        C.Gridsat.solve ~config:(constrained seed) ~fault_plan:plan ~testbed:(testbed ()) cnf
      in
      let r = run () in
      let again = run () in
      let event_time p =
        List.fold_left
          (fun acc (e : C.Events.t) ->
            match acc with None when p e.C.Events.kind -> Some e.C.Events.time | _ -> acc)
          None r.C.Master.events
      in
      let degraded_at =
        event_time (function C.Events.Journal_degraded _ -> true | _ -> false)
      in
      let recovered_at =
        event_time (function C.Events.Journal_recovered _ -> true | _ -> false)
      in
      let degraded_in_window =
        match (degraded_at, recovered_at) with
        | Some d, Some rcv ->
            d >= disk_at -. 1e-9 && d <= disk_until +. 1e-9 && rcv >= disk_until -. 1e-9
        | _ -> false
      in
      let stable =
        r.C.Master.events = again.C.Master.events
        && C.Master.counter r "share_bytes" = C.Master.counter again "share_bytes"
        && C.Master.counter r "shares_shed" = C.Master.counter again "shares_shed"
        && C.Master.counter r "journal_bytes" = C.Master.counter again "journal_bytes"
      in
      let ok =
        C.Gridsat.answer_string r.C.Master.answer
        = C.Gridsat.answer_string free.C.Master.answer
        && C.Master.counter r "share_link_peak" <= share_budget
        && C.Master.counter r "outbox_peak" <= outbox_cap
        && degraded_in_window && stable
      in
      ok_all := !ok_all && ok;
      Printf.printf "%-6d %-8s %-8s %7d %9d %9d %7d %8s %8s\n%!" seed
        (String.trim (grid_time free))
        (String.trim (grid_time r))
        (C.Master.counter r "shares_shed") (C.Master.counter r "share_link_peak")
        (C.Master.counter r "dup_suppressed") (C.Master.counter r "outbox_peak")
        (if degraded_in_window then "in-win" else "NO")
        (if stable then "yes" else "NO");
      rows :=
        ( Printf.sprintf "seed%d" seed,
          Obs.Json.Obj
            [
              ("free_time", Obs.Json.Float free.C.Master.time);
              ("bound_time", Obs.Json.Float r.C.Master.time);
              ("shares_shed", Obs.Json.Int (C.Master.counter r "shares_shed"));
              ("share_bytes", Obs.Json.Int (C.Master.counter r "share_bytes"));
              ("share_link_peak", Obs.Json.Int (C.Master.counter r "share_link_peak"));
              ("dup_suppressed", Obs.Json.Int (C.Master.counter r "dup_suppressed"));
              ("outbox_peak", Obs.Json.Int (C.Master.counter r "outbox_peak"));
              ("forced_compactions", Obs.Json.Int (C.Master.counter r "forced_compactions"));
              ("degraded_entries", Obs.Json.Int (C.Master.counter r "degraded_entries"));
              ("journal_bytes", Obs.Json.Int (C.Master.counter r "journal_bytes"));
            ] )
        :: !rows)
    [ 0; 3; 7; 11; 23 ];
  Printf.printf
    "\nverdicts preserved, link peaks <= %d B/window, outbox peaks <= %d,\n\
     degraded mode entered and left inside the injected window, byte-stable: %s\n"
    share_budget outbox_cap
    (if !ok_all then "yes" else "NO");
  Printf.printf
    "(exhaustion degrades sharing and durability headroom, never correctness:\n\
    \ shed traffic is the shortest-clause prefix's complement and control\n\
    \ envelopes are unsheddable by construction)\n";
  let summary = Obs.Json.Obj [ ("all_ok", Obs.Json.Bool !ok_all) ] in
  Snapshot.write "resource" (Obs.Json.Obj (("summary", summary) :: List.rev !rows))

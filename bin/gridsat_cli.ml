(* The gridsat command-line tool.

   gridsat solve problem.cnf                 sequential CDCL
   gridsat solve -m grid -t grads p.cnf      distributed, simulated testbed
   gridsat solve --proof p.drup p.cnf        emit + self-check a DRUP proof
   gridsat solve --report r.json --trace t.json p.cnf
                                             telemetry: run report + Chrome trace
   gridsat serve a.cnf b.cnf c.cnf           multi-tenant batch: many jobs,
                                             one shared host pool (admission
                                             control, deadlines, verdict cache)
   gridsat gen php --pigeons 9 --holes 8     generate instances to DIMACS
   gridsat check p.cnf p.drup                verify an UNSAT proof
   gridsat report r.json                     validate + summarise a run report
   gridsat registry                          list the SAT2002 analog rows *)

open Cmdliner

(* ---------- solve ---------- *)

let read_cnf path =
  try Ok (Sat.Dimacs.parse_file path) with
  | Sat.Dimacs.Parse_error e -> Error (Printf.sprintf "%s: %s" path e)
  | Sys_error e -> Error e

let print_stats st =
  Format.printf "@.statistics:@.%a@." Sat.Stats.pp st

(* ---------- telemetry plumbing ---------- *)

let obs_of ~report ~trace = if report <> None || trace <> None then Obs.create () else Obs.disabled

let write_doc path doc =
  let oc = open_out path in
  output_string oc (Obs.Json.to_string doc);
  output_char oc '\n';
  close_out oc

let emit_telemetry ~report ~trace ~obs build_report =
  (match report with
  | None -> ()
  | Some path ->
      write_doc path (build_report ());
      Format.printf "c report written to %s@." path);
  match trace with
  | None -> ()
  | Some path ->
      write_doc path (Obs.Chrome.export (Obs.spans obs));
      Format.printf "c trace written to %s@." path

let solve_sequential ~preprocess ~proof_out ~stats ~budget ~report ~trace cnf =
  let obs = obs_of ~report ~trace in
  let original = cnf in
  let pre = if preprocess then Some (Sat.Preprocess.run cnf) else None in
  let cnf = match pre with Some r -> r.Sat.Preprocess.cnf | None -> cnf in
  (match pre with
  | Some r ->
      Format.printf "c preprocessing: %d -> %d clauses (%d vars eliminated)@."
        r.Sat.Preprocess.clauses_before r.Sat.Preprocess.clauses_after
        r.Sat.Preprocess.eliminated
  | None -> ());
  let config =
    { Sat.Solver.default_config with Sat.Solver.emit_proof = proof_out <> None }
  in
  let solver = Sat.Solver.create ~config ~obs cnf in
  (match Sat.Solver.solve ?budget solver with
  | Sat.Solver.Sat model ->
      let model =
        match pre with Some r -> Sat.Preprocess.extend r model | None -> model
      in
      assert (Sat.Model.satisfies original model);
      Format.printf "s SATISFIABLE@.v %a@." Sat.Model.pp model
  | Sat.Solver.Unsat -> (
      Format.printf "s UNSATISFIABLE@.";
      match proof_out with
      | None -> ()
      | Some path ->
          let proof = Sat.Solver.proof solver in
          (match Sat.Drup.check cnf proof with
          | Ok () -> Format.printf "c proof checked (%d steps)@." (List.length proof)
          | Error e -> Format.printf "c WARNING: proof does not check: %s@." e);
          let oc = open_out path in
          output_string oc (Sat.Drup.to_string proof);
          close_out oc;
          Format.printf "c proof written to %s@." path)
  | Sat.Solver.Budget_exhausted -> Format.printf "s UNKNOWN@.c budget exhausted@."
  | Sat.Solver.Mem_pressure -> Format.printf "s UNKNOWN@.c memory limit reached@.");
  if stats then print_stats (Sat.Solver.stats solver);
  emit_telemetry ~report ~trace ~obs (fun () ->
      Obs.Report.build
        ~meta:[ ("mode", Obs.Json.String "seq") ]
        ~sections:
          (let st = Sat.Solver.stats solver in
           [ ("solver", Sat.Stats.json st); ("wall", Sat.Stats.wall_json st) ])
        ~metrics:(Obs.metrics obs) ~spans:(Obs.spans obs) ());
  0

let testbed_of_string ~hosts = function
  | "uniform" -> Ok (Gridsat_core.Testbed.uniform ~n:hosts ~speed:2000. ())
  | "grads" -> Ok (Gridsat_core.Testbed.grads ())
  | "set2" -> Ok (Gridsat_core.Testbed.set2 ())
  | other -> Error (Printf.sprintf "unknown testbed %S (uniform|grads|set2)" other)

let print_health_table hm =
  Format.printf "c %-5s %-6s %-10s %9s %9s %9s  %s@." "host" "score" "state" "ack-ewma" "hb-jit"
    "rate" "crash/quar/corr/retry";
  List.iter
    (fun (v : Gridsat_core.Health.view) ->
      Format.printf "c %-5d %-6.2f %-10s %9.3f %9.3f %9.1f  %d/%d/%d/%d@." v.Gridsat_core.Health.v_host
        v.Gridsat_core.Health.v_score v.Gridsat_core.Health.v_state v.Gridsat_core.Health.v_ack_ewma
        v.Gridsat_core.Health.v_hb_jitter v.Gridsat_core.Health.v_rate
        v.Gridsat_core.Health.v_crashes v.Gridsat_core.Health.v_quarantines
        v.Gridsat_core.Health.v_corruptions v.Gridsat_core.Health.v_retries)
    (Gridsat_core.Health.views hm)

(* ---------- flags shared by solve and serve ---------- *)

module Config = Gridsat_core.Config
module Master = Gridsat_core.Master

(* The testbed, fault and resource flags of both commands.  [config] is
   [Config.default] with the flags and their presets applied; the fault
   flags that only shape a fault plan are kept as given. *)
type shared = {
  testbed : string;
  hosts : int;
  chaos : bool;
  corrupt_p : float;
  flaky : bool;
  choke : int;
  config : Config.t;
}

let shared_config ~seed ~chaos ~hedge ~standby ~ship_sync ~share_budget ~journal_quota
    ~outbox_cap =
  let c =
    { Config.default with Config.split_timeout = 5.; share_budget; journal_quota; outbox_cap; seed }
  in
  (* --chaos also turns on the recovery machinery the fault plan targets:
     light checkpoints, a tight heartbeat lease, eager splitting *)
  let c =
    if chaos then
      {
        c with
        Config.checkpoint = Config.Light;
        checkpoint_period = 2.;
        heartbeat_period = 2.;
        suspect_timeout = 8.;
        split_timeout = 1.;
        slice = 0.5;
      }
    else c
  in
  (* --hedge arms the full straggler defense: hedged re-execution plus
     percentile-driven (adaptive) lease and retry deadlines *)
  let c = if hedge then { c with Config.hedge = true } else c in
  (* --standby arms hot-standby master replication; under --chaos the
     lease and ship interval tighten so the canned early crash promotes
     within a short run's horizon (the lease must exceed heartbeat_period) *)
  if standby then
    {
      c with
      Config.standby = true;
      ship_sync;
      standby_lease = (if chaos then 6. else c.Config.standby_lease);
      ship_interval = (if chaos then 1. else c.Config.ship_interval);
    }
  else c

let shared_term =
  let testbed =
    Arg.(value & opt string "uniform" & info [ "t"; "testbed" ] ~doc:"uniform, grads or set2")
  in
  let hosts = Arg.(value & opt int 8 & info [ "hosts" ] ~doc:"hosts for the uniform testbed") in
  let seed =
    Arg.(value & opt int 0 & info [ "seed" ] ~doc:"run seed (solve grid mode) or service seed")
  in
  let chaos =
    Arg.(
      value & flag
      & info [ "chaos" ]
          ~doc:
            "arm a canned fault plan — a host crash and a master crash-failover, plus message \
             loss and duplication in solve grid mode — in the run, or in every run of serve")
  in
  let corrupt_p =
    Arg.(
      value & opt float 0.
      & info [ "corrupt-p" ] ~doc:"probability of corrupting each message payload in flight")
  in
  let hedge =
    Arg.(
      value & flag
      & info [ "hedge" ]
          ~doc:
            "arm the straggler defense — health-aware ranking, adaptive lease/retry deadlines, \
             and hedged re-execution (a subproblem running past the fleet p99 is cloned to an \
             idle host; first result wins, the loser is cancelled and fenced)")
  in
  let standby =
    Arg.(
      value & flag
      & info [ "standby" ]
          ~doc:
            "arm a hot-standby master — journal records ship to a shadow replica that \
             continuously checks its log digest against the primary's; if the primary falls \
             silent past the standby lease, the replica bumps the master epoch and takes the run \
             over without restarting the clients")
  in
  let ship_sync =
    Arg.(
      value
      & opt (enum [ ("async", false); ("sync", true) ]) false
      & info [ "ship" ] ~docv:"MODE"
          ~doc:
            "journal shipping mode with --standby: $(b,async) batches records on the ship \
             interval (bounded replication lag), $(b,sync) ships every record as it is appended \
             (zero lag, one extra message per append)")
  in
  let flaky =
    Arg.(
      value & flag
      & info [ "flaky" ]
          ~doc:
            "make --stragglers (solve) or --slow-hosts (serve) oscillate between full and \
             degraded speed instead of a one-shot slowdown")
  in
  let share_budget =
    Arg.(
      value & opt int 0
      & info [ "share-budget" ]
          ~doc:
            "per-recipient-link clause-share byte budget per share window (0 = unconditional \
             broadcast).  Shortest clauses are relayed first; whatever exceeds a link's window \
             budget is shed and counted")
  in
  let journal_quota =
    Arg.(
      value & opt int 0
      & info [ "journal-quota" ]
          ~doc:
            "disk quota in estimated bytes for the master's write-ahead journal (and serve's \
             joblog; 0 = unlimited).  Crossing it forces an emergency compaction; if still over, \
             the run enters journaled-degraded mode until occupancy drops")
  in
  let outbox_cap =
    Arg.(
      value & opt int 32
      & info [ "outbox-cap" ]
          ~doc:
            "high watermark of each client's master-outage outbox, which holds clause-share \
             batches only.  Above it the biggest buffered batches are shed first; control \
             messages wait on the reliable stream to the master instead")
  in
  let choke =
    Arg.(
      value & opt int 0
      & info [ "choke" ]
          ~doc:
            "fault injection: saturate every link — at most this many bytes per share window per \
             link, the rest dropped (deterministic, 0 disables)")
  in
  let make testbed hosts seed chaos corrupt_p hedge standby ship_sync flaky share_budget
      journal_quota outbox_cap choke =
    {
      testbed;
      hosts;
      chaos;
      corrupt_p;
      flaky;
      choke;
      config =
        shared_config ~seed ~chaos ~hedge ~standby ~ship_sync ~share_budget ~journal_quota
          ~outbox_cap;
    }
  in
  Term.(
    const make $ testbed $ hosts $ seed $ chaos $ corrupt_p $ hedge $ standby $ ship_sync $ flaky
    $ share_budget $ journal_quota $ outbox_cap $ choke)

(* Whether a resource flag is set: gates both commands' "c resources:"
   summary line. *)
let resource_limited s =
  s.config.Config.share_budget > 0 || s.config.Config.journal_quota > 0 || s.choke > 0

(* ---------- solve, grid mode ---------- *)

let solve_grid shared ~stats ~share_len ~timeout ~chaos_partition ~certify ~stragglers ~health_report
    ~report ~trace cnf =
  let { Config.seed; hedge; standby; _ } = shared.config in
  match testbed_of_string ~hosts:shared.hosts shared.testbed with
  | Error e ->
      prerr_endline e;
      2
  | Ok _ when chaos_partition && not (shared.chaos && standby) ->
      Printf.eprintf "gridsat: --chaos-partition requires both --chaos and --standby\n";
      2
  | Ok testbed -> (
      (* --chaos-partition cuts the primary's site: alone there, the
         primary loses every client and the standby *)
      let testbed =
        if chaos_partition then
          { testbed with Gridsat_core.Testbed.master_site = Gridsat_core.Gridsat.primary_site }
        else testbed
      in
      let obs = obs_of ~report ~trace in
      let config = { shared.config with Config.share_max_len = share_len; overall_timeout = timeout } in
      (* --certify implies its own precondition: clause sharing off
         (Config.validate rejects anything else) *)
      let config =
        if certify then { config with Config.certify = true; share_max_len = 0 } else config
      in
      let module G = Gridsat_core.Gridsat in
      let fault_plan =
        G.link_faults ~corrupt_p:shared.corrupt_p ~choke:shared.choke
          ~window:config.Config.share_window ~from_t:0. ~until_t:infinity
        @ (if stragglers > 0 then G.straggler_plan ~n:stragglers ~flaky:shared.flaky ~seed else [])
        @ if shared.chaos then G.chaos_plan ~standby ~partition:chaos_partition else []
      in
      match (Config.validate config, Grid.Fault.validate fault_plan) with
      | Error e, _ ->
          Printf.eprintf "gridsat: bad configuration: %s\n" e;
          2
      | _, Error e ->
          Printf.eprintf "gridsat: bad fault plan: %s\n" e;
          2
      | Ok (), Ok () ->
          let health =
            if hedge || health_report then Some (Gridsat_core.Health.create ()) else None
          in
          let result = Gridsat_core.Gridsat.solve ?health ~config ~fault_plan ~obs ~testbed cnf in
          let c = Master.counter result in
          (match result.Master.answer with
          | Master.Sat model -> Format.printf "s SATISFIABLE@.v %a@." Sat.Model.pp model
          | Master.Unsat -> Format.printf "s UNSATISFIABLE@."
          | Master.Unknown why -> Format.printf "s UNKNOWN@.c %s@." why);
          (if certify then
             match result.Master.answer with
             | Master.Unsat ->
                 Format.printf "c certified UNSAT: %d fragments checked, %d quarantines@."
                   (c "certified_fragments") (c "quarantines")
             | Master.Sat _ -> Format.printf "c certified SAT: model re-evaluated@."
             | Master.Unknown _ -> ());
          if shared.corrupt_p > 0. then
            Format.printf "c corruption: %d payloads detected, %d nacked@." (c "corrupt_detected")
              (c "nacks");
          if hedge then
            Format.printf "c hedging: %d launched, %d losers fenced@." (c "hedges")
              (c "hedge_cancellations");
          if standby then
            Format.printf
              "c failover: %d promotion(s), %d journal batches shipped, %d stale frames rejected, \
               %d divergences@."
              (c "promotions") (c "ships") (c "stale_epoch_rejections")
              (c "replication_divergences");
          (* a partition the run ended before cut nothing off: say so *)
          List.iter
            (function
              | Grid.Fault.Partition_site { from_t; _ } when result.Master.time < from_t ->
                  Format.printf "c chaos: the run ended at %.1f s, before the partition at %g s@."
                    result.Master.time from_t
              | _ -> ())
            fault_plan;
          (match health with Some hm when health_report -> print_health_table hm | _ -> ());
          if resource_limited shared then
            Format.printf
              "c resources: %d clauses shed (link peak %d B), %d dups suppressed, outbox peak %d \
               (%d shed), %d forced compactions, %d degraded entries@."
              (c "shares_shed") (c "share_link_peak") (c "dup_suppressed") (c "outbox_peak")
              (c "outbox_shed") (c "forced_compactions") (c "degraded_entries");
          if stats then Format.printf "@.%a@." Gridsat_core.Gridsat.pp_result result;
          emit_telemetry ~report ~trace ~obs (fun () ->
              Gridsat_core.Run_report.build
                ~meta:
                  [
                    ("mode", Obs.Json.String "grid");
                    ("seed", Obs.Json.Int seed);
                    ("chaos", Obs.Json.Bool shared.chaos);
                    ("certify", Obs.Json.Bool certify);
                    ("corrupt_p", Obs.Json.Float shared.corrupt_p);
                    ("hedge", Obs.Json.Bool hedge);
                    ("standby", Obs.Json.Bool standby);
                    ("stragglers", Obs.Json.Int stragglers);
                    ("share_budget", Obs.Json.Int config.Config.share_budget);
                    ("journal_quota", Obs.Json.Int config.Config.journal_quota);
                    ("outbox_cap", Obs.Json.Int config.Config.outbox_cap);
                    ("choke", Obs.Json.Int shared.choke);
                  ]
                ~obs result);
          0)

let solve_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.cnf") in
  let mode =
    Arg.(
      value
      & opt (enum [ ("seq", `Seq); ("grid", `Grid) ]) `Seq
      & info [ "m"; "mode" ] ~docv:"MODE" ~doc:"seq or grid")
  in
  let share_len = Arg.(value & opt int 10 & info [ "share-len" ] ~doc:"max shared clause length") in
  let timeout =
    Arg.(
      value & opt float 100_000.
      & info [ "timeout" ]
          ~doc:
            "grid mode: override Config.overall_timeout (virtual seconds, must be positive).  A \
             run that hits the timeout ends UNKNOWN but still writes its --report/--trace \
             artifacts.")
  in
  let budget = Arg.(value & opt (some int) None & info [ "budget" ] ~doc:"propagation budget") in
  let proof =
    Arg.(value & opt (some string) None & info [ "proof" ] ~doc:"write a DRUP proof here (seq mode)")
  in
  let stats = Arg.(value & flag & info [ "stats" ] ~doc:"print run statistics") in
  let preprocess =
    Arg.(value & flag & info [ "preprocess" ] ~doc:"simplify before solving (seq mode)")
  in
  let chaos_partition =
    Arg.(
      value & flag
      & info [ "chaos-partition" ]
          ~doc:
            "with --chaos --standby: swap the canned master crash for a partition of the \
             primary, which gets a site of its own.  Cut off from every client, it cannot \
             finish, so the standby's lease expires and promotes the replica, but the old \
             primary survives as a dueling master — after the heal its stale-epoch frames must \
             be rejected and the zombie fenced")
  in
  let certify =
    Arg.(
      value & flag
      & info [ "certify" ]
          ~doc:
            "certify the answer (grid mode): clients attach DRUP fragments to UNSAT claims, the \
             master checks each one under its branch's guiding path and quarantines clients whose \
             answers fail.  Disables clause sharing.")
  in
  let stragglers =
    Arg.(
      value & opt int 0
      & info [ "stragglers" ]
          ~doc:
            "grid mode fault injection: silently slow down this many hosts early in the run \
             (seeded factors; heartbeats stay on time, so only --hedge defends)")
  in
  let health_report =
    Arg.(
      value & flag
      & info [ "health-report" ]
          ~doc:"grid mode: print the per-host health table (score, breaker state, signal EWMAs) after the run")
  in
  let report =
    Arg.(value & opt (some string) None & info [ "report" ] ~doc:"write the run report JSON here")
  in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~doc:"write a Chrome trace_event file here (chrome://tracing, Perfetto)")
  in
  let run file mode shared share_len timeout budget proof stats preprocess chaos_partition
      certify stragglers health_report report trace =
    match read_cnf file with
    | Error e ->
        prerr_endline e;
        2
    | Ok cnf -> (
        match mode with
        | `Seq -> solve_sequential ~preprocess ~proof_out:proof ~stats ~budget ~report ~trace cnf
        | `Grid ->
            solve_grid shared ~stats ~share_len ~timeout ~chaos_partition ~certify ~stragglers
              ~health_report ~report ~trace cnf)
  in
  Cmd.v
    (Cmd.info "solve" ~doc:"Solve a DIMACS CNF file")
    Term.(
      const run $ file $ mode $ shared_term $ share_len $ timeout $ budget $ proof $ stats
      $ preprocess $ chaos_partition $ certify $ stragglers $ health_report $ report $ trace)

(* ---------- serve ---------- *)

module Svc = Gridsat_service.Service
module Sjob = Gridsat_service.Job

let split_commas s = String.split_on_char ',' s |> List.map String.trim |> List.filter (( <> ) "")

let ensure_dir d =
  if not (Sys.file_exists d) then Sys.mkdir d 0o755
  else if not (Sys.is_directory d) then invalid_arg (Printf.sprintf "%s exists and is not a directory" d)

let serve shared ~files ~hosts_per_job ~max_concurrent ~queue_cap ~tenants ~priorities ~deadline
    ~slow_hosts ~brownout ~resubmit ~stats ~report ~slo ~flight_dir ~metrics_dir =
  let slo_spec =
    match slo with
    | None -> Ok None
    | Some s -> (
        match Obs.Slo.parse s with
        | Ok spec -> Ok (Some spec)
        | Error e -> Error (Printf.sprintf "bad --slo spec: %s" e))
  in
  match slo_spec with
  | Error e ->
      prerr_endline e;
      2
  | Ok slo_spec -> (
  match testbed_of_string ~hosts:shared.hosts shared.testbed with
  | Error e ->
      prerr_endline e;
      2
  | Ok testbed -> (
      let prios =
        List.fold_right
          (fun s acc ->
            match (acc, Sjob.priority_of_string s) with
            | Error e, _ -> Error e
            | _, Error e -> Error e
            | Ok ps, Ok p -> Ok (p :: ps))
          (split_commas priorities) (Ok [])
      in
      match prios with
      | Error e ->
          prerr_endline e;
          2
      | Ok [] ->
          prerr_endline "gridsat: empty --priorities";
          2
      | Ok prios -> (
          let tenants = match split_commas tenants with [] -> [ "default" ] | ts -> ts in
          let rec read_all acc = function
            | [] -> Ok (List.rev acc)
            | f :: rest -> (
                match read_cnf f with
                | Error e -> Error e
                | Ok cnf -> read_all ((f, cnf) :: acc) rest)
          in
          match read_all [] files with
          | Error e ->
              prerr_endline e;
              2
          | Ok cnfs ->
              let observing =
                report <> None || slo_spec <> None || flight_dir <> None || metrics_dir <> None
              in
              let obs =
                if observing then
                  Obs.create ~flight:(Obs.Flight.create ()) ~anomaly:(Obs.Anomaly.create ()) ()
                else Obs.disabled
              in
              let on_flight =
                Option.map
                  (fun dir ->
                    ensure_dir dir;
                    fun ~name doc ->
                      let path = Filename.concat dir name in
                      write_doc path doc;
                      Format.printf "c flight dump written to %s@." path)
                  flight_dir
              in
              let on_expo =
                Option.map
                  (fun dir ->
                    ensure_dir dir;
                    fun text ->
                      Out_channel.with_open_text (Filename.concat dir "metrics.prom")
                        (fun oc -> Out_channel.output_string oc text))
                  metrics_dir
              in
              let svc =
                try
                  let { chaos; corrupt_p; flaky; choke; _ } = shared in
                  let cfg =
                    {
                      Svc.default_config with
                      Svc.run = shared.config;
                      hosts_per_job;
                      max_concurrent;
                      queue_capacity = queue_cap;
                      seed = shared.config.Config.seed;
                      faults =
                        Svc.chaos_plan ~master_crash:chaos ~corrupt_p
                          ~crash_hosts:(if chaos then 1 else 0) ~slow_hosts ~flaky ~choke ();
                      brownout_threshold = brownout;
                    }
                  in
                  Ok (Svc.create ~obs ?slo:slo_spec ?on_flight ?on_expo ~cfg ~testbed ())
                with Invalid_argument e -> Error e
              in
              (match svc with
              | Error e ->
                  Printf.eprintf "gridsat: bad configuration: %s\n" e;
                  2
              | Ok svc ->
                  let pick l i = List.nth l (i mod List.length l) in
                  let submit_batch tag =
                    List.iteri
                      (fun i (file, cnf) ->
                        let tenant = pick tenants i and priority = pick prios i in
                        let deadline_in = if deadline > 0. then Some deadline else None in
                        let label = Printf.sprintf "%s%s" file tag in
                        match Svc.submit svc ~tenant ~priority ?deadline_in ~label cnf with
                        | Svc.Accepted -> ()
                        | Svc.Cached a ->
                            Format.printf "c %-28s served from cache: %s@." label
                              (Gridsat_core.Gridsat.answer_string a)
                        | Svc.Rejected { retry_after } ->
                            Format.printf "c %-28s shed (queue full), retry in %.0f s@." label
                              retry_after)
                      cnfs
                  in
                  submit_batch "";
                  Svc.run svc;
                  if resubmit then begin
                    Format.printf "c --- resubmitting the batch (verdict cache) ---@.";
                    submit_batch " (again)"
                  end;
                  List.iter
                    (fun (j : Sjob.t) ->
                      let wait =
                        match j.Sjob.started_at with
                        | Some st -> Printf.sprintf "wait %.1f s" (st -. j.Sjob.submitted_at)
                        | None -> "no run"
                      in
                      Format.printf "c job %-3d %-28s %-8s %-6s -> %-16s (%s)@." j.Sjob.id
                        j.Sjob.label j.Sjob.tenant
                        (Sjob.priority_string j.Sjob.priority)
                        (Sjob.state_string j.Sjob.state)
                        wait)
                    (Svc.jobs svc);
                  let s = Svc.stats svc in
                  Format.printf
                    "c service: submitted %d admitted %d shed %d cache-hits %d deadlines %d \
                     preempted %d cancelled %d completed %d@."
                    s.Svc.submitted s.Svc.admitted s.Svc.shed s.Svc.cache_hits
                    s.Svc.deadline_expired s.Svc.preempted s.Svc.cancelled s.Svc.completed;
                  let results = List.filter_map (fun (j : Sjob.t) -> j.Sjob.result) (Svc.jobs svc) in
                  let sum key = List.fold_left (fun acc r -> acc + Master.counter r key) 0 results in
                  if shared.config.Config.standby then
                    Format.printf
                      "c failover: %d promotion(s), %d journal batches shipped, %d stale frames \
                       rejected@."
                      (sum "promotions") (sum "ships") (sum "stale_epoch_rejections");
                  if resource_limited shared then
                    Format.printf
                      "c resources: %d clauses shed (link peak %d B), %d dups suppressed, %d \
                       degraded entries, joblog degraded %d@."
                      (sum "shares_shed")
                      (List.fold_left (fun acc r -> max acc (Master.counter r "share_link_peak")) 0 results)
                      (sum "dup_suppressed") (sum "degraded_entries") s.Svc.joblog_degraded_entries;
                  if stats then begin
                    Format.printf
                      "c pool: %d hosts, %d free, %d healthy; brownouts %d (%d deadlines \
                       stretched); resource pressure %b; virtual time %.1f s@."
                      s.Svc.hosts_total s.Svc.hosts_free s.Svc.hosts_healthy s.Svc.brownouts
                      s.Svc.deadlines_stretched s.Svc.resource_pressure
                      (Grid.Sim.now (Svc.sim svc));
                    print_health_table (Svc.health svc)
                  end;
                  (match Svc.slo svc with
                  | None -> ()
                  | Some tracker ->
                      print_string
                        (Obs.Slo.summary tracker ~now:(Grid.Sim.now (Svc.sim svc))));
                  (let triggers = Svc.anomalies svc in
                   if observing && triggers <> [] then
                     Format.printf "c anomalies: %d trigger(s)%s@." (List.length triggers)
                       (String.concat ""
                          (List.map
                             (fun (tr : Obs.Anomaly.trigger) ->
                               Printf.sprintf " [%s@%.1f]" tr.Obs.Anomaly.rule tr.Obs.Anomaly.at)
                             triggers)));
                  (match report with
                  | None -> ()
                  | Some path ->
                      write_doc path (Svc.report svc);
                      Format.printf "c service report written to %s@." path);
                  0))))

let serve_cmd =
  let files = Arg.(non_empty & pos_all file [] & info [] ~docv:"FILE.cnf") in
  let hosts_per_job =
    Arg.(value & opt int 2 & info [ "hosts-per-job" ] ~doc:"lease size for each run")
  in
  let max_concurrent =
    Arg.(value & opt int 4 & info [ "max-concurrent" ] ~doc:"cap on simultaneously running jobs")
  in
  let queue_cap =
    Arg.(
      value & opt int 16
      & info [ "queue-cap" ]
          ~doc:"bounded admission queue size; submissions beyond it are shed with a retry hint")
  in
  let tenants =
    Arg.(
      value & opt string "default"
      & info [ "tenants" ] ~doc:"comma-separated tenant names, assigned round-robin")
  in
  let priorities =
    Arg.(
      value & opt string "normal"
      & info [ "priorities" ] ~doc:"comma-separated low|normal|high, cycled across jobs")
  in
  let deadline =
    Arg.(
      value & opt float 0.
      & info [ "deadline" ]
          ~doc:
            "per-job deadline in virtual seconds (0 = none); an expired job is cancelled \
             gracefully and its hosts return to the pool")
  in
  let slow_hosts =
    Arg.(
      value & opt int 0
      & info [ "slow-hosts" ]
          ~doc:"chaos: silently slow down this many of each job's leased hosts (seeded stragglers)")
  in
  let brownout =
    Arg.(
      value & opt float 0.
      & info [ "brownout" ]
          ~doc:
            "brownout threshold: when the healthy fraction of the pool drops below this, shed \
             low-priority queued jobs and stretch advisory deadlines (0 disables)")
  in
  let resubmit =
    Arg.(
      value & flag
      & info [ "resubmit" ]
          ~doc:"resubmit every instance after the batch drains (demonstrates the verdict cache)")
  in
  let stats = Arg.(value & flag & info [ "stats" ] ~doc:"print pool statistics") in
  let report =
    Arg.(
      value & opt (some string) None
      & info [ "report" ] ~doc:"write the aggregated service report JSON here")
  in
  let slo =
    Arg.(
      value & opt (some string) None
      & info [ "slo" ]
          ~doc:
            "per-tenant SLO spec, e.g. 'acme:queue_wait<5,solve<60\\@0.95,errors<0.1;*:solve<120'; \
             budget burn is tracked live and surfaced in the report's slo section")
  in
  let flight_dir =
    Arg.(
      value & opt (some string) None
      & info [ "flight-dir" ]
          ~doc:
            "write anomaly-triggered flight-recorder incident dumps (FLIGHT-*.json) into this \
             directory as they fire")
  in
  let metrics_dir =
    Arg.(
      value & opt (some string) None
      & info [ "metrics-dir" ]
          ~doc:
            "write a Prometheus-style text exposition of the metrics registry to \
             DIR/metrics.prom periodically and at the end of the run")
  in
  let run files shared hosts_per_job max_concurrent queue_cap tenants priorities deadline
      slow_hosts brownout resubmit stats report slo flight_dir metrics_dir =
    serve shared ~files ~hosts_per_job ~max_concurrent ~queue_cap ~tenants ~priorities ~deadline
      ~slow_hosts ~brownout ~resubmit ~stats ~report ~slo ~flight_dir ~metrics_dir
  in
  Cmd.v
    (Cmd.info "serve" ~doc:"Solve a batch of CNF files as a multi-tenant job service")
    Term.(
      const run $ files $ shared_term $ hosts_per_job $ max_concurrent $ queue_cap $ tenants
      $ priorities $ deadline $ slow_hosts $ brownout $ resubmit $ stats $ report $ slo
      $ flight_dir $ metrics_dir)

(* ---------- gen ---------- *)

let write_cnf out cnf =
  match out with
  | None -> print_string (Sat.Dimacs.to_string cnf)
  | Some path ->
      Sat.Dimacs.write_file path cnf;
      Printf.printf "c wrote %s (%d vars, %d clauses)\n" path (Sat.Cnf.nvars cnf)
        (Sat.Cnf.nclauses cnf)

let gen_cmd =
  let family =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FAMILY"
          ~doc:
            "php, random, planted, parity, tseitin, mixer, factor-sat, factor-unsat, qg, hanoi, \
             coloring, mycielski, mitre")
  in
  let n = Arg.(value & opt int 100 & info [ "n" ] ~doc:"size parameter") in
  let m = Arg.(value & opt (some int) None & info [ "m" ] ~doc:"secondary size parameter") in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"random seed") in
  let ratio = Arg.(value & opt float 4.26 & info [ "ratio" ] ~doc:"clause/variable ratio") in
  let pigeons = Arg.(value & opt int 8 & info [ "pigeons" ] ~doc:"php: pigeons") in
  let holes = Arg.(value & opt int 7 & info [ "holes" ] ~doc:"php: holes") in
  let colors = Arg.(value & opt int 3 & info [ "colors" ] ~doc:"coloring: colours") in
  let out = Arg.(value & opt (some string) None & info [ "o"; "output" ] ~doc:"output file") in
  let run family n m seed ratio pigeons holes colors out =
    let second default = Option.value ~default m in
    let cnf =
      match family with
      | "php" -> Ok (Workloads.Php.instance ~pigeons ~holes)
      | "random" -> Ok (Workloads.Random_sat.instance ~nvars:n ~ratio ~seed ())
      | "planted" -> Ok (Workloads.Random_sat.planted ~nvars:n ~ratio ~seed ())
      | "parity" ->
          Ok
            (Workloads.Parity.instance ~nbits:n
               ~nsamples:(second (n + (n / 20)))
               ~subset:4 ~corrupted:0 ~seed)
      | "tseitin" ->
          Ok (Workloads.Tseitin.instance ~nvertices:n ~degree:4 ~charge:`Odd ~seed)
      | "mixer" -> Ok (Workloads.Counter.mixer_preimage ~bits:n ~rounds:(second 9) ~seed)
      | "factor-sat" ->
          Ok
            (Workloads.Factoring.instance ~abits:n ~bbits:n
               ~product:(Workloads.Factoring.semiprime ~bits:n ~seed))
      | "factor-unsat" ->
          Ok
            (Workloads.Factoring.instance ~abits:n ~bbits:n
               ~product:(Workloads.Factoring.prime ~bits:n ~seed))
      | "qg" -> Ok (Workloads.Quasigroup.instance ~n ~idempotent:true ~symmetric:true)
      | "hanoi" ->
          Ok (Workloads.Hanoi.instance ~disks:n ~steps:(second (Workloads.Hanoi.optimal_steps n)))
      | "coloring" ->
          Ok (Workloads.Coloring.random_graph ~n ~avg_degree:9.2 ~colors ~seed)
      | "mycielski" -> Ok (Workloads.Coloring.mycielski ~levels:n ~colors)
      | "mitre" -> Ok (Workloads.Equiv.multiplier_mitre ~bits:n ~bug:false)
      | other -> Error (Printf.sprintf "unknown family %S" other)
    in
    match cnf with
    | Ok cnf ->
        write_cnf out cnf;
        0
    | Error e ->
        prerr_endline e;
        2
  in
  Cmd.v
    (Cmd.info "gen" ~doc:"Generate a benchmark instance as DIMACS")
    Term.(const run $ family $ n $ m $ seed $ ratio $ pigeons $ holes $ colors $ out)

(* ---------- check ---------- *)

let check_cmd =
  let cnf_file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.cnf") in
  let proof_file = Arg.(required & pos 1 (some file) None & info [] ~docv:"PROOF.drup") in
  let run cnf_file proof_file =
    match read_cnf cnf_file with
    | Error e ->
        prerr_endline e;
        2
    | Ok cnf -> (
        let text = In_channel.with_open_text proof_file In_channel.input_all in
        match Sat.Drup.of_string text with
        | exception Failure e ->
            prerr_endline e;
            2
        | proof -> (
            match Sat.Drup.check cnf proof with
            | Ok () ->
                Printf.printf "VERIFIED (%d steps)\n" (List.length proof);
                0
            | Error e ->
                Printf.printf "NOT VERIFIED: %s\n" e;
                1))
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Verify a DRUP unsatisfiability proof")
    Term.(const run $ cnf_file $ proof_file)

(* ---------- report ---------- *)

(* Flatten a JSON document to its numeric leaves, addressed by dotted
   path ("metrics.service.e2e_s.p99", list items by index), each flagged
   when it is the value of a [counter] series.  The diff mode compares
   two reports leaf-by-leaf on these paths. *)
let numeric_leaves doc =
  let acc = ref [] in
  let join prefix k = if prefix = "" then k else prefix ^ "." ^ k in
  let rec walk ~counter prefix (j : Obs.Json.t) =
    match j with
    | Obs.Json.Int i -> acc := (prefix, (float_of_int i, counter)) :: !acc
    | Obs.Json.Float f -> acc := (prefix, (f, counter)) :: !acc
    | Obs.Json.Obj kvs ->
        let counter = List.assoc_opt "type" kvs = Some (Obs.Json.String "counter") in
        List.iter (fun (k, v) -> walk ~counter (join prefix k) v) kvs
    | Obs.Json.List items ->
        List.iteri (fun i v -> walk ~counter:false (join prefix (string_of_int i)) v) items
    | Obs.Json.Null | Obs.Json.Bool _ | Obs.Json.String _ -> ()
  in
  walk ~counter:false "" doc;
  List.rev !acc

let last_segment path =
  match String.rindex_opt path '.' with
  | None -> path
  | Some i -> String.sub path (i + 1) (String.length path - i - 1)

let diff_reports ~fail_above ~gate doc_a doc_b =
  let leaves_a = numeric_leaves doc_a and leaves_b = numeric_leaves doc_b in
  let tbl_b = Hashtbl.create 256 in
  List.iter (fun (p, v) -> Hashtbl.replace tbl_b p v) leaves_b;
  let regressions = ref [] and counters = ref [] in
  let changed = ref 0 in
  List.iter
    (fun (path, (a, counter)) ->
      match Hashtbl.find_opt tbl_b path with
      | None -> ()
      | Some (b, _) when a = b -> ()
      | Some (b, _) ->
          incr changed;
          if counter then counters := path :: !counters;
          let pct = if a = 0. then infinity else (b -. a) /. Float.abs a *. 100. in
          let pct_s = if a = 0. then "+inf%" else Printf.sprintf "%+.1f%%" pct in
          Printf.printf "%-56s %14s -> %-14s %s\n" path (Obs.Json.float_repr a)
            (Obs.Json.float_repr b) pct_s;
          if last_segment path = gate && b > a && (a = 0. || pct > fail_above) then
            regressions := (path, a, b, pct) :: !regressions)
    leaves_a;
  (* a series that appears or disappears is a change the gate must not
     silently compare around *)
  let only_in side leaves tbl =
    let missing = List.filter (fun (p, _) -> not (Hashtbl.mem tbl p)) leaves in
    if missing <> [] then begin
      Printf.printf "FAIL: %d metric path(s) only in %s:\n" (List.length missing) side;
      List.iter (fun (p, _) -> Printf.printf "  %s\n" p) missing
    end;
    missing = []
  in
  let tbl_a = Hashtbl.create 256 in
  List.iter (fun (p, v) -> Hashtbl.replace tbl_a p v) leaves_a;
  let a_covered = only_in "A" leaves_a tbl_b in
  let same_paths = only_in "B" leaves_b tbl_a && a_covered in
  if !changed = 0 then print_endline "no numeric differences";
  let regs = List.rev !regressions in
  if regs <> [] then begin
    Printf.printf "FAIL: %d %s leaf(s) regressed beyond %.1f%%:\n" (List.length regs) gate
      fail_above;
    List.iter
      (fun (path, a, b, pct) ->
        Printf.printf "  %s: %s -> %s (%s)\n" path (Obs.Json.float_repr a) (Obs.Json.float_repr b)
          (if pct = infinity then "+inf%" else Printf.sprintf "%+.1f%%" pct))
      regs
  end;
  (* a count of a deterministic run is exact: any change fails, whatever
     the gate *)
  let counters = List.rev !counters in
  if counters <> [] then begin
    Printf.printf "FAIL: %d counter leaf(s) changed:\n" (List.length counters);
    List.iter (fun path -> Printf.printf "  %s\n" path) counters
  end;
  if regs = [] && counters = [] && same_paths then 0 else 1

let report_cmd =
  let file_a = Arg.(required & pos 0 (some file) None & info [] ~docv:"REPORT.json") in
  let file_b =
    Arg.(
      value
      & pos 1 (some file) None
      & info [] ~docv:"OTHER.json"
          ~doc:"when given, diff the two reports metric-by-metric instead of summarising")
  in
  let fail_above =
    Arg.(
      value & opt float 20.
      & info [ "fail-above" ]
          ~doc:
            "diff mode: exit non-zero when a gated metric leaf grows by more than this \
             percentage, when a numeric path exists in only one of the two reports, or \
             when the value of any counter series changes")
  in
  let gate =
    Arg.(
      value & opt string "p99"
      & info [ "gate" ]
          ~doc:"diff mode: leaf name whose growth is gated by --fail-above (default p99)")
  in
  let load file =
    let text = In_channel.with_open_text file In_channel.input_all in
    match Obs.Json.of_string text with
    | Error e -> Error (Printf.sprintf "%s: not valid JSON: %s" file e)
    | Ok doc -> Ok doc
  in
  let run file_a file_b fail_above gate =
    match file_b with
    | None -> (
        match load file_a with
        | Error e ->
            prerr_endline e;
            1
        | Ok doc -> (
            match Obs.Report.validate doc with
            | Error e ->
                Printf.eprintf "%s: not a gridsat report: %s\n" file_a e;
                1
            | Ok () ->
                print_string (Obs.Report.summary doc);
                0))
    | Some file_b -> (
        match (load file_a, load file_b) with
        | Error e, _ | _, Error e ->
            prerr_endline e;
            1
        | Ok doc_a, Ok doc_b -> diff_reports ~fail_above ~gate doc_a doc_b)
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:"Validate and summarise a gridsat run report, or diff two reports with a p99 gate")
    Term.(const run $ file_a $ file_b $ fail_above $ gate)

(* ---------- registry ---------- *)

let registry_cmd =
  let run () =
    Printf.printf "%-32s %-20s %-6s %s\n" "paper instance" "analog family" "status" "category";
    Printf.printf "%s\n" (String.make 78 '-');
    List.iter
      (fun (e : Workloads.Registry.entry) ->
        Printf.printf "%-32s %-20s %-6s %s\n" e.Workloads.Registry.name e.Workloads.Registry.family
          (match e.Workloads.Registry.status with
          | Workloads.Registry.Sat -> "SAT"
          | Workloads.Registry.Unsat -> "UNSAT"
          | Workloads.Registry.Open -> "*")
          (match e.Workloads.Registry.category with
          | Workloads.Registry.Both_solved -> "both"
          | Workloads.Registry.Gridsat_only -> "gridsat-only"
          | Workloads.Registry.Neither_solved -> "neither"))
      Workloads.Registry.table1;
    0
  in
  Cmd.v (Cmd.info "registry" ~doc:"List the SAT2002 analog registry") Term.(const run $ const ())

let () =
  let info = Cmd.info "gridsat" ~version:"1.0" ~doc:"GridSAT: a Chaff-based distributed SAT solver" in
  exit
    (Cmd.eval'
       (Cmd.group info [ solve_cmd; serve_cmd; gen_cmd; check_cmd; report_cmd; registry_cmd ]))

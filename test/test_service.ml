(* Service suite: the multi-tenant job front-end must degrade gracefully
   under overload and chaos.

   The core property, checked under a seeded chaos plan: every submitted
   job reaches exactly one terminal state — verdict, cached, shed,
   deadline or cancelled — with every host back in the pool, and the
   whole schedule replays deterministically. *)

module C = Gridsat_core
module Cfg = C.Config
module S = Gridsat_service
module Svc = S.Service
module Job = S.Job

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

(* ---------- apparatus ---------- *)

let php ~pigeons ~holes = Workloads.Php.instance ~pigeons ~holes

let planted ?(nvars = 20) seed = Workloads.Random_sat.planted ~nvars ~ratio:5.0 ~seed ()

(* Eager splitting, light checkpoints, quick failure detection — same
   tuning as the chaos suite, so the fault-tolerance machinery is
   exercised even on tiny instances. *)
let run_config =
  {
    Cfg.default with
    Cfg.split_timeout = 2.;
    slice = 0.5;
    share_flush_interval = 1.;
    overall_timeout = 100_000.;
    nws_probe_interval = 5.;
    checkpoint = Cfg.Light;
    checkpoint_period = 5.;
    heartbeat_period = 5.;
    suspect_timeout = 30.;
  }

let svc_config =
  {
    Svc.default_config with
    Svc.run = run_config;
    hosts_per_job = 2;
    max_concurrent = 2;
    queue_capacity = 8;
    starvation_after = 30.;
  }

let testbed n = C.Testbed.uniform ~n ~speed:500. ()

let dummy_cnf = Sat.Cnf.make ~nvars:1 [ [ 1 ] ]

let mk_job id tenant priority submitted_at =
  {
    Job.id;
    tenant;
    priority;
    label = "";
    cnf = dummy_cnf;
    digest = "";
    deadline = None;
    submitted_at;
    state = Job.Queued;
    started_at = None;
    finished_at = None;
    preemptions = 0;
    result = None;
  }

let job_by_id svc id =
  match List.find_opt (fun (j : Job.t) -> j.Job.id = id) (Svc.jobs svc) with
  | Some j -> j
  | None -> Alcotest.fail (Printf.sprintf "job %d not found" id)

(* ---------- admission policy ---------- *)

let test_admission_priority_and_fairness () =
  let adm = S.Admission.create ~capacity:8 ~starvation_after:0. in
  let no_load _ = 0 in
  let low = mk_job 1 "a" Job.Low 0. in
  let high = mk_job 2 "a" Job.High 0. in
  S.Admission.enqueue adm low;
  S.Admission.enqueue adm high;
  (match S.Admission.take adm ~now:0. ~tenant_load:no_load with
  | Some j -> check int "higher priority first" 2 j.Job.id
  | None -> Alcotest.fail "expected a job");
  (match S.Admission.take adm ~now:0. ~tenant_load:no_load with
  | Some j -> check int "then the low job" 1 j.Job.id
  | None -> Alcotest.fail "expected a job");
  (* equal priority: the tenant with fewer running jobs wins the tie *)
  S.Admission.enqueue adm (mk_job 3 "busy" Job.Normal 0.);
  S.Admission.enqueue adm (mk_job 4 "idle" Job.Normal 0.);
  let load = function "busy" -> 2 | _ -> 0 in
  (match S.Admission.take adm ~now:0. ~tenant_load:load with
  | Some j -> check int "fair tenant first" 4 j.Job.id
  | None -> Alcotest.fail "expected a job");
  (* same tenant, same priority: FIFO by submission *)
  S.Admission.enqueue adm (mk_job 6 "a" Job.Normal 0.);
  S.Admission.enqueue adm (mk_job 5 "a" Job.Normal 0.);
  match S.Admission.take adm ~now:0. ~tenant_load:no_load with
  | Some j -> check int "fifo tie-break" 3 j.Job.id
  | None -> Alcotest.fail "expected a job"

let test_admission_starvation_guard () =
  let adm = S.Admission.create ~capacity:8 ~starvation_after:100. in
  let no_load _ = 0 in
  let old_low = mk_job 1 "a" Job.Low 0. in
  let fresh_high = mk_job 2 "b" Job.High 299. in
  S.Admission.enqueue adm old_low;
  S.Admission.enqueue adm fresh_high;
  (* at t=300 the low job has aged 3 levels (effective 3), the fresh
     high job none (effective 2): the starved job finally goes first *)
  check int "aged low outranks fresh high" 3
    (S.Admission.effective_priority adm ~now:300. old_low);
  match S.Admission.take adm ~now:300. ~tenant_load:no_load with
  | Some j -> check int "starvation guard fires" 1 j.Job.id
  | None -> Alcotest.fail "expected a job"

let test_admission_bounds_and_retry_hint () =
  let adm = S.Admission.create ~capacity:2 ~starvation_after:0. in
  check bool "empty not full" false (S.Admission.is_full adm);
  S.Admission.enqueue adm (mk_job 1 "a" Job.Normal 0.);
  let hint1 = S.Admission.retry_after adm ~base:10. in
  S.Admission.enqueue adm (mk_job 2 "a" Job.Normal 0.);
  let hint2 = S.Admission.retry_after adm ~base:10. in
  check bool "full at capacity" true (S.Admission.is_full adm);
  check bool "hint grows with depth" true (hint2 > hint1);
  check bool "enqueue past capacity rejected" true
    (try
       S.Admission.enqueue adm (mk_job 3 "a" Job.Normal 0.);
       false
     with Invalid_argument _ -> true);
  (* requeue (preemption victim) bypasses the bound *)
  S.Admission.requeue adm (mk_job 4 "a" Job.Normal 0.);
  check int "victim requeued over capacity" 3 (S.Admission.length adm)

(* ---------- verdict cache ---------- *)

let test_cache_digest_canonical () =
  let a = Sat.Cnf.make ~nvars:4 [ [ 1; 2 ]; [ -1; 3 ]; [ 2; 4 ] ] in
  (* same clause set: literals permuted, clauses permuted, one duplicated *)
  let b = Sat.Cnf.make ~nvars:4 [ [ 4; 2 ]; [ 2; 1 ]; [ 3; -1 ]; [ 1; 2 ] ] in
  let c = Sat.Cnf.make ~nvars:4 [ [ 1; 2 ]; [ -1; 3 ]; [ 2; -4 ] ] in
  check bool "permutation-invariant" true (S.Cache.digest a = S.Cache.digest b);
  check bool "different formula, different digest" false (S.Cache.digest a = S.Cache.digest c)

(* Clause sets with the shapes the key must see through: clauses
   repeated with their literals reversed and one literal doubled, the
   whole list shuffled, empty clauses, and clauses that are only
   tautologies (dropped by the formula, so absent from the key). *)
let digest_case_gen =
  let open QCheck.Gen in
  int_range 0 6 >>= fun nvars ->
  let lit = map2 (fun v s -> if s then v else -v) (int_range 1 (max 1 nvars)) bool in
  let clause =
    if nvars = 0 then return []
    else
      frequency
        [
          (8, list_size (int_range 1 4) lit);
          (1, return []);
          (1, map (fun v -> [ v; -v ]) (int_range 1 nvars));
        ]
  in
  list_size (int_bound 12) clause >>= fun base ->
  list_size (int_bound 6) (oneofl (if base = [] then [ [] ] else base)) >>= fun again ->
  let scrambled = List.map (fun c -> List.rev c @ match c with [] -> [] | l :: _ -> [ l ]) again in
  shuffle_l (base @ scrambled) >|= fun clauses -> Sat.Cnf.make ~nvars clauses

let prop_cache_digest_matches_legacy =
  QCheck.Test.make ~name:"Cache.digest equals the list-based key" ~count:1000
    (QCheck.make ~print:(Format.asprintf "%a" Sat.Cnf.pp) digest_case_gen) (fun cnf ->
      S.Cache.digest cnf = Legacy.Cache.digest cnf)

(* Formulas whose packed clause keys tie: up to 5,000 variables (so a
   key holds three or four literals), clauses up to 40 literals built on a
   few shared prefixes of up to 12 literals, and repeats with their
   literals reversed.  Equal keys then hold clauses longer than a key,
   which only the full comparison orders. *)
let digest_wide_gen =
  let open QCheck.Gen in
  int_range 1 5000 >>= fun nvars ->
  let lit = map2 (fun v s -> if s then v else -v) (int_range 1 nvars) bool in
  list_size (int_range 1 4) (list_size (int_range 0 12) lit) >>= fun prefixes ->
  let clause =
    frequency
      [
        (3, map2 ( @ ) (oneofl prefixes) (list_size (int_range 0 28) lit));
        (1, list_size (int_range 1 40) lit);
      ]
  in
  list_size (int_range 1 80) clause >>= fun base ->
  list_size (int_bound 10) (oneofl base) >>= fun again ->
  shuffle_l (base @ List.map List.rev again) >|= fun clauses -> Sat.Cnf.make ~nvars clauses

let prop_cache_digest_wide_matches_legacy =
  QCheck.Test.make ~name:"Cache.digest on tied long clauses equals the list-based key" ~count:300
    (QCheck.make ~print:(Format.asprintf "%a" Sat.Cnf.pp) digest_wide_gen) (fun cnf ->
      S.Cache.digest cnf = Legacy.Cache.digest cnf)

let test_cache_store_and_verify () =
  let cache = S.Cache.create () in
  let cnf = Sat.Cnf.make ~nvars:2 [ [ 1 ]; [ 1; 2 ] ] in
  let digest = S.Cache.digest cnf in
  let model = Sat.Model.of_array [| false; true; false |] in
  check bool "miss before store" true (S.Cache.find cache ~digest ~cnf = None);
  S.Cache.store cache ~digest (C.Master.Unknown "timeout");
  check bool "unknown never cached" true (S.Cache.find cache ~digest ~cnf = None);
  S.Cache.store cache ~digest (C.Master.Sat model);
  (match S.Cache.find cache ~digest ~cnf with
  | Some (C.Master.Sat m) -> check bool "served model satisfies" true (Sat.Model.satisfies cnf m)
  | _ -> Alcotest.fail "expected a SAT hit");
  check int "hit counted" 1 (S.Cache.hits cache);
  (* a stored model that does not satisfy the submitted formula (digest
     collision, rotted entry) must read as a miss, not a wrong answer *)
  let cache2 = S.Cache.create () in
  let bad = Sat.Model.of_array [| false; false; false |] in
  S.Cache.store cache2 ~digest (C.Master.Sat bad);
  check bool "unverifiable hit is a miss" true (S.Cache.find cache2 ~digest ~cnf = None);
  check int "poisoned entry evicted" 0 (S.Cache.size cache2)

(* ---------- job log ---------- *)

let test_joblog_replay_and_scrub () =
  let mk () =
    let log = S.Joblog.create () in
    S.Joblog.append log
      (S.Joblog.Submitted { id = 1; tenant = "a"; priority = "high"; digest = "d"; deadline = None });
    S.Joblog.append log (S.Joblog.Admitted { id = 1 });
    S.Joblog.append log (S.Joblog.Started { id = 1; hosts = [ 3; 4 ] });
    S.Joblog.append log (S.Joblog.Requeued { id = 1; reason = "preempted" });
    S.Joblog.append log (S.Joblog.Started { id = 1; hosts = [ 5; 6 ] });
    S.Joblog.append log (S.Joblog.Finished { id = 1; terminal = "verdict:UNSAT" });
    S.Joblog.append log
      (S.Joblog.Submitted { id = 2; tenant = "b"; priority = "low"; digest = "e"; deadline = Some 9. });
    S.Joblog.append log (S.Joblog.Shed { id = 2; retry_after = 30. });
    log
  in
  let log = mk () in
  let st = S.Joblog.replay log in
  check int "submissions" 2 st.S.Joblog.submitted;
  check int "requeues" 1 st.S.Joblog.requeues;
  check bool "job 1 finished" true (Hashtbl.find st.S.Joblog.jobs 1 = S.Joblog.Done "verdict:UNSAT");
  check bool "job 2 shed" true (Hashtbl.find st.S.Joblog.jobs 2 = S.Joblog.Done "shed");
  check bool "replay digest deterministic" true
    (S.Joblog.digest st = S.Joblog.digest (S.Joblog.replay (mk ())));
  (* rot the newest record (job 2's shed): replay scrubs it instead of
     trusting it *)
  S.Joblog.corrupt_tail log ~n:1;
  let st' = S.Joblog.replay log in
  check int "rotted record dropped" 1 (S.Joblog.records_dropped log);
  check bool "job 1 state survives" true (Hashtbl.find st'.S.Joblog.jobs 1 = S.Joblog.Done "verdict:UNSAT");
  (* job 2's shed record was rotted away: it replays as still queued *)
  check bool "job 2 degraded to queued" true (Hashtbl.find st'.S.Joblog.jobs 2 = S.Joblog.Queued)

(* The service.jobs.* series read the joblog's applied state, so after
   at-rest rot and [Joblog.recover] they show the recovered counts, as
   [Svc.stats] does.  Rotting the newest three records drops three of
   the four completions. *)
let test_series_follow_recovered_joblog () =
  let obs = Obs.create () in
  let cfg = { svc_config with Svc.hosts_per_job = 1; max_concurrent = 4 } in
  let svc = Svc.create ~obs ~cfg ~testbed:(testbed 4) () in
  List.iter
    (fun (pigeons, holes) ->
      ignore (Svc.submit svc ~tenant:"acme" ~priority:Job.Normal (php ~pigeons ~holes)))
    [ (4, 3); (5, 4); (6, 5); (7, 6) ];
  Svc.run svc;
  check int "four completions before the rot" 4 (Svc.stats svc).Svc.completed;
  S.Joblog.corrupt_tail (Svc.joblog svc) ~n:3;
  S.Joblog.recover (Svc.joblog svc);
  let s = Svc.stats svc in
  let exported = Obs.Metrics.export_all (Obs.metrics obs) in
  List.iter
    (fun (name, count) ->
      match List.assoc_opt ("service.jobs." ^ name) exported with
      | Some (Obs.Metrics.Counter n) -> check int name count n
      | _ -> Alcotest.failf "no service.jobs.%s series" name)
    [
      ("submitted", s.Svc.submitted);
      ("admitted", s.admitted);
      ("shed", s.shed);
      ("cache_hit", s.cache_hits);
      ("deadline_expired", s.deadline_expired);
      ("preempted", s.preempted);
      ("cancelled", s.cancelled);
      ("completed", s.completed);
    ];
  check int "three completions rotted away" 1 s.Svc.completed

(* ---------- end-to-end scheduling ---------- *)

let test_single_job_verdict () =
  let svc = Svc.create ~cfg:svc_config ~testbed:(testbed 4) () in
  (match Svc.submit svc ~tenant:"acme" ~priority:Job.Normal (php ~pigeons:6 ~holes:5) with
  | Svc.Accepted -> ()
  | _ -> Alcotest.fail "expected admission");
  Svc.run svc;
  let j = job_by_id svc 1 in
  (match j.Job.state with
  | Job.Done (Job.Verdict C.Master.Unsat) -> ()
  | s -> Alcotest.fail ("expected UNSAT verdict, got " ^ Job.state_string s));
  let s = Svc.stats svc in
  check int "completed" 1 s.Svc.completed;
  check int "all hosts back" s.Svc.hosts_total s.Svc.hosts_free;
  check bool "nothing running" true (Svc.running_masters svc = [])

let test_cache_hit_on_resubmission () =
  let svc = Svc.create ~cfg:svc_config ~testbed:(testbed 4) () in
  let cnf = planted ~nvars:25 3 in
  ignore (Svc.submit svc ~tenant:"acme" ~priority:Job.Normal cnf);
  Svc.run svc;
  let first = job_by_id svc 1 in
  check bool "first run solved SAT" true
    (match first.Job.state with Job.Done (Job.Verdict (C.Master.Sat _)) -> true | _ -> false);
  (* resubmit the same formula with clauses shuffled: instant verified
     answer, no run, no subproblem dispatched *)
  let shuffled =
    let cls = List.rev_map (fun a -> List.rev_map Sat.Types.to_int (Array.to_list a)) (Clause_lists.to_list (Sat.Cnf.clauses cnf)) in
    Sat.Cnf.make ~nvars:(Sat.Cnf.nvars cnf) cls
  in
  (match Svc.submit svc ~tenant:"other" ~priority:Job.Low shuffled with
  | Svc.Cached (C.Master.Sat m) -> check bool "cached model verified" true (Sat.Model.satisfies shuffled m)
  | _ -> Alcotest.fail "expected a cached SAT verdict");
  let second = job_by_id svc 2 in
  check bool "cache-hit job is terminal" true (Job.is_terminal second);
  check bool "no run happened for the hit" true (second.Job.result = None);
  let s = Svc.stats svc in
  check int "cache hit counted" 1 s.Svc.cache_hits;
  check int "still all hosts free" s.Svc.hosts_total s.Svc.hosts_free

let test_deadline_expiry_releases_pool () =
  let cfg = { svc_config with Svc.max_concurrent = 1 } in
  let svc = Svc.create ~cfg ~testbed:(testbed 2) () in
  (* far too hard to finish in 5 virtual seconds *)
  ignore (Svc.submit svc ~tenant:"acme" ~priority:Job.High ~deadline_in:5. (php ~pigeons:9 ~holes:8));
  (* a second job waits behind it and must still get served *)
  ignore (Svc.submit svc ~tenant:"acme" ~priority:Job.Normal (php ~pigeons:5 ~holes:4));
  Svc.run svc;
  let j1 = job_by_id svc 1 and j2 = job_by_id svc 2 in
  check bool "deadline terminal" true (j1.Job.state = Job.Done Job.Deadline_expired);
  (match j1.Job.result with
  | Some r ->
      check bool "run closed with a clean verdict" true
        (match r.C.Master.answer with C.Master.Unknown "deadline" -> true | _ -> false)
  | None -> Alcotest.fail "expected a run result on the expired job");
  check bool "queued job ran after the expiry" true
    (j2.Job.state = Job.Done (Job.Verdict C.Master.Unsat));
  let s = Svc.stats svc in
  check int "one expiry" 1 s.Svc.deadline_expired;
  check int "hosts all back" s.Svc.hosts_total s.Svc.hosts_free

let test_burst_sheds_with_hint () =
  let cfg = { svc_config with Svc.queue_capacity = 2; max_concurrent = 1 } in
  let svc = Svc.create ~cfg ~testbed:(testbed 2) () in
  let outcomes =
    List.map
      (fun i -> Svc.submit svc ~tenant:"burst" ~priority:Job.Normal (planted (10 + i)))
      [ 0; 1; 2; 3 ]
  in
  let shed = List.filter (function Svc.Rejected _ -> true | _ -> false) outcomes in
  check int "burst beyond the queue is shed" 2 (List.length shed);
  List.iter
    (function
      | Svc.Rejected { retry_after } -> check bool "positive retry hint" true (retry_after > 0.)
      | _ -> ())
    shed;
  Svc.run svc;
  let s = Svc.stats svc in
  check int "admitted jobs completed" 2 s.Svc.completed;
  check int "shed counted" 2 s.Svc.shed;
  check bool "shed jobs are terminal too" true (List.for_all Job.is_terminal (Svc.jobs svc))

let test_preemption_requeues_victim () =
  let cfg = { svc_config with Svc.max_concurrent = 1; queue_capacity = 4 } in
  let svc = Svc.create ~cfg ~testbed:(testbed 2) () in
  ignore (Svc.submit svc ~tenant:"batch" ~priority:Job.Low (php ~pigeons:7 ~holes:6));
  Svc.submit_at svc ~at:3. ~tenant:"urgent" ~priority:Job.High (planted 4);
  Svc.run svc;
  let low = job_by_id svc 1 and high = job_by_id svc 2 in
  check bool "victim was preempted" true (low.Job.preemptions >= 1);
  check bool "victim still reached its verdict" true
    (low.Job.state = Job.Done (Job.Verdict C.Master.Unsat));
  check bool "high job solved" true
    (match high.Job.state with Job.Done (Job.Verdict (C.Master.Sat _)) -> true | _ -> false);
  let s = Svc.stats svc in
  check bool "preemption counted" true (s.Svc.preempted >= 1);
  check int "hosts all back" s.Svc.hosts_total s.Svc.hosts_free

let test_deadline_races_master_failover () =
  let cfg = { svc_config with Svc.max_concurrent = 1 } in
  let svc = Svc.create ~cfg ~testbed:(testbed 2) () in
  ignore (Svc.submit svc ~tenant:"acme" ~priority:Job.Normal ~deadline_in:6. (php ~pigeons:9 ~holes:8));
  (* crash the job's master mid-run with no scripted restart: the
     deadline at t=6 lands squarely inside the outage window *)
  ignore
    (Grid.Sim.schedule_at (Svc.sim svc) ~time:3. (fun () ->
         match Svc.running_masters svc with
         | [ (_, m) ] -> C.Master.crash_master m
         | _ -> Alcotest.fail "expected exactly one running master"));
  Svc.run svc;
  let j = job_by_id svc 1 in
  check bool "deadline terminal despite outage" true (j.Job.state = Job.Done Job.Deadline_expired);
  (match j.Job.result with
  | Some r ->
      check int "the outage really happened" 1 (C.Master.counter r "master_crashes");
      check bool "journal closed with the deadline verdict" true
        (match r.C.Master.answer with C.Master.Unknown "deadline" -> true | _ -> false)
  | None -> Alcotest.fail "expected a run result");
  let s = Svc.stats svc in
  check int "hosts recovered from the downed run" s.Svc.hosts_total s.Svc.hosts_free

let test_cancel_mid_run () =
  let svc = Svc.create ~cfg:svc_config ~testbed:(testbed 2) () in
  ignore (Svc.submit svc ~tenant:"acme" ~priority:Job.Normal (php ~pigeons:8 ~holes:7));
  ignore
    (Grid.Sim.schedule_at (Svc.sim svc) ~time:4. (fun () ->
         check bool "cancel accepted" true (Svc.cancel_job svc ~id:1 ~reason:"operator abort")));
  Svc.run svc;
  let j = job_by_id svc 1 in
  check bool "cancelled terminal" true (j.Job.state = Job.Done (Job.Cancelled "operator abort"));
  check bool "second cancel refused" false (Svc.cancel_job svc ~id:1 ~reason:"again");
  let s = Svc.stats svc in
  check int "cancellation counted" 1 s.Svc.cancelled;
  check int "hosts all back" s.Svc.hosts_total s.Svc.hosts_free

(* A finished run must leave nothing behind in the simulator: a queued
   event (the run's overall timeout, 100,000 virtual seconds out) would
   keep the whole master reachable long after its verdict. *)
let test_finished_runs_released () =
  let svc = Svc.create ~cfg:svc_config ~testbed:(testbed 4) () in
  let sim = Svc.sim svc in
  List.iter
    (fun seed -> ignore (Svc.submit svc ~tenant:"acme" ~priority:Job.Normal (planted seed)))
    [ 1; 2; 3 ];
  let seen = Weak.create 1 in
  ignore
    (Grid.Sim.schedule_at sim ~time:0. (fun () ->
         match Svc.running_masters svc with
         | (_, m) :: _ -> Weak.set seen 0 (Some m)
         | [] -> Alcotest.fail "expected a running master"));
  Svc.run svc;
  check bool "every job terminal" true (List.for_all Job.is_terminal (Svc.jobs svc));
  (* when the last verdict lands, the runs' tails are still queued: Stop
     deliveries and the final tick of each periodic loop, which sees the
     run finished and stops.  They settle within a loop period. *)
  Grid.Sim.run sim ~until:(Grid.Sim.now sim +. (10. *. run_config.Cfg.heartbeat_period));
  check int "no event left queued" 0 (Grid.Sim.pending sim);
  Gc.full_major ();
  check bool "finished master collected" false (Weak.check seen 0)

(* ---------- the chaos matrix scenario ---------- *)

(* >= 8 concurrent jobs with mixed priorities and deadlines, under
   master crash-failover, host crashes and message corruption, plus a
   scripted overload burst.  Returns everything a determinism check
   needs to compare. *)
let chaos_scenario ~seed =
  let cfg =
    {
      Svc.default_config with
      Svc.run = run_config;
      hosts_per_job = 2;
      max_concurrent = 8;
      queue_capacity = 8;
      starvation_after = 30.;
      retry_after_base = 15.;
      preemption = true;
      seed;
      faults = Svc.chaos_plan ~master_crash:true ~corrupt_p:0.03 ~crash_hosts:1 ();
    }
  in
  let svc = Svc.create ~cfg ~testbed:(testbed 16) () in
  let prio i = match i mod 3 with 0 -> Job.Low | 1 -> Job.Normal | _ -> Job.High in
  (* first wave: eight jobs dispatched together at t=0 *)
  for i = 0 to 7 do
    ignore
      (Svc.submit svc ~tenant:(Printf.sprintf "t%d" (i mod 3)) ~priority:(prio i)
         ~label:(Printf.sprintf "wave1-%d" i)
         (if i mod 2 = 0 then php ~pigeons:6 ~holes:5 else planted ~nvars:22 (40 + i)))
  done;
  (* second wave while all eight run: a hard high-priority job with a
     deadline it cannot meet, plus queue pressure *)
  Svc.submit_at svc ~at:3. ~tenant:"t0" ~priority:Job.High ~deadline_in:6. ~label:"doomed"
    (php ~pigeons:9 ~holes:8);
  for i = 0 to 4 do
    Svc.submit_at svc ~at:3.2 ~tenant:(Printf.sprintf "t%d" (i mod 2)) ~priority:(prio (i + 1))
      ~label:(Printf.sprintf "wave2-%d" i)
      (planted ~nvars:22 (60 + i))
  done;
  (* overload burst: ten submissions into a queue of eight *)
  for i = 0 to 9 do
    Svc.submit_at svc ~at:3.4 ~tenant:"burst" ~priority:Job.Low
      ~label:(Printf.sprintf "burst-%d" i)
      (planted ~nvars:22 (80 + i))
  done;
  Svc.run svc;
  svc

let scenario_summary svc =
  let job_line (j : Job.t) =
    Printf.sprintf "%d %s %s %s p=%d" j.Job.id j.Job.tenant (Job.priority_string j.Job.priority)
      (Job.state_string j.Job.state) j.Job.preemptions
  in
  String.concat "\n" (List.map job_line (Svc.jobs svc))

let check_lifecycle_invariant svc =
  let jobs = Svc.jobs svc in
  check bool "every job is terminal" true (List.for_all Job.is_terminal jobs);
  (* exactly one terminal record per job in the lifecycle log *)
  let terminals = Hashtbl.create 64 in
  let bump id = Hashtbl.replace terminals id (1 + Option.value ~default:0 (Hashtbl.find_opt terminals id)) in
  List.iter
    (function
      | S.Joblog.Shed { id; _ } | S.Joblog.Cache_hit { id; _ } | S.Joblog.Finished { id; _ } -> bump id
      | _ -> ())
    (S.Joblog.entries (Svc.joblog svc));
  List.iter
    (fun (j : Job.t) ->
      check int
        (Printf.sprintf "job %d has exactly one terminal record" j.Job.id)
        1
        (Option.value ~default:0 (Hashtbl.find_opt terminals j.Job.id)))
    jobs;
  (* the replayed log agrees with the in-memory states *)
  let st = S.Joblog.replay (Svc.joblog svc) in
  List.iter
    (fun (j : Job.t) ->
      match Hashtbl.find_opt st.S.Joblog.jobs j.Job.id with
      | Some (S.Joblog.Done s) ->
          check Alcotest.string
            (Printf.sprintf "job %d log/state agreement" j.Job.id)
            (Job.state_string j.Job.state) s
      | _ -> Alcotest.fail (Printf.sprintf "job %d not terminal in the replayed log" j.Job.id))
    jobs;
  (* the reported job counts are the replayed log's *)
  let s = Svc.stats svc in
  let counts (s : Svc.stats) =
    [ s.submitted; s.admitted; s.shed; s.cache_hits; s.deadline_expired; s.preempted; s.cancelled; s.completed ]
  in
  check (Alcotest.list int) "stats counts = replayed joblog counts"
    [
      st.S.Joblog.submitted;
      st.admitted;
      st.shed;
      st.cache_hits;
      st.deadline_expired;
      st.requeues;
      st.cancelled;
      st.verdicts;
    ]
    (counts s);
  (* no leaked resources, no orphaned runs *)
  check int "all hosts returned to the pool" s.Svc.hosts_total s.Svc.hosts_free;
  check bool "no master left running" true (Svc.running_masters svc = []);
  (* verdicts that did land are correct: php instances are UNSAT,
     planted instances carry a model the master already verified *)
  List.iter
    (fun (j : Job.t) ->
      match j.Job.state with
      | Job.Done (Job.Verdict a) | Job.Done (Job.Cached a) -> (
          match (j.Job.label, a) with
          | _, C.Master.Sat m -> check bool "model satisfies" true (Sat.Model.satisfies j.Job.cnf m)
          | label, C.Master.Unsat ->
              check bool (label ^ " unsat is expected") true
                (String.length label >= 5 && String.sub label 0 5 = "wave1")
          | _, C.Master.Unknown _ -> ())
      | _ -> ())
    jobs

(* ---------- brownout and health reporting ---------- *)

let job_by_label svc label =
  match List.find_opt (fun (j : Job.t) -> j.Job.label = label) (Svc.jobs svc) with
  | Some j -> j
  | None -> Alcotest.fail (Printf.sprintf "job %S not found" label)

(* Two of six leased hosts turn into silent stragglers: their progress
   rate collapses, the healthy fraction drops under the threshold, and
   the service enters brownout — shedding queued low-priority work and
   stretching outstanding advisory deadlines instead of failing jobs on
   a schedule the pool can no longer meet. *)
let test_brownout_sheds_and_stretches () =
  let cfg =
    {
      svc_config with
      Svc.hosts_per_job = 6;
      max_concurrent = 1;
      brownout_threshold = 0.7;
      brownout_stretch = 2.;
      faults = Svc.chaos_plan ~slow_hosts:2 ~slow_factor:1000. ();
      run = { run_config with Cfg.heartbeat_period = 2. };
    }
  in
  let svc = Svc.create ~cfg ~testbed:(testbed 6) () in
  (* the long job leases the whole pool while two of its hosts rot *)
  (match Svc.submit svc ~tenant:"t0" ~priority:Job.Normal ~label:"long" (php ~pigeons:8 ~holes:7) with
  | Svc.Accepted -> ()
  | _ -> Alcotest.fail "long job must be accepted");
  ignore (Svc.submit svc ~tenant:"t1" ~priority:Job.Low ~label:"sacrificial" (planted 3));
  ignore
    (Svc.submit svc ~tenant:"t2" ~priority:Job.Normal ~deadline_in:10_000. ~label:"stretchy"
       (planted 4));
  Svc.run svc;
  let s = Svc.stats svc in
  check bool "brownout entered" true (s.Svc.brownouts >= 1);
  check bool "low-priority queued job shed on entry" true
    (match (job_by_label svc "sacrificial").Job.state with
    | Job.Done (Job.Shed _) -> true
    | _ -> false);
  check bool "advisory deadline stretched" true (s.Svc.deadlines_stretched >= 1);
  check bool "stretched job still reached a verdict" true
    (match (job_by_label svc "stretchy").Job.state with
    | Job.Done (Job.Verdict _) | Job.Done (Job.Cached _) -> true
    | _ -> false);
  check int "hosts all returned" s.Svc.hosts_total s.Svc.hosts_free;
  (* the brownout state is visible in the service report *)
  match Obs.Json.member "service" (Svc.report svc) with
  | Some (Obs.Json.Obj fields) ->
      check bool "report carries brownout count" true (List.mem_assoc "brownouts" fields);
      check bool "report carries brownout flag" true (List.mem_assoc "brownout" fields)
  | _ -> Alcotest.fail "service section missing from report"

(* A brownout shed is a terminal like any other: its record is appended
   before its SLO note, so when that note trips the fast burn, the
   flight dump it causes ends with the shed job's record. *)
let test_brownout_shed_record_in_burn_dump () =
  let obs = Obs.create ~flight:(Obs.Flight.create ()) ~anomaly:(Obs.Anomaly.create ()) () in
  let spec = match Obs.Slo.parse "*:errors<0.05" with Ok s -> s | Error e -> Alcotest.fail e in
  let cfg =
    {
      svc_config with
      Svc.hosts_per_job = 6;
      max_concurrent = 1;
      brownout_threshold = 0.7;
      faults = Svc.chaos_plan ~slow_hosts:2 ~slow_factor:1000. ();
      run = { run_config with Cfg.heartbeat_period = 2. };
    }
  in
  let svc = Svc.create ~obs ~slo:spec ~cfg ~testbed:(testbed 6) () in
  ignore (Svc.submit svc ~tenant:"t0" ~priority:Job.Normal ~label:"long" (php ~pigeons:8 ~holes:7));
  ignore (Svc.submit svc ~tenant:"t1" ~priority:Job.Low ~label:"sacrificial" (planted 3));
  Svc.run svc;
  let shed = job_by_label svc "sacrificial" in
  check bool "low-priority job shed" true
    (match shed.Job.state with Job.Done (Job.Shed _) -> true | _ -> false);
  let burns =
    List.filter
      (fun (_, doc) -> Obs.Json.member "trigger" doc = Some (Obs.Json.String "slo-fast-burn"))
      (Svc.flight_dumps svc)
  in
  match burns with
  | [] -> Alcotest.fail "no slo-fast-burn dump"
  | (_, doc) :: _ -> (
      let events = match Obs.Json.member "events" doc with Some (Obs.Json.List es) -> es | _ -> [] in
      match List.rev events with
      | last :: _ ->
          check bool "dump ends with the job_shed record" true
            (Obs.Json.member "name" last = Some (Obs.Json.String "job_shed"));
          check bool "of the shed job" true
            (match Obs.Json.member "args" last with
            | Some args -> Obs.Json.member "job" args = Some (Obs.Json.Int shed.Job.id)
            | None -> false)
      | [] -> Alcotest.fail "empty dump")

(* The per-host health table round-trips through the service report:
   one row per host the model has seen, every column present, and the
   straggler's row visibly demoted. *)
let test_report_health_table_roundtrip () =
  let cfg =
    {
      svc_config with
      Svc.hosts_per_job = 4;
      max_concurrent = 1;
      faults = Svc.chaos_plan ~slow_hosts:1 ~slow_factor:1000. ();
      run = { run_config with Cfg.heartbeat_period = 2. };
    }
  in
  let svc = Svc.create ~cfg ~testbed:(testbed 4) () in
  ignore (Svc.submit svc ~tenant:"t" ~priority:Job.Normal (php ~pigeons:7 ~holes:6));
  Svc.run svc;
  let doc = Svc.report svc in
  (match Obs.Report.validate doc with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("service report invalid: " ^ e));
  match Obs.Json.member "health" doc with
  | Some (Obs.Json.List rows) ->
      check bool "at least one host row" true (List.length rows >= 1);
      let scores =
        List.map
          (function
            | Obs.Json.Obj fields ->
                List.iter
                  (fun k ->
                    check bool (k ^ " column present") true (List.mem_assoc k fields))
                  [
                    "host";
                    "score";
                    "state";
                    "ack_ewma_s";
                    "hb_jitter_s";
                    "progress_rate";
                    "crashes";
                    "quarantines";
                    "corruptions";
                    "retries";
                  ];
                (match List.assoc "score" fields with
                | Obs.Json.Float f -> f
                | _ -> Alcotest.fail "score must be a float")
            | _ -> Alcotest.fail "health row must be an object")
          rows
      in
      check bool "the straggler's score is visibly demoted" true
        (List.exists (fun f -> f < 0.5) scores);
      check bool "healthy hosts still score high" true (List.exists (fun f -> f > 0.8) scores)
  | _ -> Alcotest.fail "health table missing from report"

let test_chaos_matrix_every_job_terminal () =
  let svc = chaos_scenario ~seed:7 in
  check_lifecycle_invariant svc;
  let s = Svc.stats svc in
  check bool "shed happened" true (s.Svc.shed >= 1);
  check bool "deadline expiry happened" true (s.Svc.deadline_expired >= 1);
  check bool "completions happened" true (s.Svc.completed >= 8);
  (* the first wave really ran concurrently: eight runs overlap in time *)
  let jobs = Svc.jobs svc in
  let intervals =
    List.filter_map
      (fun (j : Job.t) ->
        match (j.Job.started_at, j.Job.finished_at) with
        | Some st, Some fin when j.Job.result <> None -> Some (st, fin)
        | _ -> None)
      jobs
  in
  let peak =
    List.fold_left
      (fun acc (st, _) ->
        max acc (List.length (List.filter (fun (st', fin') -> st' <= st && st < fin') intervals)))
      0 intervals
  in
  check bool "at least 8 concurrent runs" true (peak >= 8);
  (* the chaos plan really fired: crash-failovers and wire corruption
     survived inside the runs *)
  let sum f = List.fold_left (fun acc (j : Job.t) -> match j.Job.result with Some r -> acc + f r | None -> acc) 0 jobs in
  check bool "master crashes survived" true
    (sum (fun r -> C.Master.counter r "master_crashes") >= 4);
  check bool "corruption detected and refused" true
    (sum (fun r -> C.Master.counter r "corrupt_detected") >= 1);
  (* resubmitting an already-solved instance is served from the cache
     with zero subproblems dispatched *)
  (match Svc.submit svc ~tenant:"replay" ~priority:Job.Normal (php ~pigeons:6 ~holes:5) with
  | Svc.Cached C.Master.Unsat -> ()
  | _ -> Alcotest.fail "expected a cached UNSAT verdict");
  let resub = List.rev (Svc.jobs svc) |> List.hd in
  check bool "no run for the resubmission" true (resub.Job.result = None);
  check bool "cache hit visible in counters" true ((Svc.stats svc).Svc.cache_hits >= 1);
  (* the service report builds, validates, and carries the counters *)
  let doc = Svc.report svc in
  (match Obs.Report.validate doc with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("service report invalid: " ^ e));
  match Obs.Json.member "service" doc with
  | Some (Obs.Json.Obj fields) ->
      check bool "report exposes shed counter" true (List.mem_assoc "shed" fields);
      check bool "report exposes cache hits" true (List.mem_assoc "cache_hits" fields)
  | _ -> Alcotest.fail "service section missing from report"

let test_chaos_matrix_deterministic_replay () =
  let a = chaos_scenario ~seed:7 in
  let b = chaos_scenario ~seed:7 in
  check Alcotest.string "identical job outcomes" (scenario_summary a) (scenario_summary b);
  check Alcotest.string "identical lifecycle digests"
    (S.Joblog.digest (S.Joblog.replay (Svc.joblog a)))
    (S.Joblog.digest (S.Joblog.replay (Svc.joblog b)))

(* Property-style sweep: the lifecycle invariant holds whatever the
   seeded chaos plan does. *)
let test_lifecycle_invariant_across_seeds () =
  List.iter (fun seed -> check_lifecycle_invariant (chaos_scenario ~seed)) [ 1; 13; 23 ]

(* ---------- observability acceptance ---------- *)

module J = Obs.Json

(* A seeded chaos run (silent straggler + master crash-failover) with
   live SLOs, flight recorder and anomaly detectors: the affected
   tenant's error budget must show burn, at least one anomaly trigger
   must dump the flight recorder with events causally covering the
   trigger window, and the whole observable surface must be
   byte-stable across two runs of the same seed. *)
let obs_scenario ~seed =
  let obs = Obs.create ~flight:(Obs.Flight.create ()) ~anomaly:(Obs.Anomaly.create ()) () in
  let spec =
    match Obs.Slo.parse "t0:queue_wait<1,solve<5@0.95,errors<0.3;*:solve<30" with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let cfg =
    {
      Svc.default_config with
      Svc.run = run_config;
      hosts_per_job = 4;
      max_concurrent = 1;
      queue_capacity = 8;
      seed;
      faults = Svc.chaos_plan ~master_crash:true ~slow_hosts:1 ~slow_factor:1000. ();
    }
  in
  let svc = Svc.create ~obs ~slo:spec ~cfg ~testbed:(testbed 8) () in
  List.iteri
    (fun i cnf ->
      ignore
        (Svc.submit svc ~tenant:"t0" ~priority:Job.Normal
           ~label:(Printf.sprintf "obs-%d" i) cnf))
    [ php ~pigeons:6 ~holes:5; planted ~nvars:22 41; planted ~nvars:22 42 ];
  Svc.run svc;
  svc

let test_obs_slo_burn_and_flight_dump () =
  let svc = obs_scenario ~seed:7 in
  (* the SLO section shows budget burn for the affected tenant *)
  let tracker = match Svc.slo svc with Some t -> t | None -> Alcotest.fail "no slo tracker" in
  let objectives =
    match J.member "objectives" (Obs.Slo.to_json tracker ~now:(Grid.Sim.now (Svc.sim svc))) with
    | Some (J.List objs) -> objs
    | _ -> Alcotest.fail "slo json has no objectives"
  in
  let burned_for_t0 =
    List.exists
      (fun o ->
        match (J.member "tenant" o, J.member "budget_burned" o) with
        | Some (J.String "t0"), Some (J.Float b) -> b > 0.
        | _ -> false)
      objectives
  in
  check bool "t0 burned budget under chaos" true burned_for_t0;
  (* the chaos plan raised anomaly triggers (master failover at least) *)
  let anomalies = Svc.anomalies svc in
  check bool "anomaly triggers fired" true (anomalies <> []);
  check bool "master failover tripped" true
    (List.exists (fun (tr : Obs.Anomaly.trigger) -> tr.Obs.Anomaly.rule = "master-failover") anomalies);
  (* every trigger dumped the flight recorder; events causally cover
     the window up to the trigger *)
  let dumps = Svc.flight_dumps svc in
  check bool "at least one flight dump" true (dumps <> []);
  List.iter
    (fun (name, doc) ->
      check bool "canonical dump name" true
        (String.length name > 7 && String.sub name 0 7 = "FLIGHT-");
      let at = match J.member "at" doc with Some (J.Float a) -> a | _ -> Alcotest.fail "no at" in
      let win_from, win_to =
        match J.member "window" doc with
        | Some w -> (
            match (J.member "from" w, J.member "to" w) with
            | Some (J.Float a), Some (J.Float b) -> (a, b)
            | _ -> Alcotest.fail "window shape")
        | None -> Alcotest.fail "no window"
      in
      let events = match J.member "events" doc with Some (J.List es) -> es | _ -> [] in
      check bool "dump carries events" true (events <> []);
      let seqs, times =
        List.split
          (List.map
             (fun e ->
               match (J.member "seq" e, J.member "t" e) with
               | Some (J.Int s), Some (J.Float t) -> (s, t)
               | Some (J.Int s), Some (J.Int t) -> (s, float_of_int t)
               | _ -> Alcotest.fail "event shape")
             events)
      in
      check bool "events in causal (seq) order" true
        (List.for_all2 ( < )
           (List.filteri (fun i _ -> i < List.length seqs - 1) seqs)
           (List.tl seqs));
      List.iter
        (fun t ->
          check bool "event inside dump window" true (t >= win_from -. 1e-9 && t <= win_to +. 1e-9))
        times;
      check bool "window closes at the trigger" true (win_to <= at +. 1e-9))
    dumps

let test_obs_byte_stable_across_runs () =
  let capture svc =
    let now = Grid.Sim.now (Svc.sim svc) in
    let tracker = match Svc.slo svc with Some t -> t | None -> Alcotest.fail "no slo" in
    let slo = J.to_string (Obs.Slo.to_json tracker ~now) in
    let dumps =
      List.map (fun (name, doc) -> name ^ "\n" ^ J.to_string doc) (Svc.flight_dumps svc)
    in
    (* the metrics sections include wall-clock solver timings, so byte
       stability is asserted on the virtual-time-driven sections *)
    let report = Svc.report svc in
    let section k =
      match J.member k report with Some v -> J.to_string v | None -> Alcotest.fail (k ^ " missing")
    in
    (slo, String.concat "\n---\n" dumps, String.concat "\n" (List.map section [ "service"; "jobs"; "slo"; "anomalies" ]))
  in
  let s1, d1, r1 = capture (obs_scenario ~seed:7) in
  let s2, d2, r2 = capture (obs_scenario ~seed:7) in
  check Alcotest.string "slo section byte-stable" s1 s2;
  check Alcotest.string "flight dumps byte-stable" d1 d2;
  check Alcotest.string "report sections byte-stable" r1 r2

(* ---------- fault presets ---------- *)

module F = Grid.Fault

let plan =
  Alcotest.testable (fun ppf p -> Format.fprintf ppf "<plan of %d specs>" (List.length p)) ( = )

(* Each preset must expand to the plans of the code it replaced: the same
   specs, in the same order, from the same RNG draws.  The expected
   lists were printed (floats to 17 significant digits, so equality is
   exact) by a build of the code before the presets moved.
   [Service.chaos_plan]'s come from the old per-job [arm_chaos],
   instrumented to print the plan it armed for the only job of a service at seed 5: submitted at 2.5 s,
   started at 3 s on hosts [1; 2; 3] or [1], drawing from a fresh
   [Random.State.make [| 5; 0x5e47 |]], with [share_window = 1.5].
   [Gridsat]'s come from the CLI functions they replace.  Every preset's
   output must also pass [Fault.validate], which the service never
   called before. *)
let service_chaos_expected =
  [
    ( (3, false, true),
      [
        F.Flaky_host
          { host = 3; factor = 5.; period = 4.6738591890565573; from_t = 4.4643204751831806;
            until_t = 1000004.4643204752 };
        F.Flaky_host
          { host = 2; factor = 5.; period = 6.7973542079580263; from_t = 4.4309847590893581;
            until_t = 1000004.4309847591 };
        F.Crash_host { host = 2; at = 5.0150206632409446 };
        F.Crash_host { host = 1; at = 3.99513653280143 };
        F.Crash_master { at = 4.6107474712690983; restart_after = 1.8405469188803916 };
        F.Choke_link
          { src_site = None; dst_site = None; bytes_per_window = 4096; window = 1.5; from_t = 3.;
            until_t = 1000003. };
        F.Corrupt_messages
          { src_site = None; dst_site = None; p = 0.25; from_t = 3.; until_t = 1000003. };
      ] );
    ( (3, true, true),
      [
        F.Flaky_host
          { host = 3; factor = 5.; period = 4.6738591890565573; from_t = 4.4643204751831806;
            until_t = 1000004.4643204752 };
        F.Flaky_host
          { host = 2; factor = 5.; period = 6.7973542079580263; from_t = 4.4309847590893581;
            until_t = 1000004.4309847591 };
        F.Crash_host { host = 2; at = 5.0150206632409446 };
        F.Crash_host { host = 1; at = 3.99513653280143 };
        F.Crash_master { at = 4.6107474712690983; restart_after = infinity };
        F.Choke_link
          { src_site = None; dst_site = None; bytes_per_window = 4096; window = 1.5; from_t = 3.;
            until_t = 1000003. };
        F.Corrupt_messages
          { src_site = None; dst_site = None; p = 0.25; from_t = 3.; until_t = 1000003. };
      ] );
    ( (1, false, true),
      [
        F.Flaky_host
          { host = 1; factor = 5.; period = 6.9429752185196865; from_t = 3.7787664754306145;
            until_t = 1000003.7787664754 };
        F.Crash_master { at = 4.6107474712690983; restart_after = 1.8405469188803916 };
        F.Choke_link
          { src_site = None; dst_site = None; bytes_per_window = 4096; window = 1.5; from_t = 3.;
            until_t = 1000003. };
        F.Corrupt_messages
          { src_site = None; dst_site = None; p = 0.25; from_t = 3.; until_t = 1000003. };
      ] );
    ( (1, true, true),
      [
        F.Flaky_host
          { host = 1; factor = 5.; period = 6.9429752185196865; from_t = 3.7787664754306145;
            until_t = 1000003.7787664754 };
        F.Crash_master { at = 4.6107474712690983; restart_after = infinity };
        F.Choke_link
          { src_site = None; dst_site = None; bytes_per_window = 4096; window = 1.5; from_t = 3.;
            until_t = 1000003. };
        F.Corrupt_messages
          { src_site = None; dst_site = None; p = 0.25; from_t = 3.; until_t = 1000003. };
      ] );
    ( (3, false, false),
      [
        F.Slow_host { host = 3; at = 4.1993385519895066; factor = 5. };
        F.Slow_host { host = 2; at = 4.4309847590893581; factor = 5. };
        F.Crash_host { host = 2; at = 5.0150206632409446 };
        F.Crash_host { host = 1; at = 3.99513653280143 };
        F.Crash_master { at = 4.6107474712690983; restart_after = 1.8405469188803916 };
        F.Choke_link
          { src_site = None; dst_site = None; bytes_per_window = 4096; window = 1.5; from_t = 3.;
            until_t = 1000003. };
        F.Corrupt_messages
          { src_site = None; dst_site = None; p = 0.25; from_t = 3.; until_t = 1000003. };
      ] );
  ]

let test_service_chaos_plan () =
  List.iter
    (fun ((lease, standby, flaky), expected) ->
      let faults =
        Svc.chaos_plan ~master_crash:true ~corrupt_p:0.25 ~crash_hosts:2 ~slow_hosts:2
          ~slow_factor:5. ~flaky ~choke:4096 ()
      in
      let run = { Cfg.default with Cfg.standby; share_window = 1.5 } in
      let got =
        faults ~run ~start:3. ~hosts:(List.init lease (fun i -> i + 1))
          (Random.State.make [| 5; 0x5e47 |])
      in
      let name = Printf.sprintf "lease %d standby %b flaky %b" lease standby flaky in
      check plan name expected got;
      check bool (name ^ " validates") true (F.validate got = Ok ()))
    service_chaos_expected;
  let rejects name f =
    check bool name true (try ignore (f ()); false with Invalid_argument _ -> true)
  in
  rejects "corrupt_p above 1" (fun () -> Svc.chaos_plan ~corrupt_p:2. ());
  rejects "negative corrupt_p" (fun () -> Svc.chaos_plan ~corrupt_p:(-0.5) ());
  rejects "non-positive slow_factor" (fun () -> Svc.chaos_plan ~slow_hosts:1 ~slow_factor:0. ());
  check plan "slow_factor unchecked without slow hosts" []
    ((Svc.chaos_plan ~slow_factor:0. ()) ~run:Cfg.default ~start:0. ~hosts:[ 1 ]
       (Random.State.make [| 0 |]));
  (* the default plan is empty and leaves the service RNG untouched *)
  let rng = Random.State.make [| 5; 0x5e47 |] in
  let before = Random.State.copy rng in
  check plan "default is empty" []
    (Svc.default_config.Svc.faults ~run:Cfg.default ~start:3. ~hosts:[ 1; 2 ] rng);
  check int "default draws nothing" (Random.State.bits before) (Random.State.bits rng)

let gridsat_chaos_expected =
  [
    ( (false, false),
      [
        F.Crash_host { host = 1; at = 2. };
        F.Crash_master { at = 6.; restart_after = 4. };
        F.Drop_messages
          { src_site = None; dst_site = None; p = 0.1; from_t = 0.; until_t = infinity };
        F.Duplicate_messages { p = 0.05; extra = 0.5; from_t = 0.; until_t = infinity };
      ] );
    ( (true, false),
      [
        F.Crash_host { host = 1; at = 2. };
        F.Crash_master { at = 6.; restart_after = infinity };
        F.Drop_messages
          { src_site = None; dst_site = None; p = 0.1; from_t = 0.; until_t = infinity };
        F.Duplicate_messages { p = 0.05; extra = 0.5; from_t = 0.; until_t = infinity };
      ] );
    ( (false, true),
      [
        F.Crash_host { host = 1; at = 2. };
        F.Partition_site { site = "standby"; from_t = 6.; until_t = 18. };
        F.Drop_messages
          { src_site = None; dst_site = None; p = 0.1; from_t = 0.; until_t = infinity };
        F.Duplicate_messages { p = 0.05; extra = 0.5; from_t = 0.; until_t = infinity };
      ] );
    ( (true, true),
      [
        F.Crash_host { host = 1; at = 2. };
        F.Partition_site { site = "standby"; from_t = 6.; until_t = 18. };
        F.Drop_messages
          { src_site = None; dst_site = None; p = 0.1; from_t = 0.; until_t = infinity };
        F.Duplicate_messages { p = 0.05; extra = 0.5; from_t = 0.; until_t = infinity };
      ] );
  ]

let straggler_expected =
  [
    ( false,
      [
        F.Slow_host { host = 1; at = 1.855013241130322; factor = 7.4166011137205956 };
        F.Slow_host { host = 2; at = 2.7371818500497778; factor = 8.3132496297631064 };
        F.Slow_host { host = 3; at = 1.7121790467096067; factor = 9.9597144570474274 };
      ] );
    ( true,
      [
        F.Flaky_host
          { host = 1; factor = 7.4166011137205956; period = 7.4743637000995555;
            from_t = 1.855013241130322; until_t = infinity };
        F.Flaky_host
          { host = 2; factor = 7.4243580934192135; period = 7.9597144570474274;
            from_t = 2.1566248148815532; until_t = infinity };
        F.Flaky_host
          { host = 3; factor = 9.3431510431491755; period = 4.5268939122086369;
            from_t = 2.3801022116847124; until_t = infinity };
      ] );
  ]

let test_gridsat_presets () =
  let pinned name expected got =
    check plan name expected got;
    check bool (name ^ " validates") true (F.validate got = Ok ())
  in
  List.iter
    (fun ((standby, partition), expected) ->
      pinned
        (Printf.sprintf "chaos standby %b partition %b" standby partition)
        expected
        (C.Gridsat.chaos_plan ~standby ~partition))
    gridsat_chaos_expected;
  List.iter
    (fun (flaky, expected) ->
      pinned (Printf.sprintf "stragglers flaky %b" flaky) expected
        (C.Gridsat.straggler_plan ~n:3 ~flaky ~seed:11))
    straggler_expected;
  (* the --choke 5000 --corrupt-p 0.2 head of a solve plan (share window 10) *)
  pinned "link faults"
    [
      F.Choke_link
        { src_site = None; dst_site = None; bytes_per_window = 5000; window = 10.; from_t = 0.;
          until_t = infinity };
      F.Corrupt_messages
        { src_site = None; dst_site = None; p = 0.2; from_t = 0.; until_t = infinity };
    ]
    (C.Gridsat.link_faults ~corrupt_p:0.2 ~choke:5000 ~window:10. ~from_t:0. ~until_t:infinity);
  check plan "no link faults" []
    (C.Gridsat.link_faults ~corrupt_p:0. ~choke:0 ~window:10. ~from_t:0. ~until_t:infinity)

let () =
  Alcotest.run "service"
    [
      ( "admission",
        [
          Alcotest.test_case "priority and fairness" `Quick test_admission_priority_and_fairness;
          Alcotest.test_case "starvation guard" `Quick test_admission_starvation_guard;
          Alcotest.test_case "bounds and retry hint" `Quick test_admission_bounds_and_retry_hint;
        ] );
      ( "cache",
        [
          Alcotest.test_case "canonical digest" `Quick test_cache_digest_canonical;
          Alcotest.test_case "store and verify" `Quick test_cache_store_and_verify;
          QCheck_alcotest.to_alcotest prop_cache_digest_matches_legacy;
          QCheck_alcotest.to_alcotest prop_cache_digest_wide_matches_legacy;
        ] );
      ( "joblog",
        [
          Alcotest.test_case "replay and scrub" `Quick test_joblog_replay_and_scrub;
          Alcotest.test_case "series follow a recovered log" `Quick
            test_series_follow_recovered_joblog;
        ] );
      ( "scheduling",
        [
          Alcotest.test_case "single job verdict" `Quick test_single_job_verdict;
          Alcotest.test_case "cache hit on resubmission" `Quick test_cache_hit_on_resubmission;
          Alcotest.test_case "deadline releases pool" `Quick test_deadline_expiry_releases_pool;
          Alcotest.test_case "burst sheds with hint" `Quick test_burst_sheds_with_hint;
          Alcotest.test_case "preemption requeues victim" `Quick test_preemption_requeues_victim;
          Alcotest.test_case "deadline races failover" `Quick test_deadline_races_master_failover;
          Alcotest.test_case "cancel mid-run" `Quick test_cancel_mid_run;
          Alcotest.test_case "finished runs released" `Quick test_finished_runs_released;
        ] );
      ( "brownout",
        [
          Alcotest.test_case "sheds low and stretches deadlines" `Quick
            test_brownout_sheds_and_stretches;
          Alcotest.test_case "health table round-trips" `Quick test_report_health_table_roundtrip;
          Alcotest.test_case "shed record ends the burn dump" `Quick
            test_brownout_shed_record_in_burn_dump;
        ] );
      ( "chaos-matrix",
        [
          Alcotest.test_case "every job terminal" `Quick test_chaos_matrix_every_job_terminal;
          Alcotest.test_case "deterministic replay" `Quick test_chaos_matrix_deterministic_replay;
          Alcotest.test_case "invariant across seeds" `Slow test_lifecycle_invariant_across_seeds;
        ] );
      ( "observability",
        [
          Alcotest.test_case "slo burn + flight dump" `Quick test_obs_slo_burn_and_flight_dump;
          Alcotest.test_case "byte-stable across runs" `Quick test_obs_byte_stable_across_runs;
        ] );
      ( "fault presets",
        [
          Alcotest.test_case "service chaos plan pinned" `Quick test_service_chaos_plan;
          Alcotest.test_case "gridsat presets pinned" `Quick test_gridsat_presets;
        ] );
    ]

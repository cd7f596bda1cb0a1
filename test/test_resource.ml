(* Resource-exhaustion suite: watermark queues, windowed byte budgets,
   disk quotas and the faults that exercise them.

   The layer's contract has three legs, each tested here:
   - bounded queues shed the least valuable traffic and lose nothing
     silently; they hold share batches only, so exhaustion degrades
     sharing, not correctness;
   - per-link share budgets bound the bytes any link carries inside one
     virtual-time window, deterministically;
   - disk quotas force emergency compaction, then an explicit degraded
     mode that appends-and-counts rather than raising, and exits on
     relief. *)

module C = Gridsat_core
module Cfg = C.Config
module Flow = C.Flow
module F = Grid.Fault
module S = Gridsat_service
module Svc = S.Service
module Job = S.Job

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let answer_kind = function
  | C.Master.Sat _ -> "SAT"
  | C.Master.Unsat -> "UNSAT"
  | C.Master.Unknown _ -> "UNKNOWN"

let has_event p (r : C.Master.result) = List.exists (fun e -> p e.C.Events.kind) r.C.Master.events

(* Same tuning as the chaos suite: eager splitting, frequent share
   flushes, light checkpoints — small instances still exercise the
   machinery. *)
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

let testbed n = C.Testbed.uniform ~n ~speed:500. ()

let solve ?(config = run_config) ?(fault_plan = []) ?on_master ?(n = 6) cnf =
  C.Gridsat.solve ~config ~fault_plan ?on_master ~testbed:(testbed n) cnf

(* ---------- watermark queue ---------- *)

let test_queue_shed_lowest_value () =
  let q = Flow.queue ~high:3 ~value:(fun x -> x) () in
  check (Alcotest.list int) "no shed below the watermark" [] (Flow.push q 5);
  ignore (Flow.push q 1);
  ignore (Flow.push q 3);
  check (Alcotest.list int) "lowest value shed first" [ 1 ] (Flow.push q 4);
  check int "depth restored to the watermark" 3 (Flow.depth q);
  check int "peak saw the overflow" 4 (Flow.peak q);
  check int "shed counted" 1 (Flow.shed_count q);
  check (Alcotest.list int) "FIFO order preserved for survivors" [ 5; 3; 4 ] (Flow.drain q)

let test_queue_shed_ties_oldest_first () =
  let q = Flow.queue ~high:2 ~value:(fun _ -> 0) () in
  ignore (Flow.push q 10);
  ignore (Flow.push q 20);
  check (Alcotest.list int) "oldest among equals goes first" [ 10 ] (Flow.push q 30);
  check (Alcotest.list int) "younger equals survive" [ 20; 30 ] (Flow.drain q)

let test_queue_pressure_hysteresis () =
  let q = Flow.queue ~low:1 ~high:3 ~value:(fun _ -> 0) () in
  ignore (Flow.push q 1);
  ignore (Flow.push q 2);
  check bool "below high: no pressure" false (Flow.under_pressure q);
  ignore (Flow.push q 3);
  check bool "latched at the high watermark" true (Flow.under_pressure q);
  ignore (Flow.pop q);
  check bool "still latched between the watermarks" true (Flow.under_pressure q);
  ignore (Flow.pop q);
  check bool "released at the low watermark" false (Flow.under_pressure q)

(* Property: nothing is silently lost — every pushed item is either still
   queued, in its push order, or was returned to the caller as shed, and
   the queue ends no deeper than its watermark. *)
let prop_shed_conserves_items =
  let gen = QCheck.Gen.(list_size (int_bound 40) (int_bound 100)) in
  let print items = String.concat ";" (List.map string_of_int items) in
  QCheck.Test.make ~count:300 ~name:"watermark shed conserves every item"
    (QCheck.make ~print gen) (fun values ->
      let items = List.mapi (fun i v -> (v, i)) values in
      let q = Flow.queue ~high:4 ~value:fst () in
      let shed = List.concat_map (fun it -> Flow.push q it) items in
      let kept = Flow.drain q in
      let in_push_order = List.sort (fun (_, a) (_, b) -> compare a b) in
      List.length kept <= 4 && in_push_order (kept @ shed) = items && in_push_order kept = kept)

(* ---------- windowed byte budget ---------- *)

let test_budget_window_discipline () =
  let b = Flow.budget ~bytes_per_window:100 ~window:5. in
  check bool "first charge admitted" true (Flow.admit b ~key:1 ~now:0. ~bytes:60);
  check int "remaining reflects the charge" 40 (Flow.remaining b ~key:1 ~now:1.);
  check bool "over-budget charge refused" false (Flow.admit b ~key:1 ~now:2. ~bytes:60);
  check bool "another key has its own ledger" true (Flow.admit b ~key:2 ~now:2. ~bytes:60);
  check bool "the next window readmits" true (Flow.admit b ~key:1 ~now:5.1 ~bytes:60);
  check int "refusals counted" 1 (Flow.budget_shed_items b);
  check int "refused bytes counted" 60 (Flow.budget_shed_bytes b);
  check int "admitted bytes counted" 180 (Flow.charged_total b);
  check int "window peak is the largest single-window charge" 60 (Flow.window_peak b);
  check bool "window peak bounded by the budget" true (Flow.window_peak b <= 100)

(* ---------- choke-link ledger ---------- *)

let test_choke_ledger_deterministic () =
  let sim = Grid.Sim.create () in
  let specs =
    [
      F.Choke_link
        {
          src_site = Some "east";
          dst_site = Some "west";
          bytes_per_window = 100;
          window = 10.;
          from_t = 0.;
          until_t = infinity;
        };
    ]
  in
  (match F.validate specs with Ok () -> () | Error m -> Alcotest.fail m);
  let ctl = F.arm ~sim ~seed:7 ~on_crash:ignore ~on_hang:ignore specs in
  check bool "within budget delivers" true
    (F.decide ctl ~src_site:"east" ~dst_site:"west" ~bytes:60 = Grid.Everyware.Deliver);
  (* both directions share one ledger: the model is a physical pipe *)
  check bool "reverse direction draws on the same window" true
    (F.decide ctl ~src_site:"west" ~dst_site:"east" ~bytes:60 = Grid.Everyware.Drop);
  check bool "a non-matching link is unaffected" true
    (F.decide ctl ~src_site:"east" ~dst_site:"north" ~bytes:60 = Grid.Everyware.Deliver);
  check int "choked refusal counted" 1 (F.counters ctl).F.choked;
  (* advance virtual time into the next window: the budget resets *)
  ignore (Grid.Sim.schedule_at sim ~time:10.5 (fun () -> ()));
  ignore (Grid.Sim.step sim);
  check bool "the next window readmits" true
    (F.decide ctl ~src_site:"east" ~dst_site:"west" ~bytes:60 = Grid.Everyware.Deliver)

(* ---------- journal and joblog disk quotas ---------- *)

let test_journal_quota_degraded_cycle () =
  let open C.Journal in
  let j = create ~compact_every:100 () in
  for i = 1 to 50 do
    append j (Registered { client = i })
  done;
  check bool "the journal occupies real bytes" true (bytes j > 0);
  check bool "no quota: never degraded" false (degraded j);
  (* a 1-byte quota no compaction can satisfy: emergency compaction
     first, then explicit degraded mode *)
  set_quota j ~quota:1;
  check bool "tightening forced an emergency compaction" true (forced_compactions j > 0);
  check bool "still over after compacting: degraded" true (degraded j);
  let before = degraded_entries j in
  append j (Registered { client = 99 });
  check bool "appends continue while degraded, counted" true (degraded_entries j > before);
  check bool "degraded appends still replay" true (Hashtbl.mem (replay j).clients 99);
  check bool "occupancy peak tracked" true (bytes_peak j >= bytes j);
  set_quota j ~quota:0;
  check bool "quota relief exits degraded mode" false (degraded j)

let test_joblog_quota_degraded_cycle () =
  let open S.Joblog in
  let l = create () in
  append l (Submitted { id = 1; tenant = "t"; priority = "normal"; digest = "d"; deadline = None });
  append l (Admitted { id = 1 });
  check bool "no quota: never degraded" false (degraded l);
  (* append-only store: nothing to compact, degraded until relief *)
  set_quota l ~quota:1;
  check bool "tightening below the size degrades immediately" true (degraded l);
  let before = degraded_entries l in
  append l (Finished { id = 1; terminal = "completed" });
  check bool "appends continue while degraded, counted" true (degraded_entries l > before);
  check int "no record was dropped" 3 (List.length (entries l));
  check bool "size peak tracked" true (bytes_peak l >= bytes l);
  set_quota l ~quota:0;
  check bool "quota relief exits degraded mode" false (degraded l)

(* ---------- duplicate suppression ---------- *)

(* Inject the same (sound: it comes from the original CNF) clause twice
   from a busy client.  The master relays both batches; every receiving
   client must enqueue the clause once and suppress the copy. *)
let dup_cnf = Workloads.Php.instance ~pigeons:7 ~holes:6

let dup_clause =
  List.fold_left
    (fun best c -> if Array.length c < Array.length best then c else best)
    (Sat.Arena.clause (Sat.Cnf.clauses dup_cnf) 0)
    (Clause_lists.to_list (Sat.Cnf.clauses dup_cnf))

let solve_injecting first second =
  solve
    ~on_master:(fun m ->
      (* wait until at least two clients are busy, so the relays have a
         recipient that is actually solving *)
      let rec arm () =
        C.Master.schedule m ~delay:2. (fun () ->
            match C.Master.busy_client_ids m with
            | c :: _ :: _ ->
                C.Master.inject m ~src:c (C.Protocol.Shares { clauses = [ first ] });
                C.Master.inject m ~src:c (C.Protocol.Shares { clauses = [ second ] })
            | _ -> arm ())
      in
      arm ())
    dup_cnf

let test_share_dup_suppressed () =
  let r = solve_injecting dup_clause dup_clause in
  check Alcotest.string "verdict unharmed by duplicate shares" "UNSAT"
    (answer_kind r.C.Master.answer);
  check bool "duplicates suppressed at ingestion" true (C.Master.counter r "dup_suppressed" > 0)

(* The copy arrives with its literals in another order.  Suppressed, it
   leaves every solver as the exact copy does, so the whole run — and its
   suppression count — is the exact-copy run. *)
let test_share_dup_permuted_suppressed () =
  let permuted = Array.of_list (List.rev (Array.to_list dup_clause)) in
  check bool "a real permutation" true (permuted <> dup_clause);
  let exact = solve_injecting dup_clause dup_clause in
  let r = solve_injecting dup_clause permuted in
  check Alcotest.string "verdict" "UNSAT" (answer_kind r.C.Master.answer);
  check int "suppressed as the exact copy is" (C.Master.counter exact "dup_suppressed")
    (C.Master.counter r "dup_suppressed");
  check bool "something suppressed" true (C.Master.counter r "dup_suppressed" > 0)

(* ---------- per-link share budgets ---------- *)

let budget_config = { run_config with Cfg.share_budget = 512; share_window = 5. }

let test_share_budget_bounds_link_bytes () =
  let cnf = Workloads.Php.instance ~pigeons:7 ~holes:6 in
  let baseline = solve cnf in
  check Alcotest.string "baseline is unsat" "UNSAT" (answer_kind baseline.C.Master.answer);
  let r = solve ~config:budget_config cnf in
  check Alcotest.string "verdict unchanged under a share budget" "UNSAT"
    (answer_kind r.C.Master.answer);
  check bool "something was still shared" true (C.Master.counter r "share_link_peak" > 0);
  check bool "per-link window peak bounded by the budget" true
    (C.Master.counter r "share_link_peak" <= 512);
  check bool "the budget actually refused clauses" true (C.Master.counter r "shares_shed" > 0);
  check bool "sheds visible in the event log" true
    (has_event (function C.Events.Shares_shed _ -> true | _ -> false) r);
  (* byte-stability: the same seed must charge the same windows *)
  let again = solve ~config:budget_config cnf in
  check bool "identical event timeline on replay" true
    (r.C.Master.events = again.C.Master.events);
  check int "share bytes byte-stable" (C.Master.counter r "share_bytes")
    (C.Master.counter again "share_bytes");
  check int "sheds byte-stable" (C.Master.counter r "shares_shed")
    (C.Master.counter again "shares_shed")

(* ---------- bounded outage outbox ---------- *)

(* Regression for the unbounded-outbox hazard: a long master outage with
   a tiny outbox cap must shed share batches (the sheddable, low-value
   traffic) while every control envelope — results, split registrations —
   survives to reconciliation, so the verdict is unchanged. *)
let outage_config =
  {
    run_config with
    Cfg.share_flush_interval = 0.5;
    retry_base = 0.25;
    retry_max_attempts = 3;
    resync_grace = 5.;
    outbox_cap = 2;
  }

let test_outbox_bounded_during_outage () =
  let cnf = Workloads.Php.instance ~pigeons:8 ~holes:7 in
  let baseline = solve ~config:outage_config cnf in
  check Alcotest.string "baseline is unsat" "UNSAT" (answer_kind baseline.C.Master.answer);
  let t = baseline.C.Master.time in
  let plan =
    [
      F.Crash_master
        {
          at = Float.max 4. (0.25 *. t);
          restart_after = Float.max 25. (0.4 *. t);
          by_verdict = false;
        };
    ]
  in
  let r = solve ~config:outage_config ~fault_plan:plan cnf in
  check Alcotest.string "verdict survives the bounded outage" "UNSAT"
    (answer_kind r.C.Master.answer);
  check int "the master crashed once" 1 (C.Master.counter r "master_crashes");
  check bool "the outage outbox filled past its cap" true (C.Master.counter r "outbox_peak" >= 2);
  check bool "low-value share traffic was shed" true (C.Master.counter r "outbox_shed" > 0);
  check bool "sheds visible in the event log" true
    (has_event (function C.Events.Outbox_shed _ -> true | _ -> false) r);
  (* same plan, same seed: the bounded timeline replays exactly *)
  let again = solve ~config:outage_config ~fault_plan:plan cnf in
  check bool "identical event timeline on replay" true
    (r.C.Master.events = again.C.Master.events)

(* ---------- disk-full fault against a live run ---------- *)

let test_disk_full_degrades_and_recovers () =
  let cnf = Workloads.Php.instance ~pigeons:6 ~holes:5 in
  let baseline = solve cnf in
  let t = baseline.C.Master.time in
  let split_at =
    (List.find
       (fun e -> match e.C.Events.kind with C.Events.Split_completed _ -> true | _ -> false)
       baseline.C.Master.events)
      .C.Events.time
  in
  (* quota 1: no compaction can satisfy it, so degraded mode is certain.
     Disk_full perturbs no messages, so the faulted run keeps the
     baseline's timeline: the window opens before its first completed
     split, whose journal appends land degraded, and relief lands
     mid-run, before the verdict *)
  let plan =
    [ F.Disk_full { at = 0.5 *. split_at; quota = 1; until_t = 0.5 *. (split_at +. t) } ]
  in
  let r = solve ~fault_plan:plan cnf in
  check Alcotest.string "verdict survives a full disk" "UNSAT" (answer_kind r.C.Master.answer);
  check bool "quota crossing forced an emergency compaction" true
    (C.Master.counter r "forced_compactions" > 0);
  check bool "degraded appends were counted" true (C.Master.counter r "degraded_entries" > 0);
  check bool "degraded entry visible in the event log" true
    (has_event (function C.Events.Journal_degraded _ -> true | _ -> false) r);
  check bool "recovery visible after quota relief" true
    (has_event (function C.Events.Journal_recovered _ -> true | _ -> false) r)

(* ---------- service: joblog quota and resource pressure ---------- *)

let svc_config =
  {
    Svc.default_config with
    Svc.run = run_config;
    hosts_per_job = 2;
    max_concurrent = 2;
    queue_capacity = 8;
    starvation_after = 30.;
  }

let test_service_joblog_quota_pressure () =
  let obs = Obs.create ~flight:(Obs.Flight.create ()) ~anomaly:(Obs.Anomaly.create ()) () in
  let cfg = { svc_config with Svc.run = { run_config with Cfg.journal_quota = 1 } } in
  let svc = Svc.create ~obs ~cfg ~testbed:(testbed 4) () in
  (match Svc.submit svc ~tenant:"acme" ~priority:Job.Normal (Workloads.Php.instance ~pigeons:6 ~holes:5) with
  | Svc.Accepted -> ()
  | _ -> Alcotest.fail "job must be accepted");
  Svc.run svc;
  let s = Svc.stats svc in
  check int "the job completed" 1 s.Svc.completed;
  check bool "joblog degraded appends counted" true (s.Svc.joblog_degraded_entries > 0);
  check bool "resource pressure asserted while the quota holds" true s.Svc.resource_pressure;
  check bool "durability alarm tripped" true
    (List.exists
       (fun (tr : Obs.Anomaly.trigger) -> tr.Obs.Anomaly.rule = "joblog-degraded")
       (Svc.anomalies svc));
  check bool "the alarm dumped the flight recorder" true (Svc.flight_dumps svc <> [])

let () =
  Alcotest.run "resource"
    [
      ( "flow-queue",
        [
          Alcotest.test_case "shed lowest value first" `Quick test_queue_shed_lowest_value;
          Alcotest.test_case "shed ties oldest first" `Quick test_queue_shed_ties_oldest_first;
          Alcotest.test_case "pressure hysteresis" `Quick test_queue_pressure_hysteresis;
          QCheck_alcotest.to_alcotest prop_shed_conserves_items;
        ] );
      ( "flow-budget",
        [
          Alcotest.test_case "window discipline" `Quick test_budget_window_discipline;
          Alcotest.test_case "choke ledger deterministic" `Quick test_choke_ledger_deterministic;
        ] );
      ( "disk-quota",
        [
          Alcotest.test_case "journal degraded cycle" `Quick test_journal_quota_degraded_cycle;
          Alcotest.test_case "joblog degraded cycle" `Quick test_joblog_quota_degraded_cycle;
          Alcotest.test_case "disk-full degrades and recovers" `Slow
            test_disk_full_degrades_and_recovers;
        ] );
      ( "sharing",
        [
          Alcotest.test_case "duplicate shares suppressed" `Slow test_share_dup_suppressed;
          Alcotest.test_case "permuted duplicate suppressed" `Slow
            test_share_dup_permuted_suppressed;
          Alcotest.test_case "budget bounds link bytes" `Slow test_share_budget_bounds_link_bytes;
        ] );
      ( "outbox",
        [
          Alcotest.test_case "bounded during a long outage" `Slow
            test_outbox_bounded_during_outage;
        ] );
      ( "service",
        [
          Alcotest.test_case "joblog quota pressure" `Slow test_service_joblog_quota_pressure;
        ] );
    ]

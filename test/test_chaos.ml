(* Chaos suite: every fault plan must leave the answer untouched.

   Each scenario runs a workload fault-free, then under an injected fault
   plan, and checks that (1) the verdict is identical, (2) the recovery
   machinery is visible in the event log, and (3) the same plan and seed
   replay the identical event timeline.

   Fault instants are derived from the workload's fault-free duration so
   every plan actually lands mid-run regardless of instance size. *)

module C = Gridsat_core
module Cfg = C.Config
module F = Grid.Fault

let check = Alcotest.check
let bool = Alcotest.bool

(* ---------- apparatus ---------- *)

(* Six uniform hosts split across two sites, master on the east side, so
   site partitions cut real traffic.  Inter-site links use the default
   wide-area parameters (40 ms, 2 MB/s). *)
let testbed2site () =
  let base = C.Testbed.uniform ~n:6 ~speed:500. () in
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
  { base with C.Testbed.name = "chaos-2site"; master_site = "east"; hosts }

(* Eager splitting, light checkpoints on a short period, quick failure
   detection: the fault-tolerance machinery gets exercised even on small
   instances. *)
let chaos_config =
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

(* Certified runs: every UNSAT claim must carry a DRUP fragment that
   checks under the branch's journaled guiding path.  Clause sharing is
   off (a foreign clause is not derivable from the receiver's own
   fragment), as [Config.validate] demands. *)
let certify_config = { chaos_config with Cfg.certify = true; share_max_len = 0 }

(* Straggler defense on: health-aware ranking, adaptive deadlines and
   hedged re-execution. *)
let hedge_config =
  {
    chaos_config with
    Cfg.hedge = true;
    (* a fine monitor tick so the p99 crossing is noticed promptly *)
    heartbeat_period = 2.;
    (* no clause sharing: a straggler's branch cannot be refuted for free
       by imported clauses, so the stuck copy really is stuck — the
       scenario the hedge exists for *)
    share_max_len = 0;
  }

let workloads =
  [
    ("php-6-5", Workloads.Php.instance ~pigeons:6 ~holes:5);
    ("php-7-6", Workloads.Php.instance ~pigeons:7 ~holes:6);
    ("planted-30", Workloads.Random_sat.planted ~nvars:30 ~ratio:5.0 ~seed:11 ());
  ]

let answer_kind = function
  | C.Master.Sat _ -> "SAT"
  | C.Master.Unsat -> "UNSAT"
  | C.Master.Unknown _ -> "UNKNOWN"

let has_event p (r : C.Master.result) = List.exists (fun e -> p e.C.Events.kind) r.C.Master.events

let solve ?(config = chaos_config) ?(fault_plan = []) ?on_master ?testbed cnf =
  let testbed = match testbed with Some tb -> tb | None -> testbed2site () in
  C.Gridsat.solve ~config ~fault_plan ?on_master ~testbed cnf

(* A scenario bundles a fault plan (parameterised by the fault-free run
   time) with the events that prove the machinery reacted.  Proof events
   are only required of UNSAT workloads: those cannot terminate while the
   faulted host's subproblem is unaccounted for, so detection and
   recovery must appear; a SAT run may legitimately finish first. *)
type scenario = {
  sname : string;
  config : Cfg.t;
  plan : float -> F.spec list;
  proof : (C.Events.kind -> bool) list;
}

(* host 1 registers first and receives the initial problem; it saves an
   initial checkpoint the moment the problem arrives *)
let crash_time t = Float.max 3. (0.3 *. t)

let scenarios =
  [
    {
      sname = "crash";
      config = chaos_config;
      plan = (fun t -> [ F.Crash_host { host = 1; at = crash_time t } ]);
      proof =
        [
          (function C.Events.Host_crashed 1 -> true | _ -> false);
          (function C.Events.Client_suspected { client = 1 } -> true | _ -> false);
          (function C.Events.Recovered_from_checkpoint { client = 1; _ } -> true | _ -> false);
        ];
    };
    {
      sname = "hang";
      config = chaos_config;
      plan = (fun t -> [ F.Hang_host { host = 1; at = crash_time t } ]);
      proof =
        [
          (function C.Events.Host_hung 1 -> true | _ -> false);
          (function C.Events.Client_suspected { client = 1 } -> true | _ -> false);
          (function C.Events.Recovered_from_checkpoint { client = 1; _ } -> true | _ -> false);
        ];
    };
    {
      sname = "partition";
      (* the lease must outlive the partition or the whole west side gets
         written off; the default retry schedule spans the outage *)
      config = { chaos_config with Cfg.suspect_timeout = 1000. };
      plan =
        (fun t ->
          [ F.Partition_site { site = "west"; from_t = 0.2 *. t; until_t = 0.65 *. t } ]);
      proof = [];
    };
    {
      sname = "loss-p02";
      config = chaos_config;
      plan =
        (fun _ ->
          [
            F.Drop_messages
              { src_site = None; dst_site = None; p = 0.2; from_t = 0.; until_t = infinity };
          ]);
      proof = [ (function C.Events.Message_retried _ -> true | _ -> false) ];
    };
    {
      sname = "corrupt-p02";
      config = chaos_config;
      plan =
        (fun _ ->
          [
            F.Corrupt_messages
              { src_site = None; dst_site = None; p = 0.02; from_t = 0.; until_t = infinity };
          ]);
      proof = [ (function C.Events.Corrupt_message_detected _ -> true | _ -> false) ];
    };
    {
      sname = "corrupt-p05-certified";
      config = certify_config;
      plan =
        (fun _ ->
          [
            F.Corrupt_messages
              { src_site = None; dst_site = None; p = 0.05; from_t = 0.; until_t = infinity };
          ]);
      proof =
        [
          (function C.Events.Corrupt_message_detected _ -> true | _ -> false);
          (function C.Events.Unsat_fragment_certified _ -> true | _ -> false);
        ];
    };
    {
      sname = "straggler";
      config = hedge_config;
      plan = (fun t -> [ F.Slow_host { host = 1; at = Float.max 2. (0.2 *. t); factor = 20. } ]);
      proof = [ (function C.Events.Host_slowed { host = 1; _ } -> true | _ -> false) ];
    };
    {
      sname = "flaky";
      config = hedge_config;
      plan =
        (fun t ->
          [
            F.Flaky_host
              {
                host = 1;
                factor = 10.;
                period = Float.max 2. (0.2 *. t);
                from_t = Float.max 1. (0.1 *. t);
                until_t = infinity;
              };
          ]);
      proof = [ (function C.Events.Host_slowed { host = 1; _ } -> true | _ -> false) ];
    };
    {
      sname = "choke";
      (* a saturated fabric for the first 60% of the run: every site pair
         shares a 4 KB window, so the burst of initial problem transfers
         overruns it and the reliable channel must retry into later
         windows; the choke lifts before exhausted retry chains could
         wedge a transfer whose payload exceeds a whole window *)
      config = chaos_config;
      plan =
        (fun t ->
          [
            F.Choke_link
              {
                src_site = None;
                dst_site = None;
                bytes_per_window = 4096;
                window = 2.;
                from_t = 0.;
                until_t = Float.max 3. (0.6 *. t);
              };
          ]);
      proof = [ (function C.Events.Message_retried _ -> true | _ -> false) ];
    };
    {
      sname = "disk-full";
      config = chaos_config;
      (* a 1-byte quota no compaction can satisfy, lifted mid-run: the
         journal must enter degraded mode and recover on relief.  The
         fault perturbs no messages, so the faulted run keeps the
         baseline timeline and both instants land inside it. *)
      plan = (fun t -> [ F.Disk_full { at = 0.3 *. t; quota = 1; until_t = 0.6 *. t } ]);
      proof =
        [
          (function C.Events.Forced_compaction _ -> true | _ -> false);
          (function C.Events.Journal_degraded _ -> true | _ -> false);
          (function C.Events.Journal_recovered _ -> true | _ -> false);
        ];
    };
    {
      sname = "choke-disk-full";
      config = chaos_config;
      (* both resource faults at once; the disk never recovers, so the
         journal stays degraded to the verdict *)
      plan =
        (fun t ->
          [
            F.Choke_link
              {
                src_site = None;
                dst_site = None;
                bytes_per_window = 4096;
                window = 2.;
                from_t = 0.;
                until_t = Float.max 3. (0.6 *. t);
              };
            F.Disk_full { at = Float.max 2. (0.2 *. t); quota = 1; until_t = infinity };
          ]);
      proof =
        [
          (function C.Events.Message_retried _ -> true | _ -> false);
          (function C.Events.Journal_degraded _ -> true | _ -> false);
        ];
    };
    {
      sname = "master-crash";
      (* a tight retry schedule so clients detect the outage quickly, and a
         short grace so reconciliation lands well before the run ends *)
      config =
        { chaos_config with Cfg.retry_base = 0.5; retry_max_attempts = 4; resync_grace = 5. };
      plan =
        (fun t ->
          [
            F.Crash_master
              {
                at = Float.max 4. (0.3 *. t);
                restart_after = Float.max 10. (0.15 *. t);
                by_verdict = false;
              };
          ]);
      proof =
        [
          (function C.Events.Master_crashed -> true | _ -> false);
          (function C.Events.Master_restarted -> true | _ -> false);
          (function C.Events.Client_resynced _ -> true | _ -> false);
        ];
    };
  ]

(* ---------- the matrix ---------- *)

let run_scenario s (wname, cnf) () =
  let baseline = solve ~config:s.config cnf in
  let plan = s.plan baseline.C.Master.time in
  let master = ref None in
  let faulted =
    solve ~config:s.config ~fault_plan:plan ~on_master:(fun m -> master := Some m) cnf
  in
  check bool "fault-free run produces a real verdict" true
    (answer_kind baseline.C.Master.answer <> "UNKNOWN");
  check Alcotest.string
    (Printf.sprintf "%s/%s: verdict unchanged under faults" s.sname wname)
    (answer_kind baseline.C.Master.answer)
    (answer_kind faulted.C.Master.answer);
  if answer_kind baseline.C.Master.answer = "UNSAT" then
    List.iteri
      (fun i p ->
        check bool (Printf.sprintf "%s/%s: proof event %d present" s.sname wname i) true
          (has_event p faulted))
      s.proof;
  (* a finished run holds no host back from the pool *)
  (match !master with
  | Some m ->
      check (Alcotest.list Alcotest.int)
        (Printf.sprintf "%s/%s: no host left Reserved" s.sname wname)
        [] (C.Master.reserved_hosts m)
  | None -> Alcotest.fail "on_master was not called");
  (* same plan, same seed: the timeline must replay exactly *)
  let again = solve ~config:s.config ~fault_plan:plan cnf in
  check bool
    (Printf.sprintf "%s/%s: identical event timeline on replay" s.sname wname)
    true
    (faulted.C.Master.events = again.C.Master.events)

(* Partition runs generate retries only when critical traffic crosses the
   cut; assert it on the workload where splitting reliably spans sites. *)
let test_partition_retries () =
  let s = List.find (fun s -> s.sname = "partition") scenarios in
  let cnf = Workloads.Php.instance ~pigeons:7 ~holes:6 in
  let baseline = solve ~config:s.config cnf in
  let r = solve ~config:s.config ~fault_plan:(s.plan baseline.C.Master.time) cnf in
  check bool "messages were dropped by the cut" true (C.Master.counter r "dropped_messages" > 0);
  check bool "reliable channel retried across the cut" true
    (has_event (function C.Events.Message_retried _ -> true | _ -> false) r)

(* The CLI's [--chaos] run (uniform testbed of 6 hosts, the canned chaos
   plan) on php-7-6: every snapshot the master restores is one
   checkpoint recovery, so the registry's restore count and the run's
   recovery count agree.  Each seed recovers from a checkpoint at least
   once. *)
let test_restores_match_recoveries () =
  let config seed =
    {
      Cfg.default with
      Cfg.seed;
      split_timeout = 1.;
      checkpoint = Cfg.Light;
      checkpoint_period = 2.;
      heartbeat_period = 2.;
      suspect_timeout = 8.;
      slice = 0.5;
      share_max_len = 10;
      overall_timeout = 100_000.;
    }
  in
  List.iter
    (fun seed ->
      let obs = Obs.create () in
      let r =
        C.Gridsat.solve ~config:(config seed)
          ~fault_plan:(C.Gridsat.chaos_plan ~standby:false ~partition:false)
          ~obs
          ~testbed:(C.Testbed.uniform ~n:6 ~speed:2000. ())
          (Workloads.Php.instance ~pigeons:7 ~holes:6)
      in
      let cell = Printf.sprintf "seed %d" seed in
      let recoveries = C.Master.counter r "recoveries" in
      check Alcotest.string (cell ^ ": verdict") "UNSAT" (answer_kind r.C.Master.answer);
      check bool (cell ^ ": a checkpoint recovery ran") true (recoveries > 0);
      match List.assoc_opt "checkpoint.restores" (Obs.Metrics.export_all (Obs.metrics obs)) with
      | Some (Obs.Metrics.Counter restores) ->
          check Alcotest.int (cell ^ ": one restore per recovery") recoveries restores
      | _ -> Alcotest.fail "no checkpoint.restores series")
    [ 0; 7; 23 ]

let test_loss_counters_surface () =
  let s = List.find (fun s -> s.sname = "loss-p02") scenarios in
  let r = solve ~config:s.config ~fault_plan:(s.plan 0.) (Workloads.Php.instance ~pigeons:6 ~holes:5) in
  check bool "drops surfaced in the result" true
    (C.Master.counter r "dropped_messages" > 0 && C.Master.counter r "dropped_bytes" > 0);
  check bool "retries surfaced in the result" true (C.Master.counter r "retries" > 0)

(* ---------- master durability ---------- *)

let master_crash_scenario () = List.find (fun s -> s.sname = "master-crash") scenarios

(* The journal is the failover contract: replaying it must be a pure
   function of its contents.  Replay the post-run journal twice and demand
   bit-identical state digests; the journal must also have seen real
   traffic and compacted along the way. *)
let test_journal_replay_deterministic () =
  let s = master_crash_scenario () in
  let cnf = Workloads.Php.instance ~pigeons:7 ~holes:6 in
  let captured = ref None in
  let baseline = solve ~config:s.config cnf in
  let r =
    solve ~config:{ s.config with Cfg.journal_compact_every = 8 }
      ~fault_plan:(s.plan baseline.C.Master.time)
      ~on_master:(fun m -> captured := Some m)
      cnf
  in
  check bool "faulted run still concludes" true (answer_kind r.C.Master.answer = "UNSAT");
  match !captured with
  | None -> Alcotest.fail "master not captured"
  | Some m ->
      let j = C.Master.journal m in
      check bool "journal recorded the run" true (C.Journal.appended j > 0);
      check bool "journal compacted" true (C.Journal.compactions j > 0);
      let d1 = C.Journal.digest (C.Journal.replay j) in
      let d2 = C.Journal.digest (C.Journal.replay j) in
      check Alcotest.string "replay is deterministic" d1 d2;
      (match (C.Journal.replay j).C.Journal.verdict with
      | Some v -> check Alcotest.string "journal carries the verdict" "UNSAT" v
      | None -> Alcotest.fail "no verdict journaled")

(* Worst case for durability: the master is down, and while it is down the
   client holding a subproblem dies too — with checkpointing disabled, so
   there is nothing to restore from.  The replacement master must notice
   at reconciliation that nobody holds the journaled subproblem and
   re-derive it from the original CNF plus the journaled lineage.  The
   verdict must survive. *)
let test_client_dies_during_outage_no_checkpoint () =
  let s = master_crash_scenario () in
  let config = { s.config with Cfg.checkpoint = Cfg.No_checkpoint } in
  let cnf = Workloads.Php.instance ~pigeons:7 ~holes:6 in
  let baseline = solve ~config cnf in
  check bool "baseline is unsat" true (answer_kind baseline.C.Master.answer = "UNSAT");
  let t = baseline.C.Master.time in
  let crash_at = Float.max 4. (0.3 *. t) in
  let plan =
    [
      F.Crash_master
        { at = crash_at; restart_after = Float.max 10. (0.15 *. t); by_verdict = false };
      (* host 1 holds the initial problem; kill it while the master is dark *)
      F.Crash_host { host = 1; at = crash_at +. 1. };
    ]
  in
  let r = solve ~config ~fault_plan:plan cnf in
  check Alcotest.string "verdict survives losing both master and holder" "UNSAT"
    (answer_kind r.C.Master.answer);
  check bool "the lost subproblem was re-derived from lineage" true
    (has_event (function C.Events.Rederived_from_lineage _ -> true | _ -> false) r);
  check bool "rederivations surfaced in the result" true (C.Master.counter r "rederivations" > 0);
  check bool "master crash surfaced in the result" true (C.Master.counter r "master_crashes" = 1)

(* Regression: streams from different senders keep no order between
   them, so a partner's (or a hedge winner's) Finished_unsat can reach the
   master before the donor's Split_ok or another copy's Problem_received
   that registers the same pid, and the journal carries the refutation
   ahead of the registration.  Pids are never reused, so the tombstone
   must win on replay — otherwise the late registration resurrects a
   branch nobody holds and the run wedges. *)
let test_refutation_tombstone_survives_reorder () =
  let open C.Journal in
  let pid = (2, 1) and donor_pid = (1, 1) in
  let path = [ Sat.Types.pos 3 ] and donor_path = [ Sat.Types.neg 3 ] in
  let j = create ~compact_every:100 () in
  append j (Registered { client = 1 });
  append j (Assigned { pid = donor_pid; dst = 1; path = [] });
  append j (Refuted { pid });
  (* the reordered registrations arrive after the refutation *)
  append j (Split { donor = 1; donor_pid; donor_path; pid; dst = 5; path });
  append j (Adopted { pid; client = 5; path });
  let st = replay j in
  check bool "refuted pid stays dead" false (Hashtbl.mem st.live pid);
  check bool "refuted pid has no holder" false (Hashtbl.mem st.holder pid);
  check bool "tombstone recorded" true (Hashtbl.mem st.refuted pid);
  check bool "donor branch unaffected" true (Hashtbl.mem st.live donor_pid);
  (* the gate must also hold across compaction into the snapshot *)
  let j2 = create ~compact_every:2 () in
  append j2 (Refuted { pid });
  append j2 (Adopted { pid; client = 5; path });
  let st2 = replay j2 in
  check bool "tombstone survives compaction" false (Hashtbl.mem st2.live pid);
  check Alcotest.string "reordered replays agree" (digest st) (digest (replay j))

(* A child's holder reports on its own stream, so its Problem_received,
   and its own split of the child, can reach the master before the
   donor's Split_ok that created the child.  The late Split entry must
   neither shorten the child's lineage nor hand the child back to the
   split's first addressee (at php-8-7 certify chaos seeds 189 and
   standby 157 that addressee had been quarantined and the child
   re-homed, and the new holder's next split was then misread). *)
let test_late_creating_split_keeps_child () =
  let open C.Journal in
  let child = (3, 0) and donor_pid = (2, 0) and grandchild = (4, 0) in
  let l = Sat.Types.pos and n = Sat.Types.neg in
  let j = create ~compact_every:100 () in
  append j (Assigned { pid = donor_pid; dst = 2; path = [] });
  (* the child was re-homed to host 6, which split it again *)
  append j (Adopted { pid = child; client = 6; path = [ n 1 ] });
  append j
    (Split
       { donor = 6; donor_pid = child; donor_path = [ n 1; l 2 ]; pid = grandchild; dst = 5;
         path = [ n 1; n 2 ] });
  (* the donor's Split_ok that created the child arrives last *)
  append j
    (Split { donor = 2; donor_pid; donor_path = [ l 1 ]; pid = child; dst = 3; path = [ n 1 ] });
  let st = current j in
  check bool "the child keeps its longer lineage" true
    (Hashtbl.find_opt st.live child = Some [ n 1; l 2 ]);
  check bool "the child keeps its holder" true (Hashtbl.find_opt st.holder child = Some 6);
  check bool "the donor's lineage grew" true (Hashtbl.find_opt st.live donor_pid = Some [ l 1 ]);
  check Alcotest.string "replay agrees" (digest st) (digest (replay j))

(* A client written off during a restarted master's resync window has its
   branch queued for recovery (no host is assignable yet).  When the
   window closes, reconciliation must count the queued copy as homed:
   re-deriving the branch again would run two copies of one pid, and in
   certify mode the second copy's split then reads as not the donor's. *)
let test_reconcile_keeps_queued_recovery () =
  let config =
    { Cfg.default with Cfg.split_timeout = 1000.; checkpoint = Cfg.No_checkpoint; seed = 1 }
  in
  let r =
    solve ~config
      ~fault_plan:[ F.Crash_master { at = 3.; restart_after = 1.; by_verdict = false } ]
      ~on_master:(fun m -> C.Master.schedule m ~delay:6. (fun () -> C.Master.kill_client m 1))
      (Workloads.Php.instance ~pigeons:7 ~holes:6)
  in
  check Alcotest.string "verdict" "UNSAT" (answer_kind r.C.Master.answer);
  check bool "the branch was queued during the window" true
    (has_event (function C.Events.Recovery_requeued { client = 1 } -> true | _ -> false) r);
  check Alcotest.int "and re-derived once" 1
    (List.length
       (List.filter
          (fun e ->
            match e.C.Events.kind with C.Events.Rederived_from_lineage _ -> true | _ -> false)
          r.C.Master.events))

(* Properties of the single writer: the journal's applied state, kept on
   every append, is what a replay of the log computes — whatever the
   compaction period and quota, across registrations after a refutation
   and deaths of holders — and a recovery after at-rest rot adopts
   exactly the replayed state. *)
let gen_journal_entries =
  let open QCheck.Gen in
  let pid = pair (int_bound 2) (int_bound 3) and client = int_range 1 4 in
  let path = list_size (int_bound 3) (map (fun v -> Sat.Types.pos (v + 1)) (int_bound 5)) in
  let entry =
    oneof
      [
        map (fun client -> C.Journal.Registered { client }) client;
        map3 (fun pid dst path -> C.Journal.Assigned { pid; dst; path }) pid client path;
        map3
          (fun (donor, donor_pid, donor_path) (pid, dst) path ->
            C.Journal.Split { donor; donor_pid; donor_path; pid; dst; path })
          (triple client pid path) (pair pid client) path;
        map (fun pid -> C.Journal.Refuted { pid }) pid;
        map (fun client -> C.Journal.Died { client }) client;
        map3 (fun pid client path -> C.Journal.Adopted { pid; client; path }) pid client path;
        map (fun answer -> C.Journal.Verdict { answer }) (oneofl [ "UNSAT"; "UNKNOWN" ]);
      ]
  in
  quad (int_range 1 8) (oneof [ return 0; int_range 64 600 ]) (list_size (int_range 1 60) entry)
    (pair (int_bound 6) (list_size (int_bound 20) entry))

let print_journal_case (every, quota, entries, (rot, after)) =
  Printf.sprintf "compact_every=%d quota=%d rot=%d\n%s\n-- recover --\n%s" every quota rot
    (String.concat "\n" (List.map (Format.asprintf "%a" C.Journal.pp_entry) entries))
    (String.concat "\n" (List.map (Format.asprintf "%a" C.Journal.pp_entry) after))

let agrees j = C.Journal.(digest (current j) = digest (replay j))

let prop_journal_current_is_replay =
  QCheck.Test.make ~count:300 ~name:"journal state equals its replay after every append"
    (QCheck.make ~print:print_journal_case gen_journal_entries)
    (fun (compact_every, quota, entries, _) ->
      let j = C.Journal.create ~quota ~compact_every () in
      List.for_all
        (fun e ->
          C.Journal.append j e;
          agrees j)
        entries)

let prop_journal_recover_after_rot =
  QCheck.Test.make ~count:300 ~name:"journal recovery after rot adopts the replay"
    (QCheck.make ~print:print_journal_case gen_journal_entries)
    (fun (compact_every, quota, entries, (rot, after)) ->
      let j = C.Journal.create ~quota ~compact_every () in
      List.iter (C.Journal.append j) entries;
      C.Journal.corrupt_tail j ~n:rot;
      C.Journal.recover j;
      agrees j
      && List.for_all
           (fun e ->
             C.Journal.append j e;
             agrees j)
           after)

(* The shared log under the joblog: degraded exactly while over a
   non-zero quota, after every append and every scrub, and its bytes are
   those of the surviving records alone. *)
let prop_joblog_quota_tracks_bytes =
  let module L = Gridsat_service.Joblog in
  let gen =
    let open QCheck.Gen in
    let id = int_bound 5 in
    let entry =
      oneof
        [
          map
            (fun id -> L.Submitted { id; tenant = "t"; priority = "high"; digest = "d"; deadline = None })
            id;
          map (fun id -> L.Admitted { id }) id;
          map (fun id -> L.Shed { id; retry_after = 1. }) id;
          map (fun id -> L.Cache_hit { id; answer = "UNSAT" }) id;
          map2 (fun id n -> L.Started { id; hosts = List.init n Fun.id }) id (int_bound 3);
          map (fun id -> L.Requeued { id; reason = "preempted" }) id;
          map (fun id -> L.Finished { id; terminal = "verdict:UNSAT" }) id;
        ]
    in
    triple (oneof [ return 0; int_range 16 400 ]) (list_size (int_range 1 40) entry) (int_bound 8)
  in
  QCheck.Test.make ~count:300 ~name:"joblog degraded iff over quota; bytes are the survivors'"
    (QCheck.make gen) (fun (quota, entries, rot) ->
      let l = L.create ~quota () in
      let invariant () = L.degraded l = (quota > 0 && L.bytes l > quota) in
      List.for_all
        (fun e ->
          L.append l e;
          invariant ())
        entries
      &&
      (L.corrupt_tail l ~n:rot;
       ignore (L.replay l);
       let survivors = L.create () in
       List.iter (L.append survivors) (L.entries l);
       invariant () && L.bytes l = L.bytes survivors))

(* ---------- integrity and certification ---------- *)

(* The acceptance bar for certified runs: a multi-client UNSAT under 5%
   payload corruption must still terminate with the right verdict, every
   refuted branch covered by a checked fragment, and the corruption must
   be visible in the counters — detected payloads, NACKed retransmits —
   with zero quarantines (corruption is detected at the frame, it never
   reaches the checker as a wrong answer). *)
let test_certified_unsat_under_corruption () =
  let cnf = Workloads.Php.instance ~pigeons:7 ~holes:6 in
  let plan =
    [
      F.Corrupt_messages
        { src_site = None; dst_site = None; p = 0.05; from_t = 0.; until_t = infinity };
    ]
  in
  let r = solve ~config:certify_config ~fault_plan:plan cnf in
  check Alcotest.string "certified UNSAT under 5% corruption" "UNSAT"
    (answer_kind r.C.Master.answer);
  check bool "the run actually split across clients" true (C.Master.counter r "splits" > 0);
  check bool "corrupt payloads were detected" true (C.Master.counter r "corrupt_detected" > 0);
  check bool "corrupt reliable envelopes were NACKed" true (C.Master.counter r "nacks" > 0);
  check bool "refuted branches carried certified fragments" true
    (C.Master.counter r "certified_fragments" > 0);
  check Alcotest.int "no honest client was quarantined" 0 (C.Master.counter r "quarantines")

(* A forged refutation: a busy client claims the initial subproblem is
   unsatisfiable with a proof that derives nothing.  The fragment check
   must fail, the forger must be quarantined and its own work re-derived
   elsewhere, and the final verdict must be unaffected. *)
let test_forged_refutation_quarantined () =
  let cnf = Workloads.Php.instance ~pigeons:7 ~holes:6 in
  let r =
    solve ~config:certify_config
      ~on_master:(fun m ->
        C.Master.schedule m ~delay:3. (fun () ->
            match C.Master.busy_client_ids m with
            | [] -> ()
            | c :: _ ->
                C.Master.inject m ~src:c
                  (C.Protocol.Finished_unsat { pid = (0, 0); proof = Some "" })))
      cnf
  in
  check Alcotest.string "verdict survives a forged refutation" "UNSAT"
    (answer_kind r.C.Master.answer);
  check bool "certification failure logged" true
    (has_event (function C.Events.Certification_failed _ -> true | _ -> false) r);
  check bool "forger quarantined" true
    (has_event (function C.Events.Client_quarantined _ -> true | _ -> false) r);
  check bool "quarantine surfaced in the result" true (C.Master.counter r "quarantines" > 0)

(* Certify mode under message loss, with the CLI's --chaos --certify
   settings: no honest client may be quarantined.  Each cell once did,
   through a same-sender reordering that in-order streams rule out.  In
   the php-7-6 cells, which run none of the CLI's canned faults, a donor's
   Finished_unsat overtook its own Split_ok (its fragment refutes the
   narrowed branch, not the pre-split one), or a Split_ok overtook the
   donor's Problem_received.  The php-8-7 cells run the canned plan: at
   seeds 4 and 12 the donor's Problem_received overtook its Split_ok
   (ordering C), at seed 5 two Split_oks from one donor arrived newest
   first (ordering D), and at seed 6 the Split_ok that created a pid
   arrived after its holder split that pid again (ordering E, which is
   cross-sender and still happens: the journal keeps the holder's
   lineage). *)
let test_certify_loss_no_quarantine () =
  let php76 = Workloads.Php.instance ~pigeons:7 ~holes:6
  and php87 = Workloads.Php.instance ~pigeons:8 ~holes:7 in
  let config seed =
    {
      Cfg.default with
      Cfg.overall_timeout = 100_000.;
      split_timeout = 1.;
      checkpoint = Cfg.Light;
      checkpoint_period = 2.;
      heartbeat_period = 2.;
      suspect_timeout = 8.;
      slice = 0.5;
      certify = true;
      share_max_len = 0;
      seed;
    }
  in
  let drop =
    F.Drop_messages { src_site = None; dst_site = None; p = 0.1; from_t = 0.; until_t = infinity }
  and dup = F.Duplicate_messages { p = 0.05; extra = 0.5; from_t = 0.; until_t = infinity } in
  List.iter
    (fun (name, cnf, fault_plan, seeds) ->
      List.iter
        (fun seed ->
          let r =
            C.Gridsat.solve ~config:(config seed) ~fault_plan
              ~testbed:(C.Testbed.uniform ~n:6 ~speed:2000. ())
              cnf
          in
          let cell = Printf.sprintf "%s seed %d" name seed in
          check Alcotest.string (cell ^ ": verdict") "UNSAT" (answer_kind r.C.Master.answer);
          check Alcotest.int (cell ^ ": quarantines") 0 (C.Master.counter r "quarantines"))
        seeds)
    [
      ("drop+dup", php76, [ drop; dup ], [ 3; 4; 5; 8 ]);
      ("drop", php76, [ drop ], [ 3; 9 ]);
      ("php-8-7 chaos", php87, C.Gridsat.chaos_plan ~standby:false ~partition:false, [ 4; 5; 6; 12 ]);
    ]

(* A promoted standby checks a claim under the lineage its shadow journal
   has, which can predate the claimant's last split.  At php-8-7 certify
   chaos standby seed 127 the primary journaled client 4's split of pid
   3.0 (5.8 s) and crashed before shipping it (6.0 s); the standby
   promoted with 3.0 at its pre-split path, kept that path against client
   4's Resync, and client 4's fragment for the narrowed branch fails.
   The lineage was inherited from the shadow, so the claim is rejected
   and the branch re-derived, but the honest claimant is not
   quarantined. *)
let test_shadow_misses_a_split () =
  let config =
    {
      Cfg.default with
      Cfg.overall_timeout = 100_000.;
      split_timeout = 1.;
      checkpoint = Cfg.Light;
      checkpoint_period = 2.;
      heartbeat_period = 2.;
      suspect_timeout = 8.;
      slice = 0.5;
      certify = true;
      share_max_len = 0;
      standby = true;
      standby_lease = 6.;
      ship_interval = 1.;
      seed = 127;
    }
  in
  let r =
    C.Gridsat.solve ~config
      ~fault_plan:(C.Gridsat.chaos_plan ~standby:true ~partition:false)
      ~testbed:(C.Testbed.uniform ~n:6 ~speed:2000. ())
      (Workloads.Php.instance ~pigeons:8 ~holes:7)
  in
  check Alcotest.string "verdict" "UNSAT" (answer_kind r.C.Master.answer);
  check Alcotest.int "the standby took over" 1 (C.Master.counter r "promotions");
  check Alcotest.int "no quarantine" 0 (C.Master.counter r "quarantines");
  check bool "the one failed check is client 4's claim on pid 3.0" true
    (List.filter_map
       (fun e ->
         match e.C.Events.kind with
         | C.Events.Certification_failed { pid; client; _ } -> Some (pid, client)
         | _ -> None)
       r.C.Master.events
    = [ ((3, 0), 4) ])

(* The config of the CLI's [solve -m grid --chaos --standby --ship S
   --seed N], with a shorter overall timeout. *)
let cli_standby_config ~ship_sync ~seed =
  {
    Cfg.default with
    Cfg.overall_timeout = 5_000.;
    split_timeout = 1.;
    checkpoint = Cfg.Light;
    checkpoint_period = 2.;
    heartbeat_period = 2.;
    suspect_timeout = 8.;
    slice = 0.5;
    standby = true;
    ship_sync;
    standby_lease = 6.;
    ship_interval = 1.;
    seed;
  }

(* Dueling masters: the promoted standby pairs a donor with a partner
   whose Problem_received still goes to the superseded primary, then
   writes the partner off before it ever reports busy here.  The branch
   the journal has the partner hold must be re-derived all the same, or
   UNSAT waits for the overall timeout.  The two cells are php-7-6 runs
   of the CLI's [--chaos --chaos-partition --standby] from when it cut
   the standby's site, with the primary on the pool's; both ended
   UNKNOWN that way. *)
let test_dead_partner_keeps_branch () =
  let config = cli_standby_config in
  (* the preset's partition, moved to the standby's site *)
  let plan =
    List.map
      (function F.Partition_site p -> F.Partition_site { p with site = C.Replica.site } | s -> s)
      (C.Gridsat.chaos_plan ~standby:true ~partition:true)
  in
  List.iter
    (fun (ship_sync, seed) ->
      let r =
        C.Gridsat.solve ~config:(config ~ship_sync ~seed) ~fault_plan:plan
          ~testbed:(C.Testbed.uniform ~n:6 ~speed:2000. ())
          (Workloads.Php.instance ~pigeons:7 ~holes:6)
      in
      let cell = Printf.sprintf "seed %d%s" seed (if ship_sync then " sync" else "") in
      check Alcotest.string (cell ^ ": verdict") "UNSAT" (answer_kind r.C.Master.answer);
      check Alcotest.int (cell ^ ": the standby took over") 1 (C.Master.counter r "promotions"))
    [ (true, 0); (false, 13) ]

(* The CLI's [gridsat solve -m grid --hosts 6 --chaos --chaos-partition
   --standby --ship sync --seed 21] on php-7-6.  Client 3 finishes its
   branch at 5.3 s, inside the partition, so its Finished_unsat is still
   unacked toward endpoint 0 when the promoted standby's frames re-point
   it.  That tail moves to the stream to the new endpoint: no retry goes
   to endpoint 0 after the client's succession (its resync reply comes
   later still), and the finished branch is not re-derived onto another
   host.  The promoted master's own retries are logged from the endpoint
   it speaks from. *)
let test_promoted_master_gets_the_stream () =
  let testbed =
    { (C.Testbed.uniform ~n:6 ~speed:2000. ()) with C.Testbed.master_site = C.Gridsat.primary_site }
  in
  let r =
    C.Gridsat.solve
      ~config:(cli_standby_config ~ship_sync:true ~seed:21)
      ~fault_plan:(C.Gridsat.chaos_plan ~standby:true ~partition:true)
      ~testbed
      (Workloads.Php.instance ~pigeons:7 ~holes:6)
  in
  check Alcotest.string "verdict" "UNSAT" (answer_kind r.C.Master.answer);
  check Alcotest.int "the standby took over" 1 (C.Master.counter r "promotions");
  check bool "a stale frame was rejected after the heal" true
    (C.Master.counter r "stale_epoch_rejections" > 0);
  let events = List.map (fun e -> (e.C.Events.time, e.C.Events.kind)) r.C.Master.events in
  let resynced = Hashtbl.create 8 in
  List.iter
    (fun (time, k) ->
      match k with
      | C.Events.Client_resynced { client; _ } when not (Hashtbl.mem resynced client) ->
          Hashtbl.replace resynced client time
      | _ -> ())
    events;
  check bool "clients resynced with the promoted master" true (Hashtbl.length resynced > 0);
  List.iter
    (fun (time, k) ->
      match k with
      | C.Events.Message_retried { src; dst = 0; _ } when src > 0 -> (
          match Hashtbl.find_opt resynced src with
          | Some t0 when time >= t0 ->
              Alcotest.failf "client %d retried to endpoint 0 at %.1f s, after its succession" src
                time
          | _ -> ())
      | _ -> ())
    events;
  (* what each client last did with a branch, oldest event first: a
     recovery of a client's work must find it holding one, not finished *)
  let finished = Hashtbl.create 8 in
  List.iter
    (fun (time, k) ->
      match k with
      | C.Events.Recovered_from_checkpoint { client = c; _ }
      | C.Events.Rederived_from_lineage { holder = Some c; _ }
        when Hashtbl.find_opt finished c = Some true ->
          Alcotest.failf "client %d's finished branch was assigned again at %.1f s" c time
      | C.Events.Client_finished_unsat c -> Hashtbl.replace finished c true
      | C.Events.Problem_assigned { dst = c; _ }
      | C.Events.Split_completed { dst = c; _ }
      | C.Events.Recovered_from_checkpoint { onto = c; _ } ->
          Hashtbl.replace finished c false
      | _ -> ())
    events;
  let promoted_at =
    List.find_map
      (function time, C.Events.Standby_promoted _ -> Some time | _ -> None)
      events
    |> Option.get
  in
  let master_resends =
    List.filter_map
      (fun (time, k) ->
        match k with
        | C.Events.Message_retried { src; _ }
        | C.Events.Retries_exhausted { src; _ }
        | C.Events.Message_given_up { src; _ }
          when time >= promoted_at && src <= 0 ->
            Some src
        | _ -> None)
      events
  in
  check bool "the promoted master resent something" true (master_resends <> []);
  check bool "from the standby's endpoint" true
    (List.for_all (fun src -> src = C.Replica.standby_id) master_resends)

(* A partner that dies between the donor's Split_ok and its own
   Problem_received: the journal already has it hold the child, so its
   death re-derives the child at once.  The donor's hand-off to the dead
   partner later gives up and comes back as an orphan; homing that copy
   too would run the child twice.  Every "assign" of the child after the
   death must be the one re-derivation. *)
let test_partner_dead_before_receipt_one_copy () =
  let config = { chaos_config with Cfg.retry_base = 0.25; retry_max_attempts = 2 } in
  let obs = Obs.create () in
  let victim = ref None in
  let r =
    C.Gridsat.solve ~config ~obs ~testbed:(testbed2site ())
      ~on_master:(fun m ->
        let rec poll () =
          if (not (C.Master.finished m)) && !victim = None then begin
            let st = C.Journal.current (C.Master.journal m) in
            let partners =
              List.filter_map
                (fun e ->
                  match e.C.Events.kind with
                  | C.Events.Split_granted { partner; _ } -> Some partner
                  | _ -> None)
                (C.Master.events_so_far m)
            in
            (* a reserved partner the journal already has hold a live
               branch is one whose hand-off is still in flight *)
            (match
               List.find_opt
                 (fun (pid, holder) ->
                   Hashtbl.mem st.C.Journal.live pid
                   && List.mem holder partners
                   && List.mem holder (C.Master.reserved_hosts m))
                 (Hashtbl.fold (fun pid h acc -> (pid, h) :: acc) st.C.Journal.holder []
                 |> List.sort compare)
             with
            | Some (pid, partner) ->
                victim := Some (pid, Obs.Span.now (Obs.spans obs));
                C.Master.kill_client m partner
            | None -> ());
            if !victim = None then C.Master.schedule m ~delay:0.01 poll
          end
        in
        C.Master.schedule m ~delay:0.01 poll)
      (Workloads.Php.instance ~pigeons:7 ~holes:6)
  in
  check Alcotest.string "verdict" "UNSAT" (answer_kind r.C.Master.answer);
  match !victim with
  | None -> Alcotest.fail "no partner was caught between Split_ok and Problem_received"
  | Some ((a, b), died_at) ->
      check bool "the donor's hand-off came back as an orphan" true
        (has_event (function C.Events.Orphan_returned _ -> true | _ -> false) r);
      let pid = Printf.sprintf "%d.%d" a b in
      let assigns =
        List.filter
          (fun (sp : Obs.Span.span) ->
            sp.name = "assign" && sp.start >= died_at
            && List.assoc_opt "pid" sp.args = Some (Obs.Json.String pid))
          (Obs.Span.spans (Obs.spans obs))
      in
      check Alcotest.int "the child is homed once" 1 (List.length assigns)

(* A requester granted a second partner before its first split is
   answered: each Split_ok and Split_failed closes the split it names, and
   a requester that finishes or dies closes all of its splits.  If an
   answer closed the other grant, the older split would stay pending and
   UNSAT would wait for the overall timeout.  Every master "split" span
   must be closed by the end of the run. *)
let test_double_grant_closes_by_name () =
  let plan =
    [
      F.Slow_host { host = 1; at = 2.; factor = 20. };
      F.Drop_messages { src_site = None; dst_site = None; p = 0.1; from_t = 0.; until_t = infinity };
    ]
  in
  List.iter
    (fun (name, config, cnf, seed) ->
      let obs = Obs.create () in
      let r =
        C.Gridsat.solve ~config:{ config with Cfg.seed } ~fault_plan:plan ~obs
          ~testbed:(C.Testbed.uniform ~n:(4 + (seed mod 4)) ~speed:500. ())
          cnf
      in
      let cell = Printf.sprintf "%s seed %d" name seed in
      check Alcotest.string (cell ^ ": verdict") "UNSAT" (answer_kind r.C.Master.answer);
      let open_splits =
        List.filter
          (fun (sp : Obs.Span.span) ->
            sp.name = "split" && sp.tid = Obs.Span.master_tid && not sp.closed)
          (Obs.Span.spans (Obs.spans obs))
      in
      check Alcotest.int (cell ^ ": split spans left open") 0 (List.length open_splits))
    [
      ( "php-6-5 standby",
        { chaos_config with Cfg.standby = true },
        Workloads.Php.instance ~pigeons:6 ~holes:5,
        2 );
      ("php-7-6 hedge", hedge_config, Workloads.Php.instance ~pigeons:7 ~holes:6, 21);
    ]

(* The last branch is refuted while a Partner hold defers UNSAT, and then
   that split fails.  Nothing is pending any more, so the Split_failed
   must end the run UNSAT at once, not at the overall timeout.  Client 1
   solves the root and is granted client 2 as partner; client 3 then
   reports the root refuted (as a re-homed copy of the branch would), and
   client 1's split fails.  Every message is injected; the simulator
   never runs. *)
let test_split_failure_concludes () =
  let sim = Grid.Sim.create () in
  let net = Grid.Network.create () in
  let m =
    C.Master.create ~sim ~net ~bus:(Grid.Everyware.create sim net) ~cfg:Cfg.default
      ~testbed:(C.Testbed.uniform ~n:3 ~speed:500. ())
      (Workloads.Php.instance ~pigeons:4 ~holes:3)
  in
  let inject src msg = C.Master.inject m ~src msg in
  inject 1 C.Protocol.Register;
  inject 1 (C.Protocol.Problem_received { pid = (0, 0); from = 0; bytes = 0; path = [] });
  inject 2 C.Protocol.Register;
  inject 3 C.Protocol.Register;
  inject 1 (C.Protocol.Split_request `Memory);
  check (Alcotest.list Alcotest.int) "client 1 is busy" [ 1 ] (C.Master.busy_client_ids m);
  check Alcotest.int "one partner reserved" 1 (List.length (C.Master.reserved_hosts m));
  inject 3 (C.Protocol.Finished_unsat { pid = (0, 0); proof = None });
  check bool "the open split defers UNSAT" false (C.Master.finished m);
  let partner = List.hd (C.Master.reserved_hosts m) in
  inject 1 (C.Protocol.Split_failed { partner });
  check bool "the failed split concludes the run" true (C.Master.finished m);
  check Alcotest.string "verdict" "UNSAT" (answer_kind (C.Master.result m).C.Master.answer);
  check (Alcotest.list Alcotest.int) "no host left reserved" [] (C.Master.reserved_hosts m)

(* Certify mode: a client's report of holding a registered branch never
   rewrites the journaled lineage its fragment will be checked under — a
   recovered or promoted master must not check against a path the client
   supplied. *)
let test_certify_journal_keeps_master_path () =
  let cnf = Workloads.Php.instance ~pigeons:7 ~holes:6 in
  let probed = ref None in
  ignore
    (solve ~config:certify_config
       ~on_master:(fun m ->
         C.Master.schedule m ~delay:3. (fun () ->
             let j = C.Master.journal m in
             let st = C.Journal.current j in
             match
               Hashtbl.fold (fun p path acc -> (p, path) :: acc) st.C.Journal.live []
               |> List.sort compare
             with
             | [] -> ()
             | (pid, path) :: _ ->
                 let holder =
                   Option.value ~default:1 (Hashtbl.find_opt st.C.Journal.holder pid)
                 in
                 let forged = Sat.Types.neg 1 :: Sat.Types.pos 2 :: path in
                 C.Master.inject m ~src:holder
                   (C.Protocol.Problem_received { pid; from = 0; bytes = 0; path = forged });
                 probed :=
                   Some (path, Hashtbl.find_opt (C.Journal.replay j).C.Journal.live pid)))
       cnf);
  match !probed with
  | None -> Alcotest.fail "no live branch to probe"
  | Some (path, replayed) ->
      check bool "replayed lineage is the master's, not the forged report" true
        (replayed = Some path)

(* Checkpoint rot: every snapshot's at-rest seal is flipped just before
   the holder of the initial problem crashes.  The recovery path must
   refuse the rotten snapshot and fall back to lineage re-derivation
   instead of silently restoring garbage. *)
let test_checkpoint_rot_falls_back_to_lineage () =
  let cnf = Workloads.Php.instance ~pigeons:7 ~holes:6 in
  let baseline = solve cnf in
  let at = crash_time baseline.C.Master.time in
  let plan =
    [
      F.Corrupt_storage { at; journal_records = 0; checkpoints = true };
      F.Crash_host { host = 1; at = at +. 0.01 };
    ]
  in
  let r = solve ~fault_plan:plan cnf in
  check Alcotest.string "verdict survives checkpoint rot" "UNSAT" (answer_kind r.C.Master.answer);
  check bool "storage corruption logged" true
    (has_event (function C.Events.Storage_corrupted _ -> true | _ -> false) r);
  check bool "rotten snapshot discarded" true (C.Master.counter r "checkpoints_discarded" > 0);
  check bool "lost work re-derived from lineage" true
    (has_event (function C.Events.Rederived_from_lineage _ -> true | _ -> false) r)

(* Journal tail rot: records whose seal no longer matches are scrubbed on
   replay — the good prefix survives, the torn tail is dropped and
   counted, never half-applied. *)
let test_journal_corrupt_tail_scrubbed () =
  let open C.Journal in
  let j = create ~compact_every:100 () in
  append j (Registered { client = 1 });
  append j (Assigned { pid = (0, 0); dst = 1; path = [] });
  append j (Refuted { pid = (0, 0) });
  corrupt_tail j ~n:2;
  let st = replay j in
  check Alcotest.int "both rotten records dropped" 2 (records_dropped j);
  check bool "good prefix survived: client registration applied" true
    (Hashtbl.mem st.clients 1);
  check bool "rotten refutation not applied" false (Hashtbl.mem st.refuted (0, 0))

let test_checkpoint_corrupt_all_discards () =
  let cnf = Workloads.Php.instance ~pigeons:4 ~holes:3 in
  let ck = C.Checkpoint.create cnf in
  let sp = C.Subproblem.initial cnf in
  ignore (C.Checkpoint.save ck ~client:1 ~pid:(0, 0) ~mode:Cfg.Heavy sp);
  (match C.Checkpoint.restore ck ~client:1 ~pid:(0, 0) with
  | Some _ -> ()
  | None -> Alcotest.fail "intact snapshot must restore");
  C.Checkpoint.corrupt_all ck;
  (match C.Checkpoint.restore ck ~client:1 ~pid:(0, 0) with
  | None -> ()
  | Some _ -> Alcotest.fail "rotten snapshot must be refused");
  check Alcotest.int "discard counted" 1 (C.Checkpoint.discarded ck);
  (* discarding is destructive: a second restore finds nothing *)
  check bool "rotten snapshot removed from the store" true
    (C.Checkpoint.restore ck ~client:1 ~pid:(0, 0) = None)

(* ---------- straggler defense and hedged execution ---------- *)

(* A scenario engineered so hedging must fire: the host holding the
   initial problem turns into an extreme straggler early, the rest of the
   fleet populates the duration histogram with quick results, and idle
   capacity appears as branches drain — the monitor then clones the
   straggler's subproblem to an idle host. *)
let straggler_plan _t = [ F.Slow_host { host = 1; at = 2.; factor = 10_000. } ]

(* A wider fleet than the matrix testbed: idle hosts must exist at the
   moment the straggler's elapsed time crosses the fleet p99, or the
   hedge gate (straggler AND spare capacity) never opens. *)
let hedge_testbed () = C.Testbed.uniform ~n:10 ~speed:500. ()
let hedge_cnf = Workloads.Php.instance ~pigeons:8 ~holes:7

let hedge_ledger (r : C.Master.result) =
  List.fold_left
    (fun (launched, fenced) e ->
      match e.C.Events.kind with
      | C.Events.Hedge_launched { pid; _ } -> (pid :: launched, fenced)
      | C.Events.Hedge_cancelled { pid; _ } -> (launched, pid :: fenced)
      | _ -> (launched, fenced))
    ([], []) r.C.Master.events

(* [Gridsat.solve]'s drive loop, one simulator event at a time: [each]
   sees the master after every event, with the events logged in it. *)
let solve_stepped ~config ~fault_plan ~testbed ~each cnf =
  let sim = Grid.Sim.create () in
  let net = Grid.Network.create () in
  let bus = Grid.Everyware.create sim net in
  let m = C.Master.create ~sim ~net ~bus ~cfg:config ~testbed cnf in
  C.Master.arm_faults m ~seed:config.Cfg.seed fault_plan;
  let seen = ref 0 in
  while (not (C.Master.finished m)) && Grid.Sim.step sim do
    let events = C.Master.events_so_far m in
    each m (List.filteri (fun i _ -> i >= !seen) events);
    seen := List.length events
  done;
  (m, C.Master.result m)

let test_hedge_exactly_once () =
  let cnf = hedge_cnf in
  let baseline = solve ~config:hedge_config ~testbed:(hedge_testbed ()) cnf in
  check Alcotest.string "baseline is unsat" "UNSAT" (answer_kind baseline.C.Master.answer);
  let plan = straggler_plan baseline.C.Master.time in
  (* a split goes only to a requester still solving: a hedge loser's
     late request must not be granted (it would be its own partner) *)
  let idle_grants = ref [] in
  let m, r =
    solve_stepped ~config:hedge_config ~fault_plan:plan ~testbed:(hedge_testbed ()) cnf
      ~each:(fun m fresh ->
        List.iter
          (fun e ->
            match e.C.Events.kind with
            | C.Events.Split_granted { client; _ }
              when not (List.mem client (C.Master.busy_client_ids m)) ->
                idle_grants := client :: !idle_grants
            | _ -> ())
          fresh)
  in
  check Alcotest.string "verdict survives the straggler" "UNSAT" (answer_kind r.C.Master.answer);
  check (Alcotest.list Alcotest.int) "no split granted to a requester that is not busy" []
    !idle_grants;
  check bool "a hedge was launched" true (C.Master.counter r "hedges" > 0);
  (* exactly-once: every hedged pid resolves to one winner and one fenced
     loser — launch and fence ledgers must match pid for pid *)
  let launched, fenced = hedge_ledger r in
  check Alcotest.int "hedge counter matches the event ledger" (C.Master.counter r "hedges")
    (List.length launched);
  check Alcotest.int "fence counter matches the event ledger"
    (C.Master.counter r "hedge_cancellations")
    (List.length fenced);
  check bool "every launched hedge was fenced exactly once" true
    (List.sort compare launched = List.sort compare fenced);
  (* the pool came back: nobody is still marked busy after the verdict *)
  check (Alcotest.list Alcotest.int) "no busy client left" [] (C.Master.busy_client_ids m);
  (* same plan, same seed: the hedged timeline replays exactly *)
  let again = solve ~config:hedge_config ~fault_plan:plan ~testbed:(hedge_testbed ()) cnf in
  check bool "identical event timeline on replay" true (r.C.Master.events = again.C.Master.events)

let test_hedge_beats_no_hedge () =
  (* C13 in miniature: with an extreme straggler holding a branch, the
     hedged run must finish no later than the defenseless one *)
  let cnf = hedge_cnf in
  let no_hedge = { hedge_config with Cfg.hedge = false } in
  let baseline = solve ~config:no_hedge ~testbed:(hedge_testbed ()) cnf in
  let plan = straggler_plan baseline.C.Master.time in
  let slow = solve ~config:no_hedge ~fault_plan:plan ~testbed:(hedge_testbed ()) cnf in
  let hedged = solve ~config:hedge_config ~fault_plan:plan ~testbed:(hedge_testbed ()) cnf in
  check Alcotest.string "same verdict either way" (answer_kind slow.C.Master.answer)
    (answer_kind hedged.C.Master.answer);
  check bool "the straggler actually hurt the defenseless run" true
    (slow.C.Master.time > baseline.C.Master.time +. 1e-6);
  check bool "hedging recovers (most of) the loss" true
    (hedged.C.Master.time <= slow.C.Master.time +. 1e-6)

let test_hedge_certify_stable () =
  (* hedging must not break split-tree certification: duplicate copies of
     a branch are fenced before they can double-cover it *)
  let config = { certify_config with Cfg.hedge = true } in
  let cnf = hedge_cnf in
  let baseline = solve ~config ~testbed:(hedge_testbed ()) cnf in
  let r =
    solve ~config
      ~fault_plan:(straggler_plan baseline.C.Master.time)
      ~testbed:(hedge_testbed ()) cnf
  in
  check Alcotest.string "certified UNSAT under a straggler" "UNSAT"
    (answer_kind r.C.Master.answer);
  check bool "refuted branches carried certified fragments" true
    (C.Master.counter r "certified_fragments" > 0);
  check Alcotest.int "no honest client was quarantined" 0 (C.Master.counter r "quarantines");
  let launched, fenced = hedge_ledger r in
  check bool "hedge fences stay exactly-once under certification" true
    (List.sort compare launched = List.sort compare fenced)

let test_probation_on_crash () =
  (* a crash trips the circuit breaker: the host enters probation and the
     transition is visible in the event log *)
  let cnf = Workloads.Php.instance ~pigeons:7 ~holes:6 in
  let baseline = solve ~config:hedge_config cnf in
  let plan = [ F.Crash_host { host = 1; at = crash_time baseline.C.Master.time } ] in
  let r = solve ~config:hedge_config ~fault_plan:plan cnf in
  check Alcotest.string "verdict survives" "UNSAT" (answer_kind r.C.Master.answer);
  check bool "crash put the host on probation" true
    (has_event (function C.Events.Host_probation { host = 1; _ } -> true | _ -> false) r)

(* Portfolio mode is hedging at the root: four hosts race copies of the
   whole problem, and one copy's host crashes mid-run.  The hosts are
   slow enough that the failure detector writes the dead copy off before
   the first refutation wins: the pid stays hedged while three copies
   remain, the win fences the other two, and nothing ever splits. *)
let test_portfolio_copy_crash () =
  let cnf = Workloads.Php.instance ~pigeons:7 ~holes:6 in
  let config = { chaos_config with Cfg.portfolio = true } in
  let testbed () = C.Testbed.uniform ~n:4 ~speed:100. () in
  let baseline = solve ~config ~testbed:(testbed ()) cnf in
  let plan = [ F.Crash_host { host = 2; at = crash_time baseline.C.Master.time } ] in
  let master = ref None in
  let r =
    solve ~config ~fault_plan:plan ~on_master:(fun m -> master := Some m) ~testbed:(testbed ()) cnf
  in
  check Alcotest.string "unsat" "UNSAT" (answer_kind r.C.Master.answer);
  check bool "the crash landed" true
    (has_event (function C.Events.Host_crashed 2 -> true | _ -> false) r);
  check Alcotest.int "a portfolio never splits" 0 (C.Master.counter r "splits");
  let launched, fenced = hedge_ledger r in
  check Alcotest.int "one copy per host after the first" 3 (List.length launched);
  check bool "every copy fenced exactly once" true
    (List.sort compare launched = List.sort compare fenced);
  let losers =
    List.filter_map
      (fun e ->
        match e.C.Events.kind with C.Events.Hedge_cancelled { loser; _ } -> Some loser | _ -> None)
      r.C.Master.events
  in
  check (Alcotest.list Alcotest.int) "no host fenced twice" (List.sort_uniq compare losers)
    (List.sort compare losers);
  check bool "the dead copy is written off before the win" true
    (has_event (function C.Events.Client_suspected { client = 2 } -> true | _ -> false) r);
  check bool "the crashed copy is fenced" true (List.mem 2 losers);
  (match !master with
  | Some m ->
      check (Alcotest.list Alcotest.int) "no busy client left" [] (C.Master.busy_client_ids m);
      check (Alcotest.list Alcotest.int) "no host left reserved" [] (C.Master.reserved_hosts m)
  | None -> Alcotest.fail "on_master was not called");
  let again = solve ~config ~fault_plan:plan ~testbed:(testbed ()) cnf in
  check bool "identical event timeline on replay" true (r.C.Master.events = again.C.Master.events)

(* A master crash loses every volatile hedge, but a portfolio's copies
   are hedged by the mode: after the journal replay the restarted master
   still grants no split and still fences every losing copy. *)
let test_portfolio_master_restart () =
  let cnf = Workloads.Php.instance ~pigeons:7 ~holes:6 in
  let config = { chaos_config with Cfg.portfolio = true } in
  let plan = [ F.Crash_master { at = 10.; restart_after = 4.; by_verdict = false } ] in
  let r = solve ~config ~fault_plan:plan ~testbed:(C.Testbed.uniform ~n:4 ~speed:100. ()) cnf in
  check Alcotest.string "unsat" "UNSAT" (answer_kind r.C.Master.answer);
  check bool "the master restarted mid-run" true
    (has_event (function C.Events.Master_restarted -> true | _ -> false) r);
  check Alcotest.int "no split after the restart" 0 (C.Master.counter r "splits");
  let launched, fenced = hedge_ledger r in
  check bool "every copy fenced exactly once" true
    (launched <> [] && List.sort compare launched = List.sort compare fenced)

(* ---------- hot-standby failover ---------- *)

(* Replication on over the chaos base: a one-second ship cadence so the
   shadow journal tracks closely, a lease comfortably above the heartbeat
   period, and a retry schedule wide enough that the promoted master's
   resync broadcasts survive a partition window (the retries re-frame at
   the successor's epoch, so a heal delivers the succession notice). *)
let standby_config =
  {
    chaos_config with
    Cfg.standby = true;
    ship_interval = 1.;
    standby_lease = 8.;
    retry_base = 1.;
    retry_max_attempts = 6;
    resync_grace = 8.;
  }

(* The primary dies mid-run and never comes back; the standby's lease
   expires and its shadow journal takes over.  Zero jobs lost: the
   verdict is identical to the fault-free run, with no [Master_restarted]
   anywhere — the failover redirected the fleet instead of replaying a
   replacement at the old endpoint. *)
let test_failover_crash_during_ship () =
  let cnf = Workloads.Php.instance ~pigeons:7 ~holes:6 in
  let baseline = solve ~config:standby_config cnf in
  check Alcotest.string "standby baseline is unsat" "UNSAT" (answer_kind baseline.C.Master.answer);
  check bool "journal batches shipped fault-free" true (baseline.C.Master.ships > 0);
  check Alcotest.int "no promotion without a fault" 0 (C.Master.counter baseline "promotions");
  check Alcotest.int "replication never diverged fault-free" 0
    (C.Master.counter baseline "replication_divergences");
  let at = Float.max 4. (0.3 *. baseline.C.Master.time) in
  let plan = [ F.Crash_master { at; restart_after = infinity; by_verdict = false } ] in
  let captured = ref None in
  let r =
    solve ~config:standby_config ~fault_plan:plan ~on_master:(fun m -> captured := Some m) cnf
  in
  check Alcotest.string "zero jobs lost: verdict survives without a replay-restart" "UNSAT"
    (answer_kind r.C.Master.answer);
  check Alcotest.int "exactly one promotion" 1 (C.Master.counter r "promotions");
  check Alcotest.int "replication never diverged" 0 (C.Master.counter r "replication_divergences");
  check bool "promotion visible in the event log" true
    (has_event (function C.Events.Standby_promoted _ -> true | _ -> false) r);
  check bool "the old endpoint never restarted" false
    (has_event (function C.Events.Master_restarted -> true | _ -> false) r);
  check bool "clients resynced to the promoted master" true
    (has_event (function C.Events.Client_resynced _ -> true | _ -> false) r);
  (match !captured with
  | None -> Alcotest.fail "master not captured"
  | Some m ->
      check Alcotest.int "run concluded at epoch 1" 1 (C.Master.epoch m);
      check bool "master reports itself promoted" true (C.Master.promoted m));
  (* same seed, same plan: the joblog digest must be byte-stable *)
  let captured2 = ref None in
  let again =
    solve ~config:standby_config ~fault_plan:plan ~on_master:(fun m -> captured2 := Some m) cnf
  in
  check bool "identical event timeline on replay" true
    (r.C.Master.events = again.C.Master.events);
  match (!captured, !captured2) with
  | Some a, Some b ->
      check Alcotest.string "journal digest byte-stable across same-seed replays"
        (C.Journal.digest (C.Journal.replay (C.Master.journal a)))
        (C.Journal.digest (C.Journal.replay (C.Master.journal b)))
  | _ -> Alcotest.fail "masters not captured"

(* Synchronous shipping: every append reaches the standby before the
   primary proceeds, so the shadow journal has zero lag when the crash
   lands.  The failover contract is the same. *)
let test_failover_ship_sync () =
  let config = { standby_config with Cfg.ship_sync = true } in
  let cnf = Workloads.Php.instance ~pigeons:6 ~holes:5 in
  let baseline = solve ~config cnf in
  check Alcotest.string "sync-ship baseline is unsat" "UNSAT"
    (answer_kind baseline.C.Master.answer);
  let at = Float.max 4. (0.3 *. baseline.C.Master.time) in
  let r =
    solve ~config
      ~fault_plan:[ F.Crash_master { at; restart_after = infinity; by_verdict = false } ]
      cnf
  in
  check Alcotest.string "verdict survives under sync shipping" "UNSAT"
    (answer_kind r.C.Master.answer);
  check Alcotest.int "exactly one promotion" 1 (C.Master.counter r "promotions");
  check Alcotest.int "replication never diverged" 0 (C.Master.counter r "replication_divergences")

(* A crash due by the verdict lands in a run that ends before its [at]:
   the master dies as it is about to announce the verdict, the standby
   promotes, and the promoted master reaches the same verdict.  Without
   [by_verdict] the same plan never fires. *)
let test_failover_crash_by_verdict () =
  let cnf = Workloads.Php.instance ~pigeons:6 ~holes:5 in
  let baseline = solve ~config:standby_config cnf in
  let at = baseline.C.Master.time +. 100. in
  let run by_verdict =
    solve ~config:standby_config
      ~fault_plan:[ F.Crash_master { at; restart_after = infinity; by_verdict } ]
      cnf
  in
  let late = run false in
  check Alcotest.int "a crash past the run's end never lands" 0
    (C.Master.counter late "promotions");
  let r = run true in
  check Alcotest.string "the promoted master reaches the verdict" "UNSAT"
    (answer_kind r.C.Master.answer);
  check Alcotest.int "one crash" 1
    (List.length
       (List.filter (fun e -> e.C.Events.kind = C.Events.Master_crashed) r.C.Master.events));
  check Alcotest.int "exactly one promotion" 1 (C.Master.counter r "promotions");
  check Alcotest.int "replication never diverged" 0 (C.Master.counter r "replication_divergences");
  check bool "the run outlived the unfaulted one" true
    (r.C.Master.time > baseline.C.Master.time)

(* The health model scores the hosts that can take work.  With hedging
   and synchronous shipping the standby acks every journal append; none
   of those acks, nor a retry toward the standby, may give it a row. *)
let test_health_pool_hosts_only () =
  let config = { standby_config with Cfg.ship_sync = true; hedge = true } in
  let captured = ref None in
  let r =
    solve ~config ~on_master:(fun m -> captured := Some m) (Workloads.Php.instance ~pigeons:6 ~holes:5)
  in
  check Alcotest.string "verdict" "UNSAT" (answer_kind r.C.Master.answer);
  check bool "the standby acked shipments" true (r.C.Master.ships > 0);
  match Option.bind !captured C.Master.health with
  | None -> Alcotest.fail "no health model"
  | Some hm ->
      let hosts = List.map (fun v -> v.C.Health.v_host) (C.Health.views hm) in
      check bool "pool hosts scored" true (hosts <> []);
      check (Alcotest.list Alcotest.int) "no host at or below 0" []
        (List.filter (fun h -> h <= 0) hosts)

(* Dueling masters: a partition cuts the standby off while the primary is
   perfectly healthy.  The lease expires, the standby promotes, and when
   the partition heals the fleet must observably refuse the superseded
   primary's traffic (stale-epoch rejections) and fence it for good. *)
let test_failover_partition_then_heal () =
  (* a longer grace so reconciliation happens after the heal delivers the
     retried resync broadcasts to the fleet *)
  let config = { standby_config with Cfg.resync_grace = 15. } in
  let cnf = Workloads.Php.instance ~pigeons:7 ~holes:6 in
  let baseline = solve ~config cnf in
  let p0 = Float.max 3. (0.2 *. baseline.C.Master.time) in
  let plan =
    [ F.Partition_site { site = C.Replica.site; from_t = p0; until_t = p0 +. 12. } ]
  in
  let captured = ref None in
  let r = solve ~config ~fault_plan:plan ~on_master:(fun m -> captured := Some m) cnf in
  check Alcotest.string "verdict survives dueling masters" "UNSAT"
    (answer_kind r.C.Master.answer);
  check Alcotest.int "exactly one promotion" 1 (C.Master.counter r "promotions");
  check bool "stale-epoch frames observably rejected after the heal" true
    (C.Master.counter r "stale_epoch_rejections" > 0);
  check bool "stale rejection visible in the event log" true
    (has_event (function C.Events.Stale_epoch_rejected _ -> true | _ -> false) r);
  check bool "the superseded primary was fenced" true
    (has_event (function C.Events.Stale_primary_fenced _ -> true | _ -> false) r);
  check Alcotest.int "replication never diverged" 0 (C.Master.counter r "replication_divergences");
  (match !captured with
  | None -> Alcotest.fail "master not captured"
  | Some m -> check Alcotest.int "run concluded at epoch 1" 1 (C.Master.epoch m));
  (* same plan, same seed: the dueling timeline replays exactly *)
  let again = solve ~config ~fault_plan:plan cnf in
  check bool "identical event timeline on replay" true (r.C.Master.events = again.C.Master.events)

(* Dueling masters must never double-grant: run the same partition under
   full certification.  If the superseded primary's traffic could still
   place or resolve work, a branch would end up double-covered or a
   conflicting claim would fail its fragment check — either way a
   quarantine.  A clean certified UNSAT with zero quarantines is the
   strongest exactly-once witness the pipeline has. *)
let test_failover_dueling_never_double_grants () =
  let config =
    {
      certify_config with
      Cfg.standby = true;
      ship_interval = 1.;
      standby_lease = 8.;
      retry_base = 1.;
      retry_max_attempts = 6;
      resync_grace = 15.;
    }
  in
  let cnf = Workloads.Php.instance ~pigeons:7 ~holes:6 in
  let baseline = solve ~config cnf in
  let p0 = Float.max 3. (0.2 *. baseline.C.Master.time) in
  let plan =
    [ F.Partition_site { site = C.Replica.site; from_t = p0; until_t = p0 +. 12. } ]
  in
  let r = solve ~config ~fault_plan:plan cnf in
  check Alcotest.string "certified UNSAT under dueling masters" "UNSAT"
    (answer_kind r.C.Master.answer);
  check Alcotest.int "exactly one promotion" 1 (C.Master.counter r "promotions");
  check bool "refuted branches carried certified fragments" true
    (C.Master.counter r "certified_fragments" > 0);
  check Alcotest.int "no client was quarantined: nothing was double-granted" 0
    (C.Master.counter r "quarantines")

(* The replication-lag worst case: the primary dies before its first
   non-empty ship flush, so the standby promotes onto an effectively
   empty shadow journal.  Two sub-cases: the crash lands before any
   client even got the root problem (everything must be bootstrapped
   from the CNF), or just after the root was assigned (the sole record
   of the search is a busy client's resync reply).  Both must still end
   in the fault-free verdict with one promotion and no replay-restart. *)
let test_failover_empty_shadow () =
  let cnf = Workloads.Php.instance ~pigeons:6 ~holes:5 in
  let baseline = solve ~config:standby_config cnf in
  check Alcotest.string "empty-shadow baseline is unsat" "UNSAT"
    (answer_kind baseline.C.Master.answer);
  List.iter
    (fun (label, at) ->
      let r =
        solve ~config:standby_config
          ~fault_plan:[ F.Crash_master { at; restart_after = infinity; by_verdict = false } ]
          cnf
      in
      check Alcotest.string (label ^ ": verdict survives an empty shadow") "UNSAT"
        (answer_kind r.C.Master.answer);
      check Alcotest.int (label ^ ": exactly one promotion") 1 (C.Master.counter r "promotions");
      check bool (label ^ ": no replay-restart") false
        (has_event (function C.Events.Master_restarted -> true | _ -> false) r))
    [ ("crash before first assignment", 0.5); ("crash right after first assignment", 1.4) ]

(* At-rest rot of the primary's journal is not a replication divergence:
   the standby still holds the rotted records, and the log digest both
   sides compare was taken at append time.  The rot surfaces where the
   primary reads its own storage, here its next compaction. *)
let test_failover_storage_rot_no_divergence () =
  let config = { standby_config with Cfg.journal_compact_every = 8 } in
  let cnf = Workloads.Php.instance ~pigeons:7 ~holes:6 in
  let baseline = solve ~config cnf in
  let plan =
    [
      F.Corrupt_storage
        { at = crash_time baseline.C.Master.time; journal_records = 2; checkpoints = false };
    ]
  in
  let r = solve ~config ~fault_plan:plan cnf in
  check Alcotest.string "verdict survives journal rot under a standby" "UNSAT"
    (answer_kind r.C.Master.answer);
  check bool "storage corruption logged" true
    (has_event (function C.Events.Storage_corrupted _ -> true | _ -> false) r);
  check bool "batches shipped" true (r.C.Master.ships > 0);
  check Alcotest.int "replication never diverged" 0 (C.Master.counter r "replication_divergences");
  check Alcotest.int "both rotten records dropped at the primary's compaction" 2
    (C.Master.counter r "journal_records_dropped")

(* ---------- replication check, driven directly ---------- *)

(* A bare replication link: a [Replica] on its own simulator and bus, and
   a stub primary at id 0 that ships through a [Reliable] stream of its
   own, as the master does, and records every verified payload it hears
   and every shipment its stream settles. *)
type link = {
  sim : Grid.Sim.t;
  bus : C.Protocol.msg Grid.Everyware.t;
  replica : C.Replica.t;
  rel : C.Reliable.t;  (* the stub primary's stream *)
  heard : C.Protocol.msg list ref;  (* newest first *)
  settled : C.Protocol.msg list ref;  (* shipments the standby acked, newest first *)
  logged : C.Events.kind list ref;  (* newest first *)
}

(* Registers a stub endpoint that records what it hears, unwrapped from
   its frame; a corrupt frame is recorded as [Corrupt_payload].  With
   [rel], every frame also goes through [Reliable.receive], so the
   endpoint's acks settle that channel. *)
let stub ?rel bus ~id ~site heard =
  Grid.Everyware.register bus ~id ~site ~handler:(fun ~src msg ->
      (match C.Protocol.verify msg with
      | `Ok m -> heard := m :: !heard
      | `Corrupt _ -> heard := C.Protocol.Corrupt_payload :: !heard);
      Option.iter
        (fun rel ->
          C.Reliable.receive ~rel (C.Reliable.streams_of rel) ~me:id ~epoch:0
            ~reply:(fun ~dst:_ _ -> ())
            ~log:ignore
            ~deliver:(fun ~src:_ _ -> ())
            ~src msg)
        rel)

let replication_link () =
  let sim = Grid.Sim.create () in
  let bus = Grid.Everyware.create sim (Grid.Network.create ()) in
  let heard = ref [] and settled = ref [] and logged = ref [] in
  let rel =
    C.Reliable.create ~sim
      ~send_raw:(fun ~dst msg -> C.Protocol.send bus ~src:0 ~dst ~epoch:0 msg)
      ~active:(fun () -> true)
      ~retry_base:1. ~max_attempts:3
      ~on_retry:(fun ~dst:_ ~attempt:_ -> ())
      ~on_ack:(fun ~dst:_ ~latency:_ msg -> settled := msg :: !settled)
      ~on_give_up:(fun ~dst:_ _ -> Alcotest.fail "a shipment was given up")
      ()
  in
  stub ~rel bus ~id:0 ~site:"east" heard;
  let replica =
    C.Replica.create ~sim ~bus
      ~cfg:{ Cfg.default with Cfg.standby_lease = 1e6 }
      ~log:(fun k -> logged := k :: !logged)
      ~on_lease_expired:(fun () -> Alcotest.fail "the lease must not expire")
      ()
  in
  { sim; bus; replica; rel; heard; settled; logged }

(* The standby's applied count as the settled shipments tell the
   primary, oldest first, through the master's own [Replica.receipt]. *)
let receipt link =
  List.fold_left (fun applied m -> C.Replica.receipt ~applied m) 0 (List.rev !(link.settled))

(* Ship one batch on the stub primary's stream and let the link settle. *)
let ship link ~seq ~entries ~log_digest =
  C.Reliable.send link.rel ~dst:C.Replica.standby_id (C.Protocol.Ship { seq; entries; log_digest });
  Grid.Sim.run link.sim ~until:(Grid.Sim.now link.sim +. 5.)

(* The donor's second report of the branch it kept (a resync after the
   split) leaves the replayed state unchanged: only a check over the log
   itself notices it missing. *)
let shipped_entries =
  let open C.Journal in
  [
    Registered { client = 1 };
    Assigned { pid = (0, 0); dst = 1; path = [] };
    Split
      {
        donor = 1;
        donor_pid = (0, 0);
        donor_path = [ Sat.Types.neg 3 ];
        pid = (1, 1);
        dst = 2;
        path = [ Sat.Types.pos 3 ];
      };
    Adopted { pid = (0, 0); client = 1; path = [ Sat.Types.neg 3 ] };
    Refuted { pid = (1, 1) };
  ]

let log_digest_of entries =
  let j = C.Journal.create ~compact_every:4 () in
  List.iter (C.Journal.append j) entries;
  C.Journal.log_digest j

let count_logged link p = List.length (List.filter p !(link.logged))

let diverged = function C.Events.Replication_diverged _ -> true | _ -> false

let test_replica_matching_batch () =
  let link = replication_link () in
  let n = List.length shipped_entries in
  ship link ~seq:0 ~entries:shipped_entries ~log_digest:(log_digest_of shipped_entries);
  check Alcotest.int "the stream's ack is the receipt" n (receipt link);
  check Alcotest.int "applied" n (C.Replica.applied link.replica);
  check Alcotest.int "one batch" 1 (C.Replica.batches link.replica);
  check Alcotest.int "no divergence" 0 (C.Replica.divergences link.replica);
  check Alcotest.int "nothing logged" 0 (List.length !(link.logged))

(* The primary wrote [shipped_entries]; the batch the standby receives
   lost one entry, swapped two or altered a field.  Each must count
   exactly one divergence and log it. *)
let test_replica_divergent_batches () =
  let open C.Journal in
  let swap = function a :: b :: rest -> b :: a :: rest | l -> l in
  let alter =
    List.map (function Adopted a -> Adopted { a with client = a.client + 1 } | e -> e)
  in
  let without_report = List.filter (function Adopted _ -> false | _ -> true) shipped_entries in
  let state_digest_of entries =
    let j = create ~compact_every:64 () in
    List.iter (append j) entries;
    digest (replay j)
  in
  check Alcotest.string "dropping the second report leaves the replayed state equal"
    (state_digest_of shipped_entries) (state_digest_of without_report);
  List.iter
    (fun (label, entries) ->
      let link = replication_link () in
      ship link ~seq:0 ~entries ~log_digest:(log_digest_of shipped_entries);
      check Alcotest.int (label ^ ": one divergence") 1 (C.Replica.divergences link.replica);
      check Alcotest.int (label ^ ": divergence logged") 1 (count_logged link diverged);
      check Alcotest.int (label ^ ": settled") 1 (List.length !(link.settled)))
    [
      ("dropped", without_report);
      ("swapped", swap shipped_entries);
      ("altered", alter shipped_entries);
    ]

(* The stream delivers every batch in order, so one that does not start
   at the applied count means the shadow is no longer a prefix of the
   primary's log: one divergence, and the batch is not applied.  The
   stream still settles it, and the primary's receipt must not move past
   what the standby applied. *)
let test_replica_skip_ahead () =
  let link = replication_link () in
  let first = List.filteri (fun i _ -> i < 3) shipped_entries
  and rest = List.filteri (fun i _ -> i >= 4) shipped_entries in
  ship link ~seq:0 ~entries:first ~log_digest:(log_digest_of first);
  ship link ~seq:4 ~entries:rest ~log_digest:(log_digest_of shipped_entries);
  check Alcotest.int "one divergence" 1 (C.Replica.divergences link.replica);
  check (Alcotest.list Alcotest.int) "divergence logged at the skipping batch" [ 4 ]
    (List.filter_map
       (function C.Events.Replication_diverged { seq } -> Some seq | _ -> None)
       !(link.logged));
  check Alcotest.int "not applied" 3 (C.Replica.applied link.replica);
  check Alcotest.int "one batch" 1 (C.Replica.batches link.replica);
  check Alcotest.int "both settled" 2 (List.length !(link.settled));
  check Alcotest.int "the receipt stays at the applied count" 3 (receipt link)

(* ---------- one receive path ---------- *)

(* An endpoint under test at epoch 1, on its own simulator and bus, and a
   stub peer that sends it frames and records the verified replies. *)
type endpoint = {
  esim : Grid.Sim.t;
  ebus : C.Protocol.msg Grid.Everyware.t;
  target : int;
  peer : int;
  replies : C.Protocol.msg list ref;  (* what the peer heard, newest first *)
  events : unit -> C.Events.kind list;
  payload : C.Protocol.msg;  (* a reliable payload with a countable effect *)
  delivered : unit -> int;  (* how often [payload] took effect *)
  announcer : int;  (* who may announce a succession to [target] *)
  succeeded : unit -> bool;  (* the endpoint's succession step ran *)
}

let settle sim seconds = Grid.Sim.run sim ~until:(Grid.Sim.now sim +. seconds)

let frame_to e ?(src = e.peer) ?(rot = false) ~epoch msg =
  let m = C.Protocol.frame ~epoch msg in
  let m = if rot then C.Protocol.corrupt m else m in
  Grid.Everyware.send e.ebus ~src ~dst:e.target ~bytes:(C.Protocol.size m) m;
  settle e.esim 1.

let count p l = List.length (List.filter p l)

(* A promoted master at id -1: no client can start (too little memory),
   so host 1's id is free for the stub, and the pool still lists it. *)
let master_endpoint () =
  let sim = Grid.Sim.create () in
  let net = Grid.Network.create () in
  let bus = Grid.Everyware.create sim net in
  let testbed = C.Testbed.uniform ~n:1 ~speed:500. () in
  let cfg =
    { Cfg.default with Cfg.standby = true; min_client_memory = max_int; suspect_timeout = 1e6 }
  in
  let m = C.Master.create ~sim ~net ~bus ~cfg ~testbed (Workloads.Php.instance ~pigeons:4 ~holes:3) in
  let replies = ref [] in
  stub bus ~id:1 ~site:testbed.C.Testbed.master_site replies;
  C.Master.crash_master m;
  while not (C.Master.promoted m) do
    settle sim 5.
  done;
  check Alcotest.int "promoted to epoch 1" 1 (C.Master.epoch m);
  let events () = List.map (fun e -> e.C.Events.kind) (C.Master.events_so_far m) in
  {
    esim = sim;
    ebus = bus;
    target = C.Replica.standby_id;
    peer = 1;
    replies;
    events;
    payload = C.Protocol.Register;
    delivered = (fun () -> count (function C.Events.Client_started 1 -> true | _ -> false) (events ()));
    announcer = 1;
    succeeded =
      (fun () -> List.exists (function C.Events.Stale_primary_fenced _ -> true | _ -> false) (events ()));
  }

(* A client of a stub master at id 0, raised to epoch 1 by a verified
   notice; a second stub at id -1 plays the promoted standby. *)
let client_endpoint () =
  let sim = Grid.Sim.create () in
  let bus = Grid.Everyware.create sim (Grid.Network.create ()) in
  let host = List.hd (C.Testbed.uniform ~n:1 ~speed:500. ()).C.Testbed.hosts in
  let site = host.C.Testbed.resource.Grid.Resource.site in
  let replies = ref [] and successor = ref [] and logged = ref [] in
  stub bus ~id:0 ~site replies;
  stub bus ~id:C.Replica.standby_id ~site successor;
  let c =
    C.Client.create ~sim ~bus ~cfg:Cfg.default ~resource:host.C.Testbed.resource
      ~trace:host.C.Testbed.trace ~master:0
      {
        C.Client.log = (fun k -> logged := k :: !logged);
        save_checkpoint = (fun ~client:_ ~pid:_ _ -> ());
        note_dup = ignore;
        note_outbox = (fun ~depth:_ ~shed:_ -> ());
      }
  in
  let e =
    {
      esim = sim;
      ebus = bus;
      target = C.Client.id c;
      peer = 0;
      replies;
      events = (fun () -> !logged);
      payload = C.Protocol.Resync_request;
      (* each delivery sends one Resync, retried under one mid *)
      delivered =
        (fun () ->
          List.sort_uniq compare
            (List.filter_map
               (function
                 | C.Protocol.Reliable { mid; payload = C.Protocol.Resync _; _ } -> Some mid
                 | _ -> None)
               !replies)
          |> List.length);
      announcer = C.Replica.standby_id;
      succeeded =
        (fun () ->
          (* heartbeats now go to the successor *)
          settle sim (2. *. Cfg.default.Cfg.heartbeat_period);
          List.exists (function C.Protocol.Heartbeat _ -> true | _ -> false) !successor);
    }
  in
  frame_to e ~epoch:1 C.Protocol.Epoch_notice;
  replies := [];
  e

(* The standby on a bare replication link, raised to epoch 1 by a
   verified notice from the primary. *)
let standby_endpoint () =
  let link = replication_link () in
  let e =
    {
      esim = link.sim;
      ebus = link.bus;
      target = C.Replica.standby_id;
      peer = 0;
      replies = link.heard;
      events = (fun () -> !(link.logged));
      payload =
        C.Protocol.Ship
          { seq = 0; entries = shipped_entries; log_digest = log_digest_of shipped_entries };
      (* the row's one batch applies on its first delivery and diverges
         on any later one (it no longer starts at the applied count) *)
      delivered =
        (fun () -> C.Replica.batches link.replica + C.Replica.divergences link.replica);
      announcer = 0;
      succeeded = (fun () -> C.Replica.epoch link.replica = 2);
    }
  in
  frame_to e ~epoch:1 C.Protocol.Epoch_notice;
  e

let stale = function C.Events.Stale_epoch_rejected _ -> true | _ -> false

let rot = function C.Events.Corrupt_message_detected _ -> true | _ -> false

(* Every endpoint receives through [Reliable.receive], so each row holds
   at the master, a client and the standby alike. *)
let receive_rows =
  [
    ( "a corrupt frame at a stale epoch is fenced, not NACKed",
      fun e ->
        frame_to e ~rot:true ~epoch:0 (C.Protocol.Reliable { mid = 7; low = 7; payload = e.payload });
        check Alcotest.int "one epoch notice" 1
          (count (( = ) C.Protocol.Epoch_notice) !(e.replies));
        check Alcotest.int "no nack" 0
          (count (function C.Protocol.Nack _ -> true | _ -> false) !(e.replies));
        check Alcotest.int "stale frame logged" 1 (count stale (e.events ()));
        check Alcotest.int "rot not logged" 0 (count rot (e.events ())) );
    ( "a corrupt reliable envelope at the current epoch is NACKed",
      fun e ->
        frame_to e ~rot:true ~epoch:1 (C.Protocol.Reliable { mid = 8; low = 8; payload = e.payload });
        check Alcotest.int "one nack for mid 8" 1
          (count (( = ) (C.Protocol.Nack { mid = 8 })) !(e.replies));
        check Alcotest.int "nothing delivered" 0 (e.delivered ());
        check Alcotest.int "rot logged" 1 (count rot (e.events ())) );
    ( "the same mid twice is acked twice and delivered once",
      fun e ->
        frame_to e ~epoch:1 (C.Protocol.Reliable { mid = 9; low = 9; payload = e.payload });
        frame_to e ~epoch:1 (C.Protocol.Reliable { mid = 9; low = 9; payload = e.payload });
        check Alcotest.int "two acks" 2 (count (( = ) (C.Protocol.Ack { mid = 9 })) !(e.replies));
        check Alcotest.int "one delivery" 1 (e.delivered ()) );
    ( "an envelope past a gap waits for it",
      fun e ->
        frame_to e ~epoch:1 (C.Protocol.Reliable { mid = 1; low = 0; payload = e.payload });
        check Alcotest.int "nothing delivered ahead of the gap" 0 (e.delivered ());
        check (Alcotest.list Alcotest.bool) "the gap NACKed, nothing acked" [ true ]
          (List.filter_map
             (function
               | C.Protocol.Nack { mid } -> Some (mid = 0) | C.Protocol.Ack _ -> Some false | _ -> None)
             !(e.replies));
        frame_to e ~epoch:1 (C.Protocol.Reliable { mid = 0; low = 0; payload = e.payload });
        check Alcotest.int "one cumulative ack" 1
          (count (( = ) (C.Protocol.Ack { mid = 1 })) !(e.replies));
        check bool "delivered once the gap filled" true (e.delivered () > 0) );
    ( "a verified newer epoch runs the succession step",
      fun e ->
        check bool "not before" false (e.succeeded ());
        frame_to e ~src:e.announcer ~epoch:2 C.Protocol.Epoch_notice;
        check bool "after" true (e.succeeded ()) );
  ]

let receive_cases =
  List.concat_map
    (fun (row, test) ->
      List.map
        (fun (name, make) ->
          Alcotest.test_case (Printf.sprintf "%s: %s" name row) `Quick (fun () -> test (make ())))
        [ ("master", master_endpoint); ("client", client_endpoint); ("standby", standby_endpoint) ])
    receive_rows

(* Property (satellite): the continuous consistency check never trips.
   Every applied ship batch compares the standby's shadow log digest
   against the primary's log digest at flush time; under arbitrary
   seeded loss/duplication plans — the in-order stream's retries
   absorbing the noise — and in either shipping mode, every batch must
   start at the applied count and the digests must match. *)
let prop_shadow_digest_matches =
  let gen =
    let open QCheck.Gen in
    float_bound_inclusive 0.2 >>= fun drop_p ->
    float_bound_inclusive 0.2 >>= fun dup_p ->
    bool >|= fun sync -> (drop_p, dup_p, sync)
  in
  let print (drop_p, dup_p, sync) =
    Printf.sprintf "drop_p=%g dup_p=%g ship=%s" drop_p dup_p (if sync then "sync" else "async")
  in
  QCheck.Test.make ~count:10 ~name:"standby shadow digest matches at every ship ack"
    (QCheck.make ~print gen) (fun (drop_p, dup_p, sync) ->
      let config = { standby_config with Cfg.ship_sync = sync } in
      let plan =
        [
          F.Drop_messages
            { src_site = None; dst_site = None; p = drop_p; from_t = 0.; until_t = infinity };
          F.Duplicate_messages { p = dup_p; extra = 0.1; from_t = 0.; until_t = infinity };
        ]
      in
      let r = solve ~config ~fault_plan:plan (Workloads.Php.instance ~pigeons:6 ~holes:5) in
      answer_kind r.C.Master.answer = "UNSAT"
      && r.C.Master.ships > 0
      && C.Master.counter r "replication_divergences" = 0)

(* A client whose master stays down past its retry budget.  An idle
   client answers each Split_partner from a peer with a Split_failed to
   the master, so the test chooses when it sends a control message:
   one before the give-up and three after it.  Every one waits on the
   stream, none in the outbox, and the master that comes back at the
   same endpoint receives each once, in send order. *)
let test_outage_keeps_control_order () =
  let sim = Grid.Sim.create () in
  let bus = Grid.Everyware.create sim (Grid.Network.create ()) in
  let host = List.hd (C.Testbed.uniform ~n:1 ~speed:500. ()).C.Testbed.hosts in
  let site = host.C.Testbed.resource.Grid.Resource.site in
  let cfg = { Cfg.default with Cfg.retry_base = 0.25; retry_max_attempts = 3 } in
  let logged = ref [] and outbox_peak = ref 0 in
  let c =
    C.Client.create ~sim ~bus ~cfg ~resource:host.C.Testbed.resource ~trace:host.C.Testbed.trace
      ~master:0
      {
        C.Client.log = (fun k -> logged := k :: !logged);
        save_checkpoint = (fun ~client:_ ~pid:_ _ -> ());
        note_dup = ignore;
        note_outbox = (fun ~depth ~shed:_ -> outbox_peak := max !outbox_peak depth);
      }
  in
  let cid = C.Client.id c in
  let peer = cid + 1 in
  Grid.Everyware.register bus ~id:peer ~site ~handler:(fun ~src:_ _ -> ());
  (* the simulator's clock stops at its last event, so wait to absolute times *)
  let clock = ref 0. in
  let wait seconds =
    clock := !clock +. seconds;
    Grid.Sim.run sim ~until:!clock
  in
  let ask partner =
    C.Protocol.send bus ~src:peer ~dst:cid ~epoch:0 (C.Protocol.Split_partner { partner });
    wait 0.5
  in
  let outages () =
    count (function C.Events.Master_outage_detected _ -> true | _ -> false) !logged
  in
  wait 1.5 (* the client registers at 1 s, into the void *);
  ask 0;
  while outages () = 0 && !clock < 60. do
    wait 0.5
  done;
  check Alcotest.int "the stream gave up toward the master" 1 (outages ());
  ask 1;
  ask 2;
  wait 20. (* the re-sent tail gives up again, and is re-sent again *);
  ask 3;
  check bool "the tail gave up more than once" true
    (count (function C.Events.Retries_exhausted _ -> true | _ -> false) !logged > 1);
  check Alcotest.int "the outage was flagged once" 1 (outages ());
  let delivered = ref [] in
  let rx = C.Reliable.streams () in
  Grid.Everyware.register bus ~id:0 ~site ~handler:(fun ~src msg ->
      C.Reliable.receive rx ~me:0 ~epoch:0
        ~reply:(fun ~dst m -> C.Protocol.send bus ~src:0 ~dst ~epoch:0 m)
        ~log:ignore
        ~deliver:(fun ~src:_ m -> if C.Protocol.critical m then delivered := m :: !delivered)
        ~src msg);
  wait 60.;
  check bool "each control message arrived once, in send order" true
    (List.rev !delivered
    = C.Protocol.Register
      :: List.init 4 (fun partner -> C.Protocol.Split_failed { partner }));
  check Alcotest.int "the outbox never held a control message" 0 !outbox_peak

let () =
  let matrix =
    List.concat_map
      (fun s ->
        List.map
          (fun w ->
            Alcotest.test_case (Printf.sprintf "%s on %s" s.sname (fst w)) `Slow (run_scenario s w))
          workloads)
      scenarios
  in
  Alcotest.run "chaos"
    [
      ("matrix", matrix);
      ( "counters",
        [
          Alcotest.test_case "partition retries" `Slow test_partition_retries;
          Alcotest.test_case "loss counters" `Slow test_loss_counters_surface;
          Alcotest.test_case "checkpoint restores match recoveries" `Slow
            test_restores_match_recoveries;
        ] );
      ( "durability",
        [
          Alcotest.test_case "journal replay deterministic" `Slow test_journal_replay_deterministic;
          Alcotest.test_case "client dies during outage, no checkpoint" `Slow
            test_client_dies_during_outage_no_checkpoint;
          Alcotest.test_case "control messages keep their order across a give-up" `Quick
            test_outage_keeps_control_order;
          Alcotest.test_case "refutation tombstone survives reorder" `Quick
            test_refutation_tombstone_survives_reorder;
          Alcotest.test_case "late creating split keeps the child" `Quick
            test_late_creating_split_keeps_child;
          Alcotest.test_case "reconcile keeps a queued recovery" `Slow
            test_reconcile_keeps_queued_recovery;
          QCheck_alcotest.to_alcotest prop_journal_current_is_replay;
          QCheck_alcotest.to_alcotest prop_journal_recover_after_rot;
          QCheck_alcotest.to_alcotest prop_joblog_quota_tracks_bytes;
        ] );
      ( "integrity",
        [
          Alcotest.test_case "certified UNSAT under 5% corruption" `Slow
            test_certified_unsat_under_corruption;
          Alcotest.test_case "forged refutation quarantined" `Slow
            test_forged_refutation_quarantined;
          Alcotest.test_case "certified UNSAT under loss, no quarantine" `Slow
            test_certify_loss_no_quarantine;
          Alcotest.test_case "certify journals the master's lineage" `Slow
            test_certify_journal_keeps_master_path;
          Alcotest.test_case "checkpoint rot falls back to lineage" `Slow
            test_checkpoint_rot_falls_back_to_lineage;
          Alcotest.test_case "journal corrupt tail scrubbed" `Quick
            test_journal_corrupt_tail_scrubbed;
          Alcotest.test_case "checkpoint corrupt_all discards" `Quick
            test_checkpoint_corrupt_all_discards;
        ] );
      ( "splits",
        [
          Alcotest.test_case "split failure after the last refutation concludes" `Quick
            test_split_failure_concludes;
          Alcotest.test_case "double grant closes splits by name" `Slow
            test_double_grant_closes_by_name;
          Alcotest.test_case "promoted shadow misses a split" `Slow test_shadow_misses_a_split;
          Alcotest.test_case "dead partner keeps its branch" `Slow test_dead_partner_keeps_branch;
          Alcotest.test_case "promoted master gets the stream" `Slow
            test_promoted_master_gets_the_stream;
          Alcotest.test_case "partner dead before receipt: one copy" `Slow
            test_partner_dead_before_receipt_one_copy;
        ] );
      ( "stragglers",
        [
          Alcotest.test_case "hedge exactly-once" `Slow test_hedge_exactly_once;
          Alcotest.test_case "hedge beats no-hedge" `Slow test_hedge_beats_no_hedge;
          Alcotest.test_case "hedge under certification" `Slow test_hedge_certify_stable;
          Alcotest.test_case "probation on crash" `Slow test_probation_on_crash;
          Alcotest.test_case "portfolio copy crashed" `Slow test_portfolio_copy_crash;
          Alcotest.test_case "portfolio master restart" `Slow test_portfolio_master_restart;
        ] );
      (* Alcotest cuts each test's name to fit beside the longest group
         name, so a group name longer than "durability" would shorten
         the printed names of the tests above and below. *)
      ("receive", receive_cases);
      ( "failover",
        [
          Alcotest.test_case "crash during ship" `Slow test_failover_crash_during_ship;
          Alcotest.test_case "empty shadow journal" `Slow test_failover_empty_shadow;
          Alcotest.test_case "crash due by the verdict" `Slow test_failover_crash_by_verdict;
          Alcotest.test_case "sync shipping" `Slow test_failover_ship_sync;
          Alcotest.test_case "partition then heal" `Slow test_failover_partition_then_heal;
          Alcotest.test_case "dueling masters never double-grant" `Slow
            test_failover_dueling_never_double_grants;
          QCheck_alcotest.to_alcotest prop_shadow_digest_matches;
          Alcotest.test_case "journal rot is not a divergence" `Slow
            test_failover_storage_rot_no_divergence;
          Alcotest.test_case "replica acks a matching batch" `Quick test_replica_matching_batch;
          Alcotest.test_case "replica flags divergent batches" `Quick
            test_replica_divergent_batches;
          Alcotest.test_case "replica diverges on a skipped batch" `Quick test_replica_skip_ahead;
          Alcotest.test_case "health model scores pool hosts only" `Slow test_health_pool_hosts_only;
        ] );
    ]

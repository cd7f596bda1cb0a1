(* The master's run-counter ledger: every counter has one value, whether
   it is read from [Master.result], the report's run section or the
   metrics registry, and the event-counted ones still agree with the
   old recount over the whole event list ([Legacy.Master_counts]). *)

module C = Gridsat_core
module Cfg = C.Config
module F = Grid.Fault
module J = Obs.Json

let check = Alcotest.check
let int = Alcotest.int

(* The config and fault plan of [gridsat solve -m grid --chaos], plus
   [--standby] when asked (the config as bin/gridsat_cli.ml sets it). *)
let chaos_config ~standby seed =
  let c =
    {
      Cfg.default with
      Cfg.split_timeout = 1.;
      seed;
      checkpoint = Cfg.Light;
      checkpoint_period = 2.;
      heartbeat_period = 2.;
      suspect_timeout = 8.;
      slice = 0.5;
    }
  in
  if standby then { c with Cfg.standby = true; standby_lease = 6.; ship_interval = 1. } else c

let chaos_plan ~standby = C.Gridsat.chaos_plan ~standby ~partition:false

let uniform6 () = C.Testbed.uniform ~n:6 ~speed:2000. ()

let solve ~config ~fault_plan cnf =
  let obs = Obs.create () in
  let r = C.Gridsat.solve ~config ~fault_plan ~obs ~testbed:(uniform6 ()) cnf in
  (r, obs)

let count_kind f (r : C.Master.result) =
  List.length (List.filter (fun e -> f e.C.Events.kind) r.C.Master.events)

let registry obs name =
  match List.assoc_opt name (Obs.Metrics.export_merged (Obs.metrics obs)) with
  | Some (Obs.Metrics.Counter n) -> n
  | _ -> Alcotest.failf "no registry counter %s" name

(* php-8-7 with chaos + standby at seed 12: the standby promotes after
   seven completed splits.  The split count used to be overwritten at
   promotion with the shadow journal's, reporting 3 against the
   registry's 7. *)
let test_splits_after_failover () =
  let standby = true in
  let r, obs =
    solve ~config:(chaos_config ~standby 12) ~fault_plan:(chaos_plan ~standby)
      (Workloads.Php.instance ~pigeons:8 ~holes:7)
  in
  check int "the standby took over" 1 (C.Master.counter r "promotions");
  let completed = count_kind (function C.Events.Split_completed _ -> true | _ -> false) r in
  check int "splits = Split_completed events" completed (C.Master.counter r "splits");
  check int "splits = master.splits.completed" (registry obs "master.splits.completed")
    (C.Master.counter r "splits")

let configs =
  let plain seed = { Cfg.default with Cfg.split_timeout = 5.; seed } in
  let corrupt =
    F.Corrupt_messages
      { src_site = None; dst_site = None; p = 0.02; from_t = 0.; until_t = infinity }
  in
  [
    ("fault-free", plain, []);
    ("chaos", chaos_config ~standby:false, chaos_plan ~standby:false);
    ("chaos+standby", chaos_config ~standby:true, chaos_plan ~standby:true);
    ( "certify",
      (fun seed ->
        { (plain seed) with Cfg.certify = true; share_max_len = 0 }),
      [] );
    ("corrupt-p", plain, [ corrupt ]);
    ("share-budget", (fun seed -> { (plain seed) with Cfg.share_budget = 300 }), []);
  ]

let cnfs =
  [
    ("php-7-6", Workloads.Php.instance ~pigeons:7 ~holes:6);
    ("planted-40", Workloads.Random_sat.planted ~nvars:40 ~ratio:4.26 ~seed:3 ());
    ("random-30", Workloads.Random_sat.instance ~nvars:30 ~ratio:4.26 ~seed:5 ());
  ]

let sum_kind f (r : C.Master.result) =
  List.fold_left (fun acc e -> acc + f e.C.Events.kind) 0 r.C.Master.events

(* Registry series with no report key, and the event recount each one
   must equal.  [master.migrations] and [master.client.deaths] count
   master decisions no event records. *)
let series_only =
  [
    ("master.splits.granted", sum_kind (function C.Events.Split_granted _ -> 1 | _ -> 0));
    ("master.splits.denied", sum_kind (function C.Events.Split_denied _ -> 1 | _ -> 0));
    ( "master.shares.relayed",
      sum_kind (function C.Events.Shares_broadcast { count; _ } -> count | _ -> 0) );
    ("master.recoveries.requeued", sum_kind (function C.Events.Recovery_requeued _ -> 1 | _ -> 0));
  ]

let check_run label (r, obs) =
  let ctx what = Printf.sprintf "%s: %s" label what in
  (* result against the old recount *)
  List.iter
    (fun (key, n) -> check int (ctx key) n (C.Master.counter r key))
    (Legacy.Master_counts.of_events r.C.Master.events);
  (* the report's run section against result, key by key *)
  (match J.member "run" (C.Run_report.build ~obs r) with
  | Some (J.Obj fields) ->
      let expected =
        (("answer", J.String (C.Gridsat.answer_string r.C.Master.answer))
         :: ("time", J.Float r.C.Master.time)
         :: List.map (fun (k, n) -> (k, J.Int n)) (C.Master.counters r))
        @ [ ("events", J.Int (List.length r.C.Master.events)) ]
      in
      check (Alcotest.list Alcotest.string) (ctx "run keys") (List.map fst expected)
        (List.map fst fields);
      List.iter2
        (fun (k, want) (_, got) ->
          check Alcotest.string (ctx ("run." ^ k)) (J.to_string want) (J.to_string got))
        expected fields
  | _ -> Alcotest.fail (ctx "no run section"));
  check int (ctx "typed messages") (C.Master.counter r "messages") r.C.Master.messages;
  check int (ctx "typed bytes") (C.Master.counter r "bytes") r.C.Master.bytes;
  check int (ctx "typed ships") (C.Master.counter r "ships") r.C.Master.ships;
  (* every ledger row with a registry series against its merged counter *)
  List.iter
    (fun (key, series) ->
      if series <> "" then
        match List.assoc_opt series series_only with
        | Some recount -> check int (ctx series) (recount r) (registry obs series)
        | None when key <> "" ->
            check int (ctx series) (C.Master.counter r key) (registry obs series)
        | None -> ignore (registry obs series))
    C.Master.ledger

let test_three_way () =
  List.iter
    (fun (cname, cnf) ->
      List.iter
        (fun (mode, config, fault_plan) ->
          List.iter
            (fun seed ->
              let label = Printf.sprintf "%s %s seed %d" cname mode seed in
              check_run label (solve ~config:(config seed) ~fault_plan cnf))
            [ 1; 2 ])
        configs)
    cnfs

let test_ledger_rows () =
  let keys = List.filter_map (fun (k, _) -> if k = "" then None else Some k) C.Master.ledger in
  let series = List.filter_map (fun (_, s) -> if s = "" then None else Some s) C.Master.ledger in
  check int "keys are unique" (List.length keys) (List.length (List.sort_uniq compare keys));
  check int "series are unique" (List.length series) (List.length (List.sort_uniq compare series));
  check int "17 registry series" 17 (List.length series)

let () =
  Alcotest.run "ledger"
    [
      ( "ledger",
        [
          Alcotest.test_case "splits after a failover" `Quick test_splits_after_failover;
          Alcotest.test_case "result, report and registry agree" `Quick test_three_way;
          Alcotest.test_case "ledger rows" `Quick test_ledger_rows;
        ] );
    ]

(* The observability layer: metrics registry, span recorder, exporters.

   The load-bearing properties: histogram quantiles are accurate to the
   bucket resolution on known distributions, span parent/child nesting
   is preserved across processes, the Chrome trace export is
   byte-deterministic under a deterministic clock (golden-file test),
   and the run report round-trips through the JSON parser. *)

open Alcotest
module J = Obs.Json

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

module M = Obs.Metrics
module S = Obs.Span

(* A counter key's exported value: the sum of its cells and views. *)
let exported m k =
  match List.assoc_opt k (M.export_all m) with
  | Some (M.Counter n) -> n
  | _ -> Alcotest.failf "no counter %s in the export" k

(* ---------- JSON ---------- *)

let test_json_roundtrip () =
  let doc =
    J.Obj
      [
        ("null", J.Null);
        ("flag", J.Bool true);
        ("n", J.Int (-42));
        ("x", J.Float 2.5);
        ("big", J.Float 1e300);
        ("s", J.String "a \"quoted\" line\nwith unicode \xe2\x86\x92");
        ("l", J.List [ J.Int 1; J.List []; J.Obj [] ]);
      ]
  in
  match J.of_string (J.to_string doc) with
  | Ok doc' -> check string "roundtrip" (J.to_string doc) (J.to_string doc')
  | Error e -> fail e

let test_json_parse_errors () =
  let bad s =
    match J.of_string s with Ok _ -> fail (s ^ " should not parse") | Error _ -> ()
  in
  bad "";
  bad "{";
  bad "[1,]";
  bad "{\"a\":1,}";
  bad "tru";
  bad "1 2";
  bad "\"unterminated";
  (match J.of_string "  [1, 2e3, {\"k\": null}] " with
  | Ok _ -> ()
  | Error e -> fail e);
  match J.of_string "\"\\u00e9\\u2192\"" with
  | Ok (J.String s) -> check string "utf8 escapes" "\xc3\xa9\xe2\x86\x92" s
  | Ok _ -> fail "wrong shape"
  | Error e -> fail e

let test_json_float_repr () =
  check string "integral floats stay integral" "[1,2,-0]"
    (J.to_string (J.List [ J.Float 1.0; J.Float 2.0; J.Float (-0.) ]));
  check string "nan is null" "null" (J.to_string (J.Float Float.nan));
  check string "fractions are shortest-ish" "0.1" (J.to_string (J.Float 0.1))

(* ---------- histogram quantiles ---------- *)

(* Log buckets with 4 sub-buckets/octave have ~12% relative width; allow
   a generous 20% relative error against the exact quantile. *)
let check_rel name expected got =
  let err = Float.abs (got -. expected) /. Float.max 1e-9 (Float.abs expected) in
  if err > 0.20 then
    failf "%s: expected ~%g, got %g (err %.1f%%)" name expected got (100. *. err)

let test_histogram_uniform () =
  let m = M.create ~enabled:true in
  let h = M.histogram m "u" in
  for i = 1 to 10_000 do
    M.observe h (float_of_int i)
  done;
  check int "count" 10_000 (M.hist_count h);
  check_rel "p50" 5_000. (M.quantile h 0.5);
  check_rel "p90" 9_000. (M.quantile h 0.9);
  check_rel "p99" 9_900. (M.quantile h 0.99);
  (* quantiles are clamped to the observed range *)
  check_rel "p0 near min" 1. (M.quantile h 0.);
  check (float 1e-9) "p100 is max" 10_000. (M.quantile h 1.)

let test_histogram_exponential () =
  let m = M.create ~enabled:true in
  let h = M.histogram m "e" in
  (* deterministic inverse-CDF sampling of Exp(1): x_i = -ln(1 - u_i) *)
  let n = 20_000 in
  for i = 0 to n - 1 do
    let u = (float_of_int i +. 0.5) /. float_of_int n in
    M.observe h (-.Float.log (1. -. u))
  done;
  check_rel "p50" (Float.log 2.) (M.quantile h 0.5);
  check_rel "p90" (Float.log 10.) (M.quantile h 0.9);
  check_rel "p99" (Float.log 100.) (M.quantile h 0.99)

let test_histogram_point_mass () =
  let m = M.create ~enabled:true in
  let h = M.histogram m "p" in
  for _ = 1 to 100 do
    M.observe h 7.25
  done;
  check_rel "p50" 7.25 (M.quantile h 0.5);
  check_rel "p99" 7.25 (M.quantile h 0.99);
  check (float 1e-9) "sum" 725. (M.hist_sum h)

let test_histogram_edge_samples () =
  let m = M.create ~enabled:true in
  let h = M.histogram m "edge" in
  M.observe h 0.;
  M.observe h Float.nan;
  M.observe h (-3.);
  M.observe h Float.infinity;
  check int "all samples counted" 4 (M.hist_count h);
  check (float 1e-9) "empty quantile" 0. (M.quantile (M.histogram m "empty") 0.5)

let test_metrics_registry () =
  let m = M.create ~enabled:true in
  let c1 = M.counter m ~labels:[ ("client", "1") ] "x" in
  let c1' = M.counter m ~labels:[ ("client", "1") ] "x" in
  let c2 = M.counter m ~labels:[ ("client", "2") ] "x" in
  M.incr c1;
  M.add c1' 2;
  M.incr c2;
  check int "own cell" 1 (M.counter_value c1);
  check int "same key sums at export" 3 (exported m "x{client=1}");
  check int "distinct labels" 1 (exported m "x{client=2}");
  (* a view is read at export and summed with the key's cells *)
  let kept = ref 4 in
  M.view m ~labels:[ ("client", "1") ] "x" (fun () -> !kept);
  kept := 5;
  check int "view read at export" 8 (exported m "x{client=1}");
  M.view m "v" (fun () -> 7);
  check int "lone view" 7 (exported m "v");
  M.view m "v" (fun () -> 1);
  M.incr (M.counter m "v");
  check int "views and a cell sum" 9 (exported m "v");
  let g = M.gauge m "g" in
  M.gauge_max g 5.;
  M.gauge_max g 3.;
  check (float 1e-9) "gauge_max keeps max" 5. (M.gauge_value g);
  (* disabled registry: a counter is still its caller's own count, and
     nothing is exported *)
  let d = M.counter M.disabled "y" in
  M.incr d;
  check int "disabled cell counts" 1 (M.counter_value d);
  M.view M.disabled "z" (fun () -> 1);
  check string "disabled exports empty" "{}" (J.to_string (M.to_json M.disabled))

(* ---------- JSON parser hardening ---------- *)

let test_json_hardening () =
  let bad s =
    match J.of_string s with Ok _ -> fail (s ^ " should not parse") | Error _ -> ()
  in
  (* malformed and truncated escapes *)
  bad "\"\\u12\"";
  bad "\"\\u12G4\"";
  bad "\"\\x41\"";
  bad "\"\\";
  bad "\"\\u\"";
  (* truncated documents *)
  bad "{\"a\": [1, 2";
  bad "[1,2";
  bad "{\"a\"";
  bad "{\"a\":";
  bad "[{\"k\": \"v\"}";
  (* duplicate keys parse; member resolves to the first binding *)
  (match J.of_string "{\"a\":1,\"a\":2}" with
  | Ok doc -> (
      match J.member "a" doc with
      | Some (J.Int 1) -> ()
      | _ -> fail "duplicate key: first binding must win")
  | Error e -> fail e);
  (* nesting: bounded recursion returns Error instead of crashing *)
  let deep n = String.make n '[' ^ "1" ^ String.make n ']' in
  (match J.of_string (deep 400) with Ok _ -> () | Error e -> fail e);
  bad (deep 100_000);
  bad (String.make 100_000 '[');
  (* same bound through object nesting *)
  let deep_obj n =
    String.concat "" (List.init n (fun _ -> "{\"k\":")) ^ "1" ^ String.make n '}'
  in
  (match J.of_string (deep_obj 400) with Ok _ -> () | Error e -> fail e);
  bad (deep_obj 100_000)

(* ---------- histogram merge preserves quantiles (property) ---------- *)

(* Scoped registries share one table, so observing the same instrument
   name under two label scopes and reading the merged view is the merge
   under test.  Merging is bucket-wise count addition, so the merged
   quantiles must equal those of a single histogram fed the union, and
   sit inside the union's [min, max]. *)
let test_histogram_merge_prop =
  let gen =
    QCheck.Gen.(
      pair
        (list_size (int_range 1 120) (float_range 0.01 10_000.))
        (list_size (int_range 1 120) (float_range 0.01 10_000.)))
  in
  QCheck.Test.make ~name:"histogram merge preserves quantile bounds" ~count:200
    (QCheck.make gen) (fun (xs, ys) ->
      let m = M.create ~enabled:true in
      let h1 = M.histogram (M.scope m ~labels:[ ("job", "1") ]) "lat" in
      let h2 = M.histogram (M.scope m ~labels:[ ("job", "2") ]) "lat" in
      List.iter (M.observe h1) xs;
      List.iter (M.observe h2) ys;
      let direct = M.histogram (M.create ~enabled:true) "lat" in
      List.iter (M.observe direct) (xs @ ys);
      let union = List.sort compare (xs @ ys) in
      let mn = List.hd union and mx = List.nth union (List.length union - 1) in
      match List.assoc_opt "lat" (M.export_merged m) with
      | Some (M.Histogram e) ->
          let close a b =
            Float.abs (a -. b) <= 1e-9 *. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b))
          in
          e.count = List.length union
          && close e.lo mn && close e.hi mx
          && List.for_all
               (fun (q, merged_q) ->
                 close merged_q (M.quantile direct q)
                 && merged_q >= mn -. 1e-9 && merged_q <= mx +. 1e-9)
               [ (0.5, e.p50); (0.9, e.p90); (0.99, e.p99) ]
      | _ -> false)

(* ---------- scoped registries and the merged view ---------- *)

let test_metrics_scoping () =
  let m = M.create ~enabled:true in
  let s1 = M.scope m ~labels:[ ("job", "1") ] in
  let s2 = M.scope m ~labels:[ ("job", "2") ] in
  M.add (M.counter s1 "jobs.done") 3;
  M.add (M.counter s2 "jobs.done") 4;
  (* a scoped handle lands under the same key as explicit labels on the base *)
  M.incr (M.counter m ~labels:[ ("job", "1") ] "jobs.done");
  check int "scoped = labeled" 4 (exported m "jobs.done{job=1}");
  (* nested scopes append their labels *)
  let s1t = M.scope s1 ~labels:[ ("tenant", "acme") ] in
  M.incr (M.counter s1t "jobs.done");
  check int "nested scope" 1 (exported m "jobs.done{job=1,tenant=acme}");
  (* the merged view strips labels and sums counters *)
  (match List.assoc_opt "jobs.done" (M.export_merged m) with
  | Some (M.Counter n) -> check int "merged counter sums" 9 n
  | _ -> fail "merged counter missing");
  (* gauges merge by max *)
  M.set (M.gauge s1 "depth") 2.;
  M.set (M.gauge s2 "depth") 5.;
  (match List.assoc_opt "depth" (M.export_merged m) with
  | Some (M.Gauge g) -> check (float 1e-9) "merged gauge max" 5. g
  | _ -> fail "merged gauge missing");
  (* scoping a disabled registry stays inert *)
  let d = M.scope M.disabled ~labels:[ ("job", "9") ] in
  M.incr (M.counter d "z");
  check string "disabled scope exports empty" "{}" (J.to_string (M.to_json M.disabled))

(* ---------- flight recorder ---------- *)

module F = Obs.Flight

let test_flight_ring () =
  let f = F.create ~capacity:4 () in
  let t = ref 0. in
  F.set_clock f (fun () -> !t);
  for i = 1 to 10 do
    t := float_of_int i;
    F.note f ~sub:"pool" (Printf.sprintf "e%d" i)
  done;
  check int "all notes counted" 10 (F.recorded f);
  check int "overflow evicted" 6 (F.evicted f);
  let evs = F.events f in
  check int "ring keeps capacity" 4 (List.length evs);
  check (list string) "newest survive" [ "e7"; "e8"; "e9"; "e10" ]
    (List.map (fun (e : F.event) -> e.F.name) evs);
  (* disabled recorder is inert *)
  F.note F.disabled ~sub:"pool" "x";
  check int "disabled records nothing" 0 (F.recorded F.disabled)

let test_flight_causal_dump () =
  let mk () =
    let f = F.create ~capacity:8 () in
    let t = ref 0. in
    F.set_clock f (fun () -> !t);
    List.iter
      (fun (at, sub, name) ->
        t := at;
        F.note f ~sub ~args:[ ("k", J.Int 1) ] name)
      [
        (1., "master", "assign"); (1., "net", "send"); (2., "client", "recv");
        (2., "master", "ack"); (3., "service", "finish");
      ];
    f
  in
  let f = mk () in
  let evs = F.events f in
  (* the global sequence is a causal total order: strictly increasing,
     interleaving all subsystems *)
  let seqs = List.map (fun (e : F.event) -> e.F.seq) evs in
  check bool "seq strictly increasing" true
    (List.for_all2 ( < ) (List.filteri (fun i _ -> i < 4) seqs) (List.tl seqs));
  check (list string) "interleaved order" [ "master"; "net"; "client"; "master"; "service" ]
    (List.map (fun (e : F.event) -> e.F.sub) evs);
  (* a dump is byte-deterministic for the same recorded history *)
  let d1 = J.to_string (F.dump f ~at:3. ~trigger:"quarantine" ~detail:"client 2" ()) in
  let d2 = J.to_string (F.dump (mk ()) ~at:3. ~trigger:"quarantine" ~detail:"client 2" ()) in
  check string "dump deterministic" d1 d2;
  check bool "dump carries the trigger" true (contains d1 "\"trigger\":\"quarantine\"");
  check bool "dump carries events" true (contains d1 "\"finish\"");
  check string "file name canonical" "FLIGHT-00000003.500-slo-fast-burn.json"
    (F.file_name ~at:3.5 ~trigger:"slo fast/burn")

(* ---------- anomaly detection ---------- *)

module A = Obs.Anomaly

let test_anomaly_detector () =
  let a = A.create () in
  let d = A.detector a ~name:"lat" ~min_n:8 ~z:4.0 ~cooldown:30. ~direction:`High () in
  (* warmup: a steady baseline must not fire *)
  for i = 1 to 20 do
    A.observe d ~at:(float_of_int i) 1.0
  done;
  check int "steady stream quiet" 0 (List.length (A.triggers a));
  (* a large spike fires once... *)
  A.observe d ~at:21. 100.;
  check int "spike fires" 1 (List.length (A.triggers a));
  (* ...and the cooldown suppresses an immediate repeat *)
  A.observe d ~at:22. 100.;
  check int "cooldown holds" 1 (List.length (A.triggers a));
  (* past the cooldown the (still-anomalous) signal may fire again *)
  A.observe d ~at:60. 1_000_000.;
  check int "re-arms after cooldown" 2 (List.length (A.triggers a));
  (match A.triggers a with
  | tr :: _ ->
      check string "rule name" "lat" tr.A.rule;
      check (float 1e-9) "trigger time" 21. tr.A.at
  | [] -> fail "no trigger");
  (* discrete trips call handlers and record *)
  let seen = ref [] in
  A.on_trigger a (fun tr -> seen := tr.A.rule :: !seen);
  A.trip a ~at:70. ~rule:"brownout" ~value:0.3 ~threshold:0.5 ();
  check (list string) "handler saw the trip" [ "brownout" ] !seen;
  check int "trip recorded" 3 (List.length (A.triggers a));
  (* a `Low detector fires on collapses, not spikes *)
  let low = A.detector a ~name:"hit-rate" ~min_n:8 ~direction:`Low () in
  for i = 1 to 10 do
    A.observe low ~at:(float_of_int (100 + i)) 0.9
  done;
  A.observe low ~at:111. 0.9001;
  let before = List.length (A.triggers a) in
  A.observe low ~at:112. (-100.);
  check int "low fires on collapse" (before + 1) (List.length (A.triggers a));
  (* inert detector on a disabled owner *)
  let di = A.detector A.disabled ~name:"x" () in
  for i = 1 to 50 do
    A.observe di ~at:(float_of_int i) (float_of_int (i * 1000))
  done;
  check int "disabled never fires" 0 (List.length (A.triggers A.disabled))

(* ---------- SLOs ---------- *)

module Slo = Obs.Slo

let test_slo_parse () =
  let bad s =
    match Slo.parse s with
    | Ok _ -> fail (s ^ " should not parse")
    | Error _ -> ()
  in
  bad "";
  bad "   ;  ";
  bad "acme";
  bad "acme:";
  bad "acme:latency<5";
  bad "acme:solve<0";
  bad "acme:solve<-3";
  bad "acme:solve<5@1.5";
  bad "acme:solve<5@0";
  bad "acme:errors<1.5";
  bad "acme:errors<0.1@0.9";
  bad "acme:solve<10;acme:solve<20";
  match Slo.parse "acme:queue_wait<5,solve<60@0.95,errors<0.1;*:solve<120" with
  | Error e -> fail e
  | Ok spec ->
      check string "raw spec preserved" "acme:queue_wait<5,solve<60@0.95,errors<0.1;*:solve<120"
        (Slo.spec_string spec)

let test_slo_burn () =
  let spec =
    match Slo.parse "acme:solve<10" with Ok s -> s | Error e -> fail e
  in
  let t = Slo.create ~window_short:60. ~window_long:600. ~fast_burn:6. spec in
  let alerts = ref [] in
  Slo.on_fast_burn t (fun ~tenant ~target ~burn:_ -> alerts := (tenant, target) :: !alerts);
  (* nine good jobs: budget untouched, no alert *)
  for i = 1 to 9 do
    Slo.note_solved t ~now:(float_of_int i) ~tenant:"acme" 1.0
  done;
  check int "no alert while good" 0 (List.length !alerts);
  (* one breach of the bound: 1 bad / 10 events over a 0.1 budget is
     burn 1.0 — on budget, below the 6.0 fast-burn line *)
  Slo.note_solved t ~now:10. ~tenant:"acme" 50.0;
  check int "single breach below fast-burn" 0 (List.length !alerts);
  (* a burst of breaches pushes both windows past the line, once *)
  for i = 11 to 30 do
    Slo.note_solved t ~now:(float_of_int i) ~tenant:"acme" 50.0
  done;
  check (list (pair string string)) "fast-burn fired once, edge-triggered"
    [ ("acme", "solve") ] !alerts;
  (* wildcard fallback tracks tenants the spec never named *)
  let wspec = match Slo.parse "*:errors<0.5" with Ok s -> s | Error e -> fail e in
  let w = Slo.create wspec in
  Slo.note_error w ~now:1. ~tenant:"stranger";
  Slo.note_solved w ~now:2. ~tenant:"stranger" 1.0;
  let doc = Slo.to_json w ~now:2. in
  check bool "wildcard stream exists" true (contains (J.to_string doc) "\"stranger\"");
  check bool "counts both events" true (contains (J.to_string doc) "\"events\":2");
  (* the json section is deterministic *)
  check string "slo json deterministic" (J.to_string doc) (J.to_string (Slo.to_json w ~now:2.))

(* ---------- exposition ---------- *)

let test_expo_render () =
  let m = M.create ~enabled:true in
  M.add (M.counter (M.scope m ~labels:[ ("job", "1"); ("tenant", "acme") ]) "service.jobs.done") 3;
  M.set (M.gauge m "pool.free") 7.;
  let h = M.histogram m ~labels:[ ("tenant", "acme") ] "service.e2e_s" in
  List.iter (M.observe h) [ 1.0; 2.0; 4.0 ];
  let text = Obs.Expo.render m in
  List.iter
    (fun line -> check bool ("exposition has " ^ line) true (contains text line))
    [
      "# TYPE service_jobs_done counter";
      "service_jobs_done{job=\"1\",tenant=\"acme\"} 3";
      "# TYPE pool_free gauge";
      "pool_free 7";
      "# TYPE service_e2e_s summary";
      "service_e2e_s{tenant=\"acme\",quantile=\"0.5\"}";
      "service_e2e_s_sum{tenant=\"acme\"} 7";
      "service_e2e_s_count{tenant=\"acme\"} 3";
    ];
  (* byte-deterministic for a given registry state *)
  check string "exposition deterministic" text (Obs.Expo.render m);
  (* the merged view drops the labels *)
  let merged = Obs.Expo.render_merged m in
  check bool "merged strips labels" true (contains merged "service_jobs_done 3");
  check bool "merged has no label braces" false (contains merged "{job=")

(* ---------- span nesting ---------- *)

let test_span_nesting () =
  let r = S.create ~enabled:true in
  let t = ref 0.0 in
  S.set_clock r (fun () -> !t);
  let root = S.enter r ~tid:S.master_tid ~cat:"master" "root" in
  t := 1.0;
  let child = S.enter r ~parent:root ~tid:1 ~cat:"client" "solve" in
  t := 2.0;
  let leaf = S.instant r ~parent:child ~tid:1 ~cat:"solver" "restart" in
  t := 5.0;
  S.exit r child ~args:[ ("outcome", J.String "unsat") ];
  t := 6.0;
  S.exit r root;
  check int "three spans" 3 (S.count r);
  let get id = List.find (fun s -> s.S.sid = id) (S.spans r) in
  check int "child -> root" root (get child).S.parent;
  check int "leaf -> child" child (get leaf).S.parent;
  check int "root is orphan" S.none (get root).S.parent;
  let c = get child and p = get root in
  check bool "child nested in parent" true
    (c.S.start >= p.S.start && c.S.stop <= p.S.stop);
  check (float 1e-9) "child duration" 4.0 (c.S.stop -. c.S.start);
  (* closing twice must not move the stop time *)
  t := 50.0;
  S.exit r child;
  check (float 1e-9) "exit is idempotent" 5.0 (get child).S.stop;
  (* instants stay zero-width and cannot be exited *)
  S.exit r leaf;
  check (float 1e-9) "instant zero width" 0.0 ((get leaf).S.stop -. (get leaf).S.start)

let test_span_disabled () =
  let r = S.disabled in
  let id = S.enter r ~cat:"x" "nothing" in
  check int "disabled returns none" S.none id;
  S.exit r id;
  check int "nothing recorded" 0 (S.count r)

(* ---------- Chrome trace export: golden file ---------- *)

let test_chrome_golden () =
  let r = S.create ~enabled:true in
  let t = ref 0.0 in
  S.set_clock r (fun () -> !t);
  let root = S.enter r ~tid:S.master_tid ~cat:"master" "assign" in
  t := 0.0015;
  let s = S.enter r ~parent:root ~tid:3 ~cat:"client" ~args:[ ("pid", J.String "0.1") ] "solve" in
  t := 0.004;
  ignore (S.instant r ~parent:s ~tid:3 ~cat:"protocol" "split.donate");
  t := 0.25;
  S.exit r s ~args:[ ("outcome", J.String "unsat") ];
  S.exit r root;
  let golden =
    "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"gridsat\"}},{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":3,\"args\":{\"name\":\"client 3\"}},{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1000,\"args\":{\"name\":\"master\"}},{\"name\":\"assign\",\"cat\":\"master\",\"pid\":1,\"tid\":1000,\"ts\":0,\"ph\":\"X\",\"dur\":250000,\"args\":{\"sid\":1}},{\"name\":\"solve\",\"cat\":\"client\",\"pid\":1,\"tid\":3,\"ts\":1500,\"ph\":\"X\",\"dur\":248500,\"args\":{\"sid\":2,\"parent\":1,\"pid\":\"0.1\",\"outcome\":\"unsat\"}},{\"name\":\"split.donate\",\"cat\":\"protocol\",\"pid\":1,\"tid\":3,\"ts\":4000,\"ph\":\"i\",\"s\":\"t\",\"args\":{\"sid\":3,\"parent\":2}}]}\n"
  in
  check string "golden trace bytes" golden (Obs.Chrome.export_string r);
  match Obs.Chrome.validate (Obs.Chrome.export r) with
  | Ok () -> ()
  | Error e -> fail e

let test_chrome_validate_rejects () =
  let bad = J.Obj [ ("traceEvents", J.Int 3) ] in
  (match Obs.Chrome.validate bad with Ok () -> fail "should reject" | Error _ -> ());
  let bad_ph =
    J.Obj
      [
        ( "traceEvents",
          J.List [ J.Obj [ ("name", J.String "x"); ("ph", J.String "?"); ("ts", J.Int 0) ] ] );
      ]
  in
  match Obs.Chrome.validate bad_ph with Ok () -> fail "unknown phase" | Error _ -> ()

(* ---------- report ---------- *)

let test_report_build_validate () =
  let obs = Obs.create () in
  Obs.Metrics.incr (Obs.Metrics.counter (Obs.metrics obs) "c");
  ignore (S.instant (Obs.spans obs) ~cat:"master" "tick");
  let doc =
    Obs.Report.build
      ~meta:[ ("mode", J.String "test") ]
      ~sections:[ ("run", J.Obj [ ("answer", J.String "UNSAT") ]) ]
      ~metrics:(Obs.metrics obs) ~spans:(Obs.spans obs) ()
  in
  (match Obs.Report.validate doc with Ok () -> () | Error e -> fail e);
  (match J.of_string (J.to_string doc) with
  | Ok doc' -> check string "report roundtrips" (J.to_string doc) (J.to_string doc')
  | Error e -> fail e);
  check bool "summary mentions the answer" true (contains (Obs.Report.summary doc) "UNSAT");
  match Obs.Report.validate (J.Obj [ ("schema", J.String "other/9") ]) with
  | Ok () -> fail "wrong schema accepted"
  | Error _ -> ()

(* ---------- determinism across whole runs ---------- *)

(* One seeded, fully instrumented grid run: its Chrome trace, run report
   and Prometheus exposition. *)
let seeded_grid_run () =
  let module C = Gridsat_core in
  let obs = Obs.create () in
  let testbed = C.Testbed.uniform ~n:4 ~speed:2000. () in
  let config =
    {
      C.Config.default with
      C.Config.split_timeout = 0.5;
      slice = 0.5;
      overall_timeout = 10_000.;
      seed = 7;
    }
  in
  let cnf = Workloads.Php.instance ~pigeons:6 ~holes:5 in
  let r = C.Gridsat.solve ~config ~obs ~testbed cnf in
  ( Obs.Chrome.export_string (Obs.spans obs),
    C.Run_report.build ~meta:[ ("seed", J.Int 7) ] ~obs r,
    Obs.Expo.render (Obs.metrics obs) )

(* The registry holds no wall-clock series, so the exposition of a seeded
   run repeats byte for byte. *)
let test_grid_exposition_deterministic () =
  let _, _, expo1 = seeded_grid_run () in
  let _, _, expo2 = seeded_grid_run () in
  check bool "exposition is not empty" true (String.length expo1 > 0);
  check string "seeded exposition is byte-stable" expo1 expo2

let test_grid_trace_deterministic () =
  let trace1, doc, _ = seeded_grid_run () in
  let trace2, _, _ = seeded_grid_run () in
  check string "seeded trace is byte-stable" trace1 trace2;
  (match Obs.Chrome.validate (match J.of_string trace1 with Ok d -> d | Error e -> fail e) with
  | Ok () -> ()
  | Error e -> fail e);
  (* the report carries metrics from every layer of the run *)
  (match Obs.Report.validate doc with Ok () -> () | Error e -> fail e);
  let metrics_names =
    match J.member "metrics" doc with
    | Some (J.Obj kvs) -> List.map fst kvs
    | _ -> fail "metrics section missing"
  in
  let has prefix =
    List.exists
      (fun n ->
        String.length n >= String.length prefix && String.sub n 0 (String.length prefix) = prefix)
      metrics_names
  in
  List.iter
    (fun p -> check bool ("layer metric " ^ p) true (has p))
    [ "solver."; "client."; "master."; "net."; "reliable."; "journal."; "sim." ]

let () =
  Alcotest.run "obs"
    [
      ( "json",
        [
          test_case "roundtrip" `Quick test_json_roundtrip;
          test_case "parse errors" `Quick test_json_parse_errors;
          test_case "float repr" `Quick test_json_float_repr;
          test_case "parser hardening" `Quick test_json_hardening;
        ] );
      ( "histogram",
        [
          test_case "uniform quantiles" `Quick test_histogram_uniform;
          test_case "exponential quantiles" `Quick test_histogram_exponential;
          test_case "point mass" `Quick test_histogram_point_mass;
          test_case "edge samples" `Quick test_histogram_edge_samples;
          test_case "registry semantics" `Quick test_metrics_registry;
          test_case "scoped registries + merged view" `Quick test_metrics_scoping;
          QCheck_alcotest.to_alcotest test_histogram_merge_prop;
        ] );
      ( "flight",
        [
          test_case "ring eviction" `Quick test_flight_ring;
          test_case "causal order + dump" `Quick test_flight_causal_dump;
        ] );
      ( "anomaly", [ test_case "detectors, cooldown, trips" `Quick test_anomaly_detector ] );
      ( "slo",
        [
          test_case "spec parsing" `Quick test_slo_parse;
          test_case "burn rates + fast-burn alert" `Quick test_slo_burn;
        ] );
      ( "expo", [ test_case "prometheus rendering" `Quick test_expo_render ] );
      ( "span",
        [
          test_case "nesting invariants" `Quick test_span_nesting;
          test_case "disabled recorder" `Quick test_span_disabled;
        ] );
      ( "chrome",
        [
          test_case "golden export" `Quick test_chrome_golden;
          test_case "validate rejects" `Quick test_chrome_validate_rejects;
        ] );
      ( "report",
        [ test_case "build/validate/summary" `Quick test_report_build_validate ] );
      ( "end-to-end",
        [
          test_case "seeded trace deterministic" `Slow test_grid_trace_deterministic;
          test_case "seeded exposition deterministic" `Slow test_grid_exposition_deterministic;
        ] );
    ]

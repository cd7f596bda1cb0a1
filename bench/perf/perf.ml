(* Wall-clock benchmark of GridSAT; README.md in this directory explains
   the workloads, the metrics and the comparison rule.

   perf.exe [--seed S] [--reps N] [--out FILE]     every workload, one set
   perf.exe run WORKLOAD [--seed S] [--reps N] [--out FILE]
   perf.exe compare A.json B.json [--benchmark FILE]
   perf.exe smoke [--benchmark FILE]
   perf.exe --workload W --seed S --seconds T --trace 0|1

   Each repetition runs in a fresh single-threaded child process
   ([perf.exe child WORKLOAD ...]), started after the previous one has
   ended. *)

module Js = Obs.Json

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("perf: " ^ s);
      exit 2)
    fmt

let member k j = match Js.member k j with Some v -> v | None -> die "missing field %s" k

let num = function Js.Int n -> float n | Js.Float f -> f | _ -> die "expected a number"

let str = function Js.String s -> s | _ -> die "expected a string"

let items = function Js.List l -> l | _ -> die "expected a list"

let read_json path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> die "%s" e
  | text -> ( match Js.of_string text with Ok j -> j | Error e -> die "%s: %s" path e)

(* Runs one repetition in a child process and waits for it to end; the
   child's last line of output is the repetition's record. *)
let rep ?(quick = false) ~seed ?trace_out workload =
  let args =
    [ Sys.executable_name; "child"; workload; "--seed"; string_of_int seed ]
    @ (match trace_out with Some p -> [ "--trace-out"; p ] | None -> [])
    @ if quick then [ "--quick" ] else []
  in
  let ic = Unix.open_process_args_in Sys.executable_name (Array.of_list args) in
  let last = ref None in
  (try
     while true do
       last := Some (input_line ic)
     done
   with End_of_file -> ());
  match (Unix.close_process_in ic, !last) with
  | Unix.WEXITED 0, Some line -> (
      match Js.of_string line with Ok j -> j | Error e -> die "%s: bad record: %s" workload e)
  | _ -> die "%s (seed %d): repetition failed" workload seed

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* First and third quartiles by the exclusive method, as Python's
   [statistics.quantiles]: the values at ranks (n+1)/4 and 3(n+1)/4,
   interpolated, with ranks clamped to [1, n]. *)
let quartiles xs =
  let a = sorted xs in
  let n = Array.length a in
  let at frac =
    let p = Float.min (float n) (Float.max 1. (frac *. float (n + 1))) in
    let lo = int_of_float p in
    if lo >= n then a.(n - 1) else a.(lo - 1) +. ((p -. float lo) *. (a.(lo) -. a.(lo - 1)))
  in
  if n = 0 then (nan, nan) else (at 0.25, at 0.75)

type summary = { median : float; q1 : float; q3 : float; values : float list }

let summarize values =
  let q1, q3 = quartiles values in
  { median = median values; q1; q3; values }

let spread x = (x.q3 -. x.q1) /. Float.abs x.median

type better = Lower | Higher

type spec = { name : string; unit : string; better : better }

let better_string = function Lower -> "lower" | Higher -> "higher"

let count r k = num (member k (member "counts" r))

let field r k = num (member k r)

(* End-to-end metrics, one value per untraced repetition.  A workload's
   propagations and verdicts repeat exactly for a seed, so the rates move
   only with wall-clock time. *)
let end_to_end =
  [
    ({ name = "wall_s"; unit = "s"; better = Lower }, fun r -> field r "wall_s");
    ( { name = "props_per_s"; unit = "1/s"; better = Higher },
      fun r -> count r "props" /. field r "wall_s" );
    ( { name = "jobs_per_s"; unit = "1/s"; better = Higher },
      fun r -> count r "verdicts" /. field r "wall_s" );
    ( { name = "setup_s"; unit = "s"; better = Lower },
      fun r -> median (List.map num (items (member "setup_s" r))) );
    ({ name = "peak_heap_mb"; unit = "MB"; better = Lower }, fun r -> field r "heap_mb");
  ]

(* Virtual-time results: deterministic for a seed, so they are compared
   for equality, never against a bound. *)
let exact_metrics = [ "virtual_s"; "turnaround_p50_vs"; "turnaround_p99_vs" ]

type set = { workload : string; seed : int; reps : Js.t list; traced : Js.t option }

let attempted s = List.fold_left (fun acc r -> acc + int_of_float (count r "verdicts")) 0 s.reps

let failed s = List.fold_left (fun acc r -> acc + int_of_float (count r "failed")) 0 s.reps

let failed_frac s = float (failed s) /. float (max 1 (attempted s))

let e2e s = List.map (fun (m, value) -> (m, summarize (List.map value s.reps))) end_to_end

let untraced_median s k = median (List.map (fun r -> field r k) s.reps)

(* Counts that differ between repetitions of the same inputs, the traced
   one included: wall-clock time leaking into simulated behaviour. *)
let nondeterministic s =
  let r0 = List.hd s.reps in
  match member "counts" r0 with
  | Js.Obj fields ->
      List.filter_map
        (fun (k, v) ->
          if
            List.for_all
              (fun r -> Js.member k (member "counts" r) = Some v)
              (s.reps @ Option.to_list s.traced)
          then None
          else Some k)
        fields
  | _ -> die "bad record"

let problems s =
  (if failed s > 0 then
     [ Printf.sprintf "%s: %d of %d verdicts failed" s.workload (failed s) (attempted s) ]
   else [])
  @ List.map
      (fun k -> Printf.sprintf "%s: %s differs across repetitions" s.workload k)
      (nondeterministic s)

(* Per-layer ledger: counts from the untraced repetitions and from the
   program's registry in the traced one, kernel costs measured by the
   traced child, and the estimates that combine the two. *)
let per_layer s =
  match s.traced with
  | None -> []
  | Some traced ->
      let c = count (List.hd s.reps) and layer k = num (member k (member "layers" traced)) in
      let wall = untraced_median s "wall_s" and run_s = untraced_median s "sat_run_s" in
      let sub_est =
        c "sub_bytes"
        *. (layer "subproblem.capture_ns_per_byte" +. layer "subproblem.to_solver_ns_per_byte")
        *. 1e-9
      in
      let wire_est = c "wire_bytes" /. (layer "wire.digest_mb_per_s" *. 1e6) in
      let journal_est = c "ships" *. layer "journal.replay_ms" *. 1e-3 in
      let m name unit better v = ({ name; unit; better }, v) in
      let kernel name unit better = m name unit better (layer name) in
      [
        m "sat.props" "count" Lower (c "props");
        m "sat.conflicts" "count" Lower (c "conflicts");
        m "sat.run_s" "s" Lower run_s;
        m "sat.bcp_s" "s" Lower (untraced_median s "sat_bcp_s");
        m "sat.run_share" "ratio" Higher (run_s /. wall);
        kernel "sat.kernel_props_per_s" "1/s" Higher;
        kernel "sat.kernel_minor_words_per_prop" "words" Lower;
        m "subproblem.transfers" "count" Lower (c "transfers");
        m "subproblem.bytes" "B" Lower (c "sub_bytes");
        kernel "subproblem.capture_ns_per_byte" "ns/B" Lower;
        kernel "subproblem.to_solver_ns_per_byte" "ns/B" Lower;
        m "subproblem.est_s" "s" Lower sub_est;
        m "wire.messages" "count" Lower (c "messages");
        m "wire.bytes" "B" Lower (c "wire_bytes");
        kernel "wire.digest_mb_per_s" "MB/s" Higher;
        m "wire.est_s" "s" Lower wire_est;
        kernel "journal.appends" "count" Lower;
        m "journal.ships" "count" Lower (c "ships");
        kernel "journal.replay_ms" "ms" Lower;
        m "journal.est_s" "s" Lower journal_est;
        kernel "grid.events" "count" Lower;
        m "grid.events_per_s" "1/s" Higher (layer "grid.events" /. wall);
        m "grid.wall_per_vs" "s/s" Lower (wall /. c "virtual_s");
        kernel "grid.pending_max" "count" Lower;
        kernel "grid.step_ns" "ns" Lower;
        m "master.events_retained" "count" Lower (c "events_retained");
        kernel "master.result_ms" "ms" Lower;
        m "master.residual_s" "s" Lower (wall -. run_s -. sub_est -. wire_est -. journal_est);
        m "service.runs" "count" Lower (c "runs");
        m "service.cache_hits" "count" Higher (c "cache_hits");
        kernel "service.submit_hit_us" "us" Lower;
        kernel "cache.digest_us" "us" Lower;
        kernel "joblog.appends" "count" Lower;
        kernel "joblog.replay_ms" "ms" Lower;
        kernel "service.retained_mb" "MB" Lower;
        m "obs.trace_overhead" "ratio" Lower ((field traced "wall_s" /. wall) -. 1.);
        kernel "obs.series" "count" Lower;
      ]

let trace_path ~out workload = Filename.remove_extension out ^ "." ^ workload ^ ".trace.json"

(* One traced repetition of each workload unless [trace] is false, then
   untraced repetitions of each in turn: [reps] rounds or, with [until],
   at least three rounds and then each further round that the median
   round so far says will end by that wall-clock time.  The traced
   repetition comes first so that a timed run's budget includes it and
   so that it warms the machine up before the untraced ones are timed. *)
let collect ?quick ?until ?(trace = true) ~reps ~seed ~out workloads =
  let traced =
    List.map
      (fun w -> if trace then Some (rep ?quick ~seed ~trace_out:(trace_path ~out w) w) else None)
      workloads
  in
  let acc = Hashtbl.create 8 in
  let rounds = ref [] in
  let more () =
    match until with
    | Some t -> List.length !rounds < 3 || Unix.gettimeofday () +. median !rounds <= t
    | None -> List.length !rounds < reps
  in
  while more () do
    let t0 = Unix.gettimeofday () in
    List.iter
      (fun w ->
        Hashtbl.replace acc w (rep ?quick ~seed w :: Option.value (Hashtbl.find_opt acc w) ~default:[]))
      workloads;
    rounds := (Unix.gettimeofday () -. t0) :: !rounds
  done;
  List.map2
    (fun w traced -> { workload = w; seed; reps = List.rev (Hashtbl.find acc w); traced })
    workloads traced

let set_json s =
  let r0 = List.hd s.reps in
  let summary (m, x) =
    ( m.name,
      Js.Obj
        [
          ("unit", Js.String m.unit);
          ("median", Js.Float x.median);
          ("q1", Js.Float x.q1);
          ("q3", Js.Float x.q3);
          ("n", Js.Int (List.length x.values));
          ("values", Js.List (List.map (fun v -> Js.Float v) x.values));
        ] )
  in
  Js.Obj
    [
      ("workload", Js.String s.workload);
      ("seed", Js.Int s.seed);
      ("attempted", Js.Int (attempted s));
      ("failed", Js.Int (failed s));
      ("failed_frac", Js.Float (failed_frac s));
      ("end_to_end", Js.Obj (List.map summary (e2e s)));
      ("counts", member "counts" r0);
      ( "per_layer",
        Js.Obj
          (List.map
             (fun (m, v) -> (m.name, Js.Obj [ ("unit", Js.String m.unit); ("value", Js.Float v) ]))
             (per_layer s)) );
    ]

let print_set s =
  Printf.printf "\n== %s (seed %d, %d untraced repetitions + 1 traced) ==\n" s.workload s.seed
    (List.length s.reps);
  List.iter
    (fun (m, x) ->
      Printf.printf "  %-34s %14.6g %-6s median [%.6g, %.6g] n=%d\n" m.name x.median m.unit x.q1
        x.q3 (List.length x.values))
    (e2e s);
  let r0 = List.hd s.reps in
  List.iter (fun k -> Printf.printf "  %-34s %14.6g %-6s exact\n" k (count r0 k) "s") exact_metrics;
  Printf.printf "  %-34s %14.6g %-6s %d of %d\n" "failed_frac" (failed_frac s) "ratio" (failed s)
    (attempted s);
  List.iter (fun (m, v) -> Printf.printf "  %-34s %14.6g %s\n" m.name v m.unit) (per_layer s)

let run_sets ~workloads ~seed ~reps ~out =
  let sets = collect ~reps ~seed ~out workloads in
  List.iter print_set sets;
  Out_channel.with_open_bin out (fun oc ->
      output_string oc
        (Js.to_string_pretty
           (Js.Obj
              [
                ("seed", Js.Int seed);
                ("reps", Js.Int reps);
                ("workloads", Js.List (List.map set_json sets));
              ]));
      output_char oc '\n');
  Printf.printf "\nwrote %s\n" out;
  match List.concat_map problems sets with
  | [] -> ()
  | ps ->
      List.iter prerr_endline ps;
      exit 1

let timed_run ~workload ~seed ~seconds ~trace =
  let until = Unix.gettimeofday () +. float seconds in
  let s = List.hd (collect ~until ~trace ~reps:0 ~seed ~out:"BENCH_perf.json" [ workload ]) in
  let ps = problems s in
  List.iter prerr_endline ps;
  let metric m v = (m.name, Js.Obj [ ("value", Js.Float v); ("unit", Js.String m.unit) ]) in
  let metrics =
    if trace then List.map (fun (m, v) -> metric m v) (per_layer s)
    else List.map (fun (m, x) -> metric m x.median) (e2e s)
  in
  print_endline
    (Js.to_string
       (Js.Obj
          [
            ("correct", Js.Bool (ps = []));
            ("attempted", Js.Int (attempted s));
            ("failed", Js.Int (failed s));
            ("metrics", Js.Obj metrics);
          ]))

let compare_sets ~benchmark a_path b_path =
  let bounds =
    List.map
      (fun m -> (str (member "name" m), num (member "bound" m)))
      (items (member "end_to_end" (read_json benchmark)))
  in
  let load p =
    List.map (fun w -> (str (member "workload" w), w)) (items (member "workloads" (read_json p)))
  in
  let a = load a_path and b = load b_path in
  let bad = ref false in
  let flag verdict =
    bad := true;
    verdict
  in
  Printf.printf "%-13s %-17s %-5s %36s %36s %8s %6s  %s\n" "workload" "metric" "unit"
    "A median [q1, q3]" "B median [q1, q3]" "change" "bound" "verdict";
  List.iter
    (fun (w, wa) ->
      match List.assoc_opt w b with
      | None -> Printf.printf "%-13s missing from %s\n" w (flag b_path)
      | Some wb ->
          let side j name =
            summarize (List.map num (items (member "values" (member name (member "end_to_end" j)))))
          in
          List.iter
            (fun ((m : spec), _) ->
              Option.iter
                (fun bound ->
                  let xa = side wa m.name and xb = side wb m.name in
                  let change = (xb.median -. xa.median) /. xa.median in
                  let worse = match m.better with Lower -> change | Higher -> -.change in
                  let beats x y = match m.better with Lower -> x < y | Higher -> x > y in
                  let verdict =
                    if List.for_all (fun vb -> List.for_all (beats vb) xa.values) xb.values then
                      "better"
                    else if Float.max (spread xa) (spread xb) > bound then "unresolved"
                    else if worse > bound then flag "REGRESSION"
                    else "ok"
                  in
                  let cell x = Printf.sprintf "%.5g [%.5g, %.5g]" x.median x.q1 x.q3 in
                  Printf.printf "%-13s %-17s %-5s %36s %36s %+7.1f%% %5.0f%%  %s\n" w m.name m.unit
                    (cell xa) (cell xb) (100. *. change) (100. *. bound) verdict)
                (List.assoc_opt m.name bounds))
            end_to_end;
          List.iter
            (fun k ->
              let v j = num (member k (member "counts" j)) in
              Printf.printf "%-13s %-17s %-5s %36.6g %36.6g %8s %6s  %s\n" w k "s" (v wa) (v wb) ""
                "exact" (if v wa = v wb then "same" else flag "CHANGED"))
            exact_metrics;
          if num (member "failed" wb) > 0. then
            Printf.printf "%-13s %s: failed_frac %g\n" w (flag b_path) (num (member "failed_frac" wb)))
    a;
  if !bad then exit 1

let smoke ~benchmark =
  let doc = read_json benchmark in
  let names l = List.map (fun (w : Workload.t) -> w.Workload.name) l in
  let sets = collect ~quick:true ~reps:1 ~seed:0 ~out:"perf-smoke.json" (names Workload.smoke) in
  List.iter (fun w -> Sys.remove (trace_path ~out:"perf-smoke.json" w)) (names Workload.smoke);
  let errors = ref (List.concat_map problems sets) in
  let err fmt = Printf.ksprintf (fun e -> errors := e :: !errors) fmt in
  if List.map (fun x -> str (member "name" x)) (items (member "workloads" doc)) <> names Workload.all
  then err "BENCHMARK.json names other workloads than perf.exe runs";
  (* every metric BENCHMARK.json names is measured, with its unit *)
  let check key measured =
    List.iter
      (fun x ->
        let name = str (member "name" x) in
        match List.assoc_opt name (List.map (fun (m, v) -> (m.name, (m, v))) measured) with
        | None -> err "%s: %s is not measured" key name
        | Some (m, v) ->
            if str (member "unit" x) <> m.unit then err "%s: unit differs from %s" name m.unit;
            if str (member "better" x) <> better_string m.better then err "%s: better differs" name;
            if not (Float.is_finite v) then err "%s: %s is not finite" key name)
      (items (member key doc))
  in
  List.iter
    (fun s ->
      check "end_to_end" (List.map (fun (m, x) -> (m, x.median)) (e2e s));
      check "per_layer" (per_layer s);
      Printf.printf "smoke %-14s %4d verdicts  failed_frac %g\n" s.workload (attempted s)
        (failed_frac s))
    sets;
  match List.sort_uniq compare !errors with
  | [] -> print_endline "smoke ok"
  | es ->
      List.iter prerr_endline es;
      exit 1

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec opt k = function [] -> None | x :: v :: _ when x = k -> Some v | _ :: rest -> opt k rest in
  let int_opt k d =
    match opt k args with
    | None -> d
    | Some v -> ( match int_of_string_opt v with Some n -> n | None -> die "%s expects a number" k)
  in
  let seed = int_opt "--seed" 0 and reps = int_opt "--reps" 5 in
  let out = Option.value (opt "--out" args) ~default:"BENCH_perf.json" in
  let benchmark = Option.value (opt "--benchmark" args) ~default:"BENCHMARK.json" in
  let known w = if Workload.find w = None then die "unknown workload %s" w else w in
  match args with
  | "child" :: w :: _ -> (
      match Workload.find w with
      | None -> die "unknown workload %s" w
      | Some w ->
          print_endline
            (Js.to_string
               (Rep.run w ~seed ~quick:(List.mem "--quick" args) ~trace_out:(opt "--trace-out" args))))
  | "run" :: w :: _ -> run_sets ~workloads:[ known w ] ~seed ~reps ~out
  | "compare" :: a :: b :: _ -> compare_sets ~benchmark a b
  | "smoke" :: _ -> smoke ~benchmark
  | _ when List.mem "--workload" args ->
      timed_run
        ~workload:(known (Option.value (opt "--workload" args) ~default:""))
        ~seed ~seconds:(int_opt "--seconds" 10)
        ~trace:(int_opt "--trace" 0 = 1)
  | [] | ("--seed" | "--reps" | "--out") :: _ ->
      run_sets ~workloads:(List.map (fun (w : Workload.t) -> w.Workload.name) Workload.all) ~seed ~reps ~out
  | _ -> die "unknown arguments; see the header of bench/perf/perf.ml"

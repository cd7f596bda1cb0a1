(* One repetition of a workload, run inside a fresh child process: set
   up three times, make the timed call once, check every verdict, and
   report counts and wall-clock times as one JSON object.  A traced
   repetition also hands the program a live [Obs] registry, records the
   bench's own wall-clock spans around its calls, measures each layer's
   kernels in isolation ({!Ledger}) and writes the spans out as a Chrome
   trace. *)

module C = Gridsat_core
module S = Gridsat_service.Service
module J = Gridsat_service.Job
module W = Workload
module Js = Obs.Json

let now = Unix.gettimeofday

let answer_ok expect cnf = function
  | C.Master.Unsat -> expect = W.Expect_unsat
  | C.Master.Sat m -> expect = W.Expect_sat && Sat.Model.satisfies cnf m
  | C.Master.Unknown _ -> false

(* Subproblems received during a run and their bytes: the master logs
   one [Problem_assigned] per delivery, whether the initial assignment, a
   split or a migration. *)
let transfers (r : C.Master.result) =
  List.fold_left
    (fun (n, b) (e : C.Events.t) ->
      match e.C.Events.kind with
      | C.Events.Problem_assigned { bytes; _ } -> (n + 1, b + bytes)
      | _ -> (n, b))
    (0, 0) r.C.Master.events

(* Everything a repetition counts.  All of it repeats exactly for a seed
   except [run_s] and [bcp_s], the solvers' own clock readings. *)
type counts = {
  mutable verdicts : int;
  mutable failed : int;
  mutable runs : int;
  mutable props : int;
  mutable conflicts : int;
  mutable virtual_s : float;
  mutable transfers : int;
  mutable sub_bytes : int;
  mutable messages : int;
  mutable wire_bytes : int;
  mutable ships : int;
  mutable events_retained : int;
  mutable cache_hits : int;
  mutable turnaround_p50 : float;
  mutable turnaround_p99 : float;
  mutable run_s : float;
  mutable bcp_s : float;
}

let counts () =
  {
    verdicts = 0;
    failed = 0;
    runs = 0;
    props = 0;
    conflicts = 0;
    virtual_s = 0.;
    transfers = 0;
    sub_bytes = 0;
    messages = 0;
    wire_bytes = 0;
    ships = 0;
    events_retained = 0;
    cache_hits = 0;
    turnaround_p50 = 0.;
    turnaround_p99 = 0.;
    run_s = 0.;
    bcp_s = 0.;
  }

let add_result c (r : C.Master.result) =
  let st = r.C.Master.solver_stats in
  let n, b = transfers r in
  c.runs <- c.runs + 1;
  c.props <- c.props + st.Sat.Stats.propagations;
  c.conflicts <- c.conflicts + st.Sat.Stats.conflicts;
  c.transfers <- c.transfers + n;
  c.sub_bytes <- c.sub_bytes + b;
  c.messages <- c.messages + r.C.Master.messages;
  c.wire_bytes <- c.wire_bytes + r.C.Master.bytes;
  c.ships <- c.ships + r.C.Master.ships;
  c.events_retained <- c.events_retained + List.length r.C.Master.events;
  c.run_s <- c.run_s +. st.Sat.Stats.total_seconds;
  c.bcp_s <- c.bcp_s +. st.Sat.Stats.bcp_seconds

(* Nearest-rank p50 and p99 of the virtual seconds each verdict took. *)
let set_turnaround c times =
  let sorted = Array.of_list times in
  Array.sort compare sorted;
  let n = Array.length sorted in
  let at q = if n = 0 then 0. else sorted.(max 0 (int_of_float (Float.ceil (q *. float n)) - 1)) in
  c.turnaround_p50 <- at 0.50;
  c.turnaround_p99 <- at 0.99

let counts_json c =
  Js.Obj
    [
      ("verdicts", Js.Int c.verdicts);
      ("failed", Js.Int c.failed);
      ("runs", Js.Int c.runs);
      ("props", Js.Int c.props);
      ("conflicts", Js.Int c.conflicts);
      ("virtual_s", Js.Float c.virtual_s);
      ("transfers", Js.Int c.transfers);
      ("sub_bytes", Js.Int c.sub_bytes);
      ("messages", Js.Int c.messages);
      ("wire_bytes", Js.Int c.wire_bytes);
      ("ships", Js.Int c.ships);
      ("events_retained", Js.Int c.events_retained);
      ("cache_hits", Js.Int c.cache_hits);
      ("turnaround_p50_vs", Js.Float c.turnaround_p50);
      ("turnaround_p99_vs", Js.Float c.turnaround_p99);
    ]

(* What the timed call leaves behind, for the ledger. *)
type outcome = {
  cnfs : (Sat.Cnf.t * W.expect) list;  (** distinct inputs, first-seen order *)
  last_master : C.Master.t option;
  service : S.t option;
  retained : Obj.t;  (** everything the caller still holds after the call *)
}

let distinct triples =
  let seen = Hashtbl.create 16 in
  List.filter_map
    (fun (text, cnf, expect) ->
      if Hashtbl.mem seen text then None
      else begin
        Hashtbl.replace seen text ();
        Some (cnf, expect)
      end)
    triples

(* Sets up three times and keeps the last apparatus; returns the three
   set-up times too. *)
let timed_setup ~spans f =
  let times = ref [] and last = ref None in
  for _ = 1 to 3 do
    let sid = Obs.Span.enter spans ~cat:"bench" "setup" in
    let t0 = now () in
    last := Some (f ());
    times := (now () -. t0) :: !times;
    Obs.Span.exit spans sid
  done;
  (List.rev !times, Option.get !last)

let timed ~spans name f =
  let sid = Obs.Span.enter spans ~cat:"bench" name in
  let t0 = now () in
  let x = f () in
  let dt = now () -. t0 in
  Obs.Span.exit spans sid;
  (x, dt)

let run_solves ~obs ~spans (w : W.t) c inputs =
  let setup, (testbed, parsed) =
    timed_setup ~spans (fun () ->
        ( w.W.testbed (),
          List.map
            (fun (i : W.solve_input) ->
              (i, Sat.Dimacs.parse_string i.W.text, w.W.config ~run_seed:i.W.run_seed))
            inputs ))
  in
  let last_master = ref None and wall = ref 0. and turnaround = ref [] in
  let results =
    List.map
      (fun ((i : W.solve_input), cnf, config) ->
        let r, dt =
          timed ~spans "Gridsat.solve" (fun () ->
              C.Gridsat.solve ~config ~obs ~on_master:(fun m -> last_master := Some m) ~testbed cnf)
        in
        wall := !wall +. dt;
        add_result c r;
        c.verdicts <- c.verdicts + 1;
        c.virtual_s <- c.virtual_s +. r.C.Master.time;
        turnaround := r.C.Master.time :: !turnaround;
        if not (answer_ok i.W.expect cnf r.C.Master.answer) then c.failed <- c.failed + 1;
        r)
      parsed
  in
  set_turnaround c !turnaround;
  ( setup,
    !wall,
    {
      cnfs = distinct (List.map (fun ((i : W.solve_input), cnf, _) -> (i.W.text, cnf, i.W.expect)) parsed);
      last_master = !last_master;
      service = None;
      retained = Obj.repr results;
    } )

let run_jobs ~obs ~spans (w : W.t) c inputs =
  let setup, (svc, parsed) =
    timed_setup ~spans (fun () ->
        let svc = S.create ~obs ~cfg:W.service_config ~testbed:(w.W.testbed ()) () in
        ( svc,
          List.map
            (fun (j : W.job_input) ->
              let cnf = Sat.Dimacs.parse_string j.W.jtext in
              S.submit_at svc ~at:j.W.at ~tenant:j.W.tenant ~priority:j.W.priority cnf;
              (j, cnf))
            inputs ))
  in
  let (), wall = timed ~spans "Service.run" (fun () -> S.run svc) in
  let turnaround = ref [] in
  List.iter2
    (fun ((j : W.job_input), cnf) (job : J.t) ->
      c.verdicts <- c.verdicts + 1;
      Option.iter (add_result c) job.J.result;
      let ok =
        match job.J.state with
        | J.Done (J.Verdict a | J.Cached a) -> answer_ok j.W.jexpect cnf a
        | J.Done (J.Shed _ | J.Deadline_expired | J.Cancelled _) | J.Queued | J.Running -> false
      in
      if not ok then c.failed <- c.failed + 1;
      Option.iter
        (fun f ->
          c.virtual_s <- Float.max c.virtual_s f;
          turnaround := (f -. j.W.at) :: !turnaround)
        job.J.finished_at)
    parsed (S.jobs svc);
  set_turnaround c !turnaround;
  c.cache_hits <- (S.stats svc).S.cache_hits;
  ( setup,
    wall,
    {
      cnfs = distinct (List.map (fun ((j : W.job_input), cnf) -> (j.W.jtext, cnf, j.W.jexpect)) parsed);
      last_master = None;
      service = Some svc;
      retained = Obj.repr svc;
    } )

(* Runs one repetition and returns its record.  [trace_out] makes it the
   traced repetition, whose Chrome trace is written to that path. *)
let run (w : W.t) ~seed ~quick ~trace_out =
  let traced = Option.is_some trace_out in
  let obs = if traced then Obs.create () else Obs.disabled in
  let spans = Obs.Span.create ~enabled:traced in
  let origin = now () in
  Obs.Span.set_clock spans (fun () -> now () -. origin);
  let c = counts () in
  let setup, wall_s, out =
    match w.W.inputs ~seed with
    | W.Solves l -> run_solves ~obs ~spans w c l
    | W.Jobs l -> run_jobs ~obs ~spans w c l
  in
  let heap_mb = Ledger.mb (Gc.quick_stat ()).Gc.top_heap_words in
  let layers =
    match trace_out with
    | None -> []
    | Some path ->
        let l =
          Ledger.measure ~quick ~spans ~obs ~config:(w.W.config ~run_seed:seed) ~cnfs:out.cnfs
            ~last_master:out.last_master ~service:out.service ~retained:out.retained
        in
        Out_channel.with_open_bin path (fun oc ->
            output_string oc (Obs.Chrome.export_string ~process_name:("perf " ^ w.W.name) spans));
        [ ("layers", Js.Obj (List.map (fun (k, v) -> (k, Js.Float v)) l)) ]
  in
  Js.Obj
    ([
       ("workload", Js.String w.W.name);
       ("seed", Js.Int seed);
       ("setup_s", Js.List (List.map (fun t -> Js.Float t) setup));
       ("wall_s", Js.Float wall_s);
       ("heap_mb", Js.Float heap_mb);
       ("sat_run_s", Js.Float c.run_s);
       ("sat_bcp_s", Js.Float c.bcp_s);
       ("counts", counts_json c);
     ]
    @ layers)

module J = Obs.Json

(* The run section: the verdict and duration, every keyed counter of the
   master's ledger in its order, and the event count. *)
let run_section (r : Master.result) =
  J.Obj
    ([ ("answer", J.String (Gridsat.answer_string r.Master.answer)); ("time", J.Float r.Master.time) ]
    @ List.map (fun (key, n) -> (key, J.Int n)) (Master.counters r)
    @ [ ("events", J.Int (List.length r.Master.events)) ])

let build ?(meta = []) ~obs (r : Master.result) =
  let curve = Timeline.busy_curve r.Master.events in
  Obs.Report.build ~meta
    ~sections:
      [
        ("run", run_section r);
        ("solver", Sat.Stats.json r.Master.solver_stats);
        ("wall", Sat.Stats.wall_json r.Master.solver_stats);
        ("timeline", Timeline.json curve);
      ]
    ~metrics:(Obs.metrics obs) ~spans:(Obs.spans obs) ()

let trace ?process_name ~obs () = Obs.Chrome.export ?process_name (Obs.spans obs)

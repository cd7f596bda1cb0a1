let solve ?(config = Config.default) ?(fault_plan = []) ?(obs = Obs.disabled) ?health ?on_master
    ~testbed cnf =
  Config.validate_exn config;
  let sim = Grid.Sim.create ~obs () in
  (* Spans carry virtual time: the whole run's trace lives on the
     simulation clock, so cross-process causality lines up in Perfetto. *)
  Obs.set_clock obs (fun () -> Grid.Sim.now sim);
  let net = Grid.Network.create () in
  let bus = Grid.Everyware.create ~obs sim net in
  let master = Master.create ~obs ?health ~sim ~net ~bus ~cfg:config ~testbed cnf in
  (match fault_plan with
  | [] -> ()
  | specs ->
      (match Grid.Fault.validate specs with
      | Ok () -> ()
      | Error msg -> invalid_arg ("Gridsat.solve: bad fault plan: " ^ msg));
      let ctl =
        Grid.Fault.arm ~sim ~seed:config.Config.seed
          ~on_crash:(fun host -> Master.crash_host master host)
          ~on_hang:(fun host -> Master.hang_host master host)
          ~on_master_crash:(fun () -> Master.crash_master master)
          ~on_master_restart:(fun () -> Master.restart_master master)
          ~on_storage_corrupt:(fun ~journal_records ~checkpoints ->
            Master.corrupt_storage master ~journal_records ~checkpoints)
          ~on_slow:(fun host factor -> Master.slow_host master host factor)
          ~on_disk_full:(fun ~quota -> Master.set_journal_quota master ~quota)
          specs
      in
      (* the corruptor garbles a payload in place of delivering it intact:
         the inner message rots, the framing headers keep their own CRC *)
      Grid.Everyware.set_corrupt bus Protocol.corrupt;
      Grid.Everyware.set_fault bus (fun ~src_site ~dst_site ~bytes ->
          Grid.Fault.decide ctl ~src_site ~dst_site ~bytes));
  (match on_master with Some f -> f master | None -> ());
  (* Drive the simulation until the master reaches a verdict.  The master
     always arms an overall-timeout event, so this terminates. *)
  while (not (Master.finished master)) && Grid.Sim.step sim do
    ()
  done;
  (* The event queue draining without a verdict should be impossible (the
     master always arms the overall timeout), but a caller who asked for
     a run report must get one even then: close the run with a clean
     Unknown instead of raising, so --report/--trace artifacts are still
     emitted and the journal carries a verdict. *)
  if not (Master.finished master) then Master.cancel master ~reason:"simulation stalled";
  Master.result master

let answer_string = function
  | Master.Sat _ -> "SAT"
  | Master.Unsat -> "UNSAT"
  | Master.Unknown reason -> Printf.sprintf "UNKNOWN(%s)" reason

let pp_result ppf (r : Master.result) =
  let c = Master.counter r in
  Format.fprintf ppf
    "@[<v>answer          %s@,time            %.1f s@,max clients     %d@,splits          %d@,\
     shared clauses  %d (in %d batches)@,messages        %d (%d bytes)@,events          %d@]"
    (answer_string r.Master.answer) r.Master.time (c "max_clients") (c "splits")
    (c "shared_clauses") (c "share_batches") (c "messages") (c "bytes")
    (List.length r.Master.events)

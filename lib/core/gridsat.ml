module F = Grid.Fault

let primary_site = "primary"

let chaos_plan ~standby ~partition =
  [
    F.Crash_host { host = 1; at = 2. };
    (if partition then F.Partition_site { site = primary_site; from_t = 6.; until_t = 18. }
     else
       F.Crash_master
         { at = 6.; restart_after = (if standby then infinity else 4.); by_verdict = standby });
    F.Drop_messages { src_site = None; dst_site = None; p = 0.1; from_t = 0.; until_t = infinity };
    F.Duplicate_messages { p = 0.05; extra = 0.5; from_t = 0.; until_t = infinity };
  ]

let straggler_plan ~n ~flaky ~seed =
  let st = Random.State.make [| seed; 0x51084 |] in
  List.init n (fun i ->
      let host = i + 1 and at = 1. +. Random.State.float st 2. in
      let factor = 6. +. Random.State.float st 4. in
      if flaky then
        F.Flaky_host { host; factor; period = 4. +. Random.State.float st 4.; from_t = at; until_t = infinity }
      else F.Slow_host { host; at; factor })

let link_faults ~corrupt_p ~choke ~window ~from_t ~until_t =
  (if choke > 0 then
     [ F.Choke_link { src_site = None; dst_site = None; bytes_per_window = choke; window; from_t; until_t } ]
   else [])
  @ if corrupt_p = 0. then []
    else [ F.Corrupt_messages { src_site = None; dst_site = None; p = corrupt_p; from_t; until_t } ]

let solve ?(config = Config.default) ?(fault_plan = []) ?(obs = Obs.disabled) ?health ?on_master
    ~testbed cnf =
  Config.validate_exn config;
  let sim = Grid.Sim.create ~obs () in
  (* spans carry virtual time, so cross-process causality lines up in Perfetto *)
  Obs.set_clock obs (fun () -> Grid.Sim.now sim);
  let net = Grid.Network.create () in
  let bus = Grid.Everyware.create ~obs sim net in
  let master = Master.create ~obs ?health ~sim ~net ~bus ~cfg:config ~testbed cnf in
  Master.arm_faults master ~seed:config.Config.seed fault_plan;
  (match on_master with Some f -> f master | None -> ());
  (* Drive the run to a verdict; the master always arms an overall-timeout
     event, so this terminates.  Should the queue drain first anyway, the
     run closes with a clean Unknown: --report/--trace artifacts are still
     emitted and the journal carries a verdict. *)
  while (not (Master.finished master)) && Grid.Sim.step sim do () done;
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

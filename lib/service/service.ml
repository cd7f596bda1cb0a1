module Core = Gridsat_core
module Master = Core.Master
module Config = Core.Config
module Testbed = Core.Testbed
module J = Obs.Json

type config = {
  queue_capacity : int;
  hosts_per_job : int;
  max_concurrent : int;
  starvation_after : float;
  retry_after_base : float;
  pump_period : float;
  preemption : bool;
  brownout_threshold : float;
  brownout_stretch : float;
  run : Config.t;
  faults : run:Config.t -> start:float -> hosts:int list -> Random.State.t -> Grid.Fault.spec list;
  seed : int;
}

let default_config =
  {
    queue_capacity = 16;
    hosts_per_job = 3;
    max_concurrent = 4;
    starvation_after = 120.;
    retry_after_base = 30.;
    pump_period = 1.;
    preemption = true;
    brownout_threshold = 0.;
    brownout_stretch = 1.5;
    run = Config.default;
    faults = (fun ~run:_ ~start:_ ~hosts:_ _ -> []);
    seed = 0;
  }

(* Offsets are drawn from the service RNG in a fixed order (master
   crash, host crashes, slowdowns), so the whole schedule replays.  Each
   spec goes to the front of the plan, and that order is kept: message
   faults draw in plan order, and same-instant actions fire in the order
   they were scheduled. *)
let chaos_plan ?(master_crash = false) ?(corrupt_p = 0.) ?(crash_hosts = 0) ?(slow_hosts = 0)
    ?(slow_factor = 8.) ?(flaky = false) ?(choke = 0) () =
  if corrupt_p < 0. || corrupt_p > 1. then
    invalid_arg "Service.chaos_plan: corrupt_p must be in [0,1]";
  if slow_hosts > 0 && slow_factor <= 0. then
    invalid_arg "Service.chaos_plan: slow_factor must be positive";
  fun ~run ~start ~hosts rng ->
    let frnd hi = Random.State.float rng hi in
    let specs =
      ref
        (Core.Gridsat.link_faults ~corrupt_p ~choke ~window:run.Config.share_window ~from_t:start
           ~until_t:(start +. 1e6))
    in
    let add spec = specs := spec :: !specs in
    if master_crash then begin
      let at = start +. 1. +. frnd 1.5 in
      (* under hot-standby replication the crashed primary never restarts:
         the standby's lease expiry promotes it instead.  The draw still
         happens so the rest of the schedule stays aligned with the
         equivalent non-standby run at the same seed. *)
      let drawn = 1. +. frnd 1. in
      add
        (Grid.Fault.Crash_master
           { at; restart_after = (if run.Config.standby then infinity else drawn) })
    end;
    let n = List.length hosts in
    List.iteri
      (fun i host ->
        if i < min crash_hosts (n - 1) then
          add
            (Grid.Fault.Crash_host
               { host; at = start +. 0.8 +. (float_of_int i *. 0.7) +. frnd 0.7 }))
      hosts;
    (* stragglers take the tail of the lease, so crash and slowdown targets
       only overlap when the lease is smaller than both counts *)
    List.iteri
      (fun i host ->
        if i >= n - min slow_hosts n then begin
          let at = start +. 0.5 +. frnd 1.0 in
          add
            (if flaky then
               Grid.Fault.Flaky_host
                 { host; factor = slow_factor; period = 4. +. frnd 4.; from_t = at; until_t = at +. 1e6 }
             else Grid.Fault.Slow_host { host; at; factor = slow_factor })
        end)
      hosts;
    !specs

type submit_outcome =
  | Accepted
  | Cached of Master.answer
  | Rejected of { retry_after : float }

type stats = {
  submitted : int;
  admitted : int;
  shed : int;
  cache_hits : int;
  deadline_expired : int;
  preempted : int;
  cancelled : int;
  completed : int;
  hosts_total : int;
  hosts_free : int;
  hosts_healthy : int;
  brownout : bool;
  brownouts : int;
  deadlines_stretched : int;
  resource_pressure : bool;
  joblog_degraded_entries : int;
}

(* Why a job's run is being torn down before its own verdict: set by the
   service before Master.cancel, read back when the finished run is
   finalised.  Tracking intent here (instead of parsing the master's
   Unknown reason string) keeps the terminal-state decision in one
   place. *)
type intent = Deadline | Preempt | Abort of string

type running = {
  rjob : Job.t;
  master : Master.t;
  lease : Testbed.host list;
  mutable cancel_intent : intent option;
}

type t = {
  sim : Grid.Sim.t;
  net : Grid.Network.t;
  obs : Obs.t;
  slo : Obs.Slo.t option;
  on_flight : (name:string -> J.t -> unit) option;
  on_expo : (string -> unit) option;
  expo_period : float;
  mutable flight_dumps : (string * J.t) list;  (* newest first *)
  d_cache_hit : Obs.Anomaly.detector;  (* 0/1 stream; fires on hit-rate collapse *)
  cfg : config;
  base : Testbed.t;
  mutable free_hosts : Testbed.host list;  (* ascending by resource id *)
  hosts_total : int;
  adm : Admission.t;
  cache : Cache.t;
  log : Joblog.t;
  mutable running : running list;
  mutable all_jobs : Job.t list;  (* newest first *)
  mutable next_id : int;
  mutable pump_armed : bool;
  mutable pending_submissions : int;
  rng : Random.State.t;
  health : Core.Health.t;
      (* one model shared across every run the service dispatches: host
         ids are pool-global, so a host that misbehaved under one job
         starts its next lease already demoted (or in probation) *)
  mutable brownout : bool;
  mutable n_brownouts : int;
  mutable joblog_degraded_seen : bool;  (* edge detector for the durability alarm *)
  mutable n_stretched : int;
}

let host_id (h : Testbed.host) = h.Testbed.resource.Grid.Resource.id

let by_id a b = compare (host_id a) (host_id b)

let create ?(obs = Obs.disabled) ?slo ?on_flight ?on_expo ?(expo_period = 30.) ~cfg
    ~testbed () =
  if expo_period <= 0. then invalid_arg "Service.create: expo_period must be positive";
  Config.validate_exn cfg.run;
  if cfg.queue_capacity < 1 then invalid_arg "Service.create: queue_capacity must be >= 1";
  if cfg.max_concurrent < 1 then invalid_arg "Service.create: max_concurrent must be >= 1";
  if cfg.pump_period <= 0. then invalid_arg "Service.create: pump_period must be positive";
  if cfg.retry_after_base <= 0. then invalid_arg "Service.create: retry_after_base must be positive";
  let pool = List.sort by_id testbed.Testbed.hosts in
  let n = List.length pool in
  if n = 0 then invalid_arg "Service.create: empty host pool";
  if cfg.hosts_per_job < 1 || cfg.hosts_per_job > n then
    invalid_arg "Service.create: hosts_per_job must be in [1, pool size]";
  if cfg.brownout_threshold < 0. || cfg.brownout_threshold > 1. then
    invalid_arg "Service.create: brownout_threshold must be in [0,1]";
  if cfg.brownout_stretch < 1. then
    invalid_arg "Service.create: brownout_stretch must be >= 1";
  let sim = Grid.Sim.create ~obs () in
  Obs.set_clock obs (fun () -> Grid.Sim.now sim);
  let net = Grid.Network.create () in
  testbed.Testbed.configure_network net;
  let m = Obs.metrics obs in
  let t =
  {
    sim;
    net;
    obs;
    slo = Option.map Obs.Slo.create slo;
    on_flight;
    on_expo;
    expo_period;
    flight_dumps = [];
    d_cache_hit =
      Obs.Anomaly.detector (Obs.anomaly obs) ~name:"cache-hit-rate" ~direction:`Low
        ~min_n:16 ();
    cfg;
    base = testbed;
    free_hosts = pool;
    hosts_total = n;
    adm = Admission.create ~capacity:cfg.queue_capacity ~starvation_after:cfg.starvation_after;
    cache = Cache.create ();
    log = Joblog.create ~obs ~quota:cfg.run.Config.journal_quota ();
    running = [];
    all_jobs = [];
    next_id = 1;
    pump_armed = false;
    pending_submissions = 0;
    rng = Random.State.make [| cfg.seed; 0x5e47 |];
    health = Core.Health.create ();
    brownout = false;
    n_brownouts = 0;
    joblog_degraded_seen = false;
    n_stretched = 0;
  }
  in
  (* the service.jobs.* series are views of the joblog's state, the one
     store of the job counts *)
  (let log = t.log in
   List.iter
     (fun (name, read) -> Obs.Metrics.view m name (fun () -> read (Joblog.current log)))
     [
       ("service.jobs.submitted", fun s -> s.Joblog.submitted);
       ("service.jobs.admitted", fun s -> s.Joblog.admitted);
       ("service.jobs.shed", fun s -> s.Joblog.shed);
       ("service.jobs.cache_hit", fun s -> s.Joblog.cache_hits);
       ("service.jobs.deadline_expired", fun s -> s.Joblog.deadline_expired);
       ("service.jobs.preempted", fun s -> s.Joblog.requeues);
       ("service.jobs.cancelled", fun s -> s.Joblog.cancelled);
       ("service.jobs.completed", fun s -> s.Joblog.verdicts);
     ]);
  (* every anomaly trigger dumps the flight recorder: the rings hold the
     causally-ordered window that led up to the trigger *)
  (if Obs.Anomaly.is_enabled (Obs.anomaly obs) && Obs.Flight.is_enabled (Obs.flight obs)
   then
     Obs.Anomaly.on_trigger (Obs.anomaly obs) (fun tr ->
         let doc =
           Obs.Flight.dump (Obs.flight obs) ~at:tr.Obs.Anomaly.at ~trigger:tr.rule
             ~detail:tr.detail ()
         in
         let name = Obs.Flight.file_name ~at:tr.Obs.Anomaly.at ~trigger:tr.rule in
         t.flight_dumps <- (name, doc) :: t.flight_dumps;
         match t.on_flight with Some f -> f ~name doc | None -> ()));
  (match t.slo with
  | Some slo ->
      Obs.Slo.on_fast_burn slo (fun ~tenant ~target ~burn ->
          Obs.Anomaly.trip (Obs.anomaly obs) ~at:(Grid.Sim.now sim) ~rule:"slo-fast-burn"
            ~value:burn ~detail:(tenant ^ "/" ^ target) ())
  | None -> ());
  t

let now t = Grid.Sim.now t.sim

let outstanding t =
  t.pending_submissions > 0 || Admission.length t.adm > 0 || t.running <> []

let tenant_load t tenant =
  List.length (List.filter (fun r -> r.rjob.Job.tenant = tenant) t.running)

(* The one terminal transition, for every outcome: the job's state, its
   terminal record (the joblog's count of the outcome, which its series
   reads), then the SLO note. *)
let finish_job t (job : Job.t) terminal =
  job.Job.state <- Job.Done terminal;
  job.Job.finished_at <- Some (now t);
  let id = job.Job.id and tenant = job.Job.tenant in
  Joblog.append t.log
    (match terminal with
    | Job.Shed { retry_after } -> Joblog.Shed { id; retry_after }
    | Job.Cached answer -> Joblog.Cache_hit { id; answer = Core.Gridsat.answer_string answer }
    | Job.Verdict _ | Job.Deadline_expired | Job.Cancelled _ ->
        Joblog.Finished { id; terminal = Job.terminal_string terminal });
  let e2e = now t -. job.Job.submitted_at in
  (match (t.slo, terminal) with
  | Some slo, (Job.Verdict _ | Job.Cached _) -> Obs.Slo.note_solved slo ~now:(now t) ~tenant e2e
  | Some slo, (Job.Deadline_expired | Job.Cancelled _ | Job.Shed _) ->
      Obs.Slo.note_error slo ~now:(now t) ~tenant
  | None, _ -> ());
  match terminal with
  | Job.Verdict _ ->
      Obs.Metrics.observe
        (Obs.Metrics.histogram (Obs.metrics t.obs) ~labels:[ ("tenant", tenant) ]
           "service.e2e_s")
        e2e
  | Job.Deadline_expired ->
      Obs.Anomaly.trip (Obs.anomaly t.obs) ~at:(now t) ~rule:"deadline-miss"
        ~detail:(Printf.sprintf "job %d tenant %s" id tenant) ()
  | Job.Cancelled _ | Job.Cached _ | Job.Shed _ -> ()

(* Return a finished run's lease to the pool and give its job a terminal
   state (or requeue it, if it was preempted). *)
let finalize_run t r =
  let job = r.rjob in
  t.running <- List.filter (fun x -> x != r) t.running;
  t.free_hosts <- List.sort by_id (r.lease @ t.free_hosts);
  (let flight = Obs.flight t.obs in
   if Obs.Flight.is_enabled flight then
     Obs.Flight.note flight ~sub:"pool"
       ~args:
         [
           ("job", J.Int job.Job.id);
           ("hosts", J.List (List.map (fun h -> J.Int (host_id h)) r.lease));
         ]
       "lease_returned");
  let result = Master.result r.master in
  job.Job.result <- Some result;
  match r.cancel_intent with
  | Some Preempt ->
      job.Job.state <- Job.Queued;
      job.Job.preemptions <- job.Job.preemptions + 1;
      Joblog.append t.log (Joblog.Requeued { id = job.Job.id; reason = "preempted" });
      Admission.requeue t.adm job
  | Some Deadline -> finish_job t job Job.Deadline_expired
  | Some (Abort reason) -> finish_job t job (Job.Cancelled reason)
  | None ->
      let answer = result.Master.answer in
      Cache.store t.cache ~digest:job.Job.digest answer;
      finish_job t job (Job.Verdict answer)

let start_job t (job : Job.t) =
  let rec split n acc = function
    | rest when n = 0 -> (List.rev acc, rest)
    | [] -> (List.rev acc, [])
    | h :: rest -> split (n - 1) (h :: acc) rest
  in
  let lease, free = split t.cfg.hosts_per_job [] t.free_hosts in
  t.free_hosts <- free;
  (* Each run lives on its own bus over the shared sim+network: endpoint
     ids (master 0, host resource ids) cannot collide across jobs, and
     per-job fault hooks stay contained.  The sub-testbed's network hook
     is a no-op — the service configured the links once at creation. *)
  let sub =
    {
      Testbed.name = Printf.sprintf "%s/job-%d" t.base.Testbed.name job.Job.id;
      master_site = t.base.Testbed.master_site;
      hosts = lease;
      batch = None;
      late_hosts = [];
      configure_network = (fun _ -> ());
    }
  in
  (* every instrument a job's master/clients/solvers create goes through
     a scoped handle: samples land in job/tenant-labeled series instead
     of bleeding into the instruments of concurrently running jobs *)
  let job_obs =
    Obs.scope t.obs
      ~labels:[ ("job", string_of_int job.Job.id); ("tenant", job.Job.tenant) ]
  in
  let bus = Grid.Everyware.create ~obs:job_obs t.sim t.net in
  let rcfg = { t.cfg.run with Config.seed = t.cfg.run.Config.seed + job.Job.id } in
  let master =
    Master.create ~obs:job_obs ~health:t.health ~sim:t.sim ~net:t.net ~bus ~cfg:rcfg
      ~testbed:sub job.Job.cnf
  in
  Master.arm_faults master ~seed:(t.cfg.seed + (31 * job.Job.id))
    (t.cfg.faults ~run:rcfg ~start:(now t) ~hosts:(List.map host_id lease) t.rng);
  job.Job.state <- Job.Running;
  if job.Job.started_at = None then job.Job.started_at <- Some (now t);
  let wait = now t -. job.Job.submitted_at in
  (match t.slo with
  | Some slo -> Obs.Slo.note_queue_wait slo ~now:(now t) ~tenant:job.Job.tenant wait
  | None -> ());
  Obs.Metrics.observe
    (Obs.Metrics.histogram (Obs.metrics t.obs)
       ~labels:[ ("tenant", job.Job.tenant) ]
       "service.queue_wait_s")
    wait;
  (let flight = Obs.flight t.obs in
   if Obs.Flight.is_enabled flight then
     Obs.Flight.note flight ~sub:"pool"
       ~args:
         [
           ("job", J.Int job.Job.id);
           ("hosts", J.List (List.map (fun h -> J.Int (host_id h)) lease));
         ]
       "lease_granted");
  Joblog.append t.log (Joblog.Started { id = job.Job.id; hosts = List.map host_id lease });
  t.running <- { rjob = job; master; lease; cancel_intent = None } :: t.running

let can_dispatch t =
  List.length t.running < t.cfg.max_concurrent
  && List.length t.free_hosts >= t.cfg.hosts_per_job

let admit t =
  let progress = ref true in
  while !progress && can_dispatch t do
    match Admission.take t.adm ~now:(now t) ~tenant_load:(tenant_load t) with
    | Some job -> start_job t job
    | None -> progress := false
  done

(* When the pool is exhausted and the next queued job outranks (by base
   priority, not aging) the weakest running one, cancel that victim and
   requeue it.  One victim per tick keeps the policy gradual and cheap. *)
let maybe_preempt t =
  if t.cfg.preemption && not (can_dispatch t) then
    match Admission.peek t.adm ~now:(now t) ~tenant_load:(tenant_load t) with
    | None -> ()
    | Some waiting -> (
        let level (r : running) = Job.priority_level r.rjob.Job.priority in
        let weaker a b =
          (* lowest priority; ties prefer the youngest run (least sunk
             work), then the higher job id *)
          level a < level b
          || (level a = level b
             && (a.rjob.Job.started_at > b.rjob.Job.started_at
                || (a.rjob.Job.started_at = b.rjob.Job.started_at && a.rjob.Job.id > b.rjob.Job.id)))
        in
        let victim =
          List.fold_left
            (fun acc r ->
              if r.cancel_intent <> None then acc
              else match acc with None -> Some r | Some b -> if weaker r b then Some r else acc)
            None t.running
        in
        match victim with
        | Some r when level r < Job.priority_level waiting.Job.priority ->
            r.cancel_intent <- Some Preempt;
            Master.cancel r.master ~reason:"preempted";
            finalize_run t r
        | _ -> ())

(* ---------- brownout ---------- *)

(* A host counts as healthy when it may receive work (breaker not open)
   and its blended score has not collapsed.  Unknown hosts score 1.0, so
   a fresh service starts at full health. *)
let healthy_hosts t =
  let tnow = now t in
  List.fold_left
    (fun acc h ->
      let id = host_id h in
      if
        Core.Health.admissible t.health ~host:id ~now:tnow
        && Core.Health.score t.health ~host:id >= 0.4
      then acc + 1
      else acc)
    0 t.base.Testbed.hosts

(* Advisory deadlines stretch under brownout: the capacity the submitter
   sized its deadline against is partly gone, so expiring jobs on
   schedule would turn a capacity dip into an outage.  The armed expiry
   timers re-check [Job.deadline] before cancelling (see
   [arm_deadline]). *)
let stretch_deadlines t =
  let tnow = now t in
  List.iter
    (fun (job : Job.t) ->
      match (job.Job.state, job.Job.deadline) with
      | (Job.Queued | Job.Running), Some d when d > tnow ->
          job.Job.deadline <- Some (tnow +. ((d -. tnow) *. t.cfg.brownout_stretch));
          t.n_stretched <- t.n_stretched + 1
      | _ -> ())
    (List.rev t.all_jobs)

let shed_low_queued t =
  List.iter
    (fun (job : Job.t) ->
      if job.Job.state = Job.Queued && job.Job.priority = Job.Low then begin
        Admission.remove t.adm job;
        let retry_after = Admission.retry_after t.adm ~base:t.cfg.retry_after_base in
        finish_job t job (Job.Shed { retry_after })
      end)
    (Admission.queued_jobs t.adm)

(* Resource pressure is the second brownout dimension: a degraded joblog,
   or any running master reporting pressure (degraded run journal, a
   client outbox latched over its watermark, recent share-budget sheds).
   Healthy-fraction measures missing capacity; this measures capacity
   that is present but saturating its queues and disks. *)
let resource_pressure t =
  Joblog.degraded t.log || List.exists (fun r -> Master.resource_pressure r.master) t.running

(* Edge-trigger the joblog durability alarm: the joblog cannot compact
   (append-only), so crossing its quota is an operator page, not a
   recoverable hiccup. *)
let check_joblog t =
  let deg = Joblog.degraded t.log in
  if deg && not t.joblog_degraded_seen then
    Obs.Anomaly.trip (Obs.anomaly t.obs) ~at:(now t) ~rule:"joblog-degraded"
      ~detail:
        (Printf.sprintf "%d bytes over a %d quota" (Joblog.bytes t.log) (Joblog.quota t.log))
      ();
  t.joblog_degraded_seen <- deg

(* Entered when the healthy fraction of the pool drops below the
   threshold OR the service is under resource pressure; exited with
   hysteresis (threshold + 0.1) and only once the pressure has cleared,
   so an oscillating host or a flapping queue cannot flap the policy.
   On entry, queued low-priority work is shed and every outstanding
   advisory deadline stretches. *)
let update_brownout t =
  if t.cfg.brownout_threshold > 0. then begin
    let frac = float_of_int (healthy_hosts t) /. float_of_int t.hosts_total in
    let pressure = resource_pressure t in
    if (not t.brownout) && (frac < t.cfg.brownout_threshold || pressure) then begin
      t.brownout <- true;
      t.n_brownouts <- t.n_brownouts + 1;
      let rule = if frac < t.cfg.brownout_threshold then "brownout" else "brownout-resource" in
      Obs.Anomaly.trip (Obs.anomaly t.obs) ~at:(now t) ~rule ~value:frac
        ~threshold:t.cfg.brownout_threshold ();
      shed_low_queued t;
      stretch_deadlines t
    end
    else if t.brownout && frac >= t.cfg.brownout_threshold +. 0.1 && not pressure then
      t.brownout <- false
  end

let finalize_finished t =
  let done_, live = List.partition (fun r -> Master.finished r.master) t.running in
  ignore live;
  (* oldest job first: finalization order (and thus requeue/cache order)
     is a function of job ids, not of the running-list shape *)
  List.iter (finalize_run t)
    (List.sort (fun a b -> compare a.rjob.Job.id b.rjob.Job.id) done_)

let rec pump t =
  t.pump_armed <- false;
  finalize_finished t;
  check_joblog t;
  update_brownout t;
  maybe_preempt t;
  admit t;
  arm_pump t

and arm_pump t =
  if (not t.pump_armed) && outstanding t then begin
    t.pump_armed <- true;
    ignore (Grid.Sim.schedule t.sim ~delay:t.cfg.pump_period (fun () -> pump t))
  end

let rec arm_deadline t (job : Job.t) =
  match job.Job.deadline with
  | None -> ()
  | Some at ->
      ignore
        (Grid.Sim.schedule_at t.sim ~time:at (fun () ->
             match job.Job.deadline with
             | Some at' when at' > at +. 1e-9 ->
                 (* a brownout stretched the deadline after this timer was
                    armed: chase the new one instead of expiring early *)
                 arm_deadline t job
             | Some _ | None -> (
             match job.Job.state with
             | Job.Done _ -> ()
             | Job.Queued ->
                 Admission.remove t.adm job;
                 finish_job t job Job.Deadline_expired
             | Job.Running -> (
                 match List.find_opt (fun r -> r.rjob == job) t.running with
                 | None -> ()
                 | Some r ->
                     if Master.finished r.master then
                       (* verdict reached before the deadline, finalization
                          pending: let the pump credit the real answer *)
                       ()
                     else begin
                       r.cancel_intent <- Some Deadline;
                       (* Master.cancel restarts a downed master first, so a
                          deadline landing inside a crash-failover window
                          still stops the clients and closes the journal *)
                       Master.cancel r.master ~reason:"deadline";
                       finalize_run t r
                     end))))

let submit t ~tenant ~priority ?deadline_in ?label cnf =
  let id = t.next_id in
  t.next_id <- id + 1;
  let label = match label with Some l -> l | None -> Printf.sprintf "job-%d" id in
  let digest = Cache.digest cnf in
  let deadline = Option.map (fun d -> now t +. d) deadline_in in
  let job =
    {
      Job.id;
      tenant;
      priority;
      label;
      cnf;
      digest;
      deadline;
      submitted_at = now t;
      state = Job.Queued;
      started_at = None;
      finished_at = None;
      preemptions = 0;
      result = None;
    }
  in
  t.all_jobs <- job :: t.all_jobs;
  Joblog.append t.log
    (Joblog.Submitted
       { id; tenant; priority = Job.priority_string priority; digest; deadline });
  match Cache.find t.cache ~digest ~cnf with
  | Some answer ->
      Obs.Anomaly.observe t.d_cache_hit ~at:(now t) 1.0;
      finish_job t job (Job.Cached answer);
      Cached answer
  | None ->
      Obs.Anomaly.observe t.d_cache_hit ~at:(now t) 0.0;
      (* brownout sheds lowest-priority first: Low submissions bounce at
         the door while degraded capacity is reserved for the rest *)
      if Admission.is_full t.adm || (t.brownout && priority = Job.Low) then begin
        let retry_after = Admission.retry_after t.adm ~base:t.cfg.retry_after_base in
        finish_job t job (Job.Shed { retry_after });
        Rejected { retry_after }
      end
      else begin
        Admission.enqueue t.adm job;
        Joblog.append t.log (Joblog.Admitted { id });
        arm_deadline t job;
        arm_pump t;
        Accepted
      end

let submit_at t ~at ~tenant ~priority ?deadline_in ?label cnf =
  t.pending_submissions <- t.pending_submissions + 1;
  ignore
    (Grid.Sim.schedule_at t.sim ~time:at (fun () ->
         t.pending_submissions <- t.pending_submissions - 1;
         ignore (submit t ~tenant ~priority ?deadline_in ?label cnf)))

let cancel_job t ~id ~reason =
  match List.find_opt (fun (j : Job.t) -> j.Job.id = id) t.all_jobs with
  | None -> false
  | Some job -> (
      match job.Job.state with
      | Job.Done _ -> false
      | Job.Queued ->
          Admission.remove t.adm job;
          finish_job t job (Job.Cancelled reason);
          true
      | Job.Running -> (
          match List.find_opt (fun r -> r.rjob == job) t.running with
          | None -> false
          | Some r ->
              r.cancel_intent <- Some (Abort reason);
              Master.cancel r.master ~reason;
              finalize_run t r;
              true))

let render_expo t =
  match t.on_expo with
  | None -> ()
  | Some f -> f (Obs.Expo.render (Obs.metrics t.obs))

let rec arm_expo t =
  if t.on_expo <> None then
    ignore
      (Grid.Sim.schedule t.sim ~delay:t.expo_period (fun () ->
           render_expo t;
           if outstanding t then arm_expo t))

let run t =
  arm_expo t;
  pump t;
  while outstanding t && Grid.Sim.step t.sim do
    ()
  done;
  (* The pump re-arms itself while anything is outstanding, so the queue
     draining early should be impossible; if it ever happens, close every
     leftover with a clean terminal instead of raising. *)
  if outstanding t then begin
    List.iter
      (fun r ->
        r.cancel_intent <- Some (Abort "service stalled");
        Master.cancel r.master ~reason:"service stalled")
      t.running;
    finalize_finished t;
    List.iter
      (fun (job : Job.t) ->
        Admission.remove t.adm job;
        finish_job t job (Job.Cancelled "service stalled"))
      (Admission.queued_jobs t.adm)
  end;
  (* a final exposition write captures the terminal state *)
  render_expo t

let jobs t = List.rev t.all_jobs

let sim t = t.sim

let health t = t.health

let joblog t = t.log

let verdict_cache t = t.cache

let slo t = t.slo

let anomalies t = Obs.Anomaly.triggers (Obs.anomaly t.obs)

let flight_dumps t = List.rev t.flight_dumps

let running_masters t =
  List.map (fun r -> (r.rjob.Job.id, r.master)) t.running
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let stats t =
  let log = Joblog.current t.log in
  {
    submitted = log.Joblog.submitted;
    admitted = log.admitted;
    shed = log.shed;
    cache_hits = log.cache_hits;
    deadline_expired = log.deadline_expired;
    preempted = log.requeues;
    cancelled = log.cancelled;
    completed = log.verdicts;
    hosts_total = t.hosts_total;
    hosts_free = List.length t.free_hosts;
    hosts_healthy = healthy_hosts t;
    brownout = t.brownout;
    brownouts = t.n_brownouts;
    deadlines_stretched = t.n_stretched;
    resource_pressure = resource_pressure t;
    joblog_degraded_entries = Joblog.degraded_entries t.log;
  }

let job_json (j : Job.t) =
  let fopt = function None -> J.Null | Some v -> J.Float v in
  let run_field key =
    (key, J.Int (match j.Job.result with Some r -> Master.counter r key | None -> 0))
  in
  J.Obj
    ([
       ("id", J.Int j.Job.id);
       ("tenant", J.String j.Job.tenant);
       ("priority", J.String (Job.priority_string j.Job.priority));
       ("label", J.String j.Job.label);
       ("digest", J.String j.Job.digest);
       ("state", J.String (Job.state_string j.Job.state));
       ("submitted_at", J.Float j.Job.submitted_at);
       ("started_at", fopt j.Job.started_at);
       ("finished_at", fopt j.Job.finished_at);
       ("deadline", fopt j.Job.deadline);
       ("preemptions", J.Int j.Job.preemptions);
     ]
    @ List.map run_field [ "splits"; "messages"; "promotions" ])

let report t =
  let s = stats t in
  let service =
    J.Obj
      [
        ("submitted", J.Int s.submitted);
        ("admitted", J.Int s.admitted);
        ("shed", J.Int s.shed);
        ("cache_hits", J.Int s.cache_hits);
        ("deadline_expired", J.Int s.deadline_expired);
        ("preempted", J.Int s.preempted);
        ("cancelled", J.Int s.cancelled);
        ("completed", J.Int s.completed);
        ("hosts_total", J.Int s.hosts_total);
        ("hosts_free", J.Int s.hosts_free);
        ("hosts_healthy", J.Int s.hosts_healthy);
        ("brownout", J.Bool s.brownout);
        ("brownouts", J.Int s.brownouts);
        ("deadlines_stretched", J.Int s.deadlines_stretched);
        ("cache_size", J.Int (Cache.size t.cache));
        ("resource_pressure", J.Bool s.resource_pressure);
        ("joblog_appends", J.Int (Joblog.appended t.log));
        ("joblog_records_dropped", J.Int (Joblog.records_dropped t.log));
        ("joblog_bytes", J.Int (Joblog.bytes t.log));
        ("joblog_bytes_peak", J.Int (Joblog.bytes_peak t.log));
        ("joblog_quota", J.Int (Joblog.quota t.log));
        ("joblog_degraded", J.Bool (Joblog.degraded t.log));
        ("joblog_degraded_entries", J.Int s.joblog_degraded_entries);
        ("joblog_digest", J.String (Joblog.digest (Joblog.replay t.log)));
      ]
  in
  Obs.Report.build
    ~meta:
      [
        ("kind", J.String "service");
        ("testbed", J.String t.base.Testbed.name);
        ("seed", J.Int t.cfg.seed);
        ("queue_capacity", J.Int t.cfg.queue_capacity);
        ("hosts_per_job", J.Int t.cfg.hosts_per_job);
        ("max_concurrent", J.Int t.cfg.max_concurrent);
        ("virtual_time", J.Float (now t));
      ]
    ~sections:
      ([
         ("service", service);
         ("health", Core.Health.to_json t.health);
         ("jobs", J.List (List.map job_json (jobs t)));
       ]
      @ (match t.slo with
        | Some slo -> [ ("slo", Obs.Slo.to_json slo ~now:(now t)) ]
        | None -> [])
      @ (if Obs.Anomaly.is_enabled (Obs.anomaly t.obs) then
           [ ("anomalies", Obs.Anomaly.to_json (Obs.anomaly t.obs)) ]
         else [])
      @ [ ("metrics_merged", Obs.Metrics.merged_json (Obs.metrics t.obs)) ])
    ~metrics:(Obs.metrics t.obs) ~spans:(Obs.spans t.obs) ()

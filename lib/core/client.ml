module R = Grid.Resource
module Solver = Sat.Solver

type callbacks = {
  log : Events.kind -> unit;
  save_checkpoint : client:int -> pid:Protocol.pid -> Subproblem.t -> unit;
  note_dup : int -> unit;
  note_outbox : depth:int -> shed:int -> unit;
}

type solving = {
  solver : Solver.t;
  pid : Protocol.pid;  (* identity of the subproblem being worked on *)
  origin : Subproblem.t;
      (* the subproblem exactly as received — certified runs derive every
         outgoing transfer from it so clause sets stay lineage-pure *)
  span : Obs.Span.id;  (* telemetry span covering this subproblem's solve *)
  started_at : float;
  transfer_time : float;  (* how long the problem took to reach us *)
  mutable split_epoch : float;  (* start of the current run-time-heuristic window *)
  mutable split_pending : bool;
  mutable last_share_flush : float;
  mutable last_checkpoint : float;
  mutable hard_mem_strikes : int;  (* consecutive slices at the hard memory limit *)
}

type state = Idle | Solving of solving

type t = {
  cid : int;
  mutable master : int;
      (* the master's bus endpoint: re-pointed when a frame from a newer
         epoch announces that a promoted standby took the run over *)
  mutable epoch : int;  (* highest master epoch seen; stamps every frame we send *)
  sim : Grid.Sim.t;
  bus : Protocol.msg Grid.Everyware.t;
  cfg : Config.t;
  resource : R.t;
  trace : Grid.Trace.t;
  callbacks : callbacks;
  mem_budget : int;
  mutable state : state;
  mutable alive : bool;
  mutable hung : bool;  (* fault injection: process wedged, not known dead *)
  mutable slow_factor : float;  (* fault injection: >1 divides the compute budget *)
  mutable token : int;  (* bumped on every state change to invalidate stale slices *)
  mutable next_branch : int;  (* stamps pids of branches this client donates *)
  mutable rel : Reliable.t option;  (* set once in create; never None afterwards *)
  mutable master_down : bool;  (* retry exhaustion toward the master flipped this *)
  outbox : Protocol.msg Flow.queue;  (* share batches parked during the outage *)
  seen_shares : (Sat.Types.lit array, unit) Hashtbl.t;
      (* every foreign clause already enqueued into a solver here, as its
         sorted literals: a clause relayed twice (duplicate delivery, or
         two masters' relays racing across a failover) is suppressed *)
  dup_suppressed : Obs.Metrics.counter;  (* the [client.shares.dup_suppressed] series *)
  stats_acc : Sat.Stats.t;
  obs : Obs.t;
  obs_on : bool;
  flight : Obs.Flight.t;
  flight_on : bool;
  c_problems : Obs.Metrics.counter;
  c_shares_flushed : Obs.Metrics.counter;
  c_splits_donated : Obs.Metrics.counter;
  c_outbox_shed : Obs.Metrics.counter;
  g_outbox : Obs.Metrics.gauge;
  h_transfer : Obs.Metrics.histogram;
}

let id t = t.cid

let is_busy t = match t.state with Solving _ -> true | Idle -> false

let is_alive t = t.alive

let is_hung t = t.hung

(* A slowed host keeps heartbeating on schedule and acking promptly — the
   only observable symptom is that solver work trickles.  That asymmetry
   is the point: crash detection cannot see it. *)
let set_slow_factor t factor = if factor > 0. then t.slow_factor <- factor

let slow_factor t = t.slow_factor

let solver_stats t =
  let acc = Sat.Stats.copy t.stats_acc in
  (match t.state with Solving s -> Sat.Stats.add acc (Solver.stats s.solver) | Idle -> ());
  acc

let send_raw t ~dst msg = Protocol.send t.bus ~src:t.cid ~dst ~epoch:t.epoch msg

let reliable t = match t.rel with Some r -> r | None -> assert false

let outbox_pressured t = Flow.under_pressure t.outbox

(* During a master outage the client keeps solving autonomously.  Its
   control messages wait on the reliable stream to the master; its share
   batches park in a watermark-bounded outbox, which past its high
   watermark ([Config.outbox_cap]) sheds the biggest batches first (they
   are only accelerants and accrue every flush interval). *)
let report_shed t shed =
  let n = List.length shed in
  if n > 0 then t.callbacks.log (Events.Outbox_shed { client = t.cid; shed = n });
  t.callbacks.note_outbox ~depth:(Flow.depth t.outbox) ~shed:n;
  if t.obs_on then begin
    if n > 0 then Obs.Metrics.add t.c_outbox_shed n;
    Obs.Metrics.set t.g_outbox (float_of_int (Flow.depth t.outbox))
  end

(* Critical control messages ride the reliable stream, outage or not;
   shares and other safe-to-lose traffic go straight out, or into the
   outbox while the master is down. *)
let send t ~dst msg =
  if Protocol.critical msg then Reliable.send (reliable t) ~dst msg
  else if dst = t.master && t.master_down then report_shed t (Flow.push t.outbox msg)
  else send_raw t ~dst msg

let flush_outbox t =
  let pending = Flow.drain t.outbox in
  if t.obs_on then Obs.Metrics.set t.g_outbox 0.;
  List.iter (fun m -> send t ~dst:t.master m) pending

(* Any delivery from the master is proof of life: end the outage and
   send the share batches parked during it. *)
let master_reachable t =
  if t.master_down then begin
    t.master_down <- false;
    flush_outbox t
  end

(* A give-up hands back the whole unacked tail of the stream to the
   master, oldest first.  Re-sending each one at once on the same stream
   keeps their order ahead of anything sent later, and the stream's own
   backoff probes the master until it answers. *)
let master_gave_up t msg =
  if not t.master_down then begin
    t.master_down <- true;
    t.callbacks.log (Events.Master_outage_detected { client = t.cid })
  end;
  Reliable.send (reliable t) ~dst:t.master msg

let now t = Grid.Sim.now t.sim

(* How many consecutive hard-memory slices a client survives before the
   operating system kills it (paper: the Linux OOM killer). *)
let oom_strikes = 50

let finish_problem ?(outcome = "done") t =
  (match t.state with
  | Solving s ->
      Sat.Stats.add t.stats_acc (Solver.stats s.solver);
      (* nothing reads the solver after this: its arena goes to the next *)
      Solver.release s.solver;
      if t.flight_on then
        Obs.Flight.note t.flight ~sub:"client"
          ~args:
            [
              ("client", Obs.Json.Int t.cid);
              ("pid", Obs.Json.String (Printf.sprintf "%d.%d" (fst s.pid) (snd s.pid)));
              ("outcome", Obs.Json.String outcome);
            ]
          "solve_finished";
      if t.obs_on then
        Obs.Span.exit (Obs.spans t.obs) s.span
          ~args:[ ("outcome", Obs.Json.String outcome) ]
  | Idle -> ());
  t.state <- Idle;
  t.token <- t.token + 1

let die t =
  if t.alive then begin
    t.alive <- false;
    if t.flight_on then
      Obs.Flight.note t.flight ~sub:"client" ~args:[ ("client", Obs.Json.Int t.cid) ] "died";
    (match t.state with
    | Solving s ->
        (* the search done so far still counts in the run's totals *)
        Sat.Stats.add t.stats_acc (Solver.stats s.solver);
        Solver.release s.solver;
        if t.obs_on then
          Obs.Span.exit (Obs.spans t.obs) s.span ~args:[ ("outcome", Obs.Json.String "died") ]
    | Idle -> ());
    t.state <- Idle;
    t.token <- t.token + 1;
    (match t.rel with Some r -> Reliable.stop r | None -> ());
    Grid.Everyware.unregister t.bus ~id:t.cid
  end

let kill t = die t

(* A hung host stops computing, heartbeating and answering, but its
   endpoint stays registered: to the rest of the grid it is
   indistinguishable from a live-but-unreachable process. *)
let hang t =
  if t.alive && not t.hung then begin
    t.hung <- true;
    t.token <- t.token + 1;
    match t.rel with Some r -> Reliable.stop r | None -> ()
  end

(* The run-time split heuristic (Section 3.3): a client asks for help after
   working for twice the time its problem took to arrive, but never sooner
   than the configured floor. *)
let split_deadline t s = s.split_epoch +. Float.max (2. *. s.transfer_time) t.cfg.split_timeout

let flush_shares t s =
  let shares = Solver.drain_shares s.solver ~max_len:t.cfg.share_max_len in
  s.last_share_flush <- now t;
  if shares <> [] then begin
    if t.obs_on then Obs.Metrics.add t.c_shares_flushed (List.length shares);
    send t ~dst:t.master (Protocol.Shares { clauses = shares })
  end

let maybe_checkpoint t s =
  match t.cfg.checkpoint with
  | Config.No_checkpoint -> ()
  | (Config.Light | Config.Heavy) as mode ->
      if now t -. s.last_checkpoint >= t.cfg.checkpoint_period then begin
        s.last_checkpoint <- now t;
        (* a light checkpoint stores only the root, so it copies no clauses *)
        let capture = if mode = Config.Light then Subproblem.capture_root else Subproblem.capture in
        t.callbacks.save_checkpoint ~client:t.cid ~pid:s.pid (capture s.solver)
      end

let request_split t s reason =
  if not s.split_pending then begin
    s.split_pending <- true;
    t.callbacks.log (Events.Split_requested { client = t.cid; reason });
    send t ~dst:t.master (Protocol.Split_request reason)
  end

let rec schedule_slice t delay =
  let token = t.token in
  ignore (Grid.Sim.schedule t.sim ~delay (fun () -> slice t token))

and slice t token =
  if t.alive && (not t.hung) && token = t.token then
    match t.state with
    | Idle -> ()
    | Solving s ->
        let avail = Grid.Trace.availability t.trace (now t) in
        let budget =
          max 1 (int_of_float (t.cfg.slice *. t.resource.R.speed *. avail /. t.slow_factor))
        in
        (match Solver.run s.solver ~budget with
        | Solver.Sat model ->
            t.callbacks.log (Events.Client_found_model t.cid);
            send t ~dst:t.master (Protocol.Found_model model);
            finish_problem ~outcome:"sat" t
        | Solver.Unsat ->
            t.callbacks.log (Events.Client_finished_unsat t.cid);
            flush_shares t s;
            let proof =
              if t.cfg.certify then Some (Sat.Drup.to_string (Solver.proof s.solver)) else None
            in
            send t ~dst:t.master (Protocol.Finished_unsat { pid = s.pid; proof });
            finish_problem ~outcome:"unsat" t
        | Solver.Mem_pressure ->
            (* at the hard limit the solver cannot even store new learned
               clauses; without relief the OS eventually kills us *)
            s.hard_mem_strikes <- s.hard_mem_strikes + 1;
            request_split t s `Memory;
            if s.hard_mem_strikes > oom_strikes then begin
              t.callbacks.log (Events.Client_killed t.cid);
              die t
            end
            else schedule_slice t t.cfg.slice
        | Solver.Budget_exhausted ->
            s.hard_mem_strikes <- 0;
            if Solver.db_bytes s.solver > int_of_float (t.cfg.mem_headroom *. float_of_int t.mem_budget)
            then request_split t s `Memory
            else if now t >= split_deadline t s then request_split t s `Long_running;
            if now t -. s.last_share_flush >= t.cfg.share_flush_interval then flush_shares t s;
            maybe_checkpoint t s;
            schedule_slice t t.cfg.slice)

let start_problem t ~src ~pid ~transfer_time sp =
  let solver_config =
    {
      t.cfg.solver_config with
      Solver.mem_limit_bytes = t.mem_budget;
      Solver.share_export_max = max t.cfg.share_max_len t.cfg.solver_config.Solver.share_export_max;
      Solver.emit_proof = t.cfg.solver_config.Solver.emit_proof || t.cfg.certify;
      Solver.seed = t.cfg.solver_config.Solver.seed + t.cid;
    }
  in
  let solver = Subproblem.to_solver ~config:solver_config ~obs:t.obs ~obs_tid:t.cid sp in
  if t.flight_on then
    Obs.Flight.note t.flight ~sub:"client"
      ~args:
        [
          ("client", Obs.Json.Int t.cid);
          ("pid", Obs.Json.String (Printf.sprintf "%d.%d" (fst pid) (snd pid)));
          ("from", Obs.Json.Int src);
          ("bytes", Obs.Json.Int (Subproblem.bytes sp));
        ]
      "problem_received";
  let span =
    if t.obs_on then begin
      Obs.Metrics.incr t.c_problems;
      Obs.Metrics.observe t.h_transfer transfer_time;
      Obs.Span.enter (Obs.spans t.obs) ~tid:t.cid ~cat:"client"
        ~args:
          [
            ("pid", Obs.Json.String (Printf.sprintf "%d.%d" (fst pid) (snd pid)));
            ("from", Obs.Json.Int src);
            ("bytes", Obs.Json.Int (Subproblem.bytes sp));
            ("depth", Obs.Json.Int (Subproblem.depth sp));
          ]
        "solve"
    end
    else Obs.Span.none
  in
  Solver.set_obs_parent solver span;
  t.token <- t.token + 1;
  t.state <-
    Solving
      {
        solver;
        pid;
        origin = sp;
        span;
        started_at = now t;
        transfer_time;
        split_epoch = now t;
        split_pending = false;
        last_share_flush = now t;
        last_checkpoint = now t;
        hard_mem_strikes = 0;
      };
  send t ~dst:t.master
    (Protocol.Problem_received
       { pid; from = src; bytes = Subproblem.bytes sp; path = sp.Subproblem.path });
  (* an initial checkpoint covers the window before the first periodic one *)
  (match t.cfg.checkpoint with
  | Config.No_checkpoint -> ()
  | Config.Light | Config.Heavy -> t.callbacks.save_checkpoint ~client:t.cid ~pid sp);
  schedule_slice t t.cfg.slice

let fresh_branch_pid t =
  let n = t.next_branch in
  t.next_branch <- n + 1;
  (t.cid, n)

let handle_split_partner t partner =
  match t.state with
  | Idle -> send t ~dst:t.master (Protocol.Split_failed { partner })
  | Solving s -> (
      s.split_pending <- false;
      let branch =
        (* certified runs keep the travelling clause set lineage-pure so the
           receiver's eventual proof checks under its journaled path alone *)
        if t.cfg.certify then Subproblem.split_pure ~origin:s.origin s.solver
        else Subproblem.split_from s.solver
      in
      match branch with
      | None -> send t ~dst:t.master (Protocol.Split_failed { partner })
      | Some sp ->
          let bytes = Subproblem.bytes sp in
          let pid = fresh_branch_pid t in
          s.split_epoch <- now t;
          s.hard_mem_strikes <- 0;
          if t.flight_on then
            Obs.Flight.note t.flight ~sub:"client"
              ~args:
                [
                  ("client", Obs.Json.Int t.cid);
                  ("pid", Obs.Json.String (Printf.sprintf "%d.%d" (fst pid) (snd pid)));
                  ("partner", Obs.Json.Int partner);
                ]
              "split_donated";
          if t.obs_on then begin
            Obs.Metrics.incr t.c_splits_donated;
            ignore
              (Obs.Span.instant (Obs.spans t.obs) ~parent:s.span ~tid:t.cid ~cat:"protocol"
                 ~args:
                   [
                     ("pid", Obs.Json.String (Printf.sprintf "%d.%d" (fst pid) (snd pid)));
                     ("partner", Obs.Json.Int partner);
                     ("bytes", Obs.Json.Int bytes);
                   ]
                 "split.donate")
          end;
          send t ~dst:partner (Protocol.Problem { pid; sp; sent_at = now t });
          (* [split_from] just committed the donor's first decision level
             into its own root, so both lineages are final here *)
          send t ~dst:t.master
            (Protocol.Split_ok
               {
                 pid;
                 donor_pid = s.pid;
                 dst = partner;
                 bytes;
                 path = sp.Subproblem.path;
                 donor_path = Solver.root_path s.solver;
               }))

let handle_migrate t target =
  match t.state with
  | Idle -> ()
  | Solving s ->
      let sp =
        (* a solver refuted while installing its clauses stopped half way:
           its clause set is partial, so ship the subproblem as received *)
        if not (Solver.is_ok s.solver) then s.origin
        else if t.cfg.certify then Subproblem.capture_pure ~origin:s.origin s.solver
        else Subproblem.capture s.solver
      in
      send t ~dst:target (Protocol.Problem { pid = s.pid; sp; sent_at = now t });
      finish_problem ~outcome:"migrated" t

let handle_payload t ~src msg =
  match msg with
  | Protocol.Problem { pid; sp; sent_at } ->
      if is_busy t then
        (* double-assignment race (e.g. the master re-homed work while a
           peer handoff was still in flight): never swallow a subproblem —
           hand it back to the master for re-homing *)
        send t ~dst:t.master (Protocol.Orphaned { pid; sp })
      else start_problem t ~src ~pid ~transfer_time:(Float.max 0.1 (now t -. sent_at)) sp
  | Protocol.Split_partner { partner } -> handle_split_partner t partner
  | Protocol.Share_relay { origin = _; clauses } -> (
      match t.state with
      | Solving s ->
          (* duplicate suppression: a clause relayed twice (duplicate
             delivery, overlapping relays across a failover) is counted,
             not re-enqueued.  The key is a sorted copy of the literals,
             so the same clause arriving in any literal order still
             matches. *)
          let fresh =
            List.filter
              (fun c ->
                let key = Array.copy c in
                Sat.Types.sort_lits key;
                if Hashtbl.mem t.seen_shares key then begin
                  Obs.Metrics.incr t.dup_suppressed;
                  t.callbacks.note_dup 1;
                  false
                end
                else begin
                  Hashtbl.add t.seen_shares key ();
                  true
                end)
              clauses
          in
          if fresh <> [] then Solver.queue_foreign_clauses s.solver fresh
      | Idle -> ())
  | Protocol.Migrate_to { target } -> handle_migrate t target
  | Protocol.Cancel { pid } -> (
      (* stand down from a hedged copy that lost the race.  A cancel for a
         pid we no longer hold (already finished, migrated, or a stale
         re-delivery) is a no-op — the master's tombstone absorbs whatever
         we already sent. *)
      match t.state with
      | Solving s when s.pid = pid -> finish_problem ~outcome:"cancelled" t
      | Solving _ | Idle -> ())
  | Protocol.Resync_request ->
      (* a replacement master is reconciling: report what we are doing.
         Everything still unacked toward the master was transmitted into
         the outage — retransmit it now, before the reconciliation grace
         expires, so the new master counts our results and orphans rather
         than re-deriving work that is already done.  Any split
         negotiation that was in flight died with the old master, so
         clear the pending flag and let the heuristics ask again. *)
      Reliable.nudge (reliable t) ~dst:t.master;
      (match t.state with
      | Solving s ->
          s.split_pending <- false;
          send t ~dst:t.master
            (Protocol.Resync
               { pid = Some s.pid; path = Solver.root_path s.solver; busy_since = s.started_at })
      | Idle -> send t ~dst:t.master (Protocol.Resync { pid = None; path = []; busy_since = 0. }))
  | Protocol.Stop ->
      finish_problem ~outcome:"stopped" t;
      (match t.rel with Some r -> Reliable.stop r | None -> ());
      t.alive <- false
  | Protocol.Register | Protocol.Problem_received _ | Protocol.Split_request _
  | Protocol.Split_ok _ | Protocol.Split_failed _ | Protocol.Shares _ | Protocol.Finished_unsat _
  | Protocol.Found_model _ | Protocol.Orphaned _ | Protocol.Resync _ | Protocol.Heartbeat _
  | Protocol.Ship _ ->
      (* master- or standby-bound messages; a client should never receive them *)
      ()
  | Protocol.Corrupt_payload ->
      (* garbled content outside any frame (only a forged payload: every
         sender frames): indistinguishable from a lost message *)
      ()
  | Protocol.Epoch_notice | Protocol.Ack _ | Protocol.Nack _ | Protocol.Reliable _
  | Protocol.Framed _ ->
      (* [Reliable.receive] took these, a notice's epoch included *) ()

(* Around [Reliable.receive]: a newer epoch from a master endpoint
   (id <= 0) is a promoted standby, so the client re-points [t.master]
   (failover redirects clients, it never restarts them) and moves the
   unacked tail of its stream to the old endpoint, in order, onto the
   stream to the new one.  Any word from the master ends an outage. *)
let handle t ~src msg =
  if t.alive && not t.hung then
    Reliable.receive ~rel:(reliable t)
      (Reliable.streams_of (reliable t))
      ~me:t.cid ~epoch:t.epoch ~reply:(send_raw t) ~log:t.callbacks.log
      ~succession:(fun ~src ~epoch ->
        t.epoch <- epoch;
        if src <= 0 && src <> t.master then begin
          let old = t.master in
          t.master <- src;
          List.iter (Reliable.send (reliable t) ~dst:src) (Reliable.stop_to (reliable t) ~dst:old)
        end;
        true)
      ~accept:(fun ~src _ ->
        if src = t.master then master_reachable t;
        true)
      ~deliver:(fun ~src msg -> if t.alive && not t.hung then handle_payload t ~src msg)
      ~src msg

(* Empty clients take a moment to launch before they can register
   (process start-up on the remote host). *)
let launch_delay = 1.0

let rec heartbeat_loop t =
  if t.alive && not t.hung then begin
    send_raw t ~dst:t.master
      (Protocol.Heartbeat { decisions = (solver_stats t).Sat.Stats.decisions });
    ignore (Grid.Sim.schedule t.sim ~delay:t.cfg.Config.heartbeat_period (fun () -> heartbeat_loop t))
  end

let create ?(obs = Obs.disabled) ~sim ~bus ~cfg ~resource ~trace ~master callbacks =
  let m = Obs.metrics obs in
  let labels = if Obs.Metrics.is_enabled m then [ ("client", string_of_int resource.R.id) ] else [] in
  let t =
    {
      cid = resource.R.id;
      master;
      epoch = 0;
      sim;
      bus;
      cfg;
      resource;
      trace;
      callbacks;
      mem_budget = R.usable_memory resource;
      state = Idle;
      alive = resource.R.mem_bytes >= cfg.Config.min_client_memory;
      hung = false;
      slow_factor = 1.0;
      token = 0;
      next_branch = 0;
      rel = None;
      master_down = false;
      outbox =
        (* the biggest buffered share batch is the least valuable one *)
        Flow.queue ~high:cfg.Config.outbox_cap ~value:(fun m -> -Protocol.size m) ();
      seen_shares = Hashtbl.create 8 (* never iterated: it grows as shares come *);
      dup_suppressed = Obs.Metrics.counter m ~labels "client.shares.dup_suppressed";
      stats_acc = Sat.Stats.create ();
      obs;
      obs_on = Obs.enabled obs;
      flight = Obs.flight obs;
      flight_on = Obs.Flight.is_enabled (Obs.flight obs);
      c_problems = Obs.Metrics.counter m ~labels "client.problems.received";
      c_shares_flushed = Obs.Metrics.counter m ~labels "client.shares.flushed";
      c_splits_donated = Obs.Metrics.counter m ~labels "client.splits.donated";
      c_outbox_shed = Obs.Metrics.counter m ~labels "client.outbox.shed";
      g_outbox = Obs.Metrics.gauge m ~labels "client.outbox.depth";
      h_transfer = Obs.Metrics.histogram m ~labels "client.transfer.seconds";
    }
  in
  let rel =
    Reliable.create ~obs ~obs_tid:t.cid ~seed:cfg.Config.seed ~jitter:Reliable.endpoint_jitter
      ~sim ~send_raw:(fun ~dst msg -> send_raw t ~dst msg)
      ~active:(fun () -> t.alive && not t.hung)
      ~retry_base:cfg.Config.retry_base ~max_attempts:cfg.Config.retry_max_attempts
      ~on_retry:(fun ~dst ~attempt ->
        callbacks.log (Events.Message_retried { src = t.cid; dst; attempt }))
      ~on_exhausted:(fun ~dst ~attempts ->
        callbacks.log (Events.Retries_exhausted { src = t.cid; dst; attempts }))
      ~on_give_up:(fun ~dst msg ->
        callbacks.log (Events.Message_given_up { src = t.cid; dst });
        if dst = t.master then
          (* retry exhaustion toward the master is how a client detects a
             master outage: keep the message on the stream *)
          master_gave_up t msg
        else
          (* a lost peer-to-peer handoff must not swallow the branch: hand
             the subproblem back to the master for re-homing *)
          match msg with
          | Protocol.Problem { pid; sp; _ } ->
              callbacks.log (Events.Orphan_returned { donor = t.cid });
              send t ~dst:t.master (Protocol.Orphaned { pid; sp })
          | _ -> ())
      ()
  in
  t.rel <- Some rel;
  if t.alive then begin
    Grid.Everyware.register bus ~id:t.cid ~site:resource.R.site ~handler:(fun ~src msg ->
        handle t ~src msg);
    ignore
      (Grid.Sim.schedule sim ~delay:launch_delay (fun () ->
           if t.alive && not t.hung then begin
             send t ~dst:master Protocol.Register;
             heartbeat_loop t
           end))
  end;
  t

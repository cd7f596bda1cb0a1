module R = Grid.Resource

type answer = Sat of Sat.Model.t | Unsat | Unknown of string

type result = {
  answer : answer;
  time : float;
  messages : int;
  bytes : int;
  ships : int;
  counts : int array;
  solver_stats : Sat.Stats.t;
  events : Events.t list;
}

(* Host state (lease states and holds, NWS forecasters, reliable endpoint)
   lives in [Pool]; the protocol code below names its host fields and
   state constructors unqualified, resolved by type.  Everything in [t]
   is per-run state: the split tree, journal, certification bookkeeping. *)
type t = {
  sim : Grid.Sim.t;
  bus : Protocol.msg Grid.Everyware.t;
  cfg : Config.t;
  cnf : Sat.Cnf.t;
  testbed : Testbed.t;
  pool : Pool.t;
  checkpoints : Checkpoint.t;
  mutable backlog : (int * float) list;  (* requester, busy-since at request time *)
  pending_recovery : (Protocol.pid * Subproblem.t * int * bool) Queue.t;
      (* pid, subproblem, failed client, came-from-checkpoint.  A queue,
         not a list: recoveries are appended at the tail and served from
         the head, and a mass failure can park hundreds of subproblems —
         list-append accumulation made that quadratic. *)
  mutable journal : Journal.t;
      (* write-ahead log on stable storage: survives a master crash.  Its
         state is the split tree (see [tree]).  Mutable because promotion
         swaps in the standby's shadow journal: the shipped prefix becomes
         the authoritative log of the run *)
  mutable replica : Replica.t option;  (* hot standby (cfg.standby) *)
  mutable epoch : int;
      (* master epoch: stamped into every outgoing integrity frame and
         bumped at promotion, so traffic from a superseded primary is
         recognisably stale everywhere *)
  mutable active_id : int;
      (* bus endpoint this master speaks from: [master_id], or
         [Replica.standby_id] once the standby has been promoted *)
  mutable promoted : bool;  (* the standby took over this run *)
  inherited : (Protocol.pid, unit) Hashtbl.t;
      (* live pids whose lineage a promoted master took over from the
         shadow journal and has not journaled since (by assigning or
         splitting them): the shadow can miss the claimant's last split *)
  mutable ship_buffer : Protocol.journal_entry list;
      (* journal entries appended since the last shipment, newest first:
         the oldest one's index is the journal's append count minus the
         buffer's length *)
  mutable standby_applied : int;  (* read from the stream's acks of [Ship]s *)
  mutable before_verdict : unit -> unit;  (* the fault plan's [Grid.Fault.verdict_due] *)
  mutable outage_started : float option;
      (* when the current master outage began (crash or usurpation) —
         closed into the failover histogram at reconciliation *)
  hedged : (Protocol.pid, unit) Hashtbl.t;
      (* pids raced as copies on several hosts at once (straggler
         hedging, and the root pid in portfolio mode).  A hedged pid must
         keep a stable identity until one copy wins: split grants are
         denied, migration skips it, and losing its entry here (master
         crash) only costs the loser-cancel optimisation — pid-keyed
         accounting stays exactly-once.  A refuted pid keeps its entry,
         so a copy that reports after the win is fenced too *)
  mutable down : bool;  (* the master process is crashed right now *)
  mutable resyncing : bool;  (* restarted; waiting out the resync grace *)
  mutable finished : bool;
  mutable answer : answer option;
  share_budget : Flow.budget option;
      (* per-recipient-link byte budget per virtual-time window
         ([cfg.share_budget] > 0); [None] keeps unconditional broadcast *)
  mutable last_share_shed : float;  (* resource-pressure recency signal *)
  tally : int array;
      (* the value of every [Sum] and [Peak] row of [rows], by row index;
         a row's series is a view of its slot *)
  mutable events : Events.t list;  (* newest first *)
  mutable batch_job : (Grid.Batch.t * Grid.Batch.job) option;
  mutable timeout : Grid.Sim.event_id option;
      (* the overall-timeout event, cancelled at termination: queued, its
         closure would keep this whole finished run reachable *)
  mutable next_batch_id : int;
  rng : Random.State.t Lazy.t;  (* made at the scheduler's first draw *)
  started_at : float;
  obs : Obs.t;
  obs_on : bool;
  split_spans : (int * int, Obs.Span.id) Hashtbl.t;  (* requester, partner -> open split span *)
  mutable outage_span : Obs.Span.id;  (* covers a master crash .. reconciliation *)
  g_repl_lag : Obs.Metrics.gauge;
  h_failover : Obs.Metrics.histogram;
  h_share_fanout : Obs.Metrics.histogram;
  flight : Obs.Flight.t;
  flight_on : bool;
  anomaly : Obs.Anomaly.t;
  anomaly_on : bool;
  d_hb_gap : Obs.Anomaly.detector;  (* fleet-wide heartbeat inter-arrival gaps *)
  d_share_volume : Obs.Anomaly.detector;  (* bytes per relayed share batch *)
  last_hb : (int, float) Hashtbl.t;  (* per-host previous heartbeat time *)
}

let master_id = 0

let initial_pid : Protocol.pid = (master_id, 0)

(* ---------- the run-counter ledger ---------- *)

(* Every run counter has one row here, one store and one bump site.  A
   row gives the counter's key in [counters] (the report's run section
   and the CLI summaries; "" for none), its registry series ("" for
   none; a view of the row's [tally] slot, so only [Sum] rows have
   one), and where its value lives:
   - [Sum]: a slot of [t.tally] that [bump] adds to — from [log]'s match
     for every counter an event implies, directly for the few that no
     event carries (share bytes, dups, outbox sheds, migrations, deaths);
   - [Peak]: a slot of [t.tally] keeping the largest value [bump] saw;
   - [Read]: kept by the layer that owns it (the bus, the journal, the
     checkpoint store, the share budget) and read when asked.
   Keyed rows are in report order. *)
type counter =
  | Max_clients | Splits | Share_batches | Shared_clauses | Messages | Bytes
  | Dropped_messages | Dropped_bytes | Retries | False_suspicions | Recoveries
  | Rederivations | Master_crashes | Hedges | Hedge_cancellations | Checkpoint_bytes
  | Corrupt_detected | Nacks | Certified_fragments | Quarantines | Checkpoints_discarded
  | Journal_records_dropped | Ships | Promotions | Stale_epoch_rejections
  | Replication_divergences | Shares_shed | Share_bytes | Share_link_peak | Dup_suppressed
  | Outbox_shed | Outbox_peak | Forced_compactions | Degraded_entries | Journal_bytes
  | Splits_granted | Splits_denied | Shares_relayed | Recoveries_requeued | Migrations
  | Client_deaths

type source = Sum | Peak | Read of (t -> int)

let rows =
  let bus f = Read (fun t -> f t.bus) and journal f = Read (fun t -> f t.journal) in
  [|
    (Max_clients, "max_clients", "", Peak);
    (Splits, "splits", "master.splits.completed", Sum);
    (Share_batches, "share_batches", "", Sum);
    (Shared_clauses, "shared_clauses", "", Sum);
    (Messages, "messages", "", bus Grid.Everyware.messages_sent);
    (Bytes, "bytes", "", bus Grid.Everyware.bytes_sent);
    (Dropped_messages, "dropped_messages", "", bus Grid.Everyware.messages_dropped);
    (Dropped_bytes, "dropped_bytes", "", bus Grid.Everyware.bytes_dropped);
    (Retries, "retries", "", Sum);
    (False_suspicions, "false_suspicions", "", Sum);
    (Recoveries, "recoveries", "master.recoveries.checkpoint", Sum);
    (Rederivations, "rederivations", "master.recoveries.rederived", Sum);
    (Master_crashes, "master_crashes", "", Sum);
    (Hedges, "hedges", "", Sum);
    (Hedge_cancellations, "hedge_cancellations", "", Sum);
    (Checkpoint_bytes, "checkpoint_bytes", "", Peak);
    (Corrupt_detected, "corrupt_detected", "integrity.corrupt.detected", Sum);
    (Nacks, "nacks", "integrity.nacks", Sum);
    (Certified_fragments, "certified_fragments", "certify.unsat_fragments", Sum);
    (Quarantines, "quarantines", "certify.quarantines", Sum);
    (Checkpoints_discarded, "checkpoints_discarded", "",
     Read (fun t -> Checkpoint.discarded t.checkpoints));
    (Journal_records_dropped, "journal_records_dropped", "", journal Journal.records_dropped);
    (Ships, "ships", "master.journal.ships", Sum);
    (Promotions, "promotions", "", Sum);
    (Stale_epoch_rejections, "stale_epoch_rejections", "epoch.stale.rejected", Sum);
    (Replication_divergences, "replication_divergences", "", Sum);
    (Shares_shed, "shares_shed", "master.shares.shed", Sum);
    (Share_bytes, "share_bytes", "master.shares.bytes", Sum);
    (Share_link_peak, "share_link_peak", "",
     Read (fun t -> match t.share_budget with Some b -> Flow.window_peak b | None -> 0));
    (Dup_suppressed, "dup_suppressed", "", Sum);
    (Outbox_shed, "outbox_shed", "", Sum);
    (Outbox_peak, "outbox_peak", "", Peak);
    (Forced_compactions, "forced_compactions", "", journal Journal.forced_compactions);
    (Degraded_entries, "degraded_entries", "", journal Journal.degraded_entries);
    (Journal_bytes, "journal_bytes", "", journal Journal.bytes_peak);
    (Splits_granted, "", "master.splits.granted", Sum);
    (Splits_denied, "", "master.splits.denied", Sum);
    (Shares_relayed, "", "master.shares.relayed", Sum);
    (Recoveries_requeued, "", "master.recoveries.requeued", Sum);
    (Migrations, "", "master.migrations", Sum);
    (Client_deaths, "", "master.client.deaths", Sum);
  |]

let ledger = Array.to_list (Array.map (fun (_, key, series, _) -> (key, series)) rows)

(* The keyed rows, in report order: [result.counts] holds their values. *)
let keyed = Array.of_list (List.filter (fun (_, key, _, _) -> key <> "") (Array.to_list rows))

let position =
  let positions = Hashtbl.create 64 in
  Array.iteri (fun p (_, key, _, _) -> Hashtbl.replace positions key p) keyed;
  Hashtbl.find_opt positions

let slot =
  let slots = Hashtbl.create 64 in
  Array.iteri (fun i (c, _, _, _) -> Hashtbl.replace slots c i) rows;
  Hashtbl.find slots

let bump t c n =
  let i = slot c in
  match rows.(i) with
  | _, _, _, Sum -> t.tally.(i) <- t.tally.(i) + n
  | _, _, _, Peak -> if n > t.tally.(i) then t.tally.(i) <- n
  | _, key, _, Read _ -> invalid_arg ("Master.bump: " ^ key ^ " is kept by another layer")

let value t c =
  let i = slot c in
  match rows.(i) with _, _, _, Read f -> f t | _ -> t.tally.(i)

(* Every endpoint's events funnel through here (clients log via their
   callbacks), so this is where every counter an event implies is
   bumped. *)
let log t kind =
  (match kind with
  | Events.Split_completed _ -> bump t Splits 1
  | Events.Split_granted _ -> bump t Splits_granted 1
  | Events.Split_denied _ -> bump t Splits_denied 1
  | Events.Shares_broadcast { count; _ } -> bump t Shares_relayed count
  | Events.Shares_shed { clauses; _ } -> bump t Shares_shed clauses
  | Events.Message_retried _ -> bump t Retries 1
  | Events.False_suspicion _ -> bump t False_suspicions 1
  | Events.Recovered_from_checkpoint _ -> bump t Recoveries 1
  | Events.Recovery_requeued _ -> bump t Recoveries_requeued 1
  | Events.Rederived_from_lineage _ -> bump t Rederivations 1
  | Events.Master_crashed -> bump t Master_crashes 1
  | Events.Hedge_launched _ -> bump t Hedges 1
  | Events.Hedge_cancelled _ -> bump t Hedge_cancellations 1
  | Events.Corrupt_message_detected { nacked; _ } ->
      bump t Corrupt_detected 1;
      if nacked then bump t Nacks 1
  | Events.Unsat_fragment_certified _ -> bump t Certified_fragments 1
  | Events.Client_quarantined _ -> bump t Quarantines 1
  | Events.Journal_shipped _ -> bump t Ships 1
  | Events.Standby_promoted _ -> bump t Promotions 1
  | Events.Stale_epoch_rejected _ -> bump t Stale_epoch_rejections 1
  | Events.Replication_diverged _ -> bump t Replication_divergences 1
  | _ -> ());
  (if t.flight_on then
     let name, args = Events.flight_view kind in
     Obs.Flight.note t.flight ~sub:"master" ~args name);
  (if t.anomaly_on then
     let trip rule detail =
       Obs.Anomaly.trip t.anomaly ~at:(Grid.Sim.now t.sim) ~rule ~detail ()
     in
     match kind with
     | Events.Client_quarantined { client } -> trip "quarantine" (Printf.sprintf "client %d" client)
     | Events.Host_probation { host; _ } -> trip "probation" (Printf.sprintf "host %d" host)
     | Events.Master_restarted -> trip "master-failover" ""
     | Events.Standby_promoted { epoch } -> trip "master-failover" (Printf.sprintf "epoch %d" epoch)
     | Events.Journal_degraded { occupancy; quota } ->
         trip "journal-degraded" (Printf.sprintf "%d bytes over a %d quota" occupancy quota)
     | _ -> ());
  t.events <- Events.make (Grid.Sim.now t.sim) kind :: t.events

let spanr t = Obs.spans t.obs

let minstant t ?parent ?args ~cat name =
  if t.obs_on then ignore (Obs.Span.instant (spanr t) ?parent ?args ~tid:Obs.Span.master_tid ~cat name)

let events_so_far t = List.rev t.events

let schedule t ~delay f = ignore (Grid.Sim.schedule t.sim ~delay f)

let busy_client_ids t = Pool.busy_ids t.pool

let finished t = t.finished

let reliable t = Pool.reliable t.pool

(* A crashed master cannot transmit: its volatile state (and endpoint) are
   gone until restart.  Guarding here keeps stray timers harmless. *)
let send_raw t ~dst msg =
  if not t.down then Protocol.send t.bus ~src:t.active_id ~dst ~epoch:t.epoch msg

let journal t = t.journal

(* The split tree — every unrefuted pid with its guiding-path lineage and
   last holder, the tombstones, whether the root was ever assigned — is
   the journal's applied state: the master changes it only by appending
   an entry. *)
let tree t = Journal.current t.journal

let epoch t = t.epoch

let promoted t = t.promoted

let send t ~dst msg =
  if Protocol.critical msg then Reliable.send (reliable t) ~dst msg else send_raw t ~dst msg

(* Flush the pending journal entries to the standby.  The shipped digest
   is the primary's log digest *after* this batch: every flush drains the
   whole buffer, so the standby's shadow journal — the shipped prefix —
   must reach exactly this digest once it applies the batch.  An empty
   flush still goes out: the shipment stream is the standby's liveness
   signal, so an idle primary must keep ticking it. *)
let ship_flush t =
  match t.replica with
  | Some _ when (not t.down) && (not t.promoted) && not t.finished ->
      let entries = List.rev t.ship_buffer in
      t.ship_buffer <- [];
      let seq = Journal.appended t.journal - List.length entries in
      let log_digest = Journal.log_digest t.journal in
      log t (Events.Journal_shipped { seq; entries = List.length entries });
      send t ~dst:Replica.standby_id (Protocol.Ship { seq; entries; log_digest })
  | _ -> ()

let rec ship_loop t =
  if (not t.finished) && t.replica <> None && not t.promoted then begin
    if (not t.down) && not (Journal.degraded t.journal) then ship_flush t;
    schedule t ~delay:t.cfg.Config.ship_interval (fun () -> ship_loop t)
  end

(* Watch the journal's quota machinery across an operation: emit the
   durability alert the moment a forced compaction fires or degraded mode
   is entered/left (the entry alarm also trips the anomaly log via the
   [log] rules, which dumps the flight recorder where the service wires
   it). *)
let watch_journal t f =
  let fc_before = Journal.forced_compactions t.journal in
  let deg_before = Journal.degraded t.journal in
  f ();
  let occupancy = Journal.bytes t.journal and quota = Journal.quota t.journal in
  if Journal.forced_compactions t.journal > fc_before then
    log t (Events.Forced_compaction { occupancy; quota });
  if Journal.degraded t.journal && not deg_before then
    log t (Events.Journal_degraded { occupancy; quota })
  else if deg_before && not (Journal.degraded t.journal) then
    log t (Events.Journal_recovered { occupancy; quota })

let set_journal_quota t ~quota = watch_journal t (fun () -> Journal.set_quota t.journal ~quota)

let set_repl_lag t =
  if t.obs_on then
    Obs.Metrics.set t.g_repl_lag
      (float_of_int (max 0 (Journal.appended t.journal - t.standby_applied)))

let jlog t entry =
  watch_journal t (fun () -> Journal.append t.journal entry);
  (if t.promoted then
     match entry with
     | Journal.Assigned { pid; _ } | Journal.Split { donor_pid = pid; _ } ->
         Hashtbl.remove t.inherited pid
     | _ -> ());
  if t.replica <> None && not t.promoted then begin
    t.ship_buffer <- entry :: t.ship_buffer;
    (* degraded storage pauses shipment (the standby must not ack a prefix
       the primary may be forced to drop); the buffer keeps accumulating
       and the lag gauge rises until recovery resumes the stream *)
    if Journal.degraded t.journal then set_repl_lag t
    else if t.cfg.Config.ship_sync then ship_flush t
  end

let update_max t = bump t Max_clients (Pool.busy_count t.pool)

let health t = Pool.health t.pool

(* The health model of a pool host: it scores hosts that can take work,
   so the standby's acks and retries feed none. *)
let host_health t id = if Pool.find_opt t.pool id = None then None else health t

(* Health-signal feeds.  All of them are no-ops without a wired model, so
   a plain master keeps its exact historical behaviour. *)
let note_incident t host kind =
  match host_health t host with
  | None -> ()
  | Some hm -> (
      match Health.incident hm ~host ~now:(Grid.Sim.now t.sim) kind with
      | Some until_t -> log t (Events.Host_probation { host; until_t })
      | None -> ())

(* A host handed back a good result: feed the fleet duration histogram
   (hedging compares against its p99) and let a half-open breaker close. *)
let note_host_success t src =
  match health t with
  | None -> ()
  | Some hm ->
      (match Pool.find_opt t.pool src with
      | Some ({ rstate = Busy; _ } as h) ->
          Health.note_duration hm ~elapsed:(Grid.Sim.now t.sim -. h.busy_since)
      | _ -> ());
      if Health.note_success hm ~host:src then log t (Events.Host_readmitted { host = src })

let aggregate_stats t = Pool.aggregate_solver_stats t.pool

let result t =
  match t.answer with
  | None -> invalid_arg "Master.result: run not finished"
  | Some answer ->
      let v = value t in
      {
        answer;
        time = Grid.Sim.now t.sim -. t.started_at;
        messages = v Messages;
        bytes = v Bytes;
        ships = v Ships;
        counts = Array.map (fun (c, _, _, _) -> v c) keyed;
        solver_stats = aggregate_stats t;
        events = events_so_far t;
      }

let counter r key =
  match position key with
  | Some p -> r.counts.(p)
  | None -> invalid_arg ("Master.counter: no run counter " ^ key)

let counters r = Array.to_list (Array.map2 (fun (_, key, _, _) n -> (key, n)) keyed r.counts)

(* Resource pressure (a service-brownout input): degraded stable storage,
   any client's outage outbox latched above its high watermark, or a
   share-budget shed within the last budget window. *)
let resource_pressure t =
  Journal.degraded t.journal
  || Grid.Sim.now t.sim -. t.last_share_shed <= t.cfg.Config.share_window
  || Pool.fold (fun _ h acc -> acc || Client.outbox_pressured h.client) t.pool false

let host t id = Pool.find t.pool id

let reserved_hosts t = Pool.reserved_ids t.pool

let holding t p = Pool.holders t.pool p <> []

let hedging t (h : Pool.host) = match h.pid with Some p -> Hashtbl.mem t.hedged p | None -> false

(* A host solving a branch right now: the only kind that may split,
   receive shares or be hedged. *)
let working (h : Pool.host) = Pool.is_busy h && Client.is_alive h.client

(* Hold predicate: the reserved copies of [pid]. *)
let delivering pid = function Pool.Delivery (p, _) -> p = pid | _ -> false

(* Closes the "split" spans of the (requester, partner) grants [closes]
   accepts, with [outcome]. *)
let exit_split_spans t ?(args = []) closes outcome =
  if t.obs_on then
    Hashtbl.filter_map_inplace
      (fun split sp ->
        if not (closes split) then Some sp
        else begin
          Obs.Span.exit (spanr t) sp ~args:(("outcome", Obs.Json.String outcome) :: args);
          None
        end)
      t.split_spans

(* Closes [requester]'s split with [partner] (without one, every split of
   [requester]) in the pool and its span. *)
let close_split t requester ?partner ~confirmed ?args outcome =
  Pool.close_split t.pool requester ?partner ~confirmed ();
  exit_split_spans t ?args
    (fun (r, p) -> r = requester && (partner = None || partner = Some p)) outcome

(* Releases the holds made for [id] — its pending splits and its
   migration target — when it loses the branch they were made for. *)
let release_holds_for t id outcome =
  close_split t id ~confirmed:false outcome;
  List.iter (Pool.release t.pool)
    (Pool.holders t.pool (function Migration s -> s = id | _ -> false))

let terminate t answer why =
  let verdict = match answer with Sat _ | Unsat -> true | Unknown _ -> false in
  if verdict then t.before_verdict ();
  if not (t.finished || (verdict && t.down)) then begin
    t.finished <- true;
    t.answer <- Some answer;
    Option.iter (Grid.Sim.cancel t.sim) t.timeout;
    jlog t
      (Journal.Verdict
         { answer = (match answer with Sat _ -> "SAT" | Unsat -> "UNSAT" | Unknown _ -> "UNKNOWN") });
    log t (Events.Terminated why);
    (* a finished run must not leave hosts parked in Reserved: release
       every hold before the Stop broadcast *)
    Pool.end_holds t.pool ~awaiting:None;
    exit_split_spans t (fun _ -> true) "terminated";
    t.backlog <- [];
    Queue.clear t.pending_recovery;
    Reliable.stop (reliable t);
    (match t.replica with Some r -> Replica.stop r | None -> ());
    Pool.iter
      (fun id h ->
        if (not (Pool.is_dead h)) && Client.is_alive h.client then send_raw t ~dst:id Protocol.Stop)
      t.pool;
    match t.batch_job with
    | Some (ctl, job)
      when Grid.Batch.state job = Grid.Batch.Queued || Grid.Batch.state job = Grid.Batch.Running ->
        Grid.Batch.cancel ctl job;
        log t Events.Batch_job_cancelled
    | Some _ | None -> ()
  end

(* ---------- scheduling ---------- *)

(* The one placement decision: the scheduler's pick among the hosts that
   may take work now, as the host's id and its candidate record. *)
let idle_host t =
  Pool.idle_candidates t.pool ~resyncing:t.resyncing ~now:(Grid.Sim.now t.sim)
  |> Scheduler.pick t.cfg.scheduler ~rng:t.rng
  |> Option.map (fun cand -> (cand.Scheduler.resource.R.id, cand))

let grant_split t requester =
  match idle_host t with
  | None -> false
  | Some (partner, _) ->
      Pool.reserve t.pool partner (Partner requester);
      log t (Events.Split_granted { client = requester; partner });
      if t.obs_on then begin
        (* the span covers the paper's five-message split sequence: it
           opens at the grant and closes on Split_ok / Split_failed *)
        let sp =
          Obs.Span.enter (spanr t) ~tid:Obs.Span.master_tid ~cat:"protocol"
            ~args:[ ("requester", Obs.Json.Int requester); ("partner", Obs.Json.Int partner) ]
            "split"
        in
        Hashtbl.add t.split_spans (requester, partner) sp
      end;
      send t ~dst:requester (Protocol.Split_partner { partner });
      true

(* A client that reported its subproblem finished is idle again: release
   everything the master held on its behalf. *)
let free_finisher t src =
  note_host_success t src;
  Option.iter Pool.unload (Pool.find_opt t.pool src);
  close_split t src ~confirmed:false "requester-finished";
  Checkpoint.drop t.checkpoints ~client:src;
  t.backlog <- List.filter (fun (c, _) -> c <> src) t.backlog

(* Every problem the master sends is journaled as an assignment first: the
   WAL records the pid, the addressee and the guiding-path lineage, so a
   replacement master can re-derive the branch if everything else is
   lost. *)
let send_problem t ~dst pid sp =
  (match health t with Some hm -> Health.note_assigned hm ~host:dst | None -> ());
  Pool.reserve t.pool dst (Delivery (pid, sp));
  jlog t (Journal.Assigned { pid; dst; path = sp.Subproblem.path });
  if t.obs_on then minstant t ~cat:"master"
    ~args:
      [
        ("pid", Obs.Json.String (Printf.sprintf "%d.%d" (fst pid) (snd pid)));
        ("dst", Obs.Json.Int dst);
        ("bytes", Obs.Json.Int (Subproblem.bytes sp));
      ]
    "assign";
  send t ~dst (Protocol.Problem { pid; sp; sent_at = Grid.Sim.now t.sim })

(* Place one recovered branch — pid, subproblem, the client it was lost
   by, and whether it came from that client's checkpoint — on an idle
   host, if one is free. *)
let place_recovered t (pid, sp, failed, from_checkpoint) =
  match idle_host t with
  | None -> false
  | Some (dst, _) ->
      if from_checkpoint then
        log t (Events.Recovered_from_checkpoint { client = failed; onto = dst });
      send_problem t ~dst pid sp;
      true

(* Re-home a recovered branch now if a host is free.  Otherwise it parks
   in [pending_recovery] — never lost, so the run cannot answer UNSAT
   while it waits. *)
let assign_recovered t ((_, _, failed, _) as recovered) =
  if not (place_recovered t recovered) then begin
    log t (Events.Recovery_requeued { client = failed });
    Queue.add recovered t.pending_recovery
  end

let rec serve_recovery t =
  let next = Queue.peek_opt t.pending_recovery in
  if (not t.finished) && Option.fold ~none:false ~some:(place_recovered t) next then begin
    ignore (Queue.pop t.pending_recovery);
    serve_recovery t
  end

(* The branch [pid] rebuilt from the original CNF and its journaled
   guiding-path lineage (Figure 2: the lineage fully determines the
   branch); [None] if the journal has no live record of it. *)
let of_lineage t pid = Option.map (Subproblem.of_lineage t.cnf) (Hashtbl.find_opt (tree t).live pid)

(* The last line of defence: a branch whose copy and checkpoint are both
   gone is re-derived from its lineage, then requeued.  No component loss
   ends the run [Unknown]; a pid another copy already refuted has nothing
   left to recover. *)
let rederive_lost t ~holder pid =
  match of_lineage t pid with
  | Some sp ->
      let depth = List.length sp.Subproblem.path in
      log t (Events.Rederived_from_lineage { holder; depth });
      if t.obs_on then minstant t ~cat:"master"
        ~args:
          [
            ("pid", Obs.Json.String (Printf.sprintf "%d.%d" (fst pid) (snd pid)));
            ("depth", Obs.Json.Int depth);
          ]
        "rederive";
      assign_recovered t (pid, sp, Option.value holder ~default:master_id, false)
  | None when Hashtbl.mem (tree t).refuted pid -> ()
  | None ->
      (* unreachable by construction: every assignment, split and adoption
         journals its lineage before any message leaves the master *)
      terminate t (Unknown "lost subproblem with no recorded lineage") "unrecoverable loss"

(* Re-home [pid], lost by [holder] (the master itself when [None]), in
   the one recovery order (DESIGN §5c): the [copy] the master still holds
   of an undelivered problem, else the checkpoint [holder] saved of this
   very pid, else the branch's lineage.  A certified run never restores a
   checkpoint: the snapshot carries facts and clauses the next holder
   could not re-derive in its own proof fragment. *)
let recover t ~holder ?copy pid =
  let failed = Option.value holder ~default:master_id in
  match copy with
  | Some sp -> assign_recovered t (pid, sp, failed, false)
  | None when t.cfg.Config.certify || holder = None -> rederive_lost t ~holder pid
  | None -> (
      match Checkpoint.restore t.checkpoints ~client:failed ~pid with
      | Some sp ->
          Checkpoint.drop t.checkpoints ~client:failed;
          assign_recovered t (pid, sp, failed, true)
      | None -> rederive_lost t ~holder pid)

(* Serve the backlog with a freshly idle resource: the paper splits the
   client that has been running the same subproblem the longest. *)
let rec serve_backlog t =
  if (not t.finished) && t.backlog <> [] then begin
    let live =
      List.filter
        (fun (c, _) -> match Pool.find_opt t.pool c with Some h -> working h | None -> false)
        t.backlog
    in
    t.backlog <- live;
    (* hedged requesters stay backlogged but are not eligible until their
       hedge resolves (see [on_split_request]) *)
    let eligible =
      List.filter
        (fun (c, _) -> match Pool.find_opt t.pool c with Some h -> not (hedging t h) | None -> true)
        live
    in
    match Scheduler.pick_backlog eligible with
    | None -> ()
    | Some requester ->
        if grant_split t requester then begin
          t.backlog <- List.filter (fun (c, _) -> c <> requester) t.backlog;
          serve_backlog t
        end
  end

(* Migration (Section 3.4): with an empty backlog, move the subproblem of the
   weakest busy host onto a much stronger idle host. *)
let consider_migration t =
  if
    (not t.finished) && t.cfg.migration_enabled && t.backlog = []
    && not (holding t (function Migration _ -> true | _ -> false))
  then begin
    match (Pool.weakest_busy t.pool, idle_host t) with
    | Some src, Some (dst, cand) ->
        if
          dst <> src.resource.R.id
          && (not (hedging t src))
          && Scheduler.should_migrate ~busy_rank:(Pool.rank t.pool src)
               ~idle_rank:(Scheduler.rank cand)
        then begin
          Pool.reserve t.pool dst (Migration src.resource.R.id);
          bump t Migrations 1;
          if t.obs_on then minstant t ~cat:"master"
            ~args:[ ("src", Obs.Json.Int src.resource.R.id); ("dst", Obs.Json.Int dst) ]
            "migrate";
          send t ~dst:src.resource.R.id (Protocol.Migrate_to { target = dst })
        end
    | _ -> ()
  end

let dispatch t =
  if not (t.down || t.resyncing) then begin
    serve_recovery t;
    serve_backlog t;
    consider_migration t
  end

(* Settle the verdict if the pool drained, else keep scheduling.  UNSAT
   waits out the recovery queue, pending splits — a granted split whose
   Split_ok has not arrived yet may be about to register a new live
   branch — and the resync window: a split granted just before a master
   crash may exist only on the partner, whose Resync is the sole record
   of it. *)
let conclude_or_dispatch t =
  if
    Hashtbl.length (tree t).live = 0
    && Queue.is_empty t.pending_recovery
    && (not (holding t (function Partner _ -> true | _ -> false)))
    && (not t.resyncing) && (tree t).problem_assigned
  then terminate t Unsat "all subproblems refuted: unsatisfiable"
  else dispatch t

(* Refute [pid]: drop it everywhere, remember the tombstone, and settle the
   verdict.  Removal is idempotent by pid: a duplicated or re-homed copy of
   the same subproblem cannot drive the live count negative. *)
let refute_pid t pid =
  if not (Hashtbl.mem (tree t).refuted pid) then jlog t (Journal.Refuted { pid });
  (* a hedged pid just resolved: the first copy to report won.  Fence the
     losing copies — cancel live holders (the Cancel rides the reliable
     channel) and drop the still-in-flight backup — so the pool returns
     whole and no loser's late answer is ever double-counted. *)
  if Hashtbl.mem t.hedged pid then begin
    Pool.iter
      (fun id h ->
        if Pool.is_busy h && h.pid = Some pid then begin
          log t (Events.Hedge_cancelled { pid; loser = id });
          send t ~dst:id (Protocol.Cancel { pid });
          Pool.unload h;
          Checkpoint.drop t.checkpoints ~client:id;
          t.backlog <- List.filter (fun (c, _) -> c <> id) t.backlog
        end)
      t.pool;
    List.iter
      (fun dst ->
        log t (Events.Hedge_cancelled { pid; loser = dst });
        Pool.release t.pool dst;
        send t ~dst (Protocol.Cancel { pid }))
      (Pool.holders t.pool (delivering pid))
  end;
  conclude_or_dispatch t

(* A registration of a pid another copy already refuted: a hedge loser's
   Problem_received behind the winner's Finished_unsat, or a Split_ok
   behind its partner's Finished_unsat (streams from different senders
   keep no order between them).  Free the reporting host instead of
   believing it busy forever, and settle the verdict. *)
let absorb_if_refuted t ~holder pid =
  if Hashtbl.mem (tree t).refuted pid then begin
    (match Pool.find_opt t.pool holder with
    | Some h when h.pid = Some pid ->
        if Pool.is_busy h then h.rstate <- Idle;
        h.pid <- None;
        (* a hedge copy outraced its own cancellation: tell it to stop
           instead of letting it grind the dead branch to the end *)
        if Hashtbl.mem t.hedged pid then send t ~dst:holder (Protocol.Cancel { pid })
    | _ -> ());
    refute_pid t pid
  end

(* ---------- client death (also the teeth behind quarantine) ---------- *)

(* The hosts holding a copy of [pid]: busy on it, or receiving it. *)
let copy_holders t pid =
  Pool.holders t.pool (delivering pid)
  @ Pool.fold (fun id h acc -> if Pool.is_busy h && h.pid = Some pid then id :: acc else acc) t.pool []
  |> List.sort compare

(* The copies of [pid] the master knows of, queued recoveries included. *)
let copies t pid =
  List.length (copy_holders t pid)
  + Queue.fold (fun n (p, _, _, _) -> if p = pid then n + 1 else n) 0 t.pending_recovery

let pid_homed t pid = copies t pid > 0

(* Host [id], which held a copy of hedged [pid], died while another copy
   still holds the branch: nothing needs re-deriving.  The pid stays
   hedged while two copies remain. *)
let drop_copy t pid id =
  if copies t pid <= 1 then Hashtbl.remove t.hedged pid;
  log t (Events.Hedge_cancelled { pid; loser = id })

(* The live branches the journal has one of [holders] hold, by pid. *)
let held_by t holders =
  let st = tree t in
  Hashtbl.fold
    (fun p h acc -> if List.mem h holders && Hashtbl.mem st.live p then (p, h) :: acc else acc)
    st.holder []
  |> List.sort compare

(* Recover each of [held] that no host has: the journal is the one
   record of who holds a branch, so a holder written off before it
   reported busy here (a split partner awaiting its hand-off, or one
   whose Problem_received went to a superseded master) loses nothing. *)
let recover_unhomed t held =
  List.iter
    (fun (pid, h) -> if not (pid_homed t pid) then recover t ~holder:(Some h) pid)
    held

(* Write [id] off and recover whatever it was responsible for.  Shared by
   the failure detector (lease expiry), direct test injection, and the
   certification quarantine path. *)
let declare_dead t id =
  match Pool.find_opt t.pool id with
  | Some h when not (Pool.is_dead h) ->
      let prev = h.rstate in
      let prev_pid = h.pid in
      (* read before [Died] clears the dead host's holdings *)
      let held = held_by t [ id ] in
      h.rstate <- Dead;
      h.pid <- None;
      (* a dead partner's split is the donor's to retry or orphan *)
      h.partner_of <- [];
      jlog t (Journal.Died { client = id });
      note_incident t id `Crash;
      bump t Client_deaths 1;
      if t.obs_on then minstant t ~cat:"master" ~args:[ ("client", Obs.Json.Int id) ] "client.dead";
      t.backlog <- List.filter (fun (c, _) -> c <> id) t.backlog;
      release_holds_for t id "requester-died";
      (* partners awaiting the dead donor's hand-off will never get it:
         free them and recover the branches the journal has them hold *)
      let stranded = Pool.holders t.pool (function Awaiting_problem s -> s = id | _ -> false) in
      List.iter (Pool.release t.pool) stranded;
      if not t.finished then begin
        recover_unhomed t (held_by t stranded);
        (* a hedged pid another copy still holds needs nothing re-homed *)
        let rehome ?copy pid =
          if Hashtbl.mem t.hedged pid && pid_homed t pid then drop_copy t pid id
          else recover t ~holder:(Some id) ?copy pid
        in
        (match (prev, prev_pid) with
        | Reserved (Delivery (pid, sp)), _ ->
            (* we still hold the very subproblem we sent it *)
            rehome ~copy:sp pid
        | Busy, Some pid -> rehome pid
        | (Launching | Idle | Busy | Reserved (Partner _ | Awaiting_problem _ | Migration _) | Dead), _
          ->
            ());
        recover_unhomed t held
      end
  | _ -> ()

let kill_client t id =
  match Pool.find_opt t.pool id with
  | Some h when not (Pool.is_dead h) ->
      Client.kill h.client;
      log t (Events.Client_killed id);
      declare_dead t id
  | _ -> ()

(* ---------- UNSAT certification ---------- *)

(* Certify a client's UNSAT claim: its DRUP fragment must RUP-check
   against the original formula under the branch's recorded guiding path
   (never under anything the client itself reported at finish time).  The
   fragment is untrusted input: parse failures and out-of-range literals
   are certification failures, not exceptions. *)
let check_fragment t ~path proof =
  match proof with
  | None -> Error "no proof fragment attached"
  | Some text -> (
      match Sat.Drup.of_string text with
      | exception Failure msg -> Error msg
      | fragment -> (
          match Sat.Drup.check_under t.cnf ~assumptions:path fragment with
          | Ok () -> Ok (List.length fragment)
          | Error reason -> Error reason))

(* A client whose answer failed verification is written off entirely: its
   solver state, checkpoint and future messages are all suspect.  Its
   branch is re-derived from the original CNF and the journaled lineage
   (both trusted) and re-solved elsewhere. *)
let quarantine t ~client ~pid ~reason =
  log t (Events.Certification_failed { pid; client; reason });
  log t (Events.Client_quarantined { client });
  if t.obs_on then minstant t ~cat:"master"
    ~args:[ ("client", Obs.Json.Int client); ("reason", Obs.Json.String reason) ]
    "quarantine";
  note_incident t client `Quarantine;
  (* its death re-homes every branch the journal has it hold, the
     disputed one among them; a copy the journal has another host hold
     is that host's *)
  kill_client t client

let settle_certification t ~src pid ~path proof =
  match check_fragment t ~path proof with
  | Ok steps ->
      log t (Events.Unsat_fragment_certified { pid; client = src; steps });
      if t.obs_on then minstant t ~cat:"master"
        ~args:
          [
            ("pid", Obs.Json.String (Printf.sprintf "%d.%d" (fst pid) (snd pid)));
            ("client", Obs.Json.Int src);
            ("steps", Obs.Json.Int steps);
          ]
        "certify.ok";
      free_finisher t src;
      refute_pid t pid
  | Error reason when Hashtbl.mem t.inherited pid ->
      (* the lineage may predate a split the primary journaled but never
         shipped, so the failure is no evidence against the claimant:
         reject the claim and re-derive the branch unless another copy
         holds it *)
      log t (Events.Certification_failed { pid; client = src; reason });
      free_finisher t src;
      recover_unhomed t [ (pid, src) ];
      conclude_or_dispatch t
  | Error reason -> quarantine t ~client:src ~pid ~reason

(* ---------- message handling ---------- *)

let assign_initial_problem t dst =
  let sp = Subproblem.initial t.cnf in
  send_problem t ~dst initial_pid sp

(* The lineage to journal for a client's report of holding [pid].  In
   certify mode a lineage the master already recorded is authoritative: a
   client report never overwrites the path its fragment will be checked
   under. *)
let adopted_path t pid path =
  match Hashtbl.find_opt (tree t).live pid with
  | Some recorded when t.cfg.Config.certify -> recorded
  | _ -> path

(* Portfolio mode: [dst] races one more copy of the whole problem.  No
   split is ever granted, because the root pid is hedged. *)
let copy_root t dst =
  Hashtbl.replace t.hedged initial_pid ();
  let primary = match copy_holders t initial_pid with h :: _ -> h | [] -> master_id in
  log t (Events.Hedge_launched { pid = initial_pid; primary; backup = dst });
  send_problem t ~dst initial_pid (Subproblem.initial t.cnf)

let on_register t src =
  let h = host t src in
  h.rstate <- Idle;
  jlog t (Journal.Registered { client = src });
  log t (Events.Client_started src);
  if not (tree t).problem_assigned then assign_initial_problem t src
  else if
    t.cfg.Config.portfolio && (not t.resyncing)
    && Hashtbl.mem (tree t).live initial_pid
    && Queue.is_empty t.pending_recovery
  then copy_root t src
  else dispatch t

let on_problem_received t src ~pid ~from ~bytes ~path =
  let h = host t src in
  (match h.rstate with
  | Reserved (Migration s) ->
      (* a migration target becoming busy frees its source *)
      Pool.unload (host t s);
      log t (Events.Migration { src = s; dst = src; bytes })
  | Reserved (Partner r) ->
      (* the problem overtook its requester's Split_ok: the split stays
         pending until that arrives *)
      h.partner_of <- r :: h.partner_of
  | _ -> ());
  (* the receiver reports its lineage, closing the gap where a split's
     [Split_ok] has not arrived yet: the branch is re-derivable from the
     journal the moment anyone confirms holding it. *)
  jlog t (Journal.Adopted { pid; client = src; path = adopted_path t pid path });
  h.rstate <- Busy;
  h.pid <- Some pid;
  h.busy_since <- Grid.Sim.now t.sim;
  log t (Events.Problem_assigned { src = from; dst = src; bytes; depth = List.length path });
  update_max t;
  absorb_if_refuted t ~holder:src pid;
  dispatch t

let on_split_request t src _reason =
  (* the requesting client already logged the Split_requested event.  A
     requester that is no longer working (it finished, or lost its
     branch as a hedge loser, before its request arrived) is dropped, as
     [serve_backlog] drops it.  A hedged requester is never granted: a
     split advances the donor's lineage, and the other copy of the
     branch would then overlap both children — the request parks in the
     backlog until the hedge resolves. *)
  let h = host t src in
  if working h && (hedging t h || not (grant_split t src)) then begin
    t.backlog <- t.backlog @ [ (src, h.busy_since) ];
    log t (Events.Split_denied { client = src })
  end

(* Certify mode: a split is only accepted if the two sides structurally
   cover the donor's old branch.  The child's path must be the donor's
   old path plus the negation of the committed first decision — i.e. its
   last element negated appears in the donor's reported path, and every
   other element does too (the donor's path may additionally carry the
   decision's level-1 propagations, which unit propagation re-derives
   during checking, so they are ignored rather than trusted). *)
let split_covers ~donor_path ~path =
  match List.rev path with
  | [] -> false
  | last :: rev_pre ->
      List.mem (Sat.Types.negate last) donor_path
      && List.for_all (fun l -> List.mem l donor_path) rev_pre

let on_split_ok t src ~pid ~donor_pid ~dst ~bytes ~path ~donor_path =
  close_split t src ~partner:dst ~confirmed:true
    ?args:
      (if t.obs_on then
         Some
           [
             ("pid", Obs.Json.String (Printf.sprintf "%d.%d" (fst pid) (snd pid)));
             ("dst", Obs.Json.Int dst);
             ("bytes", Obs.Json.Int bytes);
           ]
       else None)
    "ok";
  let st = tree t in
  let completed () = log t (Events.Split_completed { src; dst; bytes }) in
  if Hashtbl.mem st.live donor_pid && Hashtbl.find_opt st.holder donor_pid = Some src then
    if t.cfg.Config.certify && not (split_covers ~donor_path ~path) then begin
      (* the two sides do not cover the branch being split: accepting
         them could certify UNSAT while search space silently vanishes.
         Write the child out of the cover (its holder is freed when it
         reports) and quarantine the donor — its pre-split branch, whose
         lineage was deliberately not advanced, is re-solved whole. *)
      refute_pid t pid;
      quarantine t ~client:src ~pid:donor_pid ~reason:"split paths are not complementary"
    end
    else begin
      (* the donor committed its first decision level into its own root,
         so its lineage grew too: journal both sides of the split.  In
         certify mode the donor's new lineage is its old path plus the
         committed decision, derived from the child's path rather than
         taken from the donor's report. *)
      let donor_path =
        match List.rev path with
        | last :: rev_pre when t.cfg.Config.certify ->
            List.rev rev_pre @ [ Sat.Types.negate last ]
        | _ -> donor_path
      in
      jlog t (Journal.Split { donor = src; donor_pid; donor_path; pid; dst; path });
      completed ();
      absorb_if_refuted t ~holder:dst pid
    end
  else if t.cfg.Config.certify && Hashtbl.mem st.refuted donor_pid then begin
    (* another copy of the donor's branch (a re-homed duplicate) was
       certified first, under the pre-split path, which covers both
       children: the new branch is redundant *)
    completed ();
    refute_pid t pid
  end
  else begin
    (* the branch split is not the donor's in this master's tree: it was
       re-homed, or a promoted standby's shadow never journaled it.  Only
       the new branch is recorded (unless its holder reported it first);
       the donor's stays as journaled. *)
    if not (Hashtbl.mem st.live pid) then jlog t (Journal.Assigned { pid; dst; path });
    completed ();
    absorb_if_refuted t ~holder:dst pid
  end

(* A split closed with no branch handed over.  Its Partner hold may have
   been the last thing deferring UNSAT, so the verdict is checked again. *)
let split_fell_through t requester ~partner outcome =
  close_split t requester ~partner ~confirmed:false outcome;
  conclude_or_dispatch t

let on_split_failed t src partner = split_fell_through t src ~partner "failed"

let on_shares t src clauses =
  (if t.anomaly_on then
     (* rough wire size: one word per literal plus a header per clause *)
     let bytes = List.fold_left (fun a c -> a + 8 + (8 * Array.length c)) 0 clauses in
     Obs.Anomaly.observe t.d_share_volume ~at:(Grid.Sim.now t.sim) (float_of_int bytes));
  let clause_bytes c = 16 + (8 * Array.length c) in
  let tnow = Grid.Sim.now t.sim in
  let recipients = ref 0 and shed_clauses = ref 0 and shed_bytes = ref 0 and sent_bytes = ref 0 in
  (* the clauses a recipient gets: with no budget, the paper's
     unconditional broadcast of the batch as sent.  With one, HordeSat-
     style value ordering (the solver exports no LBD, so the shortest
     clause is the most valuable): each link admits the prefix that fits
     its byte budget for the current window and sheds the tail. *)
  let admitted =
    match t.share_budget with
    | None ->
        let batch_bytes = List.fold_left (fun a c -> a + clause_bytes c) 0 clauses in
        fun _ ->
          sent_bytes := !sent_bytes + batch_bytes;
          clauses
    | Some budget ->
        let ordered =
          List.stable_sort (fun a b -> compare (Array.length a) (Array.length b)) clauses
        in
        fun id ->
          List.filter
            (fun c ->
              let bytes = clause_bytes c in
              if Flow.admit budget ~key:id ~now:tnow ~bytes then begin
                sent_bytes := !sent_bytes + bytes;
                true
              end
              else begin
                incr shed_clauses;
                shed_bytes := !shed_bytes + bytes;
                false
              end)
            ordered
  in
  Pool.iter
    (fun id h ->
      if id <> src && working h then
        match admitted id with
        | [] -> ()
        | clauses ->
            incr recipients;
            send t ~dst:id (Protocol.Share_relay { origin = src; clauses }))
    t.pool;
  bump t Share_bytes !sent_bytes;
  if !shed_clauses > 0 then begin
    t.last_share_shed <- tnow;
    log t (Events.Shares_shed { origin = src; clauses = !shed_clauses; bytes = !shed_bytes })
  end;
  bump t Share_batches 1;
  bump t Shared_clauses (List.length clauses);
  if t.obs_on then begin
    Obs.Metrics.observe t.h_share_fanout (float_of_int !recipients);
    minstant t ~cat:"protocol"
      ~args:
        [
          ("origin", Obs.Json.Int src);
          ("clauses", Obs.Json.Int (List.length clauses));
          ("recipients", Obs.Json.Int !recipients);
        ]
      "share.broadcast"
  end;
  log t (Events.Shares_broadcast { origin = src; count = List.length clauses; recipients = !recipients })

let on_finished_unsat t src pid proof =
  log t (Events.Client_finished_unsat src);
  if not t.cfg.Config.certify then begin
    free_finisher t src;
    (* tombstone even a pid we have no record of (a promoted standby's
       shadow may lack it): the donor's Split_ok that registers it comes
       on another stream and may arrive later, and the journaled
       tombstone makes that registration harmless across a master crash
       too *)
    refute_pid t pid
  end
  else
    match Hashtbl.find_opt (tree t).live pid with
    | Some path -> settle_certification t ~src pid ~path proof
    | None ->
        (* the reporter's own registration of [pid] reached this master
           before the claim (its stream is in order), so the pid is
           refuted — a copy of a settled claim — or this master never
           journaled it (a promoted standby's shadow, a scrubbed record).
           Neither leaves anything to certify. *)
        free_finisher t src;
        conclude_or_dispatch t

let on_found_model t src model =
  log t (Events.Client_found_model src);
  let ok = Sat.Model.satisfies t.cnf model in
  log t (Events.Model_verified ok);
  if ok then terminate t (Sat model) "model found and verified"
  else if t.cfg.Config.certify then
    (* a falsified SAT claim: write the claimant off and keep solving —
       its branch (if it held one) is re-derived and re-solved elsewhere *)
    match (host t src).pid with
    | Some pid -> quarantine t ~client:src ~pid ~reason:"model does not satisfy the formula"
    | None ->
        log t (Events.Client_quarantined { client = src });
        kill_client t src
  else begin
    (* never expected outside certify mode: treat as a fatal protocol error *)
    terminate t (Unknown "model verification failed") "model verification failed"
  end

(* A donor exhausted the retries of a peer-to-peer Problem handoff and
   returned the branch.  Undo whatever reservation backed the handoff and
   re-home the subproblem; a late copy reaching the original addressee
   only duplicates work, which the pid accounting absorbs. *)
let on_orphaned t src pid sp =
  let h = host t src in
  release_holds_for t src "requester-orphaned";
  (* a migration source already dropped its solver state; it is idle now *)
  if h.pid = Some pid then begin
    if Pool.is_busy h then h.rstate <- Idle;
    h.pid <- None
  end;
  (* already refuted elsewhere, or already re-homed: the partner's death
     re-derived the branch the journal has it hold *)
  if Hashtbl.mem (tree t).refuted pid || pid_homed t pid then dispatch t
  else recover t ~holder:(Some src) ~copy:sp pid

(* Reconciliation after a master restart: each surviving client reports
   what it is doing.  Busy reports are adopted (journaled, so the next
   crash can replay them too); idle reports release any stale Busy/
   Reserved marking the replayed journal implied. *)
let on_resync t src ~pid ~path ~busy_since =
  let h = host t src in
  log t (Events.Client_resynced { client = src; busy = pid <> None });
  (match pid with
  | Some p ->
      h.rstate <- Busy;
      h.pid <- Some p;
      h.busy_since <- busy_since;
      (* a branch another copy of which was already refuted is harmless
         duplicate work that the client's own finish frees, but the dead
         pid must not be re-adopted.  Adoption also proves the search
         started, even when this master's journal (a standby's shadow is
         only the shipped prefix) never saw the Assigned record. *)
      if not (Hashtbl.mem (tree t).refuted p) then
        jlog t (Journal.Adopted { pid = p; client = src; path = adopted_path t p path });
      update_max t
  | None ->
      (match h.rstate with
      (* Launching: this master's journal never saw the client register
         (a standby's shadow can predate it), but answering a resync
         proves it did — it is alive and idle, not still booting *)
      | Busy | Reserved _ | Launching -> h.rstate <- Idle
      | Idle | Dead -> ());
      h.pid <- None);
  dispatch t

let handle_payload t ~src msg =
  match msg with
  | Protocol.Register -> on_register t src
  | Protocol.Problem_received { pid; from; bytes; path } ->
      on_problem_received t src ~pid ~from ~bytes ~path
  | Protocol.Split_request reason -> on_split_request t src reason
  | Protocol.Split_ok { pid; donor_pid; dst; bytes; path; donor_path } ->
      on_split_ok t src ~pid ~donor_pid ~dst ~bytes ~path ~donor_path
  | Protocol.Split_failed { partner } -> on_split_failed t src partner
  | Protocol.Shares { clauses } -> on_shares t src clauses
  | Protocol.Finished_unsat { pid; proof } -> on_finished_unsat t src pid proof
  | Protocol.Found_model m -> on_found_model t src m
  | Protocol.Orphaned { pid; sp } -> on_orphaned t src pid sp
  | Protocol.Resync { pid; path; busy_since } -> on_resync t src ~pid ~path ~busy_since
  | Protocol.Heartbeat { decisions } -> (
      (* the beat already refreshed the failure-detector lease in
         [handle]; its payload feeds the health model's gap-jitter and
         progress-rate signals *)
      (if t.anomaly_on then begin
         let now = Grid.Sim.now t.sim in
         (match Hashtbl.find_opt t.last_hb src with
         | Some prev -> Obs.Anomaly.observe t.d_hb_gap ~at:now (now -. prev)
         | None -> ());
         Hashtbl.replace t.last_hb src now
       end);
      match health t with
      | Some hm -> Health.note_heartbeat hm ~host:src ~now:(Grid.Sim.now t.sim) ~decisions
      | None -> ())
  | Protocol.Problem _ | Protocol.Split_partner _ | Protocol.Share_relay _
  | Protocol.Migrate_to _ | Protocol.Cancel _ | Protocol.Resync_request | Protocol.Stop ->
      (* client-bound messages; the master should never receive them *)
      ()
  | Protocol.Corrupt_payload ->
      (* garbled content outside any frame (only a forged payload: every
         sender frames): indistinguishable from a lost message *)
      ()
  | Protocol.Ship _ | Protocol.Epoch_notice | Protocol.Ack _ | Protocol.Nack _
  | Protocol.Reliable _ | Protocol.Framed _ ->
      (* a primary only ships; [Reliable.receive] took the rest *) ()

(* A message from a host we already declared dead, delivered through its
   stream like any other.  A model is always worth verifying; a heartbeat
   is proof of life, i.e. a false suspicion.  Everything else is fenced:
   the host's work was re-homed, so letting it talk again would
   double-count. *)
let handle_zombie t ~src h msg =
  if not h.Pool.fenced then begin
    h.fenced <- true;
    (match msg with
    | Protocol.Heartbeat _ -> log t (Events.False_suspicion { client = src })
    | _ -> ());
    send_raw t ~dst:src Protocol.Stop
  end;
  match msg with Protocol.Found_model m -> on_found_model t src m | _ -> ()

(* Who sent a frame: the standby (not a pool host), a pool host, or no
   one this master knows. *)
let sender t src =
  if src = Replica.standby_id then `Standby
  else
    match Pool.find_opt t.pool src with
    | None -> `Unknown
    | Some h -> if Pool.is_dead h then `Dead h else `Live h

(* Around [Reliable.receive]: a newer epoch means another master was
   promoted past this one, so it stands down for good; rot from a live
   host is an incident, from a dead or unknown one it is dropped silently;
   a dead host's traffic is still acked (to quiet its retry timers) and
   goes to [handle_zombie]. *)
let handle t ~src msg =
  if (not t.finished) && not t.down then
    Reliable.receive ~rel:(reliable t)
      (Reliable.streams_of (reliable t))
      ~me:t.active_id ~epoch:t.epoch ~reply:(send_raw t) ~log:(log t)
      ~report:(fun ~src ->
        match sender t src with
        | `Standby -> true
        | `Live _ ->
            note_incident t src `Corruption;
            true
        | `Dead _ | `Unknown -> false)
      ~succession:(fun ~src:_ ~epoch ->
        log t (Events.Stale_primary_fenced { epoch });
        t.down <- true;
        t.resyncing <- false;
        Reliable.stop (reliable t);
        Grid.Everyware.unregister t.bus ~id:t.active_id;
        false)
      ~accept:(fun ~src _ ->
        match sender t src with
        | `Standby | `Dead _ -> true
        | `Live h ->
            h.last_heard <- Grid.Sim.now t.sim;
            true
        | `Unknown -> false)
      ~deliver:(fun ~src msg ->
        if (not t.finished) && not t.down then
          match sender t src with
          | `Dead h -> handle_zombie t ~src h msg
          | `Standby | `Live _ | `Unknown -> handle_payload t ~src msg)
      ~src msg

(* ---------- failure handling ---------- *)

let with_live_host t id f =
  match Pool.find_opt t.pool id with
  | Some h when (not (Pool.is_dead h)) && Client.is_alive h.client -> f h.client
  | _ -> ()

(* Silent fault injection: the grid layer flips the host; the master only
   finds out when the failure detector's lease expires. *)
let crash_host t id =
  with_live_host t id (fun c ->
      log t (Events.Host_crashed id);
      Client.kill c)

let hang_host t id =
  with_live_host t id (fun c ->
      if not (Client.is_hung c) then begin
        log t (Events.Host_hung id);
        Client.hang c
      end)

(* Silent fault injection: the host's compute slices shrink by [factor]
   (1.0 restores full speed) while its heartbeats, acks and protocol
   traffic stay perfectly on time — a straggler, invisible to the failure
   detector, that only the health model's progress-rate signal and the
   hedging comparison against the fleet's duration p99 can catch. *)
let slow_host t id factor =
  with_live_host t id (fun c ->
      if Client.slow_factor c <> factor then begin
        log t (Events.Host_slowed { host = id; factor });
        Client.set_slow_factor c factor
      end)

(* At-rest fault injection: rot the newest [journal_records] seals of the
   write-ahead journal and (optionally) every checkpoint snapshot.  The
   damage is silent; it surfaces when a replay scrubs the journal tail or
   a recovery discards the snapshot and falls back to lineage. *)
let corrupt_storage t ~journal_records ~checkpoints =
  log t (Events.Storage_corrupted { journal_records; checkpoints });
  if journal_records > 0 then Journal.corrupt_tail t.journal ~n:journal_records;
  if checkpoints then Checkpoint.corrupt_all t.checkpoints

(* Test hook: deliver a forged payload to the master as if [src] had sent
   it (bypassing the wire, so integrity framing cannot catch it) — for
   exercising the certification and quarantine paths against answers that
   are well-formed but wrong. *)
let inject t ~src msg = handle_payload t ~src msg

(* ---------- master crash and failover ---------- *)

(* The master process dies: its endpoint disappears from the bus and every
   piece of volatile state — why each host was reserved (the in-flight
   problem copies with it), the hedges, the split backlog, the recovery
   queue — is lost.  The hosts stay reserved, each now only awaiting a
   problem, until the replacement's journal replay resets the pool.  Only
   the journal and the checkpoint store (both stable storage) survive.
   Clients notice via retry exhaustion and keep solving autonomously. *)
let drop_volatile t =
  Pool.end_holds t.pool ~awaiting:(Some t.active_id);
  Hashtbl.reset t.hedged;
  (* a portfolio's root copies are hedged by the mode, not by a decision
     the crash lost: without the entry a replacement master would grant
     their splits and fence none of them *)
  if t.cfg.Config.portfolio then Hashtbl.replace t.hedged initial_pid ();
  t.backlog <- [];
  Queue.clear t.pending_recovery

let crash_master t =
  if (not t.finished) && not t.down then begin
    log t Events.Master_crashed;
    exit_split_spans t (fun _ -> true) "master-crashed";
    if t.obs_on then
      t.outage_span <-
        Obs.Span.enter (spanr t) ~tid:Obs.Span.master_tid ~cat:"master" "master.outage";
    t.down <- true;
    t.resyncing <- false;
    t.outage_started <- Some (Grid.Sim.now t.sim);
    Reliable.stop (reliable t);
    Grid.Everyware.unregister t.bus ~id:t.active_id;
    drop_volatile t
  end

(* Reconciliation closes: any journaled live subproblem that no surviving
   client adopted, no in-flight transfer covers and the recovery queue
   does not hold (a client written off during the window) is an orphan.
   Prefer its last holder's checkpoint; otherwise re-derive it from the
   original CNF and its journaled lineage.  Either way it is requeued,
   never dropped. *)
let reconcile t =
  if (not t.finished) && (not t.down) && t.resyncing then begin
    t.resyncing <- false;
    if t.obs_on && t.outage_span <> Obs.Span.none then begin
      Obs.Span.exit (spanr t) t.outage_span;
      t.outage_span <- Obs.Span.none
    end;
    (match t.outage_started with
    | Some t0 ->
        t.outage_started <- None;
        if t.obs_on then Obs.Metrics.observe t.h_failover (Grid.Sim.now t.sim -. t0)
    | None -> ());
    let orphans =
      Hashtbl.fold (fun p _ acc -> if pid_homed t p then acc else p :: acc) (tree t).live []
      |> List.sort compare
    in
    List.iter
      (fun p -> if not t.finished then recover t ~holder:(Hashtbl.find_opt (tree t).holder p) p)
      orphans;
    (* a standby's shadow can predate the very first assignment (the
       primary died before any non-empty ship flush).  If nothing — no
       journal record, no busy resync — proves the search ever started,
       start it from the root now: clients already registered with the
       old primary will never send another Register to trigger it *)
    if (not t.finished) && not (tree t).problem_assigned then (
      match idle_host t with Some (dst, _) -> assign_initial_problem t dst | None -> ());
    (* the verdict may have become decidable during the window: results
       that arrived while UNSAT was deferred could have drained the pool *)
    conclude_or_dispatch t
  end

(* The shared recovery routine of a replacement master — whether it is
   the old process restarted from stable storage or the hot standby
   promoted onto its shadow journal.  Adopts the journal's replayed state
   as the split tree, resets the failure detector's leases (the old
   [last_heard] anchors died with the old process), and asks every
   not-known-dead client to resync.  Assignment stays gated until the
   resync grace elapses and [reconcile] runs. *)
let recover_from_journal t =
  Journal.recover t.journal;
  let st = tree t in
  let now = Grid.Sim.now t.sim in
  Pool.iter
    (fun id h ->
      h.pid <- None;
      h.busy_since <- 0.;
      (match Hashtbl.find_opt st.Journal.clients id with
      | Some Journal.Dead -> h.rstate <- Dead  (* journal-dead stays fenced *)
      | Some Journal.Alive -> h.rstate <- Idle  (* provisional until its Resync *)
      | None -> h.rstate <- Launching);
      if not (Pool.is_dead h) then h.last_heard <- now)
    t.pool;
  t.resyncing <- true;
  Pool.iter (fun id h -> if not (Pool.is_dead h) then send t ~dst:id Protocol.Resync_request) t.pool;
  schedule t ~delay:t.cfg.Config.resync_grace (fun () -> reconcile t)

(* A superseded primary that is still (or again) running: it holds the
   old epoch, so every frame it emits is recognisably stale.  The ghost
   keeps broadcasting resync requests the way a freshly restarted master
   would — until the first reply framed at the successor's epoch fences
   it for good.  It never acks reliable envelopes: clients that still
   address it fall into their ordinary master-outage autonomy until the
   promoted master's own resync reaches them. *)
let spawn_ghost t ~epoch =
  let fenced = ref false in
  let ghost_send ~dst msg = Protocol.send t.bus ~src:master_id ~dst ~epoch msg in
  Grid.Everyware.register t.bus ~id:master_id ~site:t.testbed.Testbed.master_site
    ~handler:(fun ~src:_ msg ->
      if (not !fenced) && Protocol.epoch_of msg > epoch then begin
        fenced := true;
        log t (Events.Stale_primary_fenced { epoch });
        Grid.Everyware.unregister t.bus ~id:master_id
      end);
  let rec haunt () =
    if (not !fenced) && not t.finished then begin
      Pool.iter
        (fun id h -> if not (Pool.is_dead h) then ghost_send ~dst:id Protocol.Resync_request)
        t.pool;
      (* a zombie primary also keeps shipping to what it believes is its
         standby.  The promoted master's stale-epoch rejection of that
         batch is the observable proof of succession, and the
         [Epoch_notice] it answers with is what fences the ghost. *)
      ghost_send ~dst:Replica.standby_id (Protocol.Ship { seq = 0; entries = []; log_digest = "" });
      ignore (Grid.Sim.schedule t.sim ~delay:t.cfg.Config.heartbeat_period haunt)
    end
  in
  haunt ()

(* The standby's lease on the primary expired: promote it.  The shadow
   journal — the shipped prefix of the primary's — becomes the
   authoritative log, the epoch is bumped so the whole fleet can tell
   successor from superseded, and the standby's endpoint is re-registered
   with the full master handler.  Anything in the replication lag window
   (appended but never shipped) is re-derived through the ordinary
   resync/orphan path, exactly as after a restart.  If the old primary
   is not actually down — a partition, not a crash: dueling masters —
   its persona is handed to a stale-epoch ghost that the first
   new-epoch frame fences. *)
let promote t =
  if (not t.finished) && not t.promoted then begin
    match t.replica with
    | None -> ()
    | Some r ->
        Replica.mark_promoted r;
        let old_epoch = t.epoch in
        let dueling = not t.down in
        if t.outage_started = None then t.outage_started <- Some (Grid.Sim.now t.sim);
        if t.obs_on && t.outage_span = Obs.Span.none then
          t.outage_span <-
            Obs.Span.enter (spanr t) ~tid:Obs.Span.master_tid ~cat:"master" "master.outage";
        (* the old primary's authority dies here: whatever it still had in
           flight is cancelled (a live duelist keeps only its ghost), and
           the new endpoint starts new streams with every peer *)
        Reliable.reset (reliable t);
        if dueling then begin
          drop_volatile t;
          Grid.Everyware.unregister t.bus ~id:master_id
        end;
        t.epoch <- old_epoch + 1;
        t.promoted <- true;
        t.down <- false;
        t.resyncing <- false;
        t.active_id <- Replica.standby_id;
        t.journal <- Replica.journal r;
        Hashtbl.iter (fun pid _ -> Hashtbl.replace t.inherited pid ()) (tree t).live;
        t.ship_buffer <- [];
        Grid.Everyware.register t.bus ~id:Replica.standby_id ~site:Replica.site
          ~handler:(fun ~src msg -> handle t ~src msg);
        if dueling then spawn_ghost t ~epoch:old_epoch;
        log t (Events.Standby_promoted { epoch = t.epoch });
        minstant t ~parent:t.outage_span ~cat:"master" "master.promoted";
        recover_from_journal t
  end

(* A replacement master comes up at the old endpoint.  If the standby
   already took the run over, the restarted process is a zombie: it
   rejoins at its superseded epoch and lives only until fenced. *)
let restart_master t =
  if not t.finished then begin
    if t.promoted then begin
      if not (Grid.Everyware.registered t.bus ~id:master_id) then
        spawn_ghost t ~epoch:(t.epoch - 1)
    end
    else if t.down then begin
      t.down <- false;
      Grid.Everyware.register t.bus ~id:master_id ~site:t.testbed.Testbed.master_site
        ~handler:(fun ~src msg -> handle t ~src msg);
      log t Events.Master_restarted;
      minstant t ~parent:t.outage_span ~cat:"master" "master.restarted";
      recover_from_journal t
    end
  end

(* The one arming point of every fault plan.  The bus corruptor garbles
   a payload in place of delivering it intact: the inner message rots,
   the framing headers keep their own CRC. *)
let arm_faults t ~seed = function
  | [] -> ()
  | plan ->
      (match Grid.Fault.validate plan with
      | Ok () -> ()
      | Error msg -> invalid_arg ("Master.arm_faults: bad fault plan: " ^ msg));
      let ctl =
        Grid.Fault.arm ~sim:t.sim ~seed ~on_crash:(crash_host t) ~on_hang:(hang_host t)
          ~on_master_crash:(fun () -> crash_master t)
          ~on_master_restart:(fun () -> restart_master t)
          ~on_storage_corrupt:(corrupt_storage t) ~on_slow:(slow_host t)
          ~on_disk_full:(set_journal_quota t) plan
      in
      t.before_verdict <- (fun () -> Grid.Fault.verdict_due ctl);
      Grid.Everyware.set_corrupt t.bus Protocol.corrupt;
      Grid.Everyware.set_fault t.bus (Grid.Fault.decide ctl)

(* External cancellation (deadline expiry, preemption, operator abort) —
   the graceful path the job service rides.  Unlike a raw [terminate],
   cancelling a run whose master is currently down fails over first:
   the replacement replays the journal and re-registers the endpoint, so
   the Stop broadcast actually reaches the surviving clients and every
   host comes back to the pool instead of solving a dead job forever.
   The journal closes with a clean [Unknown reason] verdict either way. *)
let cancel t ~reason =
  if not t.finished then begin
    if t.down then restart_master t;
    terminate t (Unknown reason) reason
  end

(* ---------- periodic monitoring ---------- *)

(* Straggler hedging (at most one clone per monitor tick): when a busy
   host has been grinding the same subproblem for longer than the fleet's
   p99 duration and an admissible idle host exists, re-derive the branch
   from its journaled lineage and race a second copy.  Both copies carry
   the same pid, so the live-problem accounting cannot drift; the first
   result wins and [refute_pid] fences the loser.  Split donors in
   flight, migration sources and already-hedged pids are skipped — all
   three would let the branch's lineage move under the clone. *)
let consider_hedge t ~now =
  if t.cfg.Config.hedge && not (t.down || t.resyncing) then
    match health t with
    | None -> ()
    | Some hm -> (
        match Health.duration_p99 hm with
        | None -> ()
        | Some p99 -> (
            let stragglers =
              Pool.fold
                (fun id h acc ->
                  match h.pid with
                  | Some pid
                    when working h
                         && (not (Hashtbl.mem t.hedged pid))
                         && Hashtbl.mem (tree t).live pid
                         && not (holding t (function Partner r | Migration r -> r = id | _ -> false))
                         && now -. h.busy_since > p99 ->
                      (now -. h.busy_since, id, pid) :: acc
                  | _ -> acc)
                t.pool []
              |> List.sort (fun (e1, i1, _) (e2, i2, _) ->
                     if e1 <> e2 then compare e2 e1 else compare i1 i2)
            in
            match stragglers with
            | [] -> ()
            | (_, primary, pid) :: _ -> (
                match idle_host t with
                | None -> ()
                | Some (backup, _) ->
                    (* every straggler's pid is live (filtered above) *)
                    let sp = Option.get (of_lineage t pid) in
                    Hashtbl.replace t.hedged pid ();
                    log t (Events.Hedge_launched { pid; primary; backup });
                    if t.obs_on then minstant t ~cat:"master"
                      ~args:
                        [
                          ("pid", Obs.Json.String (Printf.sprintf "%d.%d" (fst pid) (snd pid)));
                          ("primary", Obs.Json.Int primary);
                          ("backup", Obs.Json.Int backup);
                        ]
                      "hedge";
                    send_problem t ~dst:backup pid sp)))

let rec monitor t =
  if not t.finished then begin
    (* a crashed master observes nothing (the loop keeps ticking so the
       detector resumes cleanly after restart) *)
    if not (t.down || t.resyncing) then begin
      let now = Grid.Sim.now t.sim in
      (* adaptive timeouts (part of hedging): once enough latency samples
         exist the lease and the retry base tighten toward what the fleet
         actually delivers — never past the configured constants *)
      let suspect =
        match health t with
        | Some hm when t.cfg.Config.hedge ->
            Reliable.set_retry_base (reliable t)
              (Health.retry_base hm ~default:t.cfg.Config.retry_base);
            Health.suspect_timeout hm ~heartbeat_period:t.cfg.Config.heartbeat_period
              ~default:t.cfg.Config.suspect_timeout
        | _ -> t.cfg.Config.suspect_timeout
      in
      let expired = Pool.expired t.pool ~now ~timeout:suspect in
      List.iter
        (fun id ->
          if not t.finished then begin
            log t (Events.Client_suspected { client = id });
            declare_dead t id
          end)
        expired;
      if not t.finished then consider_hedge t ~now
    end;
    if not t.finished then
      schedule t ~delay:t.cfg.Config.heartbeat_period (fun () -> monitor t)
  end

let rec nws_probe t =
  if not t.finished then begin
    if not t.down then Pool.observe_nws t.pool ~now:(Grid.Sim.now t.sim);
    ignore (Grid.Sim.schedule t.sim ~delay:t.cfg.nws_probe_interval (fun () -> nws_probe t))
  end

(* ---------- construction ---------- *)

let add_host t (th : Testbed.host) callbacks =
  let client =
    Client.create ~obs:t.obs ~sim:t.sim ~bus:t.bus ~cfg:t.cfg ~resource:th.Testbed.resource
      ~trace:th.Testbed.trace ~master:master_id callbacks
  in
  Pool.add t.pool ~sim:t.sim ~client ~resource:th.Testbed.resource ~trace:th.Testbed.trace

let batch_hosts t (spec : Testbed.batch_spec) =
  List.init spec.Testbed.nodes (fun i ->
      let id = t.next_batch_id + i in
      {
        Testbed.resource =
          R.make ~id
            ~name:(Printf.sprintf "bh-%03d" i)
            ~site:spec.Testbed.site ~speed:spec.Testbed.node_speed ~mem_bytes:spec.Testbed.node_mem
            ~kind:R.Batch;
        trace = Grid.Trace.constant 1.0 (* batch nodes run dedicated *);
      })

let create ?(obs = Obs.disabled) ?health ~sim ~net ~bus ~cfg ~testbed cnf =
  testbed.Testbed.configure_network net;
  let m = Obs.metrics obs in
  (* hedging and its adaptive timeouts read their percentiles from the
     health model: wire one up even when the caller (who may share a model
     across runs, as the service does) did not pass one *)
  let health =
    match health with
    | Some _ as h -> h
    | None -> if cfg.Config.hedge then Some (Health.create ()) else None
  in
  let t =
    {
      sim;
      bus;
      cfg;
      cnf;
      testbed;
      pool = Pool.create ();
      checkpoints = Checkpoint.create ~obs cnf;
      backlog = [];
      pending_recovery = Queue.create ();
      journal =
        Journal.create ~obs ~compact_every:cfg.Config.journal_compact_every
          ~quota:cfg.Config.journal_quota ();
      replica = None;
      epoch = 0;
      active_id = master_id;
      promoted = false;
      ship_buffer = [];
      standby_applied = 0;
      before_verdict = ignore;
      outage_started = None;
      hedged = Hashtbl.create 8;
      inherited = Hashtbl.create 8;
      down = false;
      resyncing = false;
      finished = false;
      answer = None;
      share_budget =
        (if cfg.Config.share_budget > 0 then
           Some
             (Flow.budget ~bytes_per_window:cfg.Config.share_budget
                ~window:cfg.Config.share_window)
         else None);
      last_share_shed = neg_infinity;
      tally = Array.make (Array.length rows) 0;
      events = [];
      batch_job = None;
      timeout = None;
      next_batch_id = 1000;
      rng = lazy (Random.State.make [| cfg.Config.seed; 77 |]);
      started_at = Grid.Sim.now sim;
      obs;
      obs_on = Obs.enabled obs;
      flight = Obs.flight obs;
      flight_on = Obs.Flight.is_enabled (Obs.flight obs);
      anomaly = Obs.anomaly obs;
      anomaly_on = Obs.Anomaly.is_enabled (Obs.anomaly obs);
      d_hb_gap =
        Obs.Anomaly.detector (Obs.anomaly obs) ~name:"heartbeat-gap" ~direction:`High
          ~min_n:16 ();
      d_share_volume =
        Obs.Anomaly.detector (Obs.anomaly obs) ~name:"share-volume" ~direction:`High
          ~min_n:16 ();
      last_hb = Hashtbl.create 16;
      split_spans = Hashtbl.create 8;
      outage_span = Obs.Span.none;
      g_repl_lag = Obs.Metrics.gauge m "standby.replication.lag";
      h_failover = Obs.Metrics.histogram m "master.failover.seconds";
      h_share_fanout = Obs.Metrics.histogram m "master.share.fanout";
    }
  in
  (let tally = t.tally in
   if Obs.Metrics.is_enabled m then
     Array.iteri
       (fun i (_, _, name, _) -> if name <> "" then Obs.Metrics.view m name (fun () -> tally.(i)))
       rows);
  (match health with Some hm -> Pool.set_health t.pool hm | None -> ());
  Pool.set_reliable t.pool
    (Reliable.create ~obs ~obs_tid:Obs.Span.master_tid ~seed:cfg.Config.seed
         ~jitter:Reliable.endpoint_jitter
         ~on_ack:(fun ~dst ~latency msg ->
           (match msg with
           | Protocol.Ship _ ->
               t.standby_applied <- Replica.receipt ~applied:t.standby_applied msg;
               set_repl_lag t
           | _ -> ());
           match host_health t dst with
           | Some hm -> Health.note_ack hm ~host:dst ~latency
           | None -> ())
         ~sim
         ~send_raw:(fun ~dst msg -> send_raw t ~dst msg)
         ~active:(fun () -> not t.finished)
         ~retry_base:cfg.Config.retry_base ~max_attempts:cfg.Config.retry_max_attempts
         ~on_retry:(fun ~dst ~attempt ->
           note_incident t dst `Retry;
           log t (Events.Message_retried { src = t.active_id; dst; attempt }))
         ~on_exhausted:(fun ~dst ~attempts ->
           note_incident t dst `Exhausted;
           log t (Events.Retries_exhausted { src = t.active_id; dst; attempts }))
         ~on_give_up:(fun ~dst msg ->
           log t (Events.Message_given_up { src = t.active_id; dst });
           if not t.finished then
             match msg with
             | Protocol.Problem { pid; sp; _ } -> (
                 (* the addressee is alive (its heartbeats keep the lease)
                    but unreachable; take the problem back *)
                 match (host t dst).rstate with
                 | Reserved (Delivery (p, _)) when p = pid ->
                     Pool.release t.pool dst;
                     recover t ~holder:(Some dst) ~copy:sp pid
                 | _ -> ())
             | Protocol.Split_partner { partner } ->
                 (* the requester never learned about its partner *)
                 split_fell_through t dst ~partner "grant-lost"
             | Protocol.Migrate_to { target } -> (
                 match (host t target).rstate with
                 | Reserved (Migration src) when src = dst -> Pool.release t.pool target
                 | _ -> ())
             | _ -> ())
         ());
  Grid.Everyware.register bus ~id:master_id ~site:testbed.Testbed.master_site
    ~handler:(fun ~src msg -> handle t ~src msg);
  if cfg.Config.standby then begin
    t.replica <-
      Some
        (Replica.create ~obs ~sim ~bus ~cfg
           ~log:(fun kind -> log t kind)
           ~on_lease_expired:(fun () -> promote t)
           ());
    ship_loop t
  end;
  let callbacks =
    {
      Client.log = (fun kind -> log t kind);
      save_checkpoint =
        (fun ~client ~pid sp ->
          let bytes = Checkpoint.save t.checkpoints ~client ~pid ~mode:cfg.Config.checkpoint sp in
          if bytes > 0 then begin
            log t (Events.Checkpoint_saved { client; bytes });
            bump t Checkpoint_bytes (Checkpoint.total_bytes t.checkpoints)
          end);
      note_dup = bump t Dup_suppressed;
      note_outbox =
        (fun ~depth ~shed ->
          bump t Outbox_peak depth;
          bump t Outbox_shed shed);
    }
  in
  List.iter (fun th -> add_host t th callbacks) testbed.Testbed.hosts;
  (match testbed.Testbed.batch with
  | None -> ()
  | Some spec ->
      let batch =
        Grid.Batch.create sim ~mean_wait:spec.Testbed.mean_wait ~seed:spec.Testbed.queue_seed
      in
      log t (Events.Batch_job_submitted { nodes = spec.Testbed.nodes });
      let job =
        Grid.Batch.submit batch ~nodes:spec.Testbed.nodes ~duration:spec.Testbed.duration
          ~on_start:(fun () ->
            if not t.finished then begin
              log t (Events.Batch_job_started { nodes = spec.Testbed.nodes });
              List.iter (fun th -> add_host t th callbacks) (batch_hosts t spec)
            end)
          ~on_end:(fun () ->
            if not t.finished then
              terminate t (Unknown "batch job expired") "batch job reached its duration limit")
      in
      t.batch_job <- Some (batch, job));
  List.iter
    (fun (time, th) ->
      ignore
        (Grid.Sim.schedule sim ~delay:time (fun () ->
             if not t.finished then add_host t th callbacks)))
    testbed.Testbed.late_hosts;
  t.timeout <-
    Some
      (Grid.Sim.schedule sim ~delay:cfg.Config.overall_timeout (fun () ->
           terminate t (Unknown "timeout") "overall timeout"));
  nws_probe t;
  monitor t;
  t

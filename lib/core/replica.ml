(* Hot-standby master replica: consumes the primary's journal shipments,
   maintains a shadow journal whose log digest must match the primary's,
   and promotes itself (via a callback into Master) when its lease on the
   primary expires. *)

let standby_id = -1

let site = "standby"

type t = {
  sim : Grid.Sim.t;
  bus : Protocol.msg Grid.Everyware.t;
  cfg : Config.t;
  log : Events.kind -> unit;
  on_lease_expired : unit -> unit;
  journal : Journal.t;
  pending : (int, Protocol.journal_entry list * string) Hashtbl.t;
      (* out-of-order batches, keyed by the entry index they start at *)
  inbox : Reliable.inbox;
  mutable applied_entries : int;
  batches : Obs.Metrics.counter;  (* the [standby.ships.applied] series *)
  divergences : Obs.Metrics.counter;
  mutable epoch : int;
  mutable last_heard : float;
  mutable promoted : bool;
  mutable stopped : bool;
}

let journal t = t.journal

let applied t = t.applied_entries

let batches t = Obs.Metrics.counter_value t.batches

let divergences t = Obs.Metrics.counter_value t.divergences

let epoch t = t.epoch

let promoted t = t.promoted

let mark_promoted t = t.promoted <- true

let stop t = t.stopped <- true

let send_raw t ~dst msg = Protocol.send t.bus ~src:standby_id ~dst ~epoch:t.epoch msg

let send_ack t ~dst ~seq ~ok =
  send_raw t ~dst (Protocol.Ship_ack { seq; applied = t.applied_entries; ok })

(* Apply a batch whose first entry has index [seq].  Batches are immutable
   once flushed, so any batch starting below our applied count is a pure
   re-delivery: re-ack it (the original ack may have been lost) without
   touching the shadow journal.  Batches starting above it are buffered
   until the gap fills — the shadow journal must stay a strict prefix of
   the primary's or the digests are meaningless. *)
let rec apply_batch t ~src ~seq ~entries ~log_digest =
  if seq < t.applied_entries then send_ack t ~dst:src ~seq ~ok:true
  else if seq > t.applied_entries then
    Hashtbl.replace t.pending seq (entries, log_digest)
  else begin
    List.iter (Journal.append t.journal) entries;
    t.applied_entries <- t.applied_entries + List.length entries;
    Obs.Metrics.incr t.batches;
    (* the continuous consistency check: our shadow log must chain to the
       exact digest the primary's log had when it flushed this batch *)
    let ok = String.equal (Journal.log_digest t.journal) log_digest in
    if not ok then begin
      Obs.Metrics.incr t.divergences;
      t.log (Events.Replication_diverged { seq })
    end;
    t.log (Events.Ship_applied { seq; applied = t.applied_entries; ok });
    send_ack t ~dst:src ~seq ~ok;
    match Hashtbl.find_opt t.pending t.applied_entries with
    | Some (entries, log_digest) ->
        let seq = t.applied_entries in
        Hashtbl.remove t.pending seq;
        apply_batch t ~src ~seq ~entries ~log_digest
    | None -> ()
  end

(* A verified frame from a newer epoch is adopted, and any verified frame
   refreshes the lease on the primary.  The standby never sends reliably,
   so it has no channel for acks to settle.  Anything but a shipment is
   noise (e.g. a client probing a stale address). *)
let handle t ~src msg =
  if not (t.stopped || t.promoted) then
    Reliable.receive t.inbox ~me:standby_id ~epoch:t.epoch ~reply:(send_raw t) ~log:t.log
      ~succession:(fun ~src:_ ~epoch ->
        t.epoch <- epoch;
        true)
      ~accept:(fun ~src:_ _ ->
        t.last_heard <- Grid.Sim.now t.sim;
        true)
      ~deliver:(fun ~src -> function
        | Protocol.Ship { seq; entries; log_digest } -> apply_batch t ~src ~seq ~entries ~log_digest
        | _ -> ())
      ~src msg

(* The shipment stream is the liveness signal: the primary flushes at
   least every ship_interval even when idle, so lease-length silence
   means the primary (or the path to it) is gone. *)
let rec watch t =
  if not (t.stopped || t.promoted) then
    if Grid.Sim.now t.sim -. t.last_heard > t.cfg.Config.standby_lease then begin
      t.promoted <- true;
      t.on_lease_expired ()
    end
    else
      let delay = Float.max 0.5 (t.cfg.Config.standby_lease /. 16.) in
      ignore (Grid.Sim.schedule t.sim ~delay (fun () -> watch t))

let create ?(obs = Obs.disabled) ~sim ~bus ~cfg ~log ~on_lease_expired () =
  let m = Obs.metrics obs in
  let t =
    {
      sim;
      bus;
      cfg;
      log;
      on_lease_expired;
      journal = Journal.create ~obs ~compact_every:cfg.Config.journal_compact_every ();
      pending = Hashtbl.create 8;
      inbox = Reliable.inbox ();
      applied_entries = 0;
      batches = Obs.Metrics.counter m "standby.ships.applied";
      divergences = Obs.Metrics.counter m "standby.divergences";
      epoch = 0;
      last_heard = Grid.Sim.now sim;
      promoted = false;
      stopped = false;
    }
  in
  Grid.Everyware.register bus ~id:standby_id ~site ~handler:(fun ~src msg -> handle t ~src msg);
  watch t;
  t

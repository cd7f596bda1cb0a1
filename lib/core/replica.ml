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
  seen : (int * int, unit) Hashtbl.t;  (* (src, mid) reliable-envelope dedup *)
  mutable applied_entries : int;
  mutable batches : int;
  mutable divergences : int;
  mutable epoch : int;
  mutable last_heard : float;
  mutable promoted : bool;
  mutable stopped : bool;
  obs_on : bool;
  c_ships : Obs.Metrics.counter;
  c_divergences : Obs.Metrics.counter;
}

let journal t = t.journal

let applied t = t.applied_entries

let batches t = t.batches

let divergences t = t.divergences

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
    t.batches <- t.batches + 1;
    if t.obs_on then Obs.Metrics.incr t.c_ships;
    (* the continuous consistency check: our shadow log must chain to the
       exact digest the primary's log had when it flushed this batch *)
    let ok = String.equal (Journal.log_digest t.journal) log_digest in
    if not ok then begin
      t.divergences <- t.divergences + 1;
      if t.obs_on then Obs.Metrics.incr t.c_divergences;
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

let admit t ~src ~mid =
  if Hashtbl.mem t.seen (src, mid) then false
  else begin
    Hashtbl.replace t.seen (src, mid) ();
    true
  end

let handle_payload t ~src msg =
  match msg with
  | Protocol.Ship { seq; entries; log_digest } -> apply_batch t ~src ~seq ~entries ~log_digest
  | _ ->
      (* the primary only ever ships; anything else is noise (e.g. a
         client probing a stale address) and carries no standby meaning *)
      ()

let handle t ~src msg =
  if not (t.stopped || t.promoted) then begin
    let frame_epoch = Protocol.epoch_of msg in
    match Protocol.verify msg with
    | `Corrupt payload -> (
        match payload with
        | Protocol.Reliable { mid; _ } ->
            t.log (Events.Corrupt_message_detected { receiver = standby_id; nacked = true });
            send_raw t ~dst:src (Protocol.Nack { mid })
        | _ -> t.log (Events.Corrupt_message_detected { receiver = standby_id; nacked = false }))
    | `Ok msg ->
        if frame_epoch < t.epoch then begin
          t.log
            (Events.Stale_epoch_rejected
               { receiver = standby_id; src; epoch = frame_epoch; current = t.epoch });
          send_raw t ~dst:src Protocol.Epoch_notice
        end
        else begin
          if frame_epoch > t.epoch then t.epoch <- frame_epoch;
          t.last_heard <- Grid.Sim.now t.sim;
          match msg with
          | Protocol.Reliable { mid; payload } ->
              send_raw t ~dst:src (Protocol.Ack { mid });
              if admit t ~src ~mid then handle_payload t ~src payload
          | Protocol.Ack _ | Protocol.Nack _ ->
              (* the standby never sends reliably, so it has nothing to settle *)
              ()
          | msg -> handle_payload t ~src msg
        end
  end

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
      seen = Hashtbl.create 64;
      applied_entries = 0;
      batches = 0;
      divergences = 0;
      epoch = 0;
      last_heard = Grid.Sim.now sim;
      promoted = false;
      stopped = false;
      obs_on = Obs.enabled obs;
      c_ships = Obs.Metrics.counter m "standby.ships.applied";
      c_divergences = Obs.Metrics.counter m "standby.divergences";
    }
  in
  Grid.Everyware.register bus ~id:standby_id ~site ~handler:(fun ~src msg -> handle t ~src msg);
  watch t;
  t

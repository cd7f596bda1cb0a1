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
  streams : Reliable.streams;
  batches : Obs.Metrics.counter;  (* the [standby.ships.applied] series *)
  divergences : Obs.Metrics.counter;
  mutable epoch : int;
  mutable last_heard : float;
  mutable promoted : bool;
  mutable stopped : bool;
}

let journal t = t.journal

let applied t = Journal.appended t.journal

let batches t = Obs.Metrics.counter_value t.batches

let divergences t = Obs.Metrics.counter_value t.divergences

let epoch t = t.epoch

let mark_promoted t = t.promoted <- true

let stop t = t.stopped <- true

let send_raw t ~dst msg = Protocol.send t.bus ~src:standby_id ~dst ~epoch:t.epoch msg

let diverged t ~seq =
  Obs.Metrics.incr t.divergences;
  t.log (Events.Replication_diverged { seq })

(* Apply the batch whose first entry has index [seq].  The stream delivers
   the primary's batches in order, once each, so the next one starts at
   the applied count; one that starts anywhere else (a batch was given
   up, or lost with a crashed primary) would leave the shadow journal no
   longer a prefix of the primary's.  It is a divergence and is not
   applied. *)
let apply_batch t ~seq ~entries ~log_digest =
  if seq <> applied t then diverged t ~seq
  else begin
    List.iter (Journal.append t.journal) entries;
    Obs.Metrics.incr t.batches;
    (* the continuous consistency check: our shadow log must chain to the
       exact digest the primary's log had when it flushed this batch *)
    if not (String.equal (Journal.log_digest t.journal) log_digest) then diverged t ~seq
  end

(* The primary's mirror of the prefix rule: the standby's applied count
   once the stream settles [msg], given the count before it.  Acks settle
   oldest first, so only a [Ship] that starts at that count was applied. *)
let receipt ~applied = function
  | Protocol.Ship { seq; entries; _ } when seq = applied -> seq + List.length entries
  | _ -> applied

(* A verified frame from a newer epoch is adopted, and any verified frame
   refreshes the lease on the primary.  The standby never sends reliably,
   so it has no channel for acks to settle; the stream's own ack of a
   shipment is its only answer.  Anything but a shipment is noise (e.g. a
   client probing a stale address). *)
let handle t ~src msg =
  if not (t.stopped || t.promoted) then
    Reliable.receive t.streams ~me:standby_id ~epoch:t.epoch ~reply:(send_raw t) ~log:t.log
      ~succession:(fun ~src:_ ~epoch ->
        t.epoch <- epoch;
        true)
      ~accept:(fun ~src:_ _ ->
        t.last_heard <- Grid.Sim.now t.sim;
        true)
      ~deliver:(fun ~src:_ -> function
        | Protocol.Ship { seq; entries; log_digest } -> apply_batch t ~seq ~entries ~log_digest
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
      streams = Reliable.streams ();
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

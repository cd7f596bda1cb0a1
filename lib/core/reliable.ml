type pending = {
  dst : int;
  msg : Protocol.msg;
  sent_at : float;  (* virtual send time, for the ack-latency histogram *)
  mutable attempt : int;  (* retries performed so far *)
  mutable timer : Grid.Sim.event_id option;  (* armed after the first transmission *)
}

type inbox = (int * int, unit) Hashtbl.t  (* (src, mid) already delivered *)

let inbox () : inbox = Hashtbl.create 64

let admit (inbox : inbox) ~src ~mid =
  if Hashtbl.mem inbox (src, mid) then false
  else begin
    Hashtbl.replace inbox (src, mid) ();
    true
  end

type t = {
  sim : Grid.Sim.t;
  send_raw : dst:int -> Protocol.msg -> unit;
  active : unit -> bool;
  retry_base : float;
  mutable base_override : float option;  (* adaptive base from Health, ≤ retry_base *)
  jitter : float;  (* relative spread in [0, 1]; 0 = the old fixed schedule *)
  rng : Random.State.t;  (* private, seeded: jitter draws replay identically *)
  max_attempts : int;
  on_retry : dst:int -> attempt:int -> unit;
  on_exhausted : dst:int -> attempts:int -> unit;
  on_give_up : dst:int -> Protocol.msg -> unit;
  on_ack : dst:int -> latency:float -> unit;
  mutable next_mid : int;
  outstanding : (int, pending) Hashtbl.t;
  inbox : inbox;
  retries : Obs.Metrics.counter;
  gave_up : Obs.Metrics.counter;  (* the [reliable.exhausted] series *)
  mutable nacked : int;
  obs : Obs.t;
  obs_on : bool;
  obs_tid : int;
  flight : Obs.Flight.t;
  flight_on : bool;
  d_ack : Obs.Anomaly.detector;  (* streaming ack-latency outlier detector *)
  c_sends : Obs.Metrics.counter;
  h_ack : Obs.Metrics.histogram;
}

let endpoint_jitter = 0.1

let create ?(obs = Obs.disabled) ?(obs_tid = Obs.Span.run_tid) ?(seed = 0) ?(jitter = 0.)
    ?(on_ack = fun ~dst:_ ~latency:_ -> ()) ~sim ~send_raw ~active ~retry_base ~max_attempts
    ~on_retry ?(on_exhausted = fun ~dst:_ ~attempts:_ -> ()) ~on_give_up () =
  let m = Obs.metrics obs in
  let labels = [ ("owner", string_of_int obs_tid) ] in
  {
    sim;
    send_raw;
    active;
    retry_base = Float.max 0.001 retry_base;
    base_override = None;
    jitter = Float.max 0. (Float.min 1. jitter);
    rng = Random.State.make [| seed; obs_tid; 0xbac0ff |];
    max_attempts = max 1 max_attempts;
    on_retry;
    on_exhausted;
    on_give_up;
    on_ack;
    next_mid = 0;
    outstanding = Hashtbl.create 16;
    inbox = inbox ();
    retries = Obs.Metrics.counter m ~labels "reliable.retries";
    gave_up = Obs.Metrics.counter m ~labels "reliable.exhausted";
    nacked = 0;
    obs;
    obs_on = Obs.enabled obs;
    obs_tid;
    flight = Obs.flight obs;
    flight_on = Obs.Flight.is_enabled (Obs.flight obs);
    d_ack =
      Obs.Anomaly.detector (Obs.anomaly obs) ~name:"ack-latency" ~direction:`High ~min_n:16
        ();
    c_sends = Obs.Metrics.counter m ~labels "reliable.sends";
    h_ack = Obs.Metrics.histogram m ~labels "reliable.ack.latency";
  }

let base t =
  match t.base_override with
  | Some b -> Float.max 0.001 (Float.min t.retry_base b)
  | None -> t.retry_base

let set_retry_base t b = t.base_override <- b

let backoff t attempt =
  (* bounded exponential: base, 2*base, 4*base, ... capped at 32*base,
     spread by ±jitter so channels that exhausted in lockstep during a
     master outage do not retransmit in lockstep at its recovery *)
  let d = base t *. Float.min 32. (Float.pow 2. (float_of_int attempt)) in
  if t.jitter <= 0. then d
  else d *. (1. -. t.jitter +. (2. *. t.jitter *. Random.State.float t.rng 1.0))

let cancel_timer t p = Option.iter (Grid.Sim.cancel t.sim) p.timer

let rec arm_timer t mid p =
  p.timer <-
    Some (Grid.Sim.schedule t.sim ~delay:(backoff t p.attempt) (fun () -> fire t mid))

and fire t mid =
  match Hashtbl.find_opt t.outstanding mid with
  | None -> ()
  | Some p ->
      if not (t.active ()) then Hashtbl.remove t.outstanding mid
      else if p.attempt >= t.max_attempts then begin
        Hashtbl.remove t.outstanding mid;
        Obs.Metrics.incr t.gave_up;
        if t.obs_on then
          ignore
            (Obs.Span.instant (Obs.spans t.obs) ~tid:t.obs_tid ~cat:"protocol"
               ~args:[ ("dst", Obs.Json.Int p.dst); ("attempts", Obs.Json.Int p.attempt) ]
               "reliable.exhausted");
        if t.flight_on then
          Obs.Flight.note t.flight ~sub:"net"
            ~args:
              [
                ("owner", Obs.Json.Int t.obs_tid);
                ("dst", Obs.Json.Int p.dst);
                ("attempts", Obs.Json.Int p.attempt);
              ]
            "exhausted";
        t.on_exhausted ~dst:p.dst ~attempts:p.attempt;
        t.on_give_up ~dst:p.dst p.msg
      end
      else begin
        p.attempt <- p.attempt + 1;
        Obs.Metrics.incr t.retries;
        if t.obs_on then
          ignore
            (Obs.Span.instant (Obs.spans t.obs) ~tid:t.obs_tid ~cat:"protocol"
               ~args:[ ("dst", Obs.Json.Int p.dst); ("attempt", Obs.Json.Int p.attempt) ]
               "reliable.retry");
        if t.flight_on then
          Obs.Flight.note t.flight ~sub:"net"
            ~args:
              [
                ("owner", Obs.Json.Int t.obs_tid);
                ("dst", Obs.Json.Int p.dst);
                ("attempt", Obs.Json.Int p.attempt);
              ]
            "retry";
        t.on_retry ~dst:p.dst ~attempt:p.attempt;
        t.send_raw ~dst:p.dst (Protocol.Reliable { mid; payload = p.msg });
        arm_timer t mid p
      end

let send t ~dst msg =
  let mid = t.next_mid in
  t.next_mid <- mid + 1;
  let p = { dst; msg; sent_at = Grid.Sim.now t.sim; attempt = 0; timer = None } in
  Hashtbl.replace t.outstanding mid p;
  if t.obs_on then Obs.Metrics.incr t.c_sends;
  if t.flight_on then
    Obs.Flight.note t.flight ~sub:"net"
      ~args:[ ("owner", Obs.Json.Int t.obs_tid); ("dst", Obs.Json.Int dst); ("mid", Obs.Json.Int mid) ]
      "send";
  t.send_raw ~dst (Protocol.Reliable { mid; payload = msg });
  arm_timer t mid p

let handle_ack t ~mid =
  match Hashtbl.find_opt t.outstanding mid with
  | None -> ()
  | Some p ->
      cancel_timer t p;
      Hashtbl.remove t.outstanding mid;
      let latency = Grid.Sim.now t.sim -. p.sent_at in
      if t.obs_on then Obs.Metrics.observe t.h_ack latency;
      Obs.Anomaly.observe t.d_ack ~at:(Grid.Sim.now t.sim) latency;
      if t.flight_on then
        Obs.Flight.note t.flight ~sub:"net"
          ~args:
            [
              ("owner", Obs.Json.Int t.obs_tid);
              ("dst", Obs.Json.Int p.dst);
              ("mid", Obs.Json.Int mid);
              ("latency", Obs.Json.Float latency);
            ]
          "ack";
      t.on_ack ~dst:p.dst ~latency

(* The receiver saw envelope [mid] arrive corrupt: the link works, the
   payload rotted.  Retransmit immediately instead of waiting out the
   backoff timer — the NACK is proof of connectivity, not congestion.
   [fire] keeps the attempt accounting, so a link that corrupts everything
   still exhausts its bounded budget and reaches [on_give_up]. *)
let handle_nack t ~mid =
  match Hashtbl.find_opt t.outstanding mid with
  | None -> ()
  | Some p ->
      cancel_timer t p;
      t.nacked <- t.nacked + 1;
      fire t mid

(* Proof of life for [dst] (a restarted master announced itself): whatever
   is still outstanding toward it was transmitted into the outage and
   probably lost, and its exhaustion timer may be about to condemn a link
   that now works.  Retransmit everything immediately on a fresh budget. *)
let nudge t ~dst =
  Hashtbl.iter
    (fun mid p ->
      if p.dst = dst then begin
        cancel_timer t p;
        p.attempt <- 0;
        Obs.Metrics.incr t.retries;
        t.send_raw ~dst (Protocol.Reliable { mid; payload = p.msg });
        arm_timer t mid p
      end)
    t.outstanding

let inbox_of t = t.inbox

(* Header fields survive payload rot, so a stale sender is fenced before
   its payload is checked.  A newer epoch changes who runs the fleet, so
   only a verified frame may announce one. *)
let receive ?rel inbox ~me ~epoch ~reply ~log ?(report = fun ~src:_ -> true)
    ?(succession = fun ~src:_ ~epoch:_ -> true) ?(accept = fun ~src:_ _ -> true) ~deliver ~src
    msg =
  let frame_epoch = Protocol.epoch_of msg in
  if frame_epoch < epoch then begin
    log (Events.Stale_epoch_rejected { receiver = me; src; epoch = frame_epoch; current = epoch });
    reply ~dst:src Protocol.Epoch_notice
  end
  else
    match Protocol.verify msg with
    | `Corrupt payload ->
        if report ~src then begin
          let mid = match payload with Protocol.Reliable { mid; _ } -> Some mid | _ -> None in
          log (Events.Corrupt_message_detected { receiver = me; nacked = mid <> None });
          Option.iter (fun mid -> reply ~dst:src (Protocol.Nack { mid })) mid
        end
    | `Ok msg -> (
        if (frame_epoch = epoch || succession ~src ~epoch:frame_epoch) && accept ~src msg then
          match msg with
          | Protocol.Reliable { mid; payload } ->
              reply ~dst:src (Protocol.Ack { mid });
              if admit inbox ~src ~mid then deliver ~src payload
          | Protocol.Ack { mid } -> Option.iter (fun r -> handle_ack r ~mid) rel
          | Protocol.Nack { mid } -> Option.iter (fun r -> handle_nack r ~mid) rel
          | msg -> deliver ~src msg)

let stop t =
  Hashtbl.iter (fun _ p -> cancel_timer t p) t.outstanding;
  Hashtbl.reset t.outstanding

let outstanding t = Hashtbl.length t.outstanding

let outstanding_to t ~dst =
  Hashtbl.fold (fun _ p acc -> if p.dst = dst then acc + 1 else acc) t.outstanding 0

let retries t = Obs.Metrics.counter_value t.retries

let gave_up t = Obs.Metrics.counter_value t.gave_up

let nacked t = t.nacked

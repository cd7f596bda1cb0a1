type pending = {
  seq : int;
  msg : Protocol.msg;
  sent_at : float;  (* virtual send time, for the ack-latency histogram *)
  mutable attempt : int;  (* retries performed so far *)
  mutable timer : Grid.Sim.event_id option;  (* armed after the first transmission *)
}

(* The send half of one stream: the number the next envelope to this
   peer gets, and the envelopes not yet acked, oldest first.  Acks are
   cumulative and the receiver delivers in order, so the unacked
   envelopes are always the stream's last ones. *)
type outbound = { mutable next : int; mutable unacked : pending list }

(* The receive half of one stream: the number delivered next, and the
   envelopes that arrived ahead of it, by number. *)
type inbound = { mutable expected : int; mutable ahead : (int * Protocol.msg) list }

type streams = (int, inbound) Hashtbl.t

let streams () : streams = Hashtbl.create 16

type t = {
  sim : Grid.Sim.t;
  send_raw : dst:int -> Protocol.msg -> unit;
  active : unit -> bool;
  retry_base : float;
  mutable base_override : float option;  (* adaptive base from Health, ≤ retry_base *)
  jitter : float;  (* relative spread in [0, 1]; 0 = the old fixed schedule *)
  rng : Random.State.t Lazy.t;
      (* private, seeded: jitter draws replay identically; made at the
         first draw, since most endpoints never retry *)
  max_attempts : int;
  on_retry : dst:int -> attempt:int -> unit;
  on_exhausted : dst:int -> attempts:int -> unit;
  on_give_up : dst:int -> Protocol.msg -> unit;
  on_ack : dst:int -> latency:float -> Protocol.msg -> unit;
  outbound : (int, outbound) Hashtbl.t;
  inbound : streams;
  retries : Obs.Metrics.counter;
  gave_up : Obs.Metrics.counter;  (* the [reliable.exhausted] series *)
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
    ?(on_ack = fun ~dst:_ ~latency:_ _ -> ()) ~sim ~send_raw ~active ~retry_base ~max_attempts
    ~on_retry ?(on_exhausted = fun ~dst:_ ~attempts:_ -> ()) ~on_give_up () =
  let m = Obs.metrics obs in
  let labels = if Obs.Metrics.is_enabled m then [ ("owner", string_of_int obs_tid) ] else [] in
  {
    sim;
    send_raw;
    active;
    retry_base = Float.max 0.001 retry_base;
    base_override = None;
    jitter = Float.max 0. (Float.min 1. jitter);
    rng = lazy (Random.State.make [| seed; obs_tid; 0xbac0ff |]);
    max_attempts = max 1 max_attempts;
    on_retry;
    on_exhausted;
    on_give_up;
    on_ack;
    outbound = Hashtbl.create 16;
    inbound = streams ();
    retries = Obs.Metrics.counter m ~labels "reliable.retries";
    gave_up = Obs.Metrics.counter m ~labels "reliable.exhausted";
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
  else d *. (1. -. t.jitter +. (2. *. t.jitter *. Random.State.float (Lazy.force t.rng) 1.0))

let find_or_add tbl key fresh =
  match Hashtbl.find_opt tbl key with
  | Some v -> v
  | None ->
      let v = fresh () in
      Hashtbl.replace tbl key v;
      v

let cancel_timer t p = Option.iter (Grid.Sim.cancel t.sim) p.timer

(* Every transmission, the first and each resend, carries the lowest
   number still unacked on its stream: everything below it was delivered
   or abandoned, so the receiver may skip what it never got. *)
let transmit t ~dst o p =
  let low = match o.unacked with q :: _ -> q.seq | [] -> p.seq in
  t.send_raw ~dst (Protocol.Reliable { mid = p.seq; low; payload = p.msg })

let flight t ~dst name args =
  if t.flight_on then
    Obs.Flight.note t.flight ~sub:"net"
      ~args:(("owner", Obs.Json.Int t.obs_tid) :: ("dst", Obs.Json.Int dst) :: args)
      name

(* A retry or an exhaustion: an instant span and a flight note. *)
let note t ~dst name args =
  if t.obs_on then
    ignore
      (Obs.Span.instant (Obs.spans t.obs) ~tid:t.obs_tid ~cat:"protocol"
         ~args:(("dst", Obs.Json.Int dst) :: args)
         ("reliable." ^ name));
  flight t ~dst name args

let rec arm_timer t ~dst o p =
  p.timer <-
    Some (Grid.Sim.schedule t.sim ~delay:(backoff t p.attempt) (fun () -> fire t ~dst o p))

(* An envelope that exhausts its budget takes the rest of its stream with
   it: the later envelopes cannot be delivered before it, so they are
   handed to [on_give_up] too, oldest first, and the owner can resend
   them in their order. *)
and fire t ~dst o p =
  if List.memq p o.unacked then
    if not (t.active ()) then o.unacked <- []
    else if p.attempt >= t.max_attempts then begin
      let tail = o.unacked in
      o.unacked <- [];
      List.iter (cancel_timer t) tail;
      Obs.Metrics.add t.gave_up (List.length tail);
      note t ~dst "exhausted" [ ("attempts", Obs.Json.Int p.attempt) ];
      t.on_exhausted ~dst ~attempts:p.attempt;
      List.iter (fun q -> t.on_give_up ~dst q.msg) tail
    end
    else begin
      p.attempt <- p.attempt + 1;
      Obs.Metrics.incr t.retries;
      note t ~dst "retry" [ ("attempt", Obs.Json.Int p.attempt) ];
      t.on_retry ~dst ~attempt:p.attempt;
      transmit t ~dst o p;
      arm_timer t ~dst o p
    end

let send t ~dst msg =
  let o = find_or_add t.outbound dst (fun () -> { next = 0; unacked = [] }) in
  let p = { seq = o.next; msg; sent_at = Grid.Sim.now t.sim; attempt = 0; timer = None } in
  o.next <- p.seq + 1;
  o.unacked <- o.unacked @ [ p ];
  if t.obs_on then Obs.Metrics.incr t.c_sends;
  if t.flight_on then flight t ~dst "send" [ ("mid", Obs.Json.Int p.seq) ];
  transmit t ~dst o p;
  arm_timer t ~dst o p

(* [src] delivered its stream up to [mid]: settle every envelope to it
   numbered [mid] or below. *)
let handle_ack t ~src ~mid =
  match Hashtbl.find_opt t.outbound src with
  | None -> ()
  | Some o ->
      let settled, rest = List.partition (fun p -> p.seq <= mid) o.unacked in
      o.unacked <- rest;
      List.iter
        (fun p ->
          cancel_timer t p;
          let latency = Grid.Sim.now t.sim -. p.sent_at in
          if t.obs_on then Obs.Metrics.observe t.h_ack latency;
          Obs.Anomaly.observe t.d_ack ~at:(Grid.Sim.now t.sim) latency;
          if t.flight_on then
            flight t ~dst:src "ack" [ ("mid", Obs.Json.Int p.seq); ("latency", Obs.Json.Float latency) ];
          t.on_ack ~dst:src ~latency p.msg)
        settled

(* The receiver saw envelope [mid] arrive corrupt: the link works, the
   payload rotted.  Retransmit immediately instead of waiting out the
   backoff timer — the NACK is proof of connectivity, not congestion.
   [fire] keeps the attempt accounting, so a link that corrupts everything
   still exhausts its bounded budget and reaches [on_give_up]. *)
let handle_nack t ~src ~mid =
  match Hashtbl.find_opt t.outbound src with
  | None -> ()
  | Some o -> (
      match List.find_opt (fun p -> p.seq = mid) o.unacked with
      | None -> ()
      | Some p ->
          cancel_timer t p;
          fire t ~dst:src o p)

(* Proof of life for [dst] (a restarted master announced itself): whatever
   is still outstanding toward it was transmitted into the outage and
   probably lost, and its exhaustion timer may be about to condemn a link
   that now works.  Retransmit everything immediately, in stream order,
   on a fresh budget. *)
let nudge t ~dst =
  match Hashtbl.find_opt t.outbound dst with
  | None -> ()
  | Some o ->
      List.iter
        (fun p ->
          cancel_timer t p;
          p.attempt <- 0;
          Obs.Metrics.incr t.retries;
          transmit t ~dst o p;
          arm_timer t ~dst o p)
        o.unacked

let streams_of t = t.inbound

(* Envelope [mid] of [src]'s stream arrived intact.  Below [low] the
   sender has settled or abandoned everything, so the stream skips there
   (dropping what it buffered from the abandoned range).  An envelope
   below the next expected one is a copy: it is acked again and dropped.
   One ahead is buffered, unacked; the first one ahead of a gap NACKs the
   missing envelope, so the sender resends it now rather than when its
   backoff expires (the envelopes behind it wait for it).  The expected
   one is delivered with every buffered envelope that follows it, after
   one cumulative ack. *)
let accept_envelope rx ~src ~mid ~low ~reply ~deliver payload =
  let s = find_or_add rx src (fun () -> { expected = 0; ahead = [] }) in
  if low > s.expected then begin
    s.expected <- low;
    s.ahead <- List.filter (fun (n, _) -> n >= low) s.ahead
  end;
  if mid < s.expected then reply ~dst:src (Protocol.Ack { mid = s.expected - 1 })
  else if mid > s.expected then begin
    if s.ahead = [] then reply ~dst:src (Protocol.Nack { mid = s.expected });
    if not (List.mem_assoc mid s.ahead) then
      s.ahead <- List.merge (fun (a, _) (b, _) -> compare a b) [ (mid, payload) ] s.ahead
  end
  else begin
    let rec run acc n = function
      | (m, msg) :: rest when m = n -> run (msg :: acc) (n + 1) rest
      | rest -> (List.rev acc, n, rest)
    in
    let ready, next, rest = run [ payload ] (mid + 1) s.ahead in
    s.expected <- next;
    s.ahead <- rest;
    reply ~dst:src (Protocol.Ack { mid = next - 1 });
    List.iter (deliver ~src) ready
  end

(* Header fields survive payload rot, so a stale sender is fenced before
   its payload is checked.  A newer epoch changes who runs the fleet, so
   only a verified frame may announce one. *)
let receive ?rel rx ~me ~epoch ~reply ~log ?(report = fun ~src:_ -> true)
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
          | Protocol.Reliable { mid; low; payload } ->
              accept_envelope rx ~src ~mid ~low ~reply ~deliver payload
          | Protocol.Ack { mid } -> Option.iter (fun r -> handle_ack r ~src ~mid) rel
          | Protocol.Nack { mid } -> Option.iter (fun r -> handle_nack r ~src ~mid) rel
          | msg -> deliver ~src msg)

let stop_to t ~dst =
  match Hashtbl.find_opt t.outbound dst with
  | None -> []
  | Some o ->
      let tail = o.unacked in
      o.unacked <- [];
      List.iter (cancel_timer t) tail;
      List.map (fun p -> p.msg) tail

let stop t = Hashtbl.iter (fun dst _ -> ignore (stop_to t ~dst)) t.outbound

let reset t =
  stop t;
  Hashtbl.reset t.outbound;
  Hashtbl.reset t.inbound

let outstanding t = Hashtbl.fold (fun _ o acc -> acc + List.length o.unacked) t.outbound 0

let retries t = Obs.Metrics.counter_value t.retries

let gave_up t = Obs.Metrics.counter_value t.gave_up

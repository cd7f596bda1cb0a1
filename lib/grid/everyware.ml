type fault_decision = Deliver | Drop | Delay of float | Duplicate of float | Corrupt

type 'msg endpoint = { site : string; handler : src:int -> 'msg -> unit }

type 'msg t = {
  sim : Sim.t;
  net : Network.t;
  endpoints : (int, 'msg endpoint) Hashtbl.t;
  last_delivery : (int * int, float) Hashtbl.t;  (* (src, dst) -> latest delivery time scheduled *)
  mutable bytes : int;
  mutable dropped_bytes : int;
  mutable fault : (src_site:string -> dst_site:string -> bytes:int -> fault_decision) option;
  mutable corruptor : ('msg -> 'msg) option;
  obs : Obs.t;
  obs_on : bool;
  sent : Obs.Metrics.counter;
  dropped : Obs.Metrics.counter;
  c_duplicated : Obs.Metrics.counter;
  c_corrupted : Obs.Metrics.counter;
  (* per-site-pair histograms, cached so a send never re-derives labels *)
  pair_hists : (string * string, Obs.Metrics.histogram * Obs.Metrics.histogram) Hashtbl.t;
}

let create ?(obs = Obs.disabled) sim net =
  let m = Obs.metrics obs in
  {
    sim;
    net;
    endpoints = Hashtbl.create 64;
    last_delivery = Hashtbl.create 64;
    bytes = 0;
    dropped_bytes = 0;
    fault = None;
    corruptor = None;
    obs;
    obs_on = Obs.enabled obs;
    sent = Obs.Metrics.counter m "net.messages.sent";
    dropped = Obs.Metrics.counter m "net.messages.dropped";
    c_duplicated = Obs.Metrics.counter m "net.messages.duplicated";
    c_corrupted = Obs.Metrics.counter m "net.messages.corrupted";
    pair_hists = Hashtbl.create 16;
  }

let register t ~id ~site ~handler = Hashtbl.replace t.endpoints id { site; handler }

let unregister t ~id = Hashtbl.remove t.endpoints id

let registered t ~id = Hashtbl.mem t.endpoints id

let set_fault t f = t.fault <- Some f

let clear_fault t = t.fault <- None

let set_corrupt t f = t.corruptor <- Some f

let site_of t id =
  match Hashtbl.find_opt t.endpoints id with
  | Some e -> e.site
  | None -> invalid_arg (Printf.sprintf "Everyware: endpoint %d not registered" id)

let pair_hists t ~src_site ~dst_site =
  match Hashtbl.find_opt t.pair_hists (src_site, dst_site) with
  | Some pair -> pair
  | None ->
      let labels = [ ("src", src_site); ("dst", dst_site) ] in
      let m = Obs.metrics t.obs in
      let pair =
        ( Obs.Metrics.histogram m ~labels "net.message.bytes",
          Obs.Metrics.histogram m ~labels "net.message.latency" )
      in
      Hashtbl.replace t.pair_hists (src_site, dst_site) pair;
      pair

let send t ~src ~dst ~bytes msg =
  let src_site = site_of t src in
  let dst_site =
    match Hashtbl.find_opt t.endpoints dst with Some e -> e.site | None -> src_site
  in
  let delay = Network.transfer_time t.net ~src:src_site ~dst:dst_site ~bytes in
  Obs.Metrics.incr t.sent;
  t.bytes <- t.bytes + bytes;
  if t.obs_on then begin
    let h_bytes, h_latency = pair_hists t ~src_site ~dst_site in
    Obs.Metrics.observe h_bytes (float_of_int bytes);
    Obs.Metrics.observe h_latency delay
  end;
  (* A link is a stream: a message is delivered no earlier than the one
     sent before it on the same (src, dst) link, and the simulator fires
     same-instant events in scheduling order, so no fault reorders a link. *)
  let deliver_msg extra m =
    let at = Sim.now t.sim +. Float.max 0. (delay +. extra) in
    let at =
      match Hashtbl.find_opt t.last_delivery (src, dst) with
      | Some last when last > at -> last
      | _ -> at
    in
    Hashtbl.replace t.last_delivery (src, dst) at;
    ignore
      (Sim.schedule_at t.sim ~time:at (fun () ->
           match Hashtbl.find_opt t.endpoints dst with
           | Some e -> e.handler ~src m
           | None -> () (* endpoint vanished while the message was in flight *)))
  in
  let deliver extra = deliver_msg extra msg in
  let decision =
    match t.fault with None -> Deliver | Some f -> f ~src_site ~dst_site ~bytes
  in
  match decision with
  | Deliver -> deliver 0.
  | Drop ->
      Obs.Metrics.incr t.dropped;
      t.dropped_bytes <- t.dropped_bytes + bytes
  | Delay extra -> deliver (Float.max 0. extra)
  | Duplicate extra ->
      Obs.Metrics.incr t.c_duplicated;
      deliver 0.;
      deliver (Float.max 0. extra)
  | Corrupt -> (
      (* the payload bytes rot in flight; delivery timing is unchanged.
         Without an installed corruptor the decision degrades to Deliver
         (the bus does not know the message representation). *)
      match t.corruptor with
      | None -> deliver 0.
      | Some f ->
          Obs.Metrics.incr t.c_corrupted;
          deliver_msg 0. (f msg))

let messages_sent t = Obs.Metrics.counter_value t.sent

let bytes_sent t = t.bytes

let messages_dropped t = Obs.Metrics.counter_value t.dropped

let bytes_dropped t = t.dropped_bytes

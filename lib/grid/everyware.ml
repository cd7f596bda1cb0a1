type fault_decision = Deliver | Drop | Delay of float | Duplicate of float | Corrupt

type 'msg endpoint = { site : string; handler : src:int -> 'msg -> unit }

(* What a send on the (src, dst) link reads, resolved once: both sites,
   the network link between them and the endpoint [dst] had, as of the
   bus's [gen] and the network's version.  A (re-)registration moves
   [gen], so a link resolved before it is resolved again on its next
   use. *)
type 'msg link = {
  mutable gen : int;
  mutable net_version : int;
  mutable src_site : string;
  mutable dst_site : string;
  mutable params : Network.link;
  mutable dst_ep : 'msg endpoint option;
  mutable last : float;  (* the latest delivery time scheduled *)
}

module Pair = Hashtbl.Make (struct
  type t = int * int

  let equal ((a, b) : t) (c, d) = a = c && b = d

  let hash ((a, b) : t) = ((a * 65599) + b) land max_int
end)

type 'msg t = {
  sim : Sim.t;
  net : Network.t;
  endpoints : (int, 'msg endpoint) Hashtbl.t;
  mutable gen : int;  (* moves with every (un)registration *)
  links : 'msg link Pair.t;
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
    endpoints = Hashtbl.create 8;
    gen = 0;
    links = Pair.create 8;
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
    pair_hists = Hashtbl.create 1;
  }

let register t ~id ~site ~handler =
  Hashtbl.replace t.endpoints id { site; handler };
  t.gen <- t.gen + 1

let unregister t ~id =
  Hashtbl.remove t.endpoints id;
  t.gen <- t.gen + 1

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

(* The (src, dst) link, resolved as of now. *)
let link t ~src ~dst =
  let resolve (l : _ link) =
    let src_site = site_of t src in
    let dst_ep = Hashtbl.find_opt t.endpoints dst in
    let dst_site = match dst_ep with Some e -> e.site | None -> src_site in
    l.gen <- t.gen;
    l.net_version <- Network.version t.net;
    l.src_site <- src_site;
    l.dst_site <- dst_site;
    l.params <- Network.link t.net src_site dst_site;
    l.dst_ep <- dst_ep
  in
  match Pair.find_opt t.links (src, dst) with
  | Some l ->
      if l.gen <> t.gen || l.net_version <> Network.version t.net then resolve l;
      l
  | None ->
      let l =
        {
          gen = 0;
          net_version = 0;
          src_site = "";
          dst_site = "";
          params = Network.link t.net "" "";
          dst_ep = None;
          last = neg_infinity;
        }
      in
      resolve l;
      Pair.replace t.links (src, dst) l;
      l

(* [dst]'s endpoint now: the link's, unless a registration moved since. *)
let endpoint t (l : _ link) ~dst = if l.gen = t.gen then l.dst_ep else Hashtbl.find_opt t.endpoints dst

let send t ~src ~dst ~bytes msg =
  let l = link t ~src ~dst in
  let src_site = l.src_site and dst_site = l.dst_site in
  let delay = Network.link_time l.params ~bytes in
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
    let at = if l.last > at then l.last else at in
    l.last <- at;
    ignore
      (Sim.schedule_at t.sim ~time:at (fun () ->
           match endpoint t l ~dst with
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

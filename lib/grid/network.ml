type link = { latency : float; bandwidth : float }

type t = {
  intra : link;
  default : link;
  links : (string * string, link) Hashtbl.t;
  mutable version : int;
}

let create ?(intra_latency = 0.0005) ?(intra_bandwidth = 100e6) ?(default_latency = 0.04)
    ?(default_bandwidth = 2e6) () =
  if intra_bandwidth <= 0. || default_bandwidth <= 0. then
    invalid_arg "Network.create: bandwidth must be positive";
  {
    intra = { latency = intra_latency; bandwidth = intra_bandwidth };
    default = { latency = default_latency; bandwidth = default_bandwidth };
    links = Hashtbl.create 16;
    version = 0;
  }

let canonical a b = if String.compare a b <= 0 then (a, b) else (b, a)

let set_link t a b ~latency ~bandwidth =
  if bandwidth <= 0. then invalid_arg "Network.set_link: bandwidth must be positive";
  Hashtbl.replace t.links (canonical a b) { latency; bandwidth };
  t.version <- t.version + 1

let version t = t.version

let link t a b =
  match Hashtbl.find_opt t.links (canonical a b) with
  | Some l -> l
  | None -> if String.equal a b then t.intra else t.default

let link_time l ~bytes =
  if bytes < 0 then invalid_arg "Network.transfer_time: negative size";
  l.latency +. (float_of_int bytes /. l.bandwidth)

let transfer_time t ~src ~dst ~bytes = link_time (link t src dst) ~bytes

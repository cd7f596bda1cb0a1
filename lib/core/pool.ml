(* Pool state, split out of [Master]: the grid hosts a master (or the job
   service above it) schedules over — lease states and holds, NWS
   forecasts, the reliable transport endpoint — and nothing about any
   particular solve run.  See pool.mli. *)

module R = Grid.Resource

type hold =
  | Partner of int
  | Awaiting_problem of int
  | Migration of int
  | Delivery of Protocol.pid * Subproblem.t

type rstate = Launching | Idle | Reserved of hold | Busy | Dead

type host = {
  client : Client.t;
  resource : R.t;
  trace : Grid.Trace.t;
  nws : Grid.Nws.t;
  mutable rstate : rstate;
  mutable busy_since : float;
  mutable last_heard : float;  (* failure-detector lease anchor *)
  mutable fenced : bool;  (* a declared-dead host that spoke again was told to stop *)
  mutable pid : Protocol.pid option;  (* the subproblem this host is working on *)
  mutable partner_of : int list;
      (* requesters of the splits whose problem overtook their Split_ok *)
}

type t = {
  hosts : (int, host) Hashtbl.t;
  mutable rel : Reliable.t option;
      (* the pool's reliable transport endpoint; set once, right after
         construction, and never [None] afterwards *)
  mutable health : Health.t option;
      (* host-health model; optional so the plain-master tests and
         baselines keep the pure NWS ranking *)
}

let create () = { hosts = Hashtbl.create 64; rel = None; health = None }

let add t ~sim ~client ~resource ~trace =
  Hashtbl.replace t.hosts resource.R.id
    {
      client;
      resource;
      trace;
      nws = Grid.Nws.create ();
      rstate = Launching;
      busy_since = 0.;
      last_heard = Grid.Sim.now sim;
      fenced = false;
      pid = None;
      partner_of = [];
    }

let find t id = Hashtbl.find t.hosts id

let find_opt t id = Hashtbl.find_opt t.hosts id

let iter f t = Hashtbl.iter f t.hosts

let fold f t acc = Hashtbl.fold f t.hosts acc

let set_reliable t rel = t.rel <- Some rel

let reliable t = match t.rel with Some r -> r | None -> assert false

let set_health t health = t.health <- Some health

let health t = t.health

let health_score t id =
  match t.health with None -> 1.0 | Some h -> Health.score h ~host:id

let health_admissible t ~now id =
  match t.health with None -> true | Some h -> Health.admissible h ~host:id ~now

let is_busy h = match h.rstate with Busy -> true | _ -> false

let is_dead h = match h.rstate with Dead -> true | _ -> false

let unload h =
  if is_busy h then begin
    h.rstate <- Idle;
    h.pid <- None
  end

let ids_where p t =
  Hashtbl.fold (fun id h acc -> if p h then id :: acc else acc) t.hosts [] |> List.sort compare

let busy_count t = Hashtbl.fold (fun _ h acc -> if is_busy h then acc + 1 else acc) t.hosts 0

let busy_ids t = ids_where is_busy t

let reserved_ids t = ids_where (fun h -> match h.rstate with Reserved _ -> true | _ -> false) t

let reserve t id hold = (find t id).rstate <- Reserved hold

let release t id =
  match Hashtbl.find_opt t.hosts id with
  | Some ({ rstate = Reserved _; _ } as h) -> h.rstate <- Idle
  | _ -> ()

let end_holds t ~awaiting =
  Hashtbl.iter
    (fun _ h ->
      (match (h.rstate, awaiting) with
      | Reserved _, None -> h.rstate <- Idle
      | Reserved (Partner s | Awaiting_problem s | Migration s), Some _
      | Reserved (Delivery _), Some s ->
          h.rstate <- Reserved (Awaiting_problem s)
      | _ -> ());
      h.partner_of <- [])
    t.hosts

(* [h] holds a hold [p] accepts: its reservation's, or the [Partner] hold
   of a split whose problem overtook the requester's Split_ok. *)
let holding p h =
  (match h.rstate with Reserved hold -> p hold | _ -> false)
  || List.exists (fun r -> p (Partner r)) h.partner_of

let holders t p = ids_where (holding p) t

let rec drop_first x = function [] -> [] | y :: l -> if y = x then l else y :: drop_first x l

(* [close h] ends one of [requester]'s splits on [h]: the reservation if
   [h] is still its partner, else one early-partner entry. *)
let close_split t requester ?partner ~confirmed () =
  let close h =
    match h.rstate with
    | Reserved (Partner r) when r = requester ->
        h.rstate <- (if confirmed then Reserved (Awaiting_problem requester) else Idle)
    | _ -> h.partner_of <- drop_first requester h.partner_of
  in
  match partner with
  | Some id -> Option.iter close (find_opt t id)
  | None ->
      let split = function Partner r -> r = requester | _ -> false in
      Hashtbl.iter (fun _ h -> while holding split h do close h done) t.hosts

(* The candidates the scheduler may hand new work to.  While the master is
   resyncing after a crash, "idle" hosts may in fact hold live work that
   has not reported back yet: offer nothing until reconciliation closes.
   Hosts whose circuit breaker is open (probation) are withheld entirely;
   admissible ones carry their health score into the rank. *)
let idle_candidates t ~resyncing ~now =
  if resyncing then []
  else
    Hashtbl.fold
      (fun id h acc ->
        match h.rstate with
        | Idle when Client.is_alive h.client && health_admissible t ~now id ->
            {
              Scheduler.resource = h.resource;
              forecast = Grid.Nws.forecast h.nws;
              health = health_score t id;
            }
            :: acc
        | _ -> acc)
      t.hosts []
    (* stable order so Random_pick and ties are reproducible *)
    |> List.sort (fun a b -> compare a.Scheduler.resource.R.id b.Scheduler.resource.R.id)

let rank t h =
  Scheduler.rank
    {
      Scheduler.resource = h.resource;
      forecast = Grid.Nws.forecast h.nws;
      health = health_score t h.resource.R.id;
    }

(* Tie-breaking mirrors the historical master code exactly (collect then
   scan, so ties resolve to the last host in table order): replayed runs
   must keep producing byte-identical timelines. *)
let weakest_busy t =
  let busy = Hashtbl.fold (fun _ h acc -> if is_busy h then h :: acc else acc) t.hosts [] in
  List.fold_left
    (fun acc h ->
      match acc with
      | None -> Some h
      | Some best -> if rank t h < rank t best then Some h else acc)
    None busy

(* Monitored hosts whose heartbeat lease ran out, ascending.  Dead and
   still-launching hosts are not monitored. *)
let expired t ~now ~timeout =
  ids_where
    (fun h ->
      match h.rstate with
      | Idle | Reserved _ | Busy -> now -. h.last_heard > timeout
      | Launching | Dead -> false)
    t

let observe_nws t ~now =
  Hashtbl.iter
    (fun _ h ->
      if not (is_dead h) then Grid.Nws.observe h.nws (Grid.Trace.availability h.trace now))
    t.hosts

let aggregate_solver_stats t =
  let acc = Sat.Stats.create () in
  Hashtbl.iter (fun _ h -> Sat.Stats.add acc (Client.solver_stats h.client)) t.hosts;
  acc

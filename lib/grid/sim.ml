module Key = struct
  type t = { time : float; seq : int }

  let compare a b =
    match Float.compare a.time b.time with 0 -> Int.compare a.seq b.seq | c -> c
end

module Pq = Map.Make (Key)

(* An event's id is its queue key, so cancelling removes the closure (and
   everything it keeps reachable) at once instead of leaving it queued
   until its time comes. *)
type event_id = Key.t

type t = {
  mutable clock : float;
  mutable queue : (unit -> unit) Pq.t;
  mutable pending : int;  (* [Pq.cardinal queue], which is O(pending) to recount *)
  mutable next_seq : int;
  fired : Obs.Metrics.counter;  (* the [sim.events] series *)
  obs_on : bool;
  g_pending : Obs.Metrics.gauge;
}

let create ?(obs = Obs.disabled) () =
  {
    clock = 0.;
    queue = Pq.empty;
    pending = 0;
    next_seq = 0;
    fired = Obs.Metrics.counter (Obs.metrics obs) "sim.events";
    obs_on = Obs.enabled obs;
    g_pending = Obs.Metrics.gauge (Obs.metrics obs) "sim.pending.max";
  }

let now t = t.clock

let schedule_at t ~time f =
  let time = Float.max time t.clock in
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let key = { Key.time; seq } in
  t.queue <- Pq.add key f t.queue;
  t.pending <- t.pending + 1;
  if t.obs_on then Obs.Metrics.gauge_max t.g_pending (float_of_int t.pending);
  key

let schedule t ~delay f = schedule_at t ~time:(t.clock +. Float.max 0. delay) f

(* Removing a key that already fired (or was already cancelled) returns
   the queue itself, so a late or repeated cancel is a no-op and counts
   nothing. *)
let cancel t id =
  let q = Pq.remove id t.queue in
  if q != t.queue then begin
    t.queue <- q;
    t.pending <- t.pending - 1
  end

let pending t = t.pending

let events_fired t = Obs.Metrics.counter_value t.fired

let step t =
  match Pq.min_binding_opt t.queue with
  | None -> false
  | Some (key, f) ->
      t.queue <- Pq.remove key t.queue;
      t.pending <- t.pending - 1;
      t.clock <- key.Key.time;
      Obs.Metrics.incr t.fired;
      f ();
      true

let run ?(max_events = max_int) t ~until =
  let fired = ref 0 in
  let continue = ref true in
  while !continue && !fired < max_events do
    match Pq.min_binding_opt t.queue with
    | None -> continue := false
    | Some (key, _) ->
        if key.Key.time > until then continue := false
        else if step t then incr fired
        else continue := false
  done

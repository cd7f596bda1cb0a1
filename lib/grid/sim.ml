(* The queue is an array binary heap ordered by (time, seq): the times
   unboxed in a float array, beside the seqs and the slots of the event
   records, so a schedule or a pop allocates nothing once the arrays have
   grown, and a sift moves only floats and ints.  [slots] is always a
   permutation of the slots: heap entry [i < size] holds the record in
   [events.(slots.(i))], and [slots.(size ..)] are the free slots.

   An event's id is its record: cancelling drops the closure (and
   everything it keeps reachable) at once and marks the record dead; a
   dead record stays in the heap until it surfaces, or until dead records
   outnumber live ones and the heap is rebuilt without them. *)
type event = { mutable fire : unit -> unit; mutable queued : bool }

type event_id = event

type t = {
  mutable clock : float;
  mutable times : Float.Array.t;
  mutable seqs : int array;
  mutable slots : int array;
  mutable size : int;  (* heap entries, dead records included *)
  mutable events : event array;
  mutable pending : int;  (* the queued records *)
  mutable next_seq : int;
  fired : Obs.Metrics.counter;  (* the [sim.events] series *)
  obs_on : bool;
  g_pending : Obs.Metrics.gauge;
}

let vacant = { fire = ignore; queued = false }

(* Storage starts at this many entries and doubles when full.  A heap of
   more entries than this is rebuilt once its dead records outnumber the
   live ones, so it never holds more than twice the pending events plus
   one, and storage stays O(the most events ever pending). *)
let min_capacity = 16

let create ?(obs = Obs.disabled) () =
  {
    clock = 0.;
    times = Float.Array.make min_capacity 0.;
    seqs = Array.make min_capacity 0;
    slots = Array.init min_capacity Fun.id;
    size = 0;
    events = Array.make min_capacity vacant;
    pending = 0;
    next_seq = 0;
    fired = Obs.Metrics.counter (Obs.metrics obs) "sim.events";
    obs_on = Obs.enabled obs;
    g_pending = Obs.Metrics.gauge (Obs.metrics obs) "sim.pending.max";
  }

let now t = t.clock

(* Entry [i] fires before entry [j]: [Float.compare] on the times, which
   the plain comparisons agree with unless a time is NaN, then the seq. *)
let[@inline] before t i j =
  let a = Float.Array.unsafe_get t.times i and b = Float.Array.unsafe_get t.times j in
  if a < b then true
  else if a > b then false
  else if a = b then Array.unsafe_get t.seqs i < Array.unsafe_get t.seqs j
  else
    let c = Float.compare a b in
    c < 0 || (c = 0 && Array.unsafe_get t.seqs i < Array.unsafe_get t.seqs j)

let[@inline] swap t i j =
  let time = Float.Array.unsafe_get t.times i
  and seq = Array.unsafe_get t.seqs i
  and slot = Array.unsafe_get t.slots i in
  Float.Array.unsafe_set t.times i (Float.Array.unsafe_get t.times j);
  Array.unsafe_set t.seqs i (Array.unsafe_get t.seqs j);
  Array.unsafe_set t.slots i (Array.unsafe_get t.slots j);
  Float.Array.unsafe_set t.times j time;
  Array.unsafe_set t.seqs j seq;
  Array.unsafe_set t.slots j slot

let rec sift_up t i =
  if i > 0 then
    let parent = (i - 1) / 2 in
    if before t i parent then begin
      swap t i parent;
      sift_up t parent
    end

(* Twice the storage, its new slots free. *)
let grow t =
  let n = Array.length t.events in
  let times = Float.Array.make (2 * n) 0. in
  Float.Array.blit t.times 0 times 0 n;
  t.times <- times;
  t.seqs <- Array.append t.seqs (Array.make n 0);
  t.slots <- Array.append t.slots (Array.init n (fun k -> n + k));
  t.events <- Array.append t.events (Array.make n vacant)

(* Move the live entries to the front, in order, each sifted up as it
   lands, and the dead ones' slots behind them, freed. *)
let rebuild t =
  let live = ref 0 in
  for i = 0 to t.size - 1 do
    let slot = t.slots.(i) in
    if t.events.(slot).queued then begin
      swap t i !live;
      sift_up t !live;
      incr live
    end
    else t.events.(slot) <- vacant
  done;
  t.size <- !live

let schedule_at t ~time fire =
  let time = Float.max time t.clock in
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  if t.size = Array.length t.events then grow t;
  let i = t.size and ev = { fire; queued = true } in
  Array.unsafe_set t.events (Array.unsafe_get t.slots i) ev;
  Float.Array.unsafe_set t.times i time;
  Array.unsafe_set t.seqs i seq;
  t.size <- i + 1;
  sift_up t i;
  t.pending <- t.pending + 1;
  if t.obs_on then Obs.Metrics.gauge_max t.g_pending (float_of_int t.pending);
  ev

let schedule t ~delay f = schedule_at t ~time:(t.clock +. Float.max 0. delay) f

(* A record that already fired, or was already cancelled, is no longer
   queued, so a late or repeated cancel is a no-op and counts nothing. *)
let cancel t ev =
  if ev.queued then begin
    ev.queued <- false;
    ev.fire <- ignore;
    t.pending <- t.pending - 1;
    if t.size - t.pending > t.pending && t.size > min_capacity then rebuild t
  end

let pending t = t.pending

let events_fired t = Obs.Metrics.counter_value t.fired

(* Remove the root entry, freeing its slot, and return its record.  The
   root sinks to a leaf along the earlier children, one comparison a
   level, and trades places with the last entry, which rises from there:
   it came from the bottom, so it seldom rises far. *)
let pop t =
  let ev = Array.unsafe_get t.events (Array.unsafe_get t.slots 0) in
  Array.unsafe_set t.events (Array.unsafe_get t.slots 0) vacant;
  let last = t.size - 1 in
  t.size <- last;
  let hole = ref 0 and l = ref 1 in
  while !l < last do
    let c = if !l + 1 < last && before t (!l + 1) !l then !l + 1 else !l in
    swap t !hole c;
    hole := c;
    l := (2 * c) + 1
  done;
  swap t !hole last;
  sift_up t !hole;
  ev

(* Pop dead records off the root until it is live or the heap empty. *)
let rec settle t =
  if t.size > 0 && not t.events.(t.slots.(0)).queued then begin
    ignore (pop t);
    settle t
  end

let step t =
  settle t;
  if t.size = 0 then false
  else begin
    t.clock <- Float.Array.unsafe_get t.times 0;
    let ev = pop t in
    let f = ev.fire in
    ev.fire <- ignore;
    ev.queued <- false;
    t.pending <- t.pending - 1;
    Obs.Metrics.incr t.fired;
    f ();
    true
  end

let run ?(max_events = max_int) t ~until =
  let fired = ref 0 in
  let continue = ref true in
  while !continue && !fired < max_events do
    settle t;
    if t.size = 0 || Float.Array.unsafe_get t.times 0 > until then continue := false
    else if step t then incr fired
    else continue := false
  done

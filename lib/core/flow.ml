(* Watermark-bounded queues and windowed byte budgets: the primitives of
   the resource-exhaustion layer.  Both are deterministic — shed decisions
   depend only on queue content, configured watermarks and virtual time,
   never on wall clock or unseeded randomness — so a bounded run replays
   byte-identically under the same seed. *)

(* ---------- watermark queue ---------- *)

type 'a queue = {
  low : int;
  high : int;
  value : 'a -> int;
  (* oldest first; the int is an admission sequence number used as the
     deterministic tie-break of the shed policy *)
  mutable items : (int * 'a) list;
  mutable seq : int;
  mutable depth : int;
  mutable peak : int;
  mutable shed : int;
  mutable pressured : bool;
}

let queue ?low ~high ~value () =
  if high < 1 then invalid_arg "Flow.queue: high watermark must be >= 1";
  let low = match low with Some l -> l | None -> high / 2 in
  if low < 0 || low > high then
    invalid_arg "Flow.queue: low watermark must lie in [0, high]";
  {
    low;
    high;
    value;
    items = [];
    seq = 0;
    depth = 0;
    peak = 0;
    shed = 0;
    pressured = false;
  }

let depth t = t.depth

let peak t = t.peak

let shed_count t = t.shed

let under_pressure t = t.pressured

let update_pressure t =
  if t.depth >= t.high then t.pressured <- true
  else if t.depth <= t.low then t.pressured <- false

(* Shed the lowest-value item; among equal values the oldest goes first
   (stale data-plane traffic is the least useful).  Only a queue past its
   high watermark sheds, so it is never empty here. *)
let shed_one t =
  match t.items with
  | [] -> assert false
  | first :: rest ->
      let vseq, x =
        List.fold_left
          (fun ((_, best) as acc) ((_, x) as it) -> if t.value x < t.value best then it else acc)
          first rest
      in
      t.items <- List.filter (fun (s, _) -> s <> vseq) t.items;
      t.depth <- t.depth - 1;
      t.shed <- t.shed + 1;
      x

let rec enforce t acc = if t.depth > t.high then enforce t (shed_one t :: acc) else List.rev acc

let push t x =
  let seq = t.seq in
  t.seq <- seq + 1;
  t.items <- t.items @ [ (seq, x) ];
  t.depth <- t.depth + 1;
  if t.depth > t.peak then t.peak <- t.depth;
  let out = enforce t [] in
  update_pressure t;
  out

let pop t =
  match t.items with
  | [] -> None
  | (_, x) :: rest ->
      t.items <- rest;
      t.depth <- t.depth - 1;
      update_pressure t;
      Some x

let drain t =
  let out = List.map snd t.items in
  t.items <- [];
  t.depth <- 0;
  update_pressure t;
  out


(* ---------- windowed byte budget ---------- *)

(* Per-key (per-link) byte budget per virtual-time window.  Window index
   is [floor (now / window)], so two runs observing the same virtual
   instants charge identically. *)

type budget = {
  bytes_per_window : int;
  window : float;
  (* key -> (window index, bytes charged in that window) *)
  charges : (int, int * int) Hashtbl.t;
  mutable charged_total : int;
  mutable shed_bytes : int;
  mutable shed_items : int;
  mutable window_peak : int;
}

let budget ~bytes_per_window ~window =
  if bytes_per_window < 1 then invalid_arg "Flow.budget: bytes_per_window must be >= 1";
  if window <= 0. then invalid_arg "Flow.budget: window must be positive";
  {
    bytes_per_window;
    window;
    charges = Hashtbl.create 16;
    charged_total = 0;
    shed_bytes = 0;
    shed_items = 0;
    window_peak = 0;
  }

let window_index t now = int_of_float (floor (now /. t.window))

let used t ~key ~now =
  let w = window_index t now in
  match Hashtbl.find_opt t.charges key with
  | Some (w', used) when w' = w -> used
  | _ -> 0

let remaining t ~key ~now = max 0 (t.bytes_per_window - used t ~key ~now)

let admit t ~key ~now ~bytes =
  let w = window_index t now in
  let u = used t ~key ~now in
  if u + bytes <= t.bytes_per_window then begin
    let u' = u + bytes in
    Hashtbl.replace t.charges key (w, u');
    t.charged_total <- t.charged_total + bytes;
    if u' > t.window_peak then t.window_peak <- u';
    true
  end
  else begin
    t.shed_bytes <- t.shed_bytes + bytes;
    t.shed_items <- t.shed_items + 1;
    false
  end

let charged_total t = t.charged_total

let budget_shed_bytes t = t.shed_bytes

let budget_shed_items t = t.shed_items

let window_peak t = t.window_peak

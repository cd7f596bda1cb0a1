type counter = { mutable c : int }

type gauge = { mutable g : float }

type histogram = {
  buckets : int array;  (** 4 sub-buckets per octave, exponents clamped to [-40,39] *)
  mutable count : int;
  mutable sum : float;
  mutable lo : float;
  mutable hi : float;
}

(* Every cell and view registered under one counter key: the key's value
   is their sum, taken at export. *)
type sum = { mutable cells : counter list; mutable views : (unit -> int) list }

type instrument =
  | C of counter  (* a counter key's only cell, the common case *)
  | V of (unit -> int)  (* a counter key's only view *)
  | S of sum  (* a counter key's cells and views, once it has two *)
  | G of gauge
  | H of histogram

type t = {
  enabled : bool;
  table : (string, instrument) Hashtbl.t;
  scope_labels : (string * string) list;
      (** appended to the labels of every instrument created through this
          handle; scoped handles share [table] with their parent *)
}

let create ~enabled =
  { enabled; table = Hashtbl.create (if enabled then 64 else 1); scope_labels = [] }

let disabled = create ~enabled:false

let is_enabled t = t.enabled

let scope t ~labels =
  if not t.enabled then t else { t with scope_labels = t.scope_labels @ labels }

(* Dummy instruments handed out by a disabled registry: recording into
   them is harmless and they are never exported. *)
let dummy_gauge = { g = 0.0 }

let dummy_histogram = { buckets = [| 0 |]; count = 0; sum = 0.0; lo = 0.0; hi = 0.0 }

let canonical_labels labels =
  match labels with
  | [] -> ""
  | labels ->
      List.sort compare labels
      |> List.map (fun (k, v) -> k ^ "=" ^ v)
      |> String.concat ","

let key t name labels =
  match canonical_labels (t.scope_labels @ labels) with
  | "" -> name
  | l -> name ^ "{" ^ l ^ "}"

let sub_octaves = 4

let min_exp = -40 (* smallest tracked value ~ 2^-41 *)

let num_exp = 80

let num_buckets = num_exp * sub_octaves

(* gamma = 2^(1/4); boundaries of the sub-buckets inside one octave of
   the mantissa range [0.5, 1). *)
let gamma = Float.exp (Float.log 2.0 /. float_of_int sub_octaves)

let sub_bound_1 = 0.5 *. gamma

let sub_bound_2 = 0.5 *. gamma *. gamma

let sub_bound_3 = 0.5 *. gamma *. gamma *. gamma

let bucket_index v =
  let m, e = Float.frexp v in
  let e = if e < min_exp then min_exp else if e >= min_exp + num_exp then min_exp + num_exp - 1 else e in
  let sub =
    if m < sub_bound_1 then 0 else if m < sub_bound_2 then 1 else if m < sub_bound_3 then 2 else 3
  in
  ((e - min_exp) * sub_octaves) + sub

(* Geometric midpoint of bucket [i]'s value range. *)
let bucket_mid i =
  let e = (i / sub_octaves) + min_exp in
  let sub = i mod sub_octaves in
  let lo = Float.ldexp (0.5 *. (gamma ** float_of_int sub)) e in
  lo *. Float.sqrt gamma

(* Register a cell or a view under a counter key: a key's first one is
   held as it is, and a second turns the key into a sum. *)
let register t name labels ~cells ~views =
  let k = key t name labels in
  match (Hashtbl.find_opt t.table k, cells, views) with
  | None, [ c ], [] -> Hashtbl.add t.table k (C c)
  | None, [], [ f ] -> Hashtbl.add t.table k (V f)
  | None, _, _ -> Hashtbl.add t.table k (S { cells; views })
  | Some (C c0), _, _ -> Hashtbl.replace t.table k (S { cells = cells @ [ c0 ]; views })
  | Some (V f0), _, _ -> Hashtbl.replace t.table k (S { cells; views = views @ [ f0 ] })
  | Some (S s), _, _ ->
      s.cells <- cells @ s.cells;
      s.views <- views @ s.views
  | Some _, _, _ -> invalid_arg (Printf.sprintf "Obs.Metrics: %s is not a counter" k)

let counter t ?(labels = []) name =
  let c = { c = 0 } in
  if t.enabled then register t name labels ~cells:[ c ] ~views:[];
  c

let view t ?(labels = []) name f = if t.enabled then register t name labels ~cells:[] ~views:[ f ]

(* A counter key's value: the sum of its cells and views, read now. *)
let count = function
  | C c -> c.c
  | V f -> f ()
  | S s -> List.fold_left (fun a f -> a + f ()) (List.fold_left (fun a c -> a + c.c) 0 s.cells) s.views
  | G _ | H _ -> 0

let gauge t ?(labels = []) name =
  if not t.enabled then dummy_gauge
  else
    let k = key t name labels in
    match Hashtbl.find_opt t.table k with
    | Some (G g) -> g
    | Some _ -> invalid_arg (Printf.sprintf "Obs.Metrics: %s is not a gauge" k)
    | None ->
        let g = { g = 0.0 } in
        Hashtbl.add t.table k (G g);
        g

let histogram t ?(labels = []) name =
  if not t.enabled then dummy_histogram
  else
    let k = key t name labels in
    match Hashtbl.find_opt t.table k with
    | Some (H h) -> h
    | Some _ -> invalid_arg (Printf.sprintf "Obs.Metrics: %s is not a histogram" k)
    | None ->
        let h =
          { buckets = Array.make num_buckets 0; count = 0; sum = 0.0; lo = infinity; hi = neg_infinity }
        in
        Hashtbl.add t.table k (H h);
        h

let incr c = c.c <- c.c + 1

let add c n = c.c <- c.c + n

let counter_value c = c.c

let set g v = g.g <- v

let gauge_max g v = if v > g.g then g.g <- v

let gauge_value g = g.g

let observe h v =
  h.count <- h.count + 1;
  if Float.is_finite v && v > 0.0 then begin
    h.sum <- h.sum +. v;
    if v < h.lo then h.lo <- v;
    if v > h.hi then h.hi <- v;
    let i = bucket_index v in
    if Array.length h.buckets > i then h.buckets.(i) <- h.buckets.(i) + 1
  end
  else if v = 0.0 then begin
    (* zeros land in the lowest bucket so they still count for quantiles *)
    if 0.0 < h.lo then h.lo <- 0.0;
    if 0.0 > h.hi then h.hi <- 0.0;
    if Array.length h.buckets > 0 then h.buckets.(0) <- h.buckets.(0) + 1
  end

let hist_count h = h.count

let hist_sum h = h.sum

let bucketed_total h = Array.fold_left ( + ) 0 h.buckets

let quantile h q =
  let total = bucketed_total h in
  if total = 0 then 0.0
  else begin
    let q = Float.max 0.0 (Float.min 1.0 q) in
    let target = int_of_float (Float.round (q *. float_of_int total)) in
    let target = if target < 1 then 1 else target in
    let acc = ref 0 and result = ref h.hi in
    (try
       for i = 0 to Array.length h.buckets - 1 do
         acc := !acc + h.buckets.(i);
         if !acc >= target then begin
           result := bucket_mid i;
           raise Exit
         end
       done
     with Exit -> ());
    (* clamp the midpoint estimate into the observed range *)
    let r = !result in
    if h.lo <= h.hi then Float.max h.lo (Float.min h.hi r) else r
  end

type export =
  | Counter of int
  | Gauge of float
  | Histogram of {
      count : int;
      sum : float;
      lo : float;
      hi : float;
      p50 : float;
      p90 : float;
      p99 : float;
    }

let export_of_instrument = function
  | (C _ | V _ | S _) as i -> Counter (count i)
  | G g -> Gauge g.g
  | H h ->
      let empty = bucketed_total h = 0 in
      Histogram
        {
          count = h.count;
          sum = h.sum;
          lo = (if empty then 0.0 else h.lo);
          hi = (if empty then 0.0 else h.hi);
          p50 = quantile h 0.50;
          p90 = quantile h 0.90;
          p99 = quantile h 0.99;
        }

let json_of_export = function
  | Counter n -> Json.Obj [ ("type", Json.String "counter"); ("value", Json.Int n) ]
  | Gauge g -> Json.Obj [ ("type", Json.String "gauge"); ("value", Json.Float g) ]
  | Histogram h ->
      Json.Obj
        [
          ("type", Json.String "histogram");
          ("count", Json.Int h.count);
          ("sum", Json.Float h.sum);
          ("min", Json.Float h.lo);
          ("max", Json.Float h.hi);
          ("p50", Json.Float h.p50);
          ("p90", Json.Float h.p90);
          ("p99", Json.Float h.p99);
        ]

let sorted_entries t =
  let entries = Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.table [] in
  List.sort (fun (a, _) (b, _) -> String.compare a b) entries

(* ---------- merged (label-stripped) service-level view ---------- *)

let base_name k = match String.index_opt k '{' with None -> k | Some i -> String.sub k 0 i

let copy_histogram h =
  { buckets = Array.copy h.buckets; count = h.count; sum = h.sum; lo = h.lo; hi = h.hi }

let merge_histogram_into dst src =
  Array.iteri
    (fun i n -> if i < Array.length dst.buckets then dst.buckets.(i) <- dst.buckets.(i) + n)
    src.buckets;
  dst.count <- dst.count + src.count;
  dst.sum <- dst.sum +. src.sum;
  if src.lo < dst.lo then dst.lo <- src.lo;
  if src.hi > dst.hi then dst.hi <- src.hi

(* Merge instruments sharing a base name (labels stripped): counters sum,
   gauges keep the max, histograms add bucket-wise.  A type clash across
   labels keeps the first (lexicographically smallest) instrument. *)
let merged_entries t =
  let tbl : (string, instrument) Hashtbl.t = Hashtbl.create 64 in
  let names = ref [] in
  List.iter
    (fun (k, v) ->
      let b = base_name k in
      match (Hashtbl.find_opt tbl b, v) with
      | None, (C _ | V _ | S _) ->
          Hashtbl.add tbl b (C { c = count v });
          names := b :: !names
      | None, G g ->
          Hashtbl.add tbl b (G { g = g.g });
          names := b :: !names
      | None, H h ->
          Hashtbl.add tbl b (H (copy_histogram h));
          names := b :: !names
      | Some (C dst), (C _ | V _ | S _) -> dst.c <- dst.c + count v
      | Some (G dst), G src -> if src.g > dst.g then dst.g <- src.g
      | Some (H dst), H src -> merge_histogram_into dst src
      | Some _, _ -> ())
    (sorted_entries t);
  List.sort (fun a b -> String.compare a b) !names
  |> List.map (fun b -> (b, Hashtbl.find tbl b))

(* ---------- flat export (feeds the JSON report and the Prometheus exposition) ---------- *)

let export_all t = List.map (fun (k, v) -> (k, export_of_instrument v)) (sorted_entries t)

let export_merged t =
  List.map (fun (k, v) -> (k, export_of_instrument v)) (merged_entries t)

let to_json t = Json.Obj (List.map (fun (k, e) -> (k, json_of_export e)) (export_all t))

let merged_json t = Json.Obj (List.map (fun (k, e) -> (k, json_of_export e)) (export_merged t))

type event = {
  seq : int;
  at : float;
  sub : string;
  name : string;
  args : (string * Json.t) list;
}

type ring = { buf : event option array; mutable next : int }

type t = {
  enabled : bool;
  capacity : int;
  mutable clock : unit -> float;
  mutable seq : int;
  mutable recorded : int;
  mutable evicted : int;
  rings : (string, ring) Hashtbl.t;
}

let create ?(capacity = 256) () =
  {
    enabled = true;
    capacity = (if capacity < 1 then 1 else capacity);
    clock = Clock.now;
    seq = 0;
    recorded = 0;
    evicted = 0;
    rings = Hashtbl.create 8;
  }

let disabled =
  {
    enabled = false;
    capacity = 1;
    clock = (fun () -> 0.0);
    seq = 0;
    recorded = 0;
    evicted = 0;
    rings = Hashtbl.create 1;
  }

let is_enabled t = t.enabled

let set_clock t clock = if t.enabled then t.clock <- clock

let ring t sub =
  match Hashtbl.find_opt t.rings sub with
  | Some r -> r
  | None ->
      let r = { buf = Array.make t.capacity None; next = 0 } in
      Hashtbl.add t.rings sub r;
      r

let note t ~sub ?(args = []) name =
  if t.enabled then begin
    let r = ring t sub in
    let slot = r.next mod t.capacity in
    if r.buf.(slot) <> None then t.evicted <- t.evicted + 1;
    r.buf.(slot) <- Some { seq = t.seq; at = t.clock (); sub; name; args };
    r.next <- r.next + 1;
    t.seq <- t.seq + 1;
    t.recorded <- t.recorded + 1
  end

let recorded t = t.recorded

let evicted t = t.evicted

(* All surviving events across the rings, in global [seq] order.  The
   run is single-threaded on virtual time, so the sequence number is a
   causal total order: an event with a smaller seq happened before. *)
let events t =
  let acc = ref [] in
  Hashtbl.iter
    (fun _ r -> Array.iter (function Some e -> acc := e :: !acc | None -> ()) r.buf)
    t.rings;
  List.sort (fun (a : event) (b : event) -> compare a.seq b.seq) !acc

let json_of_event (e : event) =
  Json.Obj
    ([
       ("seq", Json.Int e.seq);
       ("t", Json.Float e.at);
       ("sub", Json.String e.sub);
       ("name", Json.String e.name);
     ]
    @ match e.args with [] -> [] | args -> [ ("args", Json.Obj args) ])

let dump t ~at ~trigger ?(detail = "") () =
  let evs = events t in
  let from_t = match evs with [] -> at | e :: _ -> e.at in
  Json.Obj
    [
      ("schema", Json.String "gridsat-flight/1");
      ("trigger", Json.String trigger);
      ("detail", Json.String detail);
      ("at", Json.Float at);
      ("window", Json.Obj [ ("from", Json.Float from_t); ("to", Json.Float at) ]);
      ("recorded", Json.Int t.recorded);
      ("evicted", Json.Int t.evicted);
      ("events", Json.List (List.map json_of_event evs));
    ]

let file_name ~at ~trigger =
  let safe =
    String.map
      (fun c ->
        match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' -> c | _ -> '-')
      trigger
  in
  Printf.sprintf "FLIGHT-%012.3f-%s.json" at safe

type id = int

type kind = Complete | Instant

type span = {
  sid : id;
  parent : id;
  name : string;
  cat : string;
  tid : int;
  start : float;
  mutable stop : float;
  mutable closed : bool;
  mutable args : (string * Json.t) list;
  kind : kind;
}

type t = {
  enabled : bool;
  mutable clock : unit -> float;
  mutable next_id : int;
  mutable recorded : span list;  (** newest first *)
  mutable count : int;
  mutable dropped : int;
  by_id : (id, span) Hashtbl.t;
}

let none = 0

let run_tid = 0

let master_tid = 1000

let capacity = 200_000

let create ~enabled =
  {
    enabled;
    clock = Clock.now;
    next_id = 1;
    recorded = [];
    count = 0;
    dropped = 0;
    by_id = Hashtbl.create (if enabled then 256 else 1);
  }

let disabled = create ~enabled:false

let is_enabled t = t.enabled

let set_clock t clock = t.clock <- clock

let now t = t.clock ()

let record t ~kind ?(parent = none) ?(args = []) ?(tid = run_tid) ~cat name =
  if not t.enabled then none
  else if t.count >= capacity then begin
    t.dropped <- t.dropped + 1;
    none
  end
  else begin
    let sid = t.next_id in
    t.next_id <- sid + 1;
    let start = t.clock () in
    let s = { sid; parent; name; cat; tid; start; stop = start; closed = kind = Instant; args; kind } in
    t.recorded <- s :: t.recorded;
    t.count <- t.count + 1;
    Hashtbl.replace t.by_id sid s;
    sid
  end

let enter t ?parent ?args ?tid ~cat name = record t ~kind:Complete ?parent ?args ?tid ~cat name

let instant t ?parent ?args ?tid ~cat name = record t ~kind:Instant ?parent ?args ?tid ~cat name

let exit t ?(args = []) sid =
  if t.enabled && sid <> none then
    match Hashtbl.find_opt t.by_id sid with
    | Some s when s.kind = Complete && not s.closed ->
        s.stop <- Float.max s.start (t.clock ());
        s.closed <- true;
        if args <> [] then s.args <- s.args @ args
    | _ -> ()

let spans t = List.rev t.recorded

let count t = t.count

let dropped t = t.dropped

module Integrity = Gridsat_core.Integrity

type entry =
  | Submitted of {
      id : int;
      tenant : string;
      priority : string;
      digest : string;
      deadline : float option;
    }
  | Admitted of { id : int }
  | Shed of { id : int; retry_after : float }
  | Cache_hit of { id : int; answer : string }
  | Started of { id : int; hosts : int list }
  | Requeued of { id : int; reason : string }
  | Finished of { id : int; terminal : string }

type jstate = Queued | Running | Done of string

type state = {
  jobs : (int, jstate) Hashtbl.t;
  mutable submitted : int;
  mutable admitted : int;
  mutable shed : int;
  mutable cache_hits : int;
  mutable requeues : int;
}

(* Full-fidelity rendering: the at-rest seal covers every field. *)
let emit_entry sink e =
  let int = Integrity.put_int sink and str = Integrity.put_string sink in
  let record name id =
    str name;
    str " ";
    int id;
    str " "
  in
  let seconds x = str (Printf.sprintf "%.3f" x) in
  match e with
  | Submitted { id; tenant; priority; digest; deadline } ->
      record "submitted" id;
      List.iter
        (fun w ->
          str w;
          str " ")
        [ tenant; priority; digest ];
      (match deadline with None -> str "-" | Some d -> seconds d)
  | Admitted { id } ->
      str "admitted ";
      int id
  | Shed { id; retry_after } ->
      record "shed" id;
      seconds retry_after
  | Cache_hit { id; answer } ->
      record "cache-hit" id;
      str answer
  | Started { id; hosts } ->
      record "started" id;
      str "[";
      List.iteri
        (fun k h ->
          if k > 0 then str " ";
          int h)
        hosts;
      str "]"
  | Requeued { id; reason } ->
      record "requeued" id;
      str reason
  | Finished { id; terminal } ->
      record "finished" id;
      str terminal

let pp_entry ppf e = Format.pp_print_string ppf (Integrity.render emit_entry e)

(* Deterministic per-record byte estimate (the joblog models an
   append-only file; same records, same cost, so quota crossings replay
   at the same points). *)
let entry_bytes = function
  | Submitted { tenant; priority; digest; _ } ->
      24 + String.length tenant + String.length priority + String.length digest
  | Admitted _ -> 16
  | Shed _ -> 24
  | Cache_hit { answer; _ } -> 16 + String.length answer
  | Started { hosts; _ } -> 16 + (8 * List.length hosts)
  | Requeued { reason; _ } -> 16 + String.length reason
  | Finished { terminal; _ } -> 16 + String.length terminal

type t = {
  mutable records : (entry * int) list;  (* newest first, sealed *)
  mutable appended : int;
  mutable records_dropped : int;
  mutable quota : int;  (* bytes; 0 = unlimited *)
  mutable bytes : int;
  mutable bytes_peak : int;
  mutable degraded : bool;
  mutable degraded_entries : int;
  obs_on : bool;
  flight : Obs.Flight.t;
  flight_on : bool;
  c_appends : Obs.Metrics.counter;
  c_dropped : Obs.Metrics.counter;
  c_degraded : Obs.Metrics.counter;
  g_bytes : Obs.Metrics.gauge;
}

let create ?(obs = Obs.disabled) ?(quota = 0) () =
  let m = Obs.metrics obs in
  {
    records = [];
    appended = 0;
    records_dropped = 0;
    quota = max 0 quota;
    bytes = 0;
    bytes_peak = 0;
    degraded = false;
    degraded_entries = 0;
    obs_on = Obs.enabled obs;
    flight = Obs.flight obs;
    flight_on = Obs.Flight.is_enabled (Obs.flight obs);
    c_appends = Obs.Metrics.counter m "service.joblog.appends";
    c_dropped = Obs.Metrics.counter m "service.joblog.records.dropped";
    c_degraded = Obs.Metrics.counter m "service.joblog.degraded_entries";
    g_bytes = Obs.Metrics.gauge m "service.joblog.bytes";
  }

let seal e = Integrity.crc32_of (Integrity.hash emit_entry e)

(* Compact structured view for the flight recorder. *)
let flight_view e : string * (string * Obs.Json.t) list =
  let i n v = (n, Obs.Json.Int v) in
  let s n v = (n, Obs.Json.String v) in
  match e with
  | Submitted { id; tenant; priority; _ } ->
      ("job_submitted", [ i "job" id; s "tenant" tenant; s "priority" priority ])
  | Admitted { id } -> ("job_admitted", [ i "job" id ])
  | Shed { id; retry_after } -> ("job_shed", [ i "job" id; ("retry_after", Obs.Json.Float retry_after) ])
  | Cache_hit { id; answer } -> ("job_cache_hit", [ i "job" id; s "answer" answer ])
  | Started { id; hosts } -> ("job_started", [ i "job" id; i "hosts" (List.length hosts) ])
  | Requeued { id; reason } -> ("job_requeued", [ i "job" id; s "reason" reason ])
  | Finished { id; terminal } -> ("job_finished", [ i "job" id; s "terminal" terminal ])

(* The joblog is append-only (there is no snapshot to compact into), so
   the quota defense is purely the explicit degraded mode: records keep
   landing — losing lifecycle records would be worse than overrunning an
   advisory quota — but each over-quota append is counted, and the
   service alarms on the transition. *)
let update_quota t =
  t.degraded <- t.quota > 0 && t.bytes > t.quota;
  if t.bytes > t.bytes_peak then t.bytes_peak <- t.bytes;
  if t.obs_on then Obs.Metrics.set t.g_bytes (float_of_int t.bytes)

let append t e =
  t.records <- (e, seal e) :: t.records;
  t.appended <- t.appended + 1;
  t.bytes <- t.bytes + entry_bytes e;
  update_quota t;
  if t.degraded then begin
    t.degraded_entries <- t.degraded_entries + 1;
    if t.obs_on then Obs.Metrics.incr t.c_degraded
  end;
  (if t.flight_on then
     let name, args = flight_view e in
     Obs.Flight.note t.flight ~sub:"service" ~args name);
  if t.obs_on then Obs.Metrics.incr t.c_appends

let scrub t =
  let ok, bad = List.partition (fun (e, d) -> seal e = d) t.records in
  if bad <> [] then begin
    t.records <- ok;
    t.records_dropped <- t.records_dropped + List.length bad;
    t.bytes <- List.fold_left (fun a (e, _) -> a + entry_bytes e) 0 ok;
    update_quota t;
    if t.obs_on then List.iter (fun _ -> Obs.Metrics.incr t.c_dropped) bad
  end

let set_quota t ~quota =
  t.quota <- max 0 quota;
  update_quota t

let quota t = t.quota

let bytes t = t.bytes

let bytes_peak t = t.bytes_peak

let degraded t = t.degraded

let degraded_entries t = t.degraded_entries

let empty_state () =
  { jobs = Hashtbl.create 32; submitted = 0; admitted = 0; shed = 0; cache_hits = 0; requeues = 0 }

let apply st = function
  | Submitted { id; _ } ->
      st.submitted <- st.submitted + 1;
      Hashtbl.replace st.jobs id Queued
  | Admitted { id } ->
      st.admitted <- st.admitted + 1;
      Hashtbl.replace st.jobs id Queued
  | Shed { id; _ } ->
      st.shed <- st.shed + 1;
      Hashtbl.replace st.jobs id (Done "shed")
  | Cache_hit { id; answer } ->
      st.cache_hits <- st.cache_hits + 1;
      Hashtbl.replace st.jobs id (Done ("cached:" ^ answer))
  | Started { id; _ } -> Hashtbl.replace st.jobs id Running
  | Requeued { id; _ } ->
      st.requeues <- st.requeues + 1;
      Hashtbl.replace st.jobs id Queued
  | Finished { id; terminal } -> Hashtbl.replace st.jobs id (Done terminal)

let replay t =
  scrub t;
  let st = empty_state () in
  List.iter (fun (e, _) -> apply st e) (List.rev t.records);
  st

let corrupt_tail t ~n =
  let rec rot k = function
    | (e, d) :: rest when k > 0 -> (e, Integrity.corrupted d) :: rot (k - 1) rest
    | rest -> rest
  in
  t.records <- rot n t.records

let entries t = List.rev_map fst t.records

let appended t = t.appended

let records_dropped t = t.records_dropped

let digest st =
  let ids = Hashtbl.fold (fun id _ acc -> id :: acc) st.jobs [] |> List.sort compare in
  let buf = Buffer.create 128 in
  Buffer.add_string buf
    (Printf.sprintf "sub=%d adm=%d shed=%d hit=%d req=%d;" st.submitted st.admitted st.shed
       st.cache_hits st.requeues);
  List.iter
    (fun id ->
      let s =
        match Hashtbl.find st.jobs id with
        | Queued -> "queued"
        | Running -> "running"
        | Done term -> term
      in
      Buffer.add_string buf (Printf.sprintf "%d=%s;" id s))
    ids;
  let s = Buffer.contents buf in
  Printf.sprintf "%x-%x" (Integrity.fnv1a s) (Integrity.crc32 s)

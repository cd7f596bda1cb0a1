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
  mutable verdicts : int;
  mutable deadline_expired : int;
  mutable cancelled : int;
}

module Record = struct
  type nonrec entry = entry

  type nonrec state = state

  let seconds = Printf.sprintf "%.3f"

  (* Full-fidelity rendering: the at-rest seal covers every field; the
     separators are text only. *)
  let emit sink e =
    let int = Integrity.put_int sink
    and str = Integrity.put_string sink
    and text = Integrity.put_text sink in
    let record name id =
      str name;
      text " ";
      int id;
      text " "
    in
    match e with
    | Submitted { id; tenant; priority; digest; deadline } -> (
        record "submitted" id;
        List.iter
          (fun w ->
            str w;
            text " ")
          [ tenant; priority; digest ];
        match deadline with None -> text "-" | Some d -> Integrity.put_float sink ~text:seconds d)
    | Admitted { id } ->
        str "admitted ";
        int id
    | Shed { id; retry_after } ->
        record "shed" id;
        Integrity.put_float sink ~text:seconds retry_after
    | Cache_hit { id; answer } ->
        record "cache-hit" id;
        str answer
    | Started { id; hosts } ->
        record "started" id;
        text "[";
        Integrity.put_length sink (List.length hosts);
        List.iteri
          (fun k h ->
            if k > 0 then text " ";
            int h)
          hosts;
        text "]"
    | Requeued { id; reason } ->
        record "requeued" id;
        str reason
    | Finished { id; terminal } ->
        record "finished" id;
        str terminal

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

  let empty () =
    { jobs = Hashtbl.create 32; submitted = 0; admitted = 0; shed = 0; cache_hits = 0;
      requeues = 0; verdicts = 0; deadline_expired = 0; cancelled = 0 }

  (* Shed and cache-hit terminals have records of their own, so a
     [Finished] one is a verdict, a deadline expiry or a cancellation. *)
  let tally_finished st terminal =
    if terminal = "deadline" then st.deadline_expired <- st.deadline_expired + 1
    else if String.starts_with ~prefix:"cancelled:" terminal then st.cancelled <- st.cancelled + 1
    else if String.starts_with ~prefix:"verdict:" terminal then st.verdicts <- st.verdicts + 1

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
    | Finished { id; terminal } ->
        tally_finished st terminal;
        Hashtbl.replace st.jobs id (Done terminal)

  let copy st = { st with jobs = Hashtbl.copy st.jobs }

  (* The joblog keeps no snapshot: every byte it occupies is in its
     records, so the empty state costs nothing. *)
  let state_bytes _ = 0
end

include Gridsat_core.Sealed_log.Make (Record)

let pp_entry ppf e = Format.pp_print_string ppf (Integrity.render Record.emit e)

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

let create ?obs ?quota () = create ?obs ?quota ~requota_on_scrub:true ~name:"service.joblog" ()

let set_quota t ~quota = set_quota t ~quota

let append t e =
  append t e;
  let flight = Obs.flight (obs t) in
  if Obs.Flight.is_enabled flight then
    let name, args = flight_view e in
    Obs.Flight.note flight ~sub:"service" ~args name

let digest st =
  let ids = Hashtbl.fold (fun id _ acc -> id :: acc) st.jobs [] |> List.sort compare in
  let emit sink st =
    let int = Integrity.put_int sink and str = Integrity.put_string sink in
    List.iter int [ st.submitted; st.admitted; st.shed; st.cache_hits; st.requeues ];
    Integrity.put_length sink (List.length ids);
    List.iter
      (fun id ->
        int id;
        match Hashtbl.find st.jobs id with
        | Queued -> str "queued"
        | Running -> str "running"
        | Done term -> str term)
      ids
  in
  let h = Integrity.hash emit st in
  Printf.sprintf "%016x-%08x" (Integrity.word_of h) (Integrity.crc32_of h)

module T = Sat.Types

(* The entry type itself lives in [Protocol] (so the wire can ship
   entries to a hot standby without a dependency cycle); re-exporting the
   constructors here keeps every [Journal.Assigned ...] call site — and
   the journal's ownership of the format — unchanged. *)
type entry = Protocol.journal_entry =
  | Registered of { client : int }
  | Assigned of { pid : Protocol.pid; dst : int; path : T.lit list }
  | Started of { pid : Protocol.pid; client : int }
  | Granted of { requester : int; partner : int }
  | Split of {
      donor : int;
      donor_pid : Protocol.pid;
      donor_path : T.lit list;
      pid : Protocol.pid;
      dst : int;
      path : T.lit list;
    }
  | Refuted of { pid : Protocol.pid }
  | Shared of { clauses : int }
  | Suspected of { client : int }
  | Died of { client : int }
  | Adopted of { pid : Protocol.pid; client : int; path : T.lit list }
  | Verdict of { answer : string }

type client_state = Alive | Dead

type state = {
  clients : (int, client_state) Hashtbl.t;
  live : (Protocol.pid, T.lit list) Hashtbl.t;
  holder : (Protocol.pid, int) Hashtbl.t;
  refuted : (Protocol.pid, unit) Hashtbl.t;
  mutable problem_assigned : bool;
  mutable splits : int;
  mutable share_batches : int;
  mutable shared_clauses : int;
  mutable verdict : string option;
}

(* The record: what each entry means, its bytes and its size. *)
module Record = struct
  type nonrec entry = entry

  type nonrec state = state

  let empty () =
    {
      clients = Hashtbl.create 16;
      live = Hashtbl.create 64;
      holder = Hashtbl.create 64;
      refuted = Hashtbl.create 64;
      problem_assigned = false;
      splits = 0;
      share_batches = 0;
      shared_clauses = 0;
      verdict = None;
    }

  let copy s =
    {
      s with
      clients = Hashtbl.copy s.clients;
      live = Hashtbl.copy s.live;
      holder = Hashtbl.copy s.holder;
      refuted = Hashtbl.copy s.refuted;
    }

  (* A refutation is final: pids are never reused, so a registration that
     arrives after the pid was refuted (another copy's Finished_unsat ahead
     of it, possibly spanning a master restart) must not resurrect it. *)
  let register st pid path client =
    if not (Hashtbl.mem st.refuted pid) then begin
      Hashtbl.replace st.live pid path;
      Hashtbl.replace st.holder pid client
    end

  let apply st = function
    | Registered { client } -> Hashtbl.replace st.clients client Alive
    | Assigned { pid; dst; path } ->
        st.problem_assigned <- true;
        register st pid path dst
    | Started { pid; client } -> if not (Hashtbl.mem st.refuted pid) then Hashtbl.replace st.holder pid client
    | Granted _ -> ()
    | Split { donor; donor_pid; donor_path; pid; dst; path } ->
        st.splits <- st.splits + 1;
        register st donor_pid donor_path donor;
        (* the child's holder reports to the master on its own stream, so
           its Problem_received — even its own split of the child — can
           come first: then the child is live already, with its lineage
           and holder, and this split only created it *)
        if not (Hashtbl.mem st.live pid) then register st pid path dst
    | Refuted { pid } ->
        Hashtbl.remove st.live pid;
        Hashtbl.remove st.holder pid;
        Hashtbl.replace st.refuted pid ()
    | Shared { clauses } ->
        st.share_batches <- st.share_batches + 1;
        st.shared_clauses <- st.shared_clauses + clauses
    | Suspected _ -> ()
    | Died { client } ->
        Hashtbl.replace st.clients client Dead;
        (* the dead host no longer holds anything; its live pids await
           re-homing (checkpoint or lineage re-derivation) *)
        let held =
          Hashtbl.fold (fun pid h acc -> if h = client then pid :: acc else acc) st.holder []
        in
        List.iter (Hashtbl.remove st.holder) held
    | Adopted { pid; client; path } ->
        (* a client busy on any subproblem proves the root was assigned,
           even when the Assigned record itself predates this log (a
           standby's shadow only holds the shipped suffix) *)
        st.problem_assigned <- true;
        register st pid path client
    | Verdict { answer } -> st.verdict <- Some answer

  (* Full-fidelity rendering: every field of every entry is emitted, so the
     at-rest integrity seal covers the whole record; the punctuation is
     text only. *)
  let emit sink e =
    let int = Integrity.put_int sink
    and str = Integrity.put_string sink
    and text = Integrity.put_text sink in
    let pid (a, b) =
      int a;
      text ".";
      int b
    in
    let held_by p client =
      pid p;
      text " @ ";
      int client
    in
    let lits ls =
      text " [";
      Integrity.put_length sink (List.length ls);
      List.iteri
        (fun k l ->
          if k > 0 then text " ";
          Integrity.put_lit sink l)
        ls;
      text "]"
    in
    match e with
    | Registered { client } ->
        str "registered ";
        int client
    | Assigned { pid = p; dst; path } ->
        str "assigned ";
        pid p;
        text " -> ";
        int dst;
        lits path
    | Started { pid = p; client } ->
        str "started ";
        held_by p client
    | Granted { requester; partner } ->
        str "granted ";
        int requester;
        text " + ";
        int partner
    | Split { donor; donor_pid; donor_path; pid = p; dst; path } ->
        str "split ";
        held_by donor_pid donor;
        lits donor_path;
        text " -> ";
        held_by p dst;
        lits path
    | Refuted { pid = p } ->
        str "refuted ";
        pid p
    | Shared { clauses } ->
        str "shared ";
        int clauses
    | Suspected { client } ->
        str "suspected ";
        int client
    | Died { client } ->
        str "died ";
        int client
    | Adopted { pid = p; client; path } ->
        str "adopted ";
        held_by p client;
        lits path
    | Verdict { answer } ->
        str "verdict ";
        str answer

  (* A snapshot's estimated bytes: deterministic, so quota crossings replay
     at the same virtual instants. *)
  let state_bytes st =
    Hashtbl.fold (fun _ path b -> b + 16 + (8 * List.length path)) st.live 64
    + (8 * (Hashtbl.length st.clients + Hashtbl.length st.holder + Hashtbl.length st.refuted))

  let entry_bytes = Protocol.entry_bytes
end

module Log = Sealed_log.Make (Record)

let pp_entry ppf e = Format.pp_print_string ppf (Integrity.render Record.emit e)

type t = {
  log : Log.t;
  compact_every : int;
  compactions : Obs.Metrics.counter;
  forced_compactions : Obs.Metrics.counter;
}

let create ?(obs = Obs.disabled) ?quota ~compact_every () =
  let m = Obs.metrics obs in
  {
    log = Log.create ~obs ?quota ~name:"journal" ();
    compact_every = max 1 compact_every;
    compactions = Obs.Metrics.counter m "journal.compactions";
    forced_compactions = Obs.Metrics.counter m "journal.forced_compactions";
  }

let compact t =
  let folded = Log.fold t.log in
  Obs.Metrics.incr t.compactions;
  let obs = Log.obs t.log in
  if Obs.enabled obs then
    ignore
      (Obs.Span.instant (Obs.spans obs) ~tid:Obs.Span.master_tid ~cat:"journal"
         ~args:[ ("entries_folded", Obs.Json.Int folded) ]
         "journal.compact")

(* Quota relief: the first crossing forces an emergency compaction. *)
let force_compaction t () =
  Obs.Metrics.incr t.forced_compactions;
  compact t

let append t e =
  Log.push t.log e;
  if Log.pending t.log >= t.compact_every then compact t;
  Log.settle t.log ~relieve:(force_compaction t)

let set_quota t ~quota = Log.set_quota t.log ~quota ~relieve:(force_compaction t)

let current t = Log.current t.log

let replay t = Log.replay t.log

let recover t = Log.recover t.log

let corrupt_tail t ~n = Log.corrupt_tail t.log ~n

let bytes t = Log.bytes t.log

let bytes_peak t = Log.bytes_peak t.log

let quota t = Log.quota t.log

let degraded t = Log.degraded t.log

let degraded_entries t = Log.degraded_entries t.log

let appended t = Log.appended t.log

let records_dropped t = Log.records_dropped t.log

let log_digest t = Log.log_digest t.log

let compactions t = Obs.Metrics.counter_value t.compactions

let forced_compactions t = Obs.Metrics.counter_value t.forced_compactions

(* Canonical serialisation: every table is rendered in sorted key order so
   two replays of the same journal digest identically regardless of
   hashtable iteration order. *)
let digest st =
  let buf = Buffer.create 1024 in
  let lits ls = String.concat "," (List.map (fun l -> string_of_int (T.to_int l)) ls) in
  let pid (a, b) = Printf.sprintf "%d.%d" a b in
  Hashtbl.fold (fun id cs acc -> (id, cs) :: acc) st.clients []
  |> List.sort compare
  |> List.iter (fun (id, cs) ->
         Buffer.add_string buf
           (Printf.sprintf "c %d %s\n" id (match cs with Alive -> "alive" | Dead -> "dead")));
  Hashtbl.fold (fun p path acc -> (p, path) :: acc) st.live []
  |> List.sort compare
  |> List.iter (fun (p, path) ->
         let h = match Hashtbl.find_opt st.holder p with Some h -> string_of_int h | None -> "-" in
         Buffer.add_string buf (Printf.sprintf "l %s @%s [%s]\n" (pid p) h (lits path)));
  Hashtbl.fold (fun p () acc -> p :: acc) st.refuted []
  |> List.sort compare
  |> List.iter (fun p -> Buffer.add_string buf (Printf.sprintf "r %s\n" (pid p)));
  Buffer.add_string buf
    (Printf.sprintf "s %b %d %d %d %s\n" st.problem_assigned st.splits st.share_batches
       st.shared_clauses
       (match st.verdict with Some v -> v | None -> "-"));
  Digest.to_hex (Digest.string (Buffer.contents buf))


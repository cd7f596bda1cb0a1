module T = Sat.Types

(* The entry type itself lives in [Protocol] (so the wire can ship
   entries to a hot standby without a dependency cycle); re-exporting the
   constructors here keeps every [Journal.Assigned ...] call site — and
   the journal's ownership of the format — unchanged. *)
type entry = Protocol.journal_entry =
  | Registered of { client : int }
  | Assigned of { pid : Protocol.pid; dst : int; path : T.lit list }
  | Split of {
      donor : int;
      donor_pid : Protocol.pid;
      donor_path : T.lit list;
      pid : Protocol.pid;
      dst : int;
      path : T.lit list;
    }
  | Refuted of { pid : Protocol.pid }
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
    | Split { donor; donor_pid; donor_path; pid; dst; path } ->
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

  let emit = Protocol.emit_entry

  (* A snapshot's estimated bytes: deterministic, so quota crossings replay
     at the same virtual instants. *)
  let state_bytes st =
    Hashtbl.fold (fun _ path b -> b + 16 + (8 * List.length path)) st.live 64
    + (8 * (Hashtbl.length st.clients + Hashtbl.length st.holder + Hashtbl.length st.refuted))

  let entry_bytes = Protocol.entry_bytes
end

module Log = Sealed_log.Make (Record)

let pp_entry ppf e = Format.pp_print_string ppf (Integrity.render Protocol.emit_entry e)

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

(* The replayed state's canonical words: every table in sorted key
   order, so two replays of the same journal digest identically whatever
   the hashtable iteration order.  A holder only ever belongs to a live
   pid, so the live rows carry it. *)
let digest st =
  let sorted tbl = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []) in
  let emit sink st =
    let int = Integrity.put_int sink and str = Integrity.put_string sink in
    let rows tbl f =
      let kvs = sorted tbl in
      Integrity.put_length sink (List.length kvs);
      List.iter f kvs
    in
    let pid (a, b) =
      int a;
      int b
    in
    let opt f = function
      | None -> Integrity.put_length sink 0
      | Some x ->
          Integrity.put_length sink 1;
          f x
    in
    rows st.clients (fun (id, cs) ->
        int id;
        str (match cs with Alive -> "alive" | Dead -> "dead"));
    rows st.live (fun (p, path) ->
        pid p;
        opt int (Hashtbl.find_opt st.holder p);
        Integrity.put_lit_list sink ~sep:' ' path);
    rows st.refuted (fun (p, ()) -> pid p);
    int (Bool.to_int st.problem_assigned);
    opt str st.verdict
  in
  let h = Integrity.hash emit st in
  Printf.sprintf "%016x-%08x" (Integrity.word_of h) (Integrity.crc32_of h)

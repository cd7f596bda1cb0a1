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

let empty_state () =
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

let copy_state s =
  {
    s with
    clients = Hashtbl.copy s.clients;
    live = Hashtbl.copy s.live;
    holder = Hashtbl.copy s.holder;
    refuted = Hashtbl.copy s.refuted;
  }

(* A refutation is final: pids are never reused, so a registration that
   arrives after the pid was refuted (message reordering around a split,
   possibly spanning a master restart) must not resurrect it. *)
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
      register st pid path dst
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
   at-rest integrity seal covers the whole record. *)
let emit_entry sink e =
  let int = Integrity.put_int sink and str = Integrity.put_string sink in
  let pid (a, b) =
    int a;
    str ".";
    int b
  in
  let held_by p client =
    pid p;
    str " @ ";
    int client
  in
  let lits ls =
    str " [";
    List.iteri
      (fun k l ->
        if k > 0 then str " ";
        int (T.to_int l))
      ls;
    str "]"
  in
  match e with
  | Registered { client } ->
      str "registered ";
      int client
  | Assigned { pid = p; dst; path } ->
      str "assigned ";
      pid p;
      str " -> ";
      int dst;
      lits path
  | Started { pid = p; client } ->
      str "started ";
      held_by p client
  | Granted { requester; partner } ->
      str "granted ";
      int requester;
      str " + ";
      int partner
  | Split { donor; donor_pid; donor_path; pid = p; dst; path } ->
      str "split ";
      held_by donor_pid donor;
      lits donor_path;
      str " -> ";
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

let pp_entry ppf e = Format.pp_print_string ppf (Integrity.render emit_entry e)

(* Byte occupancy is an estimate (this journal models stable storage, it
   does not serialise to a real file), but a deterministic one: the same
   entries always cost the same bytes, so quota crossings replay at the
   same virtual instants. *)
let state_bytes st =
  let b = ref 64 in
  Hashtbl.iter (fun _ _ -> b := !b + 8) st.clients;
  Hashtbl.iter (fun _ path -> b := !b + 16 + (8 * List.length path)) st.live;
  Hashtbl.iter (fun _ _ -> b := !b + 8) st.holder;
  Hashtbl.iter (fun _ _ -> b := !b + 8) st.refuted;
  !b

type t = {
  compact_every : int;
  mutable base : state;  (* the last snapshot *)
  mutable pending : (entry * int) list;
      (* newest first; entries since the snapshot, each sealed with the
         CRC-32 of its canonical rendering at append time *)
  mutable pending_n : int;
  mutable appended : int;
  mutable compactions : int;
  mutable records_dropped : int;
  mutable quota : int;  (* bytes; 0 = unlimited *)
  mutable base_bytes : int;
  mutable pending_bytes : int;
  mutable bytes_peak : int;
  mutable forced_compactions : int;
  mutable degraded : bool;
  mutable degraded_entries : int;
  mutable log_fnv : int;
  mutable log_crc : int;
      (* two lanes of the rolling log digest, chained over every entry
         ever appended: see [chain] *)
  obs : Obs.t;
  obs_on : bool;
  c_appends : Obs.Metrics.counter;
  c_compactions : Obs.Metrics.counter;
  c_dropped : Obs.Metrics.counter;
  c_forced : Obs.Metrics.counter;
  c_degraded : Obs.Metrics.counter;
  g_bytes : Obs.Metrics.gauge;
}

let create ?(obs = Obs.disabled) ?(quota = 0) ~compact_every () =
  let m = Obs.metrics obs in
  let base = empty_state () in
  {
    compact_every = max 1 compact_every;
    base;
    pending = [];
    pending_n = 0;
    appended = 0;
    compactions = 0;
    records_dropped = 0;
    quota = max 0 quota;
    base_bytes = state_bytes base;
    pending_bytes = 0;
    bytes_peak = 0;
    forced_compactions = 0;
    degraded = false;
    degraded_entries = 0;
    log_fnv = 0;
    log_crc = 0;
    obs;
    obs_on = Obs.enabled obs;
    c_appends = Obs.Metrics.counter m "journal.appends";
    c_compactions = Obs.Metrics.counter m "journal.compactions";
    c_dropped = Obs.Metrics.counter m "journal.records.dropped";
    c_forced = Obs.Metrics.counter m "journal.forced_compactions";
    c_degraded = Obs.Metrics.counter m "journal.degraded_entries";
    g_bytes = Obs.Metrics.gauge m "journal.bytes";
  }

let seal e = Integrity.crc32_of (Integrity.hash emit_entry e)

(* One step of the rolling log digest: fold a word into a lane with an
   FNV-style multiply and an xorshift, so every lane bit depends on the
   word and on everything chained before it. *)
let mix lane w =
  let h = (lane lxor w) * 0x100000001b3 in
  h lxor (h lsr 29)

let chain lane ~pos d = mix (mix lane pos) d

(* Drop pending records whose seal no longer matches their content (torn
   or rotted at rest).  Each bad record is counted once: it disappears
   from the pending list here, before any replay or compaction reads it.
   Losing a record degrades recovery precision (a lost lineage means a
   later re-derivation may have to give up) but never corrupts state —
   strictly better than folding garbage into the snapshot. *)
let scrub t =
  let ok, bad = List.partition (fun (e, d) -> seal e = d) t.pending in
  if bad <> [] then begin
    t.pending <- ok;
    t.pending_n <- List.length ok;
    t.pending_bytes <- List.fold_left (fun a (e, _) -> a + Protocol.entry_bytes e) 0 ok;
    t.records_dropped <- t.records_dropped + List.length bad;
    if t.obs_on then
      List.iter (fun _ -> Obs.Metrics.incr t.c_dropped) bad
  end

let compact t =
  scrub t;
  let folded = t.pending_n in
  List.iter (fun (e, _) -> apply t.base e) (List.rev t.pending);
  t.pending <- [];
  t.pending_n <- 0;
  t.pending_bytes <- 0;
  t.base_bytes <- state_bytes t.base;
  t.compactions <- t.compactions + 1;
  if t.obs_on then begin
    Obs.Metrics.incr t.c_compactions;
    ignore
      (Obs.Span.instant (Obs.spans t.obs) ~tid:Obs.Span.master_tid ~cat:"journal"
         ~args:[ ("entries_folded", Obs.Json.Int folded) ]
         "journal.compact")
  end

let occupancy t = t.base_bytes + t.pending_bytes

let over_quota t = t.quota > 0 && occupancy t > t.quota

(* Quota discipline: the first crossing forces an emergency compaction
   (folding pending entries into the snapshot is the only way this
   storage can shrink).  If the snapshot alone still exceeds the quota,
   the journal enters degraded mode — appends keep landing (losing
   recovery records would be worse than overrunning an advisory quota)
   but each one is counted, and the owner is expected to alarm and pause
   replica shipping.  Degraded mode exits as soon as occupancy drops back
   under quota, whether by compaction shrinkage or quota relief. *)
let enforce_quota t =
  if (not t.degraded) && over_quota t then begin
    t.forced_compactions <- t.forced_compactions + 1;
    if t.obs_on then Obs.Metrics.incr t.c_forced;
    compact t;
    if over_quota t then t.degraded <- true
  end
  else if t.degraded && not (over_quota t) then t.degraded <- false

(* The hash pass that seals the record also advances the log digest: its
   FNV-1a and CRC-32 are each chained, with the entry's position, into
   one lane. *)
let append t e =
  let h = Integrity.hash emit_entry e in
  let crc = Integrity.crc32_of h in
  t.pending <- (e, crc) :: t.pending;
  t.pending_n <- t.pending_n + 1;
  t.pending_bytes <- t.pending_bytes + Protocol.entry_bytes e;
  t.appended <- t.appended + 1;
  t.log_fnv <- chain t.log_fnv ~pos:t.appended (Integrity.fnv1a_of h);
  t.log_crc <- chain t.log_crc ~pos:t.appended crc;
  if t.obs_on then Obs.Metrics.incr t.c_appends;
  let occ = occupancy t in
  if occ > t.bytes_peak then t.bytes_peak <- occ;
  if t.pending_n >= t.compact_every then compact t;
  enforce_quota t;
  if t.degraded then begin
    t.degraded_entries <- t.degraded_entries + 1;
    if t.obs_on then Obs.Metrics.incr t.c_degraded
  end;
  if t.obs_on then Obs.Metrics.set t.g_bytes (float_of_int (occupancy t))

let set_quota t ~quota =
  t.quota <- max 0 quota;
  enforce_quota t;
  if t.obs_on then Obs.Metrics.set t.g_bytes (float_of_int (occupancy t))

let quota t = t.quota

let degraded t = t.degraded

let degraded_entries t = t.degraded_entries

let forced_compactions t = t.forced_compactions

let bytes_peak t = t.bytes_peak

let replay t =
  scrub t;
  let st = copy_state t.base in
  List.iter (fun (e, _) -> apply st e) (List.rev t.pending);
  st

let corrupt_tail t ~n =
  let rec rot k = function
    | (e, d) :: rest when k > 0 -> (e, Integrity.corrupted d) :: rot (k - 1) rest
    | rest -> rest
  in
  t.pending <- rot n t.pending

let appended t = t.appended

let compactions t = t.compactions

let records_dropped t = t.records_dropped

let entries_since_snapshot t = t.pending_n

let log_digest t = Printf.sprintf "%016x%016x" t.log_fnv t.log_crc

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


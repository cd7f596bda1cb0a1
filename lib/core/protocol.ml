type pid = int * int

(* The master's write-ahead journal entries are defined here (and
   re-exported by [Journal]) so the wire protocol can ship them to a
   hot-standby replica without a dependency cycle: [Journal] depends on
   [Protocol] for pids, and [Ship] must carry entries. *)
type journal_entry =
  | Registered of { client : int }
  | Assigned of { pid : pid; dst : int; path : Sat.Types.lit list }
  | Split of {
      donor : int;
      donor_pid : pid;
      donor_path : Sat.Types.lit list;
      pid : pid;
      dst : int;
      path : Sat.Types.lit list;
    }
  | Refuted of { pid : pid }
  | Died of { client : int }
  | Adopted of { pid : pid; client : int; path : Sat.Types.lit list }
  | Verdict of { answer : string }

type msg =
  | Register
  | Problem of { pid : pid; sp : Subproblem.t; sent_at : float }
  | Problem_received of { pid : pid; from : int; bytes : int; path : Sat.Types.lit list }
  | Split_request of [ `Memory | `Long_running ]
  | Split_partner of { partner : int }
  | Split_ok of {
      pid : pid;
      donor_pid : pid;
      dst : int;
      bytes : int;
      path : Sat.Types.lit list;
      donor_path : Sat.Types.lit list;
    }
  | Split_failed of { partner : int }
  | Shares of { clauses : Sat.Types.lit array list }
  | Share_relay of { origin : int; clauses : Sat.Types.lit array list }
  | Finished_unsat of { pid : pid; proof : string option }
  | Found_model of Sat.Model.t
  | Migrate_to of { target : int }
  | Cancel of { pid : pid }
  | Orphaned of { pid : pid; sp : Subproblem.t }
  | Resync_request
  | Resync of { pid : pid option; path : Sat.Types.lit list; busy_since : float }
  | Stop
  | Heartbeat of { decisions : int }
  | Ship of { seq : int; entries : journal_entry list; log_digest : string }
  | Epoch_notice
  | Ack of { mid : int }
  | Nack of { mid : int }
  | Reliable of { mid : int; low : int; payload : msg }
  | Framed of { digest : int; epoch : int; payload : msg }
  | Corrupt_payload

let control_bytes = 64

let shares_bytes clauses =
  List.fold_left (fun acc c -> acc + 16 + (8 * Array.length c)) control_bytes clauses

let model_bytes m = control_bytes + Sat.Model.nvars m

let frame_bytes = 8

let entry_bytes = function
  | Assigned { path; _ } | Adopted { path; _ } -> 16 + (8 * List.length path)
  | Split { donor_path; path; _ } -> 16 + (8 * (List.length donor_path + List.length path))
  | Registered _ | Refuted _ | Died _ | Verdict _ -> 16

(* A journal record, full fidelity: every field is emitted, so the
   at-rest seal and the shipped frame's digest cover the whole record.
   The leading word names the constructor; the punctuation is text
   only. *)
let emit_entry sink e =
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

let rec size = function
  | Problem { sp; _ } | Orphaned { sp; _ } -> Subproblem.bytes sp
  | Shares { clauses } | Share_relay { clauses; _ } -> shares_bytes clauses
  | Found_model m -> model_bytes m
  | Reliable { payload; _ } -> size payload
  | Framed { payload; _ } -> frame_bytes + size payload
  | Problem_received { path; _ } | Resync { path; _ } -> control_bytes + (8 * List.length path)
  | Split_ok { path; donor_path; _ } ->
      control_bytes + (8 * (List.length path + List.length donor_path))
  | Finished_unsat { proof; _ } ->
      control_bytes + (match proof with None -> 0 | Some p -> String.length p)
  | Ship { entries; log_digest; _ } ->
      control_bytes
      + String.length log_digest
      + List.fold_left (fun acc e -> acc + entry_bytes e) 0 entries
  | Register | Split_request _ | Split_partner _ | Split_failed _ | Migrate_to _ | Cancel _
  | Resync_request | Stop | Heartbeat _ | Epoch_notice | Ack _ | Nack _ | Corrupt_payload ->
      control_bytes

(* Clause shares are semantically safe to lose (a learned clause is only an
   accelerant), so they — like the liveness traffic itself — stay
   fire-and-forget.  Everything else is control state whose loss can wedge
   the run and must ride the ack/retry layer. *)
let critical = function
  | Register | Problem _ | Problem_received _ | Split_request _ | Split_partner _ | Split_ok _
  | Split_failed _ | Finished_unsat _ | Found_model _ | Migrate_to _ | Cancel _ | Orphaned _
  | Resync_request | Resync _ | Ship _ ->
      true
  | Shares _ | Share_relay _ | Stop | Heartbeat _ | Epoch_notice | Ack _ | Nack _
  | Reliable _ | Framed _ | Corrupt_payload ->
      false

(* ---------- integrity framing ---------- *)

(* Canonical words for digesting: every field that matters is emitted,
   in a fixed order, each constructor led by its tag.  Not a wire format
   and never rendered — just a deterministic word sequence two ends can
   agree on, streamed into the hasher.  [s] writes a tag or a string, [i]
   an int, [time] a virtual time. *)
let s = Integrity.put_string

let i = Integrity.put_int

let pid sink (o, n) =
  i sink o;
  i sink n

let lits sink ls = Integrity.put_lit_list sink ~sep:' ' ls

let time sink x = Integrity.put_float sink ~text:Float.to_string x

let clauses sink cs =
  Integrity.put_length sink (List.length cs);
  List.iter (fun c -> Integrity.put_lits sink ~sep:' ' c 0 (Array.length c)) cs

let rec emit sink = function
  | Register -> s sink "register"
  | Problem { pid = p; sp; sent_at } ->
      s sink "problem";
      pid sink p;
      time sink sent_at;
      Subproblem.emit sink sp
  | Problem_received { pid = p; from; bytes; path } ->
      s sink "received";
      pid sink p;
      i sink from;
      i sink bytes;
      lits sink path
  | Split_request `Memory -> s sink "split? mem"
  | Split_request `Long_running -> s sink "split? long"
  | Split_partner { partner } ->
      s sink "partner";
      i sink partner
  | Split_ok { pid = p; donor_pid; dst; bytes; path; donor_path } ->
      s sink "split_ok";
      pid sink p;
      pid sink donor_pid;
      i sink dst;
      i sink bytes;
      lits sink path;
      lits sink donor_path
  | Split_failed { partner } ->
      s sink "split_failed";
      i sink partner
  | Shares { clauses = cs } ->
      s sink "shares";
      clauses sink cs
  | Share_relay { origin; clauses = cs } ->
      s sink "relay";
      i sink origin;
      clauses sink cs
  | Finished_unsat { pid = p; proof } ->
      s sink "unsat";
      pid sink p;
      Option.iter (s sink) proof
  | Found_model m ->
      let ls = Sat.Model.true_literals m in
      s sink "model";
      Integrity.put_length sink (List.length ls);
      List.iter (i sink) ls
  | Migrate_to { target } ->
      s sink "migrate";
      i sink target
  | Cancel { pid = p } ->
      s sink "cancel";
      pid sink p
  | Orphaned { pid = p; sp } ->
      s sink "orphaned";
      pid sink p;
      Subproblem.emit sink sp
  | Resync_request -> s sink "resync?"
  | Resync { pid = p; path; busy_since } ->
      (match p with
      | None -> s sink "resync idle"
      | Some p ->
          s sink "resync";
          pid sink p);
      time sink busy_since;
      lits sink path
  | Stop -> s sink "stop"
  | Heartbeat { decisions } ->
      s sink "hb";
      i sink decisions
  | Ship { seq; entries; log_digest } ->
      s sink "ship";
      i sink seq;
      s sink log_digest;
      Integrity.put_length sink (List.length entries);
      List.iter (emit_entry sink) entries
  | Epoch_notice -> s sink "epoch!"
  | Ack { mid } ->
      s sink "ack";
      i sink mid
  | Nack { mid } ->
      s sink "nack";
      i sink mid
  | Reliable { mid; low = _; payload } ->
      s sink "rel";
      i sink mid;
      emit sink payload
  | Framed { digest; epoch; payload } ->
      s sink "frame";
      i sink digest;
      i sink epoch;
      emit sink payload
  | Corrupt_payload -> s sink "garbage"

let digest msg = Integrity.hash_word emit msg

(* The epoch is a header field, not part of the digested payload: like a
   reliable envelope's mid it survives in-flight corruption (it carries
   its own header CRC in any real encoding), so receivers can fence a
   stale sender even when the payload is trash. *)
let frame ?(epoch = 0) msg = Framed { digest = digest msg; epoch; payload = msg }

let send bus ~src ~dst ~epoch msg =
  let msg = frame ~epoch msg in
  Grid.Everyware.send bus ~src ~dst ~bytes:(size msg) msg

let epoch_of = function Framed { epoch; _ } -> epoch | _ -> 0

let verify = function
  | Framed { digest = d; payload; _ } ->
      if digest payload = d then `Ok payload else `Corrupt payload
  | msg -> `Ok msg

(* In-flight bit rot: the payload content becomes unreadable trash, while
   the small fixed-position headers — the frame digest and a reliable
   envelope's mid and low-water mark — survive (they carry their own header CRC in any real
   encoding).  That is exactly the shape that lets a receiver detect the
   damage and name the envelope to NACK. *)
let corrupt msg =
  let garble = function
    | Reliable { mid; low; payload = _ } -> Reliable { mid; low; payload = Corrupt_payload }
    | _ -> Corrupt_payload
  in
  match msg with
  | Framed { digest; epoch; payload } -> Framed { digest; epoch; payload = garble payload }
  | m -> garble m

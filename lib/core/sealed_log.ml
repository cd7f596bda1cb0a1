(** A sealed append-only log over one record type: the mechanism under the
    master's write-ahead [Journal] and the service's joblog.

    Each record is sealed on append with the CRC lane of its canonical words,
    applied at once to the log's [current] state, and chained into a
    rolling [log_digest].  Records rot at rest ([corrupt_tail]); replaying
    or folding first scrubs: every record whose seal no longer matches is
    dropped and counted before anything reads it.  Records since the last
    snapshot ([fold]) are pending; a replay is the snapshot plus the
    surviving pending records.

    Occupancy is a deterministic estimate (the snapshot's [state_bytes]
    plus each pending record's [entry_bytes]), so quota crossings replay at
    the same virtual instants under the same seed.  Over a non-zero quota
    the log is degraded: appends keep landing — losing recovery records
    would be worse than overrunning an advisory quota — but each is
    counted, and the owner is expected to alarm.  Degraded mode exits as
    soon as the log is back under quota.

    Metrics, under the record's [name]: [<name>.appends],
    [<name>.records.dropped], [<name>.degraded_entries] and the
    [<name>.bytes] occupancy gauge. *)

module type RECORD = sig
  val name : string
  (** The prefix of the log's metric names. *)

  type entry

  type state

  val emit : Integrity.sink -> entry -> unit
  (** Full-fidelity rendering: the seal covers every field. *)

  val entry_bytes : entry -> int

  val empty : unit -> state

  val copy : state -> state

  val apply : state -> entry -> unit

  val state_bytes : state -> int
  (** Estimated bytes of a snapshot holding this state. *)
end

(** What a log owner re-exports unchanged. *)
module type READ = sig
  type t

  type state

  val current : t -> state
  (** Every record ever appended, applied in order — the live state the
      owner reads.  Rot does not touch it until {!recover}. *)

  val replay : t -> state
  (** Scrubs, then folds the surviving records into a fresh copy of the
      snapshot.  Replaying twice yields equal states. *)

  val recover : t -> unit
  (** Adopt the replayed state: [current] becomes {!replay}. *)

  val corrupt_tail : t -> n:int -> unit
  (** Fault injection: rot the seals of the newest [n] pending records. *)

  val bytes : t -> int
  (** Estimated occupancy: the snapshot plus the pending records. *)

  val bytes_peak : t -> int

  val quota : t -> int
  (** Bytes; 0 is unlimited. *)

  val degraded : t -> bool

  val degraded_entries : t -> int
  (** Records appended while degraded. *)

  val appended : t -> int

  val records_dropped : t -> int
  (** Records scrubbed because their seal no longer matched. *)

  val log_digest : t -> string
  (** Rolling digest of every record ever appended, in order: 32 hex
      characters, O(1) to read.  Equal feeds give equal digests; a
      dropped, reordered or altered record changes it.  It is taken at
      append time, so at-rest rot does not move it. *)
end

module Make (R : RECORD) = struct
  (* One step of the rolling log digest: the lane, the record's position
     and one of its digests, through the word lane, so every lane bit
     depends on the digest and on everything chained before it. *)
  let chain lane ~pos d = Integrity.word_digest [| lane; pos; d |] 0 3

  type t = {
    mutable base : R.state option;  (* the last snapshot; [None] is empty *)
    mutable current : R.state;  (* base plus every record appended since *)
    mutable pending : (R.entry * int) list;
        (* newest first; records since the snapshot, each sealed with the
           CRC lane of its canonical words at append time *)
    mutable pending_n : int;
    mutable base_bytes : int;
    mutable pending_bytes : int;
    appended : Obs.Metrics.counter;
    records_dropped : Obs.Metrics.counter;
    mutable quota : int;  (* bytes; 0 = unlimited *)
    mutable bytes_peak : int;
    mutable degraded : bool;
    degraded_entries : Obs.Metrics.counter;
    mutable log_word : int;
    mutable log_crc : int;  (* the two lanes of the rolling log digest *)
    requota_on_scrub : bool;
    obs : Obs.t;
    obs_on : bool;
    g_bytes : Obs.Metrics.gauge;
  }

  let appends_name = R.name ^ ".appends"

  let dropped_name = R.name ^ ".records.dropped"

  let degraded_name = R.name ^ ".degraded_entries"

  let bytes_name = R.name ^ ".bytes"

  let empty_bytes = R.state_bytes (R.empty ())

  (* A log starts with no snapshot: until its first [fold] the snapshot
     is the empty state, made only when something is folded into it or
     replayed over it. *)
  let create ?(obs = Obs.disabled) ?(quota = 0) ?(requota_on_scrub = false) () =
    let m = Obs.metrics obs in
    {
      base = None;
      current = R.empty ();
      pending = [];
      pending_n = 0;
      base_bytes = empty_bytes;
      pending_bytes = 0;
      appended = Obs.Metrics.counter m appends_name;
      records_dropped = Obs.Metrics.counter m dropped_name;
      quota = max 0 quota;
      bytes_peak = 0;
      degraded = false;
      degraded_entries = Obs.Metrics.counter m degraded_name;
      log_word = 0;
      log_crc = 0;
      requota_on_scrub;
      obs;
      obs_on = Obs.enabled obs;
      g_bytes = Obs.Metrics.gauge m bytes_name;
    }

  let seal e = Integrity.crc32_of (Integrity.hash R.emit e)

  let bytes t = t.base_bytes + t.pending_bytes

  let over_quota t = t.quota > 0 && bytes t > t.quota

  let set_gauge t = if t.obs_on then Obs.Metrics.set t.g_bytes (float_of_int (bytes t))

  (* The first crossing calls [relieve] (the journal compacts) and
     degrades only a log still over quota. *)
  let enforce_quota ~relieve t =
    if (not t.degraded) && over_quota t then begin
      relieve ();
      if over_quota t then t.degraded <- true
    end
    else if t.degraded && not (over_quota t) then t.degraded <- false

  (* Drop records whose seal no longer matches their content (torn or
     rotted at rest), each counted once.  [requota_on_scrub] logs (the
     joblog) re-evaluate degraded mode here; the others wait for the next
     append or quota change. *)
  let scrub t =
    let ok, bad = List.partition (fun (e, d) -> seal e = d) t.pending in
    if bad <> [] then begin
      t.pending <- ok;
      t.pending_n <- List.length ok;
      t.pending_bytes <- List.fold_left (fun a (e, _) -> a + R.entry_bytes e) 0 ok;
      Obs.Metrics.add t.records_dropped (List.length bad);
      if t.requota_on_scrub then begin
        enforce_quota ~relieve:ignore t;
        set_gauge t
      end
    end

  (* Seal, apply, account.  The hash pass that seals the record also
     advances the log digest: its word and CRC-lane digests are each
     chained, with the record's position, into one lane.  The quota check
     is [settle], so an owner can compact in between. *)
  let push t e =
    let h = Integrity.hash R.emit e in
    let crc = Integrity.crc32_of h in
    R.apply t.current e;
    t.pending <- (e, crc) :: t.pending;
    t.pending_n <- t.pending_n + 1;
    t.pending_bytes <- t.pending_bytes + R.entry_bytes e;
    Obs.Metrics.incr t.appended;
    let pos = Obs.Metrics.counter_value t.appended in
    t.log_word <- chain t.log_word ~pos (Integrity.word_of h);
    t.log_crc <- chain t.log_crc ~pos crc;
    let b = bytes t in
    if b > t.bytes_peak then t.bytes_peak <- b

  let settle ?(relieve = ignore) t =
    enforce_quota ~relieve t;
    if t.degraded then Obs.Metrics.incr t.degraded_entries;
    set_gauge t

  let append t e =
    push t e;
    settle t

  let set_quota ?(relieve = ignore) t ~quota =
    t.quota <- max 0 quota;
    enforce_quota ~relieve t;
    set_gauge t

  (* Fold the surviving pending records into the snapshot. *)
  let fold t =
    scrub t;
    let folded = t.pending_n in
    let base = match t.base with Some b -> b | None -> R.empty () in
    List.iter (fun (e, _) -> R.apply base e) (List.rev t.pending);
    t.base <- Some base;
    t.pending <- [];
    t.pending_n <- 0;
    t.pending_bytes <- 0;
    t.base_bytes <- R.state_bytes base;
    folded

  let replay t =
    scrub t;
    let st = match t.base with Some b -> R.copy b | None -> R.empty () in
    List.iter (fun (e, _) -> R.apply st e) (List.rev t.pending);
    st

  let recover t = t.current <- replay t

  let current t = t.current

  let corrupt_tail t ~n =
    let rec rot k = function
      | (e, d) :: rest when k > 0 -> (e, Integrity.corrupted d) :: rot (k - 1) rest
      | rest -> rest
    in
    t.pending <- rot n t.pending

  let entries t = List.rev_map fst t.pending

  let pending t = t.pending_n

  let obs t = t.obs

  let quota t = t.quota

  let bytes_peak t = t.bytes_peak

  let degraded t = t.degraded

  let degraded_entries t = Obs.Metrics.counter_value t.degraded_entries

  let appended t = Obs.Metrics.counter_value t.appended

  let records_dropped t = Obs.Metrics.counter_value t.records_dropped

  let log_digest t = Printf.sprintf "%016x%016x" t.log_word t.log_crc
end

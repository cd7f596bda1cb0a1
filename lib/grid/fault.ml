type spec =
  | Crash_host of { host : int; at : float }
  | Hang_host of { host : int; at : float }
  | Crash_master of { at : float; restart_after : float; by_verdict : bool }
  | Drop_messages of {
      src_site : string option;
      dst_site : string option;
      p : float;
      from_t : float;
      until_t : float;
    }
  | Partition_site of { site : string; from_t : float; until_t : float }
  | Latency_spike of {
      src_site : string option;
      dst_site : string option;
      extra : float;
      from_t : float;
      until_t : float;
    }
  | Duplicate_messages of { p : float; extra : float; from_t : float; until_t : float }
  | Corrupt_messages of {
      src_site : string option;
      dst_site : string option;
      p : float;
      from_t : float;
      until_t : float;
    }
  | Corrupt_storage of { at : float; journal_records : int; checkpoints : bool }
  | Slow_host of { host : int; at : float; factor : float }
  | Flaky_host of {
      host : int;
      factor : float;
      period : float;
      from_t : float;
      until_t : float;
    }
  | Choke_link of {
      src_site : string option;
      dst_site : string option;
      bytes_per_window : int;
      window : float;
      from_t : float;
      until_t : float;
    }
  | Disk_full of { at : float; quota : int; until_t : float }

type counters = {
  crashes : int;
  hangs : int;
  master_crashes : int;
  dropped : int;
  delayed : int;
  duplicated : int;
  corrupted : int;
  storage_corruptions : int;
  slowdowns : int;
  choked : int;
  disk_fulls : int;
}

(* Armed state of one Choke_link spec: per-link byte ledger for the
   current window.  Window indices are [floor ((now - from_t) / window)],
   a pure function of virtual time, so the same messages at the same
   instants always hit the same windows — no RNG involved. *)
type choke = {
  c_src : string option;
  c_dst : string option;
  c_budget : int;
  c_window : float;
  c_from : float;
  c_until : float;
  ledger : (string, int * int) Hashtbl.t;  (* link key -> (window idx, bytes used) *)
}

type t = {
  sim : Sim.t;
  specs : spec list;
  chokes : choke list;
  rng : Random.State.t;
  mutable crashes : int;
  mutable hangs : int;
  mutable master_crashes : int;
  mutable dropped : int;
  mutable delayed : int;
  mutable duplicated : int;
  mutable corrupted : int;
  mutable storage_corruptions : int;
  mutable slowdowns : int;
  mutable choked : int;
  mutable disk_fulls : int;
  mutable verdict_due : unit -> unit;  (* fires every [by_verdict] crash *)
}

let arm ~sim ~seed ~on_crash ~on_hang ?(on_master_crash = fun () -> ())
    ?(on_master_restart = fun () -> ())
    ?(on_storage_corrupt = fun ~journal_records:_ ~checkpoints:_ -> ())
    ?(on_slow = fun _host _factor -> ())
    ?(on_disk_full = fun ~quota:_ -> ()) specs =
  let chokes =
    List.filter_map
      (function
        | Choke_link { src_site; dst_site; bytes_per_window; window; from_t; until_t } ->
            Some
              {
                c_src = src_site;
                c_dst = dst_site;
                c_budget = bytes_per_window;
                c_window = window;
                c_from = from_t;
                c_until = until_t;
                ledger = Hashtbl.create 16;
              }
        | _ -> None)
      specs
  in
  let t =
    {
      sim;
      specs;
      chokes;
      rng = Random.State.make [| seed; 0x5eed |];
      crashes = 0;
      hangs = 0;
      master_crashes = 0;
      dropped = 0;
      delayed = 0;
      duplicated = 0;
      corrupted = 0;
      storage_corruptions = 0;
      slowdowns = 0;
      choked = 0;
      disk_fulls = 0;
      verdict_due = ignore;
    }
  in
  List.iter
    (function
      | Crash_host { host; at } ->
          ignore
            (Sim.schedule_at sim ~time:at (fun () ->
                 t.crashes <- t.crashes + 1;
                 on_crash host))
      | Hang_host { host; at } ->
          ignore
            (Sim.schedule_at sim ~time:at (fun () ->
                 t.hangs <- t.hangs + 1;
                 on_hang host))
      | Crash_master { at; restart_after; by_verdict } ->
          let fired = ref false in
          let crash () =
            if not !fired then begin
              fired := true;
              t.master_crashes <- t.master_crashes + 1;
              on_master_crash ()
            end
          in
          ignore (Sim.schedule_at sim ~time:at crash);
          let due = t.verdict_due in
          if by_verdict then t.verdict_due <- (fun () -> due (); crash ());
          (* restart_after = infinity means the old master never comes
             back (a hot standby is expected to take over); scheduling an
             infinite-time event would drag the virtual clock along *)
          if restart_after < infinity then
            ignore (Sim.schedule_at sim ~time:(at +. restart_after) (fun () -> on_master_restart ()))
      | Corrupt_storage { at; journal_records; checkpoints } ->
          ignore
            (Sim.schedule_at sim ~time:at (fun () ->
                 t.storage_corruptions <- t.storage_corruptions + 1;
                 on_storage_corrupt ~journal_records ~checkpoints))
      | Slow_host { host; at; factor } ->
          ignore
            (Sim.schedule_at sim ~time:at (fun () ->
                 t.slowdowns <- t.slowdowns + 1;
                 on_slow host factor))
      | Flaky_host { host; factor; period; from_t; until_t } ->
          (* Oscillation: slow for the first half of each period, restored
             for the second.  Each toggle schedules the next, so the chain
             supports an unbounded window without flooding the calendar. *)
          let rec toggle time slow_next =
            if time < until_t then
              ignore
                (Sim.schedule_at sim ~time (fun () ->
                     if slow_next then begin
                       t.slowdowns <- t.slowdowns + 1;
                       on_slow host factor
                     end
                     else on_slow host 1.0;
                     toggle (time +. (period /. 2.)) (not slow_next)))
          in
          toggle from_t true;
          if until_t < infinity then
            ignore (Sim.schedule_at sim ~time:until_t (fun () -> on_slow host 1.0))
      | Disk_full { at; quota; until_t } ->
          ignore
            (Sim.schedule_at sim ~time:at (fun () ->
                 t.disk_fulls <- t.disk_fulls + 1;
                 on_disk_full ~quota));
          (* quota relief: the disk was cleaned up / extended *)
          if until_t < infinity then
            ignore (Sim.schedule_at sim ~time:until_t (fun () -> on_disk_full ~quota:0))
      | Drop_messages _ | Partition_site _ | Latency_spike _ | Duplicate_messages _
      | Corrupt_messages _ | Choke_link _ ->
          ())
    specs;
  t

let site_matches pattern site =
  match pattern with None -> true | Some s -> String.equal s site

(* A link spec matches in either direction: the paper's faults (expired
   reservations, saturated links) do not care who initiated the transfer. *)
let link_matches ~a ~b ~src_site ~dst_site =
  (site_matches a src_site && site_matches b dst_site)
  || (site_matches a dst_site && site_matches b src_site)

let in_window now ~from_t ~until_t = now >= from_t && now < until_t

(* A choked link's ledger is keyed by the unordered site pair — the model
   is a saturated physical link, whose capacity both directions share. *)
let choke_key ~src_site ~dst_site =
  if String.compare src_site dst_site <= 0 then src_site ^ "|" ^ dst_site
  else dst_site ^ "|" ^ src_site

(* Charge [bytes] against every matching choke's current window; the
   first refusal chokes the message.  Purely arithmetic on virtual time —
   same messages at the same instants always choke identically. *)
let choke_admits t ~now ~src_site ~dst_site ~bytes =
  List.for_all
    (fun c ->
      if
        in_window now ~from_t:c.c_from ~until_t:c.c_until
        && link_matches ~a:c.c_src ~b:c.c_dst ~src_site ~dst_site
      then begin
        let key = choke_key ~src_site ~dst_site in
        let w = int_of_float (floor ((now -. c.c_from) /. c.c_window)) in
        let used =
          match Hashtbl.find_opt c.ledger key with
          | Some (w', u) when w' = w -> u
          | _ -> 0
        in
        if used + bytes <= c.c_budget then begin
          Hashtbl.replace c.ledger key (w, used + bytes);
          true
        end
        else false
      end
      else true)
    t.chokes

(* Evaluated once per message at send time.  A partition or probabilistic
   drop short-circuits, then a choked link's exhausted byte window;
   otherwise latency spikes accumulate and a duplication draw may fire on
   top. *)
let decide t ~src_site ~dst_site ~bytes =
  let now = Sim.now t.sim in
  let dropped =
    List.exists
      (function
        | Partition_site { site; from_t; until_t } ->
            in_window now ~from_t ~until_t
            && (String.equal site src_site <> String.equal site dst_site)
        | Drop_messages { src_site = a; dst_site = b; p; from_t; until_t } ->
            in_window now ~from_t ~until_t
            && link_matches ~a ~b ~src_site ~dst_site
            && Random.State.float t.rng 1.0 < p
        | Crash_host _ | Hang_host _ | Crash_master _ | Latency_spike _ | Duplicate_messages _
        | Corrupt_messages _ | Corrupt_storage _ | Slow_host _ | Flaky_host _ | Choke_link _
        | Disk_full _ ->
            false)
      t.specs
  in
  if dropped then begin
    t.dropped <- t.dropped + 1;
    Everyware.Drop
  end
  else if t.chokes <> [] && not (choke_admits t ~now ~src_site ~dst_site ~bytes) then begin
    t.choked <- t.choked + 1;
    t.dropped <- t.dropped + 1;
    Everyware.Drop
  end
  else if
    (* a lost message beats a garbled one; a garbled one beats mere lateness
       (the payload is already trash, extra delay adds nothing to the model) *)
    List.exists
      (function
        | Corrupt_messages { src_site = a; dst_site = b; p; from_t; until_t } ->
            in_window now ~from_t ~until_t
            && link_matches ~a ~b ~src_site ~dst_site
            && Random.State.float t.rng 1.0 < p
        | _ -> false)
      t.specs
  then begin
    t.corrupted <- t.corrupted + 1;
    Everyware.Corrupt
  end
  else begin
    let extra_delay =
      List.fold_left
        (fun acc spec ->
          match spec with
          | Latency_spike { src_site = a; dst_site = b; extra; from_t; until_t }
            when in_window now ~from_t ~until_t && link_matches ~a ~b ~src_site ~dst_site ->
              acc +. extra
          | _ -> acc)
        0. t.specs
    in
    let duplicate_after =
      List.fold_left
        (fun acc spec ->
          match (acc, spec) with
          | None, Duplicate_messages { p; extra; from_t; until_t }
            when in_window now ~from_t ~until_t && Random.State.float t.rng 1.0 < p ->
              Some extra
          | _ -> acc)
        None t.specs
    in
    match (extra_delay, duplicate_after) with
    | 0., None -> Everyware.Deliver
    | 0., Some extra ->
        t.duplicated <- t.duplicated + 1;
        Everyware.Duplicate extra
    | d, None ->
        t.delayed <- t.delayed + 1;
        Everyware.Delay d
    | d, Some _ ->
        (* a delayed link also duplicating: count the dominant effect *)
        t.delayed <- t.delayed + 1;
        Everyware.Delay d
  end

let verdict_due t = t.verdict_due ()

let counters t =
  {
    crashes = t.crashes;
    hangs = t.hangs;
    master_crashes = t.master_crashes;
    dropped = t.dropped;
    delayed = t.delayed;
    duplicated = t.duplicated;
    corrupted = t.corrupted;
    storage_corruptions = t.storage_corruptions;
    slowdowns = t.slowdowns;
    choked = t.choked;
    disk_fulls = t.disk_fulls;
  }

let validate specs =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let prob what p = if p < 0. || p > 1. then Some (what, p) else None in
  let window what ~from_t ~until_t =
    if until_t < from_t then err "%s: until_t (%g) precedes from_t (%g)" what until_t from_t
    else Ok ()
  in
  let check = function
    | Crash_host { at; _ } | Hang_host { at; _ } ->
        if at < 0. then err "crash/hang time must be non-negative, got %g" at else Ok ()
    | Crash_master { at; restart_after; _ } ->
        if at < 0. then err "Crash_master: at must be non-negative, got %g" at
        else if restart_after < 0. then
          err "Crash_master: restart_after must be non-negative, got %g" restart_after
        else Ok ()
    | Drop_messages { p; from_t; until_t; _ } -> (
        match prob "Drop_messages" p with
        | Some (what, p) -> err "%s: probability %g outside [0, 1]" what p
        | None -> window "Drop_messages" ~from_t ~until_t)
    | Partition_site { from_t; until_t; _ } -> window "Partition_site" ~from_t ~until_t
    | Latency_spike { extra; from_t; until_t; _ } ->
        if extra < 0. then err "Latency_spike: extra must be non-negative, got %g" extra
        else window "Latency_spike" ~from_t ~until_t
    | Duplicate_messages { p; extra; from_t; until_t } -> (
        match prob "Duplicate_messages" p with
        | Some (what, p) -> err "%s: probability %g outside [0, 1]" what p
        | None ->
            if extra < 0. then err "Duplicate_messages: extra must be non-negative, got %g" extra
            else window "Duplicate_messages" ~from_t ~until_t)
    | Corrupt_messages { p; from_t; until_t; _ } -> (
        match prob "Corrupt_messages" p with
        | Some (what, p) -> err "%s: probability %g outside [0, 1]" what p
        | None -> window "Corrupt_messages" ~from_t ~until_t)
    | Corrupt_storage { at; journal_records; _ } ->
        if at < 0. then err "Corrupt_storage: at must be non-negative, got %g" at
        else if journal_records < 0 then
          err "Corrupt_storage: journal_records must be non-negative, got %d" journal_records
        else Ok ()
    | Slow_host { at; factor; _ } ->
        if at < 0. then err "Slow_host: at must be non-negative, got %g" at
        else if factor <= 0. then err "Slow_host: factor must be positive, got %g" factor
        else Ok ()
    | Flaky_host { factor; period; from_t; until_t; _ } ->
        if factor <= 0. then err "Flaky_host: factor must be positive, got %g" factor
        else if period <= 0. then err "Flaky_host: period must be positive, got %g" period
        else window "Flaky_host" ~from_t ~until_t
    | Choke_link { bytes_per_window; window = w; from_t; until_t; _ } ->
        if bytes_per_window < 1 then
          err "Choke_link: bytes_per_window must be at least 1, got %d" bytes_per_window
        else if w <= 0. then err "Choke_link: window must be positive, got %g" w
        else window "Choke_link" ~from_t ~until_t
    | Disk_full { at; quota; until_t } ->
        if at < 0. then err "Disk_full: at must be non-negative, got %g" at
        else if quota < 1 then err "Disk_full: quota must be at least 1 byte, got %d" quota
        else if until_t < at then
          err "Disk_full: until_t (%g) precedes at (%g)" until_t at
        else Ok ()
  in
  (* Two speed faults targeting the same host with overlapping windows
     would fight over the slowdown factor (last toggle wins), making the
     injected schedule ambiguous — reject the plan instead. *)
  let speed_windows =
    List.filter_map
      (function
        | Slow_host { host; at; _ } -> Some (host, at, infinity, "Slow_host")
        | Flaky_host { host; from_t; until_t; _ } -> Some (host, from_t, until_t, "Flaky_host")
        | _ -> None)
      specs
  in
  let rec overlap = function
    | [] -> Ok ()
    | (host, f1, u1, n1) :: rest -> (
        match
          List.find_opt (fun (h, f2, u2, _) -> h = host && f1 < u2 && f2 < u1) rest
        with
        | Some (_, _, _, n2) ->
            err "%s and %s overlap on host %d: one slowdown factor at a time" n1 n2 host
        | None -> overlap rest)
  in
  List.fold_left
    (fun acc spec -> match acc with Error _ -> acc | Ok () -> check spec)
    (Ok ()) specs
  |> function
  | Error _ as e -> e
  | Ok () -> overlap speed_windows

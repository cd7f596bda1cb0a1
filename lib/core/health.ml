(* Per-host health: EWMA signal tracking, incident history and a circuit
   breaker.  See DESIGN.md §9.

   The model owns its metrics registry (always enabled, independent of the
   run's --report flag): the adaptive-timeout and hedging decisions read
   percentiles from these histograms, so they must accumulate real samples
   even on runs with telemetry off.  Obs.disabled would hand out shared
   dummy instruments and silently break both. *)

type breaker = Closed | Open of { until_t : float } | Half_open

type host = {
  id : int;
  mutable ack_ewma : float; (* seconds; 0. until the first sample *)
  mutable ack_n : int;
  mutable gap_ewma : float; (* heartbeat inter-arrival, seconds *)
  mutable gap_jitter : float; (* EWMA of |gap - gap_ewma| *)
  mutable gap_n : int;
  mutable last_heartbeat : float; (* -1. until the first beat *)
  mutable last_decisions : int;
  mutable rate_ewma : float; (* solver decisions per virtual second *)
  mutable rate_n : int;
  mutable crashes : int;
  mutable quarantines : int;
  mutable corruptions : int;
  mutable retries : int;
  mutable breaker : breaker;
  mutable probation_streak : int; (* consecutive breaker trips *)
  mutable canary_out : bool; (* Half_open: probe assigned, unresolved *)
}

type t = {
  h_ack : Obs.Metrics.histogram; (* fleet-wide ack latency *)
  h_gap : Obs.Metrics.histogram; (* fleet-wide heartbeat gaps *)
  h_duration : Obs.Metrics.histogram; (* subproblem solve durations *)
  hosts : (int, host) Hashtbl.t;
  probation_base : float;
}

let alpha = 0.2

let ewma prev n x = if n = 0 then x else ((1. -. alpha) *. prev) +. (alpha *. x)

let create ?(probation_base = 30.) () =
  let metrics = Obs.Metrics.create ~enabled:true in
  {
    h_ack = Obs.Metrics.histogram metrics "health.ack_latency_s";
    h_gap = Obs.Metrics.histogram metrics "health.heartbeat_gap_s";
    h_duration = Obs.Metrics.histogram metrics "health.subproblem_duration_s";
    hosts = Hashtbl.create 16;
    probation_base;
  }

let host t id =
  match Hashtbl.find_opt t.hosts id with
  | Some h -> h
  | None ->
      let h =
        {
          id;
          ack_ewma = 0.;
          ack_n = 0;
          gap_ewma = 0.;
          gap_jitter = 0.;
          gap_n = 0;
          last_heartbeat = -1.;
          last_decisions = 0;
          rate_ewma = 0.;
          rate_n = 0;
          crashes = 0;
          quarantines = 0;
          corruptions = 0;
          retries = 0;
          breaker = Closed;
          probation_streak = 0;
          canary_out = false;
        }
      in
      Hashtbl.add t.hosts id h;
      h

(* ---------- signal feeds ---------- *)

let note_ack t ~host:id ~latency =
  if latency >= 0. then begin
    let h = host t id in
    Obs.Metrics.observe t.h_ack latency;
    h.ack_ewma <- ewma h.ack_ewma h.ack_n latency;
    h.ack_n <- h.ack_n + 1
  end

let note_heartbeat t ~host:id ~now ~decisions =
  let h = host t id in
  if h.last_heartbeat >= 0. then begin
    let gap = now -. h.last_heartbeat in
    if gap > 0. then begin
      Obs.Metrics.observe t.h_gap gap;
      h.gap_jitter <- ewma h.gap_jitter h.gap_n (Float.abs (gap -. h.gap_ewma));
      h.gap_ewma <- ewma h.gap_ewma h.gap_n gap;
      h.gap_n <- h.gap_n + 1;
      (* A new subproblem resets the client's solver, so the decision
         counter can step backwards — skip those beats rather than
         recording a negative rate. *)
      let delta = decisions - h.last_decisions in
      if delta >= 0 then begin
        h.rate_ewma <- ewma h.rate_ewma h.rate_n (float_of_int delta /. gap);
        h.rate_n <- h.rate_n + 1
      end
    end
  end;
  h.last_heartbeat <- now;
  h.last_decisions <- decisions

let note_duration t ~elapsed = if elapsed >= 0. then Obs.Metrics.observe t.h_duration elapsed

(* ---------- circuit breaker ---------- *)

type incident = [ `Crash | `Quarantine | `Exhausted | `Corruption | `Retry ]

let incident t ~host:id ~now kind =
  let h = host t id in
  let trip () =
    h.probation_streak <- h.probation_streak + 1;
    let until_t =
      now +. (t.probation_base *. (2. ** float_of_int (h.probation_streak - 1)))
    in
    h.breaker <- Open { until_t };
    h.canary_out <- false;
    Some until_t
  in
  match kind with
  | `Crash ->
      h.crashes <- h.crashes + 1;
      trip ()
  | `Quarantine ->
      h.quarantines <- h.quarantines + 1;
      trip ()
  | `Exhausted -> trip ()
  | `Corruption ->
      h.corruptions <- h.corruptions + 1;
      None
  | `Retry ->
      h.retries <- h.retries + 1;
      None

let admissible t ~host:id ~now =
  let h = host t id in
  match h.breaker with
  | Closed -> true
  | Half_open -> not h.canary_out
  | Open { until_t } ->
      if now >= until_t then begin
        h.breaker <- Half_open;
        true
      end
      else false

let note_assigned t ~host:id =
  let h = host t id in
  match h.breaker with Half_open -> h.canary_out <- true | Closed | Open _ -> ()

let note_success t ~host:id =
  let h = host t id in
  match h.breaker with
  | Half_open ->
      h.breaker <- Closed;
      h.probation_streak <- 0;
      h.canary_out <- false;
      true
  | Closed | Open _ -> false

(* ---------- blended score ---------- *)

let clamp lo hi x = Float.min hi (Float.max lo x)

let fleet_median_rate t =
  let rates =
    Hashtbl.fold (fun _ h acc -> if h.rate_n > 0 then h.rate_ewma :: acc else acc) t.hosts []
  in
  match List.sort compare rates with
  | [] -> 0.
  | sorted -> List.nth sorted (List.length sorted / 2)

let score t ~host:id =
  let h = host t id in
  match h.breaker with
  | Open _ -> 0.
  | (Half_open | Closed) as b ->
      let incidents =
        1.
        /. (1.
           +. (0.5 *. float_of_int h.crashes)
           +. (0.5 *. float_of_int h.quarantines)
           +. (0.25 *. float_of_int h.corruptions)
           +. (0.02 *. float_of_int h.retries))
      in
      let latency =
        if h.ack_n = 0 then 1.
        else
          let p50 = Obs.Metrics.quantile t.h_ack 0.5 in
          if p50 <= 0. || h.ack_ewma <= 0. then 1. else clamp 0.25 1. (p50 /. h.ack_ewma)
      in
      let progress =
        if h.rate_n = 0 then 1.
        else
          let median = fleet_median_rate t in
          if median <= 0. then 1. else clamp 0.1 1. (h.rate_ewma /. median)
      in
      let raw = incidents *. latency *. progress in
      let raw = if b = Half_open then raw *. 0.5 else raw in
      Float.max 0.05 raw

(* ---------- percentile-derived deadlines ---------- *)

let quantile_if h ~min_count q =
  if Obs.Metrics.hist_count h >= min_count then Some (Obs.Metrics.quantile h q) else None

let duration_p99 t = quantile_if t.h_duration ~min_count:5 0.99

let hb_gap_p99 t = quantile_if t.h_gap ~min_count:20 0.99

let ack_p99 t = quantile_if t.h_ack ~min_count:20 0.99

(* Adaptive deadlines may only tighten the configured constants, never
   loosen them: the config value stays the worst-case bound the chaos
   tests were written against. *)

let suspect_timeout t ~heartbeat_period ~default =
  match hb_gap_p99 t with
  | None -> default
  | Some p99 -> clamp (2.5 *. heartbeat_period) default (3. *. p99)

let retry_base t ~default =
  match ack_p99 t with
  | None -> None
  | Some p99 -> Some (clamp (0.25 *. default) default (2. *. p99))

(* ---------- reporting ---------- *)

type view = {
  v_host : int;
  v_score : float;
  v_state : string;
  v_ack_ewma : float;
  v_hb_jitter : float;
  v_rate : float;
  v_crashes : int;
  v_quarantines : int;
  v_corruptions : int;
  v_retries : int;
}

let state_string h =
  match h.breaker with
  | Closed -> "ok"
  | Open _ -> "probation"
  | Half_open -> "canary"

let views t =
  Hashtbl.fold (fun _ h acc -> h :: acc) t.hosts []
  |> List.sort (fun a b -> compare a.id b.id)
  |> List.map (fun h ->
         {
           v_host = h.id;
           v_score = score t ~host:h.id;
           v_state = state_string h;
           v_ack_ewma = h.ack_ewma;
           v_hb_jitter = h.gap_jitter;
           v_rate = h.rate_ewma;
           v_crashes = h.crashes;
           v_quarantines = h.quarantines;
           v_corruptions = h.corruptions;
           v_retries = h.retries;
         })

let to_json t =
  let module J = Obs.Json in
  J.List
    (List.map
       (fun v ->
         J.Obj
           [
             ("host", J.Int v.v_host);
             ("score", J.Float v.v_score);
             ("state", J.String v.v_state);
             ("ack_ewma_s", J.Float v.v_ack_ewma);
             ("hb_jitter_s", J.Float v.v_hb_jitter);
             ("progress_rate", J.Float v.v_rate);
             ("crashes", J.Int v.v_crashes);
             ("quarantines", J.Int v.v_quarantines);
             ("corruptions", J.Int v.v_corruptions);
             ("retries", J.Int v.v_retries);
           ])
       (views t))

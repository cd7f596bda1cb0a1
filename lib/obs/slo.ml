(* Per-tenant service-level objectives with rolling error budgets and
   multi-window burn-rate alerts.

   Spec grammar (see {!parse}):

     spec      := tenant-slo (';' tenant-slo)*
     tenant-slo:= tenant ':' target (',' target)*
     tenant    := '*' | name            (* '*' = default for any tenant *)
     target    := 'queue_wait' '<' sec ['@' obj]
                | 'solve'      '<' sec ['@' obj]
                | 'errors'     '<' frac

   e.g.  "*:queue_wait<30@0.9,solve<120@0.95,errors<0.05;batch:solve<600"

   Each (tenant, target) is a good/bad event stream.  The error budget is
   1 - objective; the burn rate over a window is
   bad_fraction / (1 - objective), so burn 1.0 = exactly on budget.  A
   fast-burn alert fires when both the short and the long window burn
   past the threshold — the classic multi-window guard against alerting
   on a single bad event. *)

type kind = Queue_wait | Solve | Errors

let kind_name = function
  | Queue_wait -> "queue_wait"
  | Solve -> "solve"
  | Errors -> "errors"

type target = { kind : kind; bound : float; objective : float }

type spec = { raw : string; targets : (string * target list) list }
(** tenant -> targets; tenant "*" is the wildcard fallback *)

let spec_string s = s.raw

let default_objective = 0.9

let parse_target s =
  let s = String.trim s in
  match String.index_opt s '<' with
  | None -> Error (Printf.sprintf "target %S: expected kind<bound" s)
  | Some i -> (
      let kind_s = String.trim (String.sub s 0 i) in
      let rest = String.sub s (i + 1) (String.length s - i - 1) in
      let bound_s, obj_s =
        match String.index_opt rest '@' with
        | None -> (String.trim rest, None)
        | Some j ->
            ( String.trim (String.sub rest 0 j),
              Some (String.trim (String.sub rest (j + 1) (String.length rest - j - 1))) )
      in
      let kind =
        match kind_s with
        | "queue_wait" -> Ok Queue_wait
        | "solve" -> Ok Solve
        | "errors" -> Ok Errors
        | k -> Error (Printf.sprintf "unknown SLI %S (want queue_wait|solve|errors)" k)
      in
      match kind with
      | Error e -> Error e
      | Ok kind -> (
          match float_of_string_opt bound_s with
          | None -> Error (Printf.sprintf "target %S: bad bound %S" s bound_s)
          | Some bound when bound <= 0.0 && kind <> Errors ->
              Error (Printf.sprintf "target %S: bound must be positive" s)
          | Some bound when kind = Errors && (bound <= 0.0 || bound >= 1.0) ->
              Error (Printf.sprintf "target %S: error fraction must be in (0,1)" s)
          | Some bound -> (
              match (kind, obj_s) with
              | Errors, Some _ ->
                  Error (Printf.sprintf "target %S: errors takes no @objective" s)
              | Errors, None ->
                  (* errors<f is sugar for objective 1-f on the error stream *)
                  Ok { kind; bound; objective = 1.0 -. bound }
              | _, None -> Ok { kind; bound; objective = default_objective }
              | _, Some o -> (
                  match float_of_string_opt o with
                  | Some o when o > 0.0 && o < 1.0 -> Ok { kind; bound; objective = o }
                  | _ ->
                      Error
                        (Printf.sprintf "target %S: objective must be in (0,1)" s)))))

let parse raw =
  let tenant_slos =
    String.split_on_char ';' raw |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  if tenant_slos = [] then Error "empty SLO spec"
  else
    let rec go acc = function
      | [] -> Ok { raw; targets = List.rev acc }
      | part :: rest -> (
          match String.index_opt part ':' with
          | None -> Error (Printf.sprintf "%S: expected tenant:target,..." part)
          | Some i -> (
              let tenant = String.trim (String.sub part 0 i) in
              let tenant = if tenant = "" then "*" else tenant in
              if List.mem_assoc tenant acc then
                Error (Printf.sprintf "duplicate tenant %S in SLO spec" tenant)
              else
                let targets_s =
                  String.sub part (i + 1) (String.length part - i - 1)
                  |> String.split_on_char ','
                in
                let rec targets acc_t = function
                  | [] -> Ok (List.rev acc_t)
                  | t :: ts -> (
                      match parse_target t with
                      | Ok t -> targets (t :: acc_t) ts
                      | Error e -> Error e)
                in
                match targets [] targets_s with
                | Error e -> Error e
                | Ok [] -> Error (Printf.sprintf "tenant %S: no targets" tenant)
                | Ok ts -> go ((tenant, ts) :: acc) rest))
    in
    go [] tenant_slos

(* ---------- runtime tracking ---------- *)

type sample = { at : float; bad : bool }

type stream = {
  tenant : string;
  target : target;
  mutable samples : sample list;  (** newest first, trimmed to window_long *)
  mutable total : int;
  mutable total_bad : int;
  mutable fast_burning : bool;
}

type t = {
  spec : spec;
  window_short : float;
  window_long : float;
  fast_burn : float;
  mutable streams : stream list;  (** creation order *)
  mutable on_fast_burn : (tenant:string -> target:string -> burn:float -> unit) list;
}

let create ?(window_short = 60.0) ?(window_long = 600.0) ?(fast_burn = 6.0) spec =
  { spec; window_short; window_long; fast_burn; streams = []; on_fast_burn = [] }

let on_fast_burn t f = t.on_fast_burn <- t.on_fast_burn @ [ f ]

let targets_for t tenant =
  match List.assoc_opt tenant t.spec.targets with
  | Some ts -> ts
  | None -> ( match List.assoc_opt "*" t.spec.targets with Some ts -> ts | None -> [])

let stream_for t tenant target =
  match
    List.find_opt (fun s -> s.tenant = tenant && s.target == target) t.streams
  with
  | Some s -> s
  | None ->
      let s =
        { tenant; target; samples = []; total = 0; total_bad = 0; fast_burning = false }
      in
      t.streams <- t.streams @ [ s ];
      s

let window_stats s ~now ~window =
  let from_t = now -. window in
  let n = ref 0 and bad = ref 0 in
  List.iter
    (fun smp ->
      if smp.at >= from_t then begin
        incr n;
        if smp.bad then incr bad
      end)
    s.samples;
  (!n, !bad)

let burn_rate s ~now ~window =
  let n, bad = window_stats s ~now ~window in
  if n = 0 then 0.0
  else
    let budget = 1.0 -. s.target.objective in
    if budget <= 0.0 then 0.0 else float_of_int bad /. float_of_int n /. budget

let record t s ~now ~bad =
  s.samples <- { at = now; bad } :: s.samples;
  s.total <- s.total + 1;
  if bad then s.total_bad <- s.total_bad + 1;
  (* trim beyond the long window *)
  let from_t = now -. t.window_long in
  s.samples <- List.filter (fun smp -> smp.at >= from_t) s.samples;
  let short = burn_rate s ~now ~window:t.window_short in
  let long = burn_rate s ~now ~window:t.window_long in
  let burning = short >= t.fast_burn && long >= t.fast_burn in
  if burning && not s.fast_burning then
    List.iter
      (fun f -> f ~tenant:s.tenant ~target:(kind_name s.target.kind) ~burn:short)
      t.on_fast_burn;
  s.fast_burning <- burning

let note_sample t ~now ~tenant kind value =
  List.iter
    (fun target ->
      if target.kind = kind then
        record t (stream_for t tenant target) ~now ~bad:(value >= target.bound))
    (targets_for t tenant)

let note_queue_wait t ~now ~tenant wait = note_sample t ~now ~tenant Queue_wait wait

let note_solved t ~now ~tenant latency =
  note_sample t ~now ~tenant Solve latency;
  (* a completed job is a good event on the error stream *)
  List.iter
    (fun target ->
      if target.kind = Errors then record t (stream_for t tenant target) ~now ~bad:false)
    (targets_for t tenant)

let note_error t ~now ~tenant =
  List.iter
    (fun target ->
      if target.kind = Errors then record t (stream_for t tenant target) ~now ~bad:true)
    (targets_for t tenant)

let json_of_stream t ~now s =
  let n_short, bad_short = window_stats s ~now ~window:t.window_short in
  let n_long, bad_long = window_stats s ~now ~window:t.window_long in
  let budget = 1.0 -. s.target.objective in
  let burned =
    if s.total = 0 || budget <= 0.0 then 0.0
    else float_of_int s.total_bad /. float_of_int s.total /. budget
  in
  Json.Obj
    [
      ("tenant", Json.String s.tenant);
      ("sli", Json.String (kind_name s.target.kind));
      ("bound", Json.Float s.target.bound);
      ("objective", Json.Float s.target.objective);
      ("events", Json.Int s.total);
      ("bad", Json.Int s.total_bad);
      ("budget_burned", Json.Float burned);
      ( "burn_short",
        Json.Obj
          [
            ("window_s", Json.Float t.window_short);
            ("events", Json.Int n_short);
            ("bad", Json.Int bad_short);
            ("rate", Json.Float (burn_rate s ~now ~window:t.window_short));
          ] );
      ( "burn_long",
        Json.Obj
          [
            ("window_s", Json.Float t.window_long);
            ("events", Json.Int n_long);
            ("bad", Json.Int bad_long);
            ("rate", Json.Float (burn_rate s ~now ~window:t.window_long));
          ] );
      ("fast_burning", Json.Bool s.fast_burning);
    ]

let to_json t ~now =
  Json.Obj
    [
      ("spec", Json.String t.spec.raw);
      ("fast_burn_threshold", Json.Float t.fast_burn);
      ("objectives", Json.List (List.map (json_of_stream t ~now) t.streams));
    ]

let summary t ~now =
  let buf = Buffer.create 256 in
  List.iter
    (fun s ->
      Buffer.add_string buf
        (Printf.sprintf "%-12s %-10s <%g@%g  events=%d bad=%d burned=%.2f%s\n" s.tenant
           (kind_name s.target.kind) s.target.bound s.target.objective s.total
           s.total_bad
           (let budget = 1.0 -. s.target.objective in
            if s.total = 0 || budget <= 0.0 then 0.0
            else float_of_int s.total_bad /. float_of_int s.total /. budget)
           (if s.fast_burning then "  FAST-BURN" else "")))
    t.streams;
  ignore now;
  Buffer.contents buf

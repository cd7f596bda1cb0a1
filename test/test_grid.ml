(* Tests for the Grid substrate: simulator, traces, NWS, network, batch,
   messaging. *)

module Sim = Grid.Sim
module Trace = Grid.Trace
module Nws = Grid.Nws
module Network = Grid.Network
module Everyware = Grid.Everyware
module Batch = Grid.Batch
module Resource = Grid.Resource

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let flt = Alcotest.float 1e-9

(* ---------- Sim ---------- *)

let test_sim_ordering () =
  let sim = Sim.create () in
  let log = ref [] in
  ignore (Sim.schedule sim ~delay:2.0 (fun () -> log := 2 :: !log));
  ignore (Sim.schedule sim ~delay:1.0 (fun () -> log := 1 :: !log));
  ignore (Sim.schedule sim ~delay:3.0 (fun () -> log := 3 :: !log));
  Sim.run sim ~until:10.;
  check (Alcotest.list int) "events in time order" [ 1; 2; 3 ] (List.rev !log);
  check flt "clock at last event" 3.0 (Sim.now sim)

let test_sim_fifo_ties () =
  let sim = Sim.create () in
  let log = ref [] in
  for i = 1 to 5 do
    ignore (Sim.schedule sim ~delay:1.0 (fun () -> log := i :: !log))
  done;
  Sim.run sim ~until:2.;
  check (Alcotest.list int) "same-time events fire in scheduling order" [ 1; 2; 3; 4; 5 ]
    (List.rev !log)

let test_sim_cancel () =
  let sim = Sim.create () in
  let fired = ref false in
  let e = Sim.schedule sim ~delay:1.0 (fun () -> fired := true) in
  Sim.cancel sim e;
  Sim.run sim ~until:10.;
  check bool "cancelled event does not fire" false !fired;
  check int "pending empty" 0 (Sim.pending sim)

let test_sim_cancel_fired_no_leak () =
  let sim = Sim.create () in
  let e = Sim.schedule sim ~delay:1.0 (fun () -> ()) in
  Sim.run sim ~until:10.;
  Sim.cancel sim e;
  (* cancelling an already-fired id must not leave a tombstone behind *)
  check int "late cancel leaves pending at zero" 0 (Sim.pending sim);
  ignore (Sim.schedule sim ~delay:1.0 (fun () -> ()));
  check int "fresh event counted correctly" 1 (Sim.pending sim)

let test_sim_cancel_twice () =
  let sim = Sim.create () in
  let fired = ref 0 in
  let e = Sim.schedule sim ~delay:1.0 (fun () -> incr fired) in
  ignore (Sim.schedule sim ~delay:2.0 (fun () -> incr fired));
  Sim.cancel sim e;
  Sim.cancel sim e;
  check int "double cancel counts once" 1 (Sim.pending sim);
  Sim.run sim ~until:10.;
  check int "only the live event fired" 1 !fired;
  check int "queue drained" 0 (Sim.pending sim)

(* The queue depth is a running count, not a recount: every way an event
   leaves the queue lowers it once, and no other call moves it. *)
let test_sim_pending_count () =
  let sim = Sim.create ~obs:(Obs.create ()) () in
  let a = Sim.schedule sim ~delay:1.0 ignore in
  let b = Sim.schedule sim ~delay:2.0 ignore in
  let c = Sim.schedule sim ~delay:3.0 ignore in
  ignore (Sim.schedule_at sim ~time:4.0 ignore);
  check int "four scheduled" 4 (Sim.pending sim);
  check bool "step fires a" true (Sim.step sim);
  check int "a fired" 3 (Sim.pending sim);
  Sim.cancel sim c;
  check int "c cancelled" 2 (Sim.pending sim);
  Sim.cancel sim c;
  check int "double cancel of c" 2 (Sim.pending sim);
  Sim.cancel sim a;
  check int "cancel of a after it fired" 2 (Sim.pending sim);
  ignore (Sim.step sim);
  Sim.cancel sim b;
  check int "cancel of b after it fired" 1 (Sim.pending sim);
  ignore (Sim.step sim);
  check int "drained" 0 (Sim.pending sim);
  check bool "nothing left to step" false (Sim.step sim);
  check int "still drained" 0 (Sim.pending sim)

(* ---------- Sim against a model ---------- *)

type sim_op =
  | Schedule of float  (** a delay, possibly negative or 0 (a tie) *)
  | Schedule_at of float  (** an absolute time, possibly past *)
  | Cancel of int  (** the [k]-th event ever scheduled, fired or not *)
  | Step
  | Run_until of float  (** [now] plus this *)

let pp_sim_op = function
  | Schedule d -> Printf.sprintf "schedule %g" d
  | Schedule_at t -> Printf.sprintf "schedule_at %g" t
  | Cancel k -> Printf.sprintf "cancel %d" k
  | Step -> "step"
  | Run_until d -> Printf.sprintf "run +%g" d

(* The reference: a list of (time, seq, event) kept sorted by time, then
   seq, and stepped from its head. *)
module Model = struct
  type t = { mutable clock : float; mutable queue : (float * int * int) list; mutable seq : int }

  let create () = { clock = 0.; queue = []; seq = 0 }

  let schedule_at m ~time k =
    let entry = (Float.max time m.clock, m.seq, k) in
    m.seq <- m.seq + 1;
    m.queue <- List.merge compare m.queue [ entry ]

  let cancel m k = m.queue <- List.filter (fun (_, _, k') -> k' <> k) m.queue

  let step m fire =
    match m.queue with
    | [] -> false
    | (time, _, k) :: rest ->
        m.clock <- time;
        m.queue <- rest;
        fire k;
        true

  let rec run m fire ~until =
    match m.queue with
    | (time, _, _) :: _ when time <= until ->
        ignore (step m fire);
        run m fire ~until
    | _ -> ()
end

let gen_sim_ops =
  let open QCheck.Gen in
  let delay = oneofl [ -1.; 0.; 0.; 0.5; 1.; 2.5; 1e9 ] in
  list_size (int_range 1 60)
    (frequency
       [
         (4, map (fun d -> Schedule d) delay);
         (2, map (fun t -> Schedule_at t) (oneofl [ 0.; 1.; 2.; 3.5; 1e9 ]));
         (3, map (fun k -> Cancel k) (int_bound 30));
         (3, return Step);
         (1, map (fun d -> Run_until d) (oneofl [ 0.; 0.5; 1.; 3. ]));
       ])

(* Each closure is created here, in a frame that returns, and put in a
   weak slot: once the simulator lets go of it, nothing else holds it. *)
let schedule_logged sim log weak k at =
  let f () = log := k :: !log in
  Weak.set weak k (Some (Obj.repr f));
  at sim f

let prop_sim_matches_model =
  QCheck.Test.make ~name:"sim matches a sorted-list model" ~count:300
    (QCheck.make ~print:(fun ops -> String.concat "; " (List.map pp_sim_op ops)) gen_sim_ops)
    (fun ops ->
      let sim = Sim.create () and model = Model.create () in
      let log = ref [] and model_log = ref [] in
      let weak = Weak.create 64 and ids = Array.make 64 None and issued = ref 0 in
      let fire k = model_log := k :: !model_log in
      let schedule at_sim at_model =
        let k = !issued in
        incr issued;
        ids.(k) <- Some (schedule_logged sim log weak k at_sim);
        at_model k
      in
      List.for_all
        (fun op ->
          let released =
            match op with
            | Schedule d ->
                schedule (fun sim f -> Sim.schedule sim ~delay:d f) (fun k ->
                    Model.schedule_at model ~time:(model.Model.clock +. Float.max 0. d) k);
                true
            | Schedule_at time ->
                schedule (fun sim f -> Sim.schedule_at sim ~time f) (Model.schedule_at model ~time);
                true
            | Cancel k -> (
                match if k < !issued then ids.(k) else None with
                | None -> true
                | Some id ->
                    Sim.cancel sim id;
                    Model.cancel model k;
                    (* a cancelled or fired closure is already unreachable *)
                    Gc.full_major ();
                    Weak.get weak k = None)
            | Step -> Sim.step sim = Model.step model fire
            | Run_until d ->
                let until = model.Model.clock +. d in
                Sim.run sim ~until;
                Model.run model fire ~until;
                true
          in
          released && !log = !model_log
          && Sim.now sim = model.Model.clock
          && Sim.pending sim = List.length model.Model.queue)
        ops)

(* Far-future events scheduled and cancelled at once never fire, so only
   rebuilding can drop their records: storage must track the events
   still pending, not the ones ever scheduled. *)
let test_sim_cancel_storage () =
  let with_pending () =
    let sim = Sim.create () in
    for k = 1 to 10 do
      ignore (Sim.schedule sim ~delay:(float k) ignore)
    done;
    sim
  in
  let churned = with_pending () in
  for _ = 1 to 100_000 do
    Sim.cancel churned (Sim.schedule churned ~delay:1e12 ignore)
  done;
  check int "pending" 10 (Sim.pending churned);
  let words sim = Obj.reachable_words (Obj.repr sim) in
  let extra = words churned - words (with_pending ()) in
  check bool (Printf.sprintf "storage O(pending): %d extra words" extra) true (extra < 1_000);
  Sim.run churned ~until:1e13;
  check int "the ten fired" 10 (Sim.events_fired churned)

let test_sim_nested_schedule () =
  let sim = Sim.create () in
  let log = ref [] in
  ignore
    (Sim.schedule sim ~delay:1.0 (fun () ->
         log := "a" :: !log;
         ignore (Sim.schedule sim ~delay:0.5 (fun () -> log := "b" :: !log))));
  Sim.run sim ~until:10.;
  check (Alcotest.list Alcotest.string) "nested event fires" [ "a"; "b" ] (List.rev !log);
  check flt "clock advanced" 1.5 (Sim.now sim)

let test_sim_until_boundary () =
  let sim = Sim.create () in
  let fired = ref 0 in
  ignore (Sim.schedule sim ~delay:1.0 (fun () -> incr fired));
  ignore (Sim.schedule sim ~delay:5.0 (fun () -> incr fired));
  Sim.run sim ~until:2.0;
  check int "only the early event fired" 1 !fired;
  check int "late event still pending" 1 (Sim.pending sim);
  Sim.run sim ~until:10.0;
  check int "late event fires later" 2 !fired

let test_sim_negative_delay_clamped () =
  let sim = Sim.create () in
  let fired = ref false in
  ignore (Sim.schedule sim ~delay:(-5.) (fun () -> fired := true));
  Sim.run sim ~until:0.;
  check bool "clamped to now" true !fired

let test_sim_determinism () =
  let run () =
    let sim = Sim.create () in
    let log = ref [] in
    for i = 0 to 20 do
      ignore
        (Sim.schedule sim ~delay:(float_of_int ((i * 7) mod 5)) (fun () -> log := i :: !log))
    done;
    Sim.run sim ~until:100.;
    !log
  in
  check bool "two identical runs agree" true (run () = run ())

(* ---------- Trace ---------- *)

let test_trace_constant () =
  let t = Trace.constant 0.7 in
  check flt "constant" 0.7 (Trace.availability t 0.);
  check flt "constant later" 0.7 (Trace.availability t 1e6)

let test_trace_clamping () =
  let hi = Trace.constant 5.0 and lo = Trace.constant (-1.0) in
  check flt "clamped high" 1.0 (Trace.availability hi 0.);
  check flt "clamped low" 0.05 (Trace.availability lo 0.)

let test_trace_periodic_bounds () =
  let t = Trace.periodic ~mean:0.6 ~amplitude:0.3 ~period:100. ~phase:0. in
  let ok = ref true in
  for i = 0 to 200 do
    let a = Trace.availability t (float_of_int i) in
    if a < 0.05 || a > 1.0 then ok := false
  done;
  check bool "periodic stays in bounds" true !ok

let test_trace_noisy_deterministic () =
  let t1 = Trace.noisy ~seed:42 ~mean:0.5 ~amplitude:0.4 ~interval:10. in
  let t2 = Trace.noisy ~seed:42 ~mean:0.5 ~amplitude:0.4 ~interval:10. in
  let same = ref true in
  for i = 0 to 100 do
    let time = float_of_int i *. 3.3 in
    if Trace.availability t1 time <> Trace.availability t2 time then same := false
  done;
  check bool "same seed, same trace" true !same;
  let t3 = Trace.noisy ~seed:43 ~mean:0.5 ~amplitude:0.4 ~interval:10. in
  let differs = ref false in
  for i = 0 to 100 do
    let time = float_of_int i *. 13.7 in
    if Trace.availability t1 time <> Trace.availability t3 time then differs := true
  done;
  check bool "different seed differs somewhere" true !differs

let test_trace_overlay () =
  let t = Trace.overlay (Trace.constant 0.8) (Trace.constant 0.5) in
  check flt "product" 0.4 (Trace.availability t 0.)

(* ---------- NWS ---------- *)

let test_nws_empty_forecast () =
  let f = Nws.create () in
  check flt "optimistic before data" 1.0 (Nws.forecast f)

let test_nws_constant_series () =
  let f = Nws.create () in
  for _ = 1 to 50 do
    Nws.observe f 0.42
  done;
  check flt "constant series forecast" 0.42 (Nws.forecast f);
  check bool "near-zero error" true (Nws.mae f < 0.05)

let test_nws_tracks_shift () =
  let f = Nws.create () in
  for _ = 1 to 30 do
    Nws.observe f 0.9
  done;
  for _ = 1 to 30 do
    Nws.observe f 0.2
  done;
  let fc = Nws.forecast f in
  check bool "forecast moved to the new regime" true (fc < 0.5)

let test_nws_adaptive_beats_worst () =
  (* On an alternating series the running mean is the best predictor;
     the adaptive choice must not be worse than 2x the best expert. *)
  let f = Nws.create () in
  for i = 1 to 200 do
    Nws.observe f (if i mod 2 = 0 then 0.2 else 0.8)
  done;
  check bool "adaptive error bounded" true (Nws.mae f <= 0.65);
  check int "observation count" 200 (Nws.observations f)

(* Adversarial series: the mixture of experts must converge onto a
   responsive predictor and keep its cumulative error bounded whatever
   shape the availability trace takes. *)

let test_nws_step_change () =
  let f = Nws.create () in
  for _ = 1 to 100 do
    Nws.observe f 0.9
  done;
  for _ = 1 to 200 do
    Nws.observe f 0.3
  done;
  check flt "forecast converged to the new regime" 0.3 (Nws.forecast f);
  (* the running mean stays polluted by the old regime forever; the
     winner must be one of the responsive experts *)
  check bool "best predictor abandoned the stale mean" true (Nws.best_predictor f <> "mean");
  check bool "one step only costs one error spike" true (Nws.mae f <= 0.05)

let test_nws_oscillation_bounded () =
  (* worst case for any point predictor: a square wave.  The adaptive
     error must stay within the wave's amplitude and the forecast
     between its rails. *)
  let f = Nws.create () in
  for i = 1 to 300 do
    Nws.observe f (if i mod 2 = 0 then 0.1 else 0.9)
  done;
  check bool "mae bounded by the amplitude" true (Nws.mae f <= 0.5);
  let fc = Nws.forecast f in
  check bool "forecast between the rails" true (fc >= 0.1 && fc <= 0.9)

let test_nws_slow_drift () =
  let f = Nws.create () in
  for i = 0 to 499 do
    Nws.observe f (0.2 +. (0.6 *. float_of_int i /. 499.))
  done;
  let fc = Nws.forecast f in
  check bool "forecast tracks the head of the drift" true (Float.abs (fc -. 0.8) < 0.15);
  check bool "tracking error stays small" true (Nws.mae f < 0.05);
  check bool "drift winner is a responsive expert" true (Nws.best_predictor f <> "mean")

(* ---------- Network ---------- *)

let test_network_intra_vs_inter () =
  let net = Network.create () in
  let intra = Network.transfer_time net ~src:"ucsb" ~dst:"ucsb" ~bytes:1_000_000 in
  let inter = Network.transfer_time net ~src:"ucsb" ~dst:"utk" ~bytes:1_000_000 in
  check bool "LAN much faster than WAN" true (intra *. 10. < inter)

let test_network_custom_link () =
  let net = Network.create () in
  Network.set_link net "a" "b" ~latency:1.0 ~bandwidth:10.;
  check flt "custom link time" (1.0 +. 10.) (Network.transfer_time net ~src:"a" ~dst:"b" ~bytes:100);
  check flt "symmetric" (1.0 +. 10.) (Network.transfer_time net ~src:"b" ~dst:"a" ~bytes:100)

let test_network_size_monotone () =
  let net = Network.create () in
  let t1 = Network.transfer_time net ~src:"a" ~dst:"b" ~bytes:1_000 in
  let t2 = Network.transfer_time net ~src:"a" ~dst:"b" ~bytes:1_000_000 in
  check bool "bigger messages take longer" true (t2 > t1)

(* ---------- Everyware ---------- *)

let test_everyware_delivery () =
  let sim = Sim.create () in
  let net = Network.create () in
  let bus = Everyware.create sim net in
  let received = ref [] in
  Everyware.register bus ~id:1 ~site:"ucsb" ~handler:(fun ~src msg -> received := (src, msg) :: !received);
  Everyware.register bus ~id:2 ~site:"utk" ~handler:(fun ~src:_ _ -> ());
  Everyware.send bus ~src:2 ~dst:1 ~bytes:1000 "hello";
  check int "not yet delivered" 0 (List.length !received);
  Sim.run sim ~until:10.;
  check (Alcotest.list (Alcotest.pair int Alcotest.string)) "delivered with source" [ (2, "hello") ]
    !received;
  check int "counted" 1 (Everyware.messages_sent bus);
  check int "bytes counted" 1000 (Everyware.bytes_sent bus)

let test_everyware_big_messages_slower () =
  let sim = Sim.create () in
  let net = Network.create () in
  let bus = Everyware.create sim net in
  let t_small = ref 0. and t_big = ref 0. in
  Everyware.register bus ~id:1 ~site:"ucsb" ~handler:(fun ~src:_ -> function
    | "small" -> t_small := Sim.now sim
    | _ -> t_big := Sim.now sim);
  Everyware.register bus ~id:2 ~site:"utk" ~handler:(fun ~src:_ _ -> ());
  Everyware.send bus ~src:2 ~dst:1 ~bytes:100 "small";
  Everyware.send bus ~src:2 ~dst:1 ~bytes:100_000_000 "big";
  Sim.run sim ~until:1e9;
  check bool "big after small" true (!t_big > !t_small)

let test_everyware_unregistered_drop () =
  let sim = Sim.create () in
  let bus = Everyware.create sim (Network.create ()) in
  Everyware.register bus ~id:1 ~site:"a" ~handler:(fun ~src:_ _ -> ());
  Everyware.send bus ~src:1 ~dst:99 ~bytes:10 "lost";
  Sim.run sim ~until:10. (* must not raise *)

let test_everyware_unregister_in_flight () =
  let sim = Sim.create () in
  let bus = Everyware.create sim (Network.create ()) in
  let got = ref false in
  Everyware.register bus ~id:1 ~site:"a" ~handler:(fun ~src:_ _ -> got := true);
  Everyware.register bus ~id:2 ~site:"b" ~handler:(fun ~src:_ _ -> ());
  Everyware.send bus ~src:2 ~dst:1 ~bytes:10 "x";
  Everyware.unregister bus ~id:1;
  Sim.run sim ~until:10.;
  check bool "message to dead endpoint dropped" false !got

let test_everyware_fault_drop () =
  let sim = Sim.create () in
  let bus = Everyware.create sim (Network.create ()) in
  let got = ref 0 in
  Everyware.register bus ~id:1 ~site:"a" ~handler:(fun ~src:_ _ -> incr got);
  Everyware.register bus ~id:2 ~site:"b" ~handler:(fun ~src:_ _ -> incr got);
  Everyware.set_fault bus (fun ~src_site:_ ~dst_site ~bytes:_ ->
      if String.equal dst_site "a" then Everyware.Drop else Everyware.Deliver);
  Everyware.send bus ~src:2 ~dst:1 ~bytes:10 "eaten";
  Everyware.send bus ~src:1 ~dst:2 ~bytes:10 "through";
  Sim.run sim ~until:100.;
  check int "only the unfaulted direction delivered" 1 !got;
  check int "drop counted" 1 (Everyware.messages_dropped bus);
  check int "dropped bytes counted" 10 (Everyware.bytes_dropped bus);
  check int "sends counted regardless" 2 (Everyware.messages_sent bus)

let test_everyware_fault_delay_and_duplicate () =
  let sim = Sim.create () in
  let bus = Everyware.create sim (Network.create ()) in
  let arrivals = ref [] in
  Everyware.register bus ~id:1 ~site:"a" ~handler:(fun ~src:_ msg ->
      arrivals := (msg, Sim.now sim) :: !arrivals);
  Everyware.register bus ~id:2 ~site:"b" ~handler:(fun ~src:_ _ -> ());
  Everyware.set_fault bus (fun ~src_site:_ ~dst_site:_ ~bytes:_ -> Everyware.Delay 5.0);
  Everyware.send bus ~src:2 ~dst:1 ~bytes:10 "slow";
  Everyware.clear_fault bus;
  Everyware.send bus ~src:2 ~dst:1 ~bytes:10 "plain";
  Everyware.set_fault bus (fun ~src_site:_ ~dst_site:_ ~bytes:_ -> Everyware.Duplicate 1.0);
  Everyware.send bus ~src:2 ~dst:1 ~bytes:10 "twice";
  Sim.run sim ~until:100.;
  let count m = List.length (List.filter (fun (x, _) -> String.equal x m) !arrivals) in
  check int "duplicated delivered twice" 2 (count "twice");
  check int "delayed delivered once" 1 (count "slow");
  check bool "delay adds latency" true (List.assoc "slow" !arrivals >= 5.0);
  check bool "a later message on the link waits for the delayed one" true
    (List.assoc "plain" !arrivals >= List.assoc "slow" !arrivals);
  check (Alcotest.list Alcotest.string) "arrivals keep send order"
    [ "slow"; "plain"; "twice"; "twice" ]
    (List.rev_map fst !arrivals)

(* No fault mix reorders a link: whatever each send's decision (drop,
   delay, duplicate, corrupt) and size, the copies that arrive on each
   (src, dst) link arrive in send order, a duplicate right behind or
   after its original, and other links are not held back. *)
let prop_everyware_link_order =
  let decision =
    QCheck.Gen.(
      frequency
        [
          (3, return Everyware.Deliver);
          (1, return Everyware.Drop);
          (1, map (fun d -> Everyware.Delay d) (float_bound_inclusive 5.));
          (1, map (fun d -> Everyware.Duplicate d) (float_bound_inclusive 5.));
          (1, return Everyware.Corrupt);
        ])
  in
  let send = QCheck.Gen.(quad (int_range 1 3) (int_range 1 3) (int_range 1 200_000) decision) in
  let gen = QCheck.Gen.(list_size (int_range 1 60) send) in
  QCheck.Test.make ~name:"no fault reorders a link" ~count:200 (QCheck.make gen) (fun sends ->
      let sim = Sim.create () in
      let bus = Everyware.create sim (Network.create ()) in
      let arrivals = ref [] in
      List.iter
        (fun id ->
          Everyware.register bus ~id ~site:(if id = 1 then "a" else "b") ~handler:(fun ~src n ->
              arrivals := (src, id, abs n) :: !arrivals))
        [ 1; 2; 3 ];
      let pending = ref [] in
      Everyware.set_fault bus (fun ~src_site:_ ~dst_site:_ ~bytes:_ ->
          match !pending with d :: rest -> pending := rest; d | [] -> Everyware.Deliver);
      Everyware.set_corrupt bus (fun n -> -n);
      List.iteri
        (fun i (src, dst, bytes, d) ->
          pending := [ d ];
          Everyware.send bus ~src ~dst ~bytes i)
        sends;
      Sim.run sim ~until:1e9;
      List.for_all
        (fun (src, dst) ->
          let seen =
            List.filter_map
              (fun (s, d, n) -> if s = src && d = dst then Some n else None)
              (List.rev !arrivals)
          in
          List.sort compare seen = seen)
        [ (1, 2); (1, 3); (2, 1); (2, 3); (3, 1); (3, 2); (1, 1); (2, 2); (3, 3) ])

(* ---------- Fault plans ---------- *)

let test_fault_crash_hang_schedule () =
  let sim = Sim.create () in
  let crashed = ref [] and hung = ref [] in
  let ctl =
    Grid.Fault.arm ~sim ~seed:1
      ~on_crash:(fun h -> crashed := (h, Sim.now sim) :: !crashed)
      ~on_hang:(fun h -> hung := (h, Sim.now sim) :: !hung)
      [ Grid.Fault.Crash_host { host = 3; at = 5. }; Grid.Fault.Hang_host { host = 4; at = 7. } ]
  in
  Sim.run sim ~until:100.;
  check bool "crash fired at its scripted instant" true (!crashed = [ (3, 5.) ]);
  check bool "hang fired at its scripted instant" true (!hung = [ (4, 7.) ]);
  let c = Grid.Fault.counters ctl in
  check int "crash counted" 1 c.Grid.Fault.crashes;
  check int "hang counted" 1 c.Grid.Fault.hangs

let test_fault_partition_window () =
  let sim = Sim.create () in
  let ctl =
    Grid.Fault.arm ~sim ~seed:1 ~on_crash:ignore ~on_hang:ignore
      [ Grid.Fault.Partition_site { site = "isolated"; from_t = 10.; until_t = 20. } ]
  in
  let decide ~src ~dst = Grid.Fault.decide ctl ~src_site:src ~dst_site:dst ~bytes:1 in
  let inside = ref Everyware.Deliver
  and inbound = ref Everyware.Deliver
  and intra = ref Everyware.Drop
  and after = ref Everyware.Drop in
  ignore
    (Sim.schedule_at sim ~time:15. (fun () ->
         inside := decide ~src:"isolated" ~dst:"other";
         inbound := decide ~src:"other" ~dst:"isolated";
         intra := decide ~src:"isolated" ~dst:"isolated"));
  ignore (Sim.schedule_at sim ~time:25. (fun () -> after := decide ~src:"isolated" ~dst:"other"));
  Sim.run sim ~until:100.;
  check bool "outbound crossing dropped in window" true (!inside = Everyware.Drop);
  check bool "inbound crossing dropped in window" true (!inbound = Everyware.Drop);
  check bool "intra-site traffic unaffected" true (!intra = Everyware.Deliver);
  check bool "traffic flows again after healing" true (!after = Everyware.Deliver)

let test_fault_drop_probability_and_determinism () =
  let run seed =
    let sim = Sim.create () in
    let ctl =
      Grid.Fault.arm ~sim ~seed ~on_crash:ignore ~on_hang:ignore
        [
          Grid.Fault.Drop_messages
            { src_site = None; dst_site = None; p = 0.3; from_t = 0.; until_t = 1e9 };
        ]
    in
    List.init 500 (fun _ -> Grid.Fault.decide ctl ~src_site:"a" ~dst_site:"b" ~bytes:1)
  in
  let a = run 42 and b = run 42 and c = run 7 in
  check bool "same seed replays the same decisions" true (a = b);
  check bool "different seed differs" true (a <> c);
  let drops = List.length (List.filter (fun d -> d = Everyware.Drop) a) in
  check bool "drop rate in the ballpark of p" true (drops > 100 && drops < 200)

let test_fault_slow_flaky_schedule () =
  let sim = Sim.create () in
  let changes = ref [] in
  let ctl =
    Grid.Fault.arm ~sim ~seed:1 ~on_crash:ignore ~on_hang:ignore
      ~on_slow:(fun h f -> changes := (Sim.now sim, h, f) :: !changes)
      [
        Grid.Fault.Slow_host { host = 2; at = 3.; factor = 8. };
        Grid.Fault.Flaky_host { host = 5; factor = 4.; period = 10.; from_t = 0.; until_t = 20. };
      ]
  in
  Sim.run sim ~until:100.;
  let changes = List.rev !changes in
  check bool "one-shot slowdown fired at its instant" true (List.mem (3., 2, 8.) changes);
  let host5 = List.filter_map (fun (t, h, f) -> if h = 5 then Some (t, f) else None) changes in
  (* two periods: slow at 0 and 10, restored at 5 and 15, final restore at 20 *)
  check
    (Alcotest.list (Alcotest.pair (Alcotest.float 1e-9) (Alcotest.float 1e-9)))
    "flaky oscillation schedule"
    [ (0., 4.); (5., 1.); (10., 4.); (15., 1.); (20., 1.) ]
    host5;
  let c = Grid.Fault.counters ctl in
  check int "slow phases counted" 3 c.Grid.Fault.slowdowns

let test_fault_validate_speed_faults () =
  let ok plan = check bool "plan accepted" true (Grid.Fault.validate plan = Ok ()) in
  let rejected plan =
    check bool "plan rejected" true (Result.is_error (Grid.Fault.validate plan))
  in
  ok [ Grid.Fault.Slow_host { host = 1; at = 0.; factor = 20. } ];
  rejected [ Grid.Fault.Slow_host { host = 1; at = 0.; factor = 0. } ];
  rejected [ Grid.Fault.Slow_host { host = 1; at = 0.; factor = -2. } ];
  rejected [ Grid.Fault.Slow_host { host = 1; at = -1.; factor = 2. } ];
  rejected [ Grid.Fault.Flaky_host { host = 1; factor = 0.; period = 5.; from_t = 0.; until_t = 9. } ];
  rejected [ Grid.Fault.Flaky_host { host = 1; factor = 4.; period = 0.; from_t = 0.; until_t = 9. } ];
  rejected [ Grid.Fault.Flaky_host { host = 1; factor = 4.; period = 5.; from_t = 9.; until_t = 0. } ];
  (* a Slow_host lasts forever, so any later speed fault on the same
     host overlaps it; distinct hosts never conflict *)
  rejected
    [
      Grid.Fault.Slow_host { host = 3; at = 5.; factor = 8. };
      Grid.Fault.Flaky_host { host = 3; factor = 4.; period = 2.; from_t = 50.; until_t = 60. };
    ];
  rejected
    [
      Grid.Fault.Slow_host { host = 3; at = 5.; factor = 8. };
      Grid.Fault.Slow_host { host = 3; at = 9.; factor = 2. };
    ];
  rejected
    [
      Grid.Fault.Flaky_host { host = 4; factor = 4.; period = 2.; from_t = 0.; until_t = 10. };
      Grid.Fault.Flaky_host { host = 4; factor = 2.; period = 3.; from_t = 8.; until_t = 20. };
    ];
  ok
    [
      Grid.Fault.Slow_host { host = 1; at = 5.; factor = 8. };
      Grid.Fault.Slow_host { host = 2; at = 5.; factor = 8. };
      Grid.Fault.Flaky_host { host = 4; factor = 4.; period = 2.; from_t = 0.; until_t = 10. };
      Grid.Fault.Flaky_host { host = 4; factor = 2.; period = 3.; from_t = 10.; until_t = 20. };
    ]

(* ---------- Batch ---------- *)

let test_batch_lifecycle () =
  let sim = Sim.create () in
  let batch = Batch.create sim ~mean_wait:100. ~seed:7 in
  let started = ref (-1.) and ended = ref (-1.) in
  let job =
    Batch.submit batch ~nodes:100 ~duration:50.
      ~on_start:(fun () -> started := Sim.now sim)
      ~on_end:(fun () -> ended := Sim.now sim)
  in
  check bool "queued" true (Batch.state job = Batch.Queued);
  Sim.run sim ~until:1e9;
  check bool "ran" true (Batch.state job = Batch.Finished);
  check bool "started after a wait" true (!started > 0.);
  check flt "duration honoured" 50. (!ended -. !started);
  check int "nodes recorded" 100 (Batch.nodes job)

let test_batch_cancel_queued () =
  let sim = Sim.create () in
  let batch = Batch.create sim ~mean_wait:100. ~seed:7 in
  let started = ref false in
  let job =
    Batch.submit batch ~nodes:10 ~duration:50.
      ~on_start:(fun () -> started := true)
      ~on_end:(fun () -> ())
  in
  Batch.cancel batch job;
  Sim.run sim ~until:1e9;
  check bool "never started" false !started;
  check bool "cancelled" true (Batch.state job = Batch.Cancelled)

let test_batch_cancel_running () =
  let sim = Sim.create () in
  let batch = Batch.create sim ~mean_wait:10. ~seed:7 in
  let ended = ref false in
  let job =
    Batch.submit batch ~nodes:10 ~duration:1000.
      ~on_start:(fun () -> ())
      ~on_end:(fun () -> ended := true)
  in
  (* run until it starts, then cancel *)
  while Batch.state job = Batch.Queued && Sim.step sim do
    ()
  done;
  check bool "running" true (Batch.state job = Batch.Running);
  Batch.cancel batch job;
  Sim.run sim ~until:1e9;
  check bool "on_end suppressed" false !ended;
  check bool "cancelled" true (Batch.state job = Batch.Cancelled)

let test_batch_deterministic_wait () =
  let wait seed =
    let sim = Sim.create () in
    let batch = Batch.create sim ~mean_wait:118_800. ~seed in
    let job =
      Batch.submit batch ~nodes:100 ~duration:1. ~on_start:(fun () -> ()) ~on_end:(fun () -> ())
    in
    Batch.queue_wait batch job
  in
  check flt "same seed same wait" (wait 3) (wait 3);
  check bool "positive wait" true (wait 3 > 0.)

(* ---------- more NWS / Sim / Trace coverage ---------- *)

let test_nws_best_predictor_named () =
  let f = Nws.create () in
  for _ = 1 to 20 do
    Nws.observe f 0.5
  done;
  check bool "winner is one of the experts" true
    (List.mem (Nws.best_predictor f) [ "last"; "mean"; "window_mean"; "window_median" ])

let test_nws_forecast_in_range () =
  let f = Nws.create () in
  let trace = Trace.noisy ~seed:3 ~mean:0.6 ~amplitude:0.3 ~interval:5. in
  for i = 1 to 100 do
    Nws.observe f (Trace.availability trace (float_of_int i))
  done;
  let fc = Nws.forecast f in
  check bool "forecast within trace bounds" true (fc >= 0.05 && fc <= 1.0)

let test_sim_events_fired_counter () =
  let sim = Sim.create () in
  for _ = 1 to 7 do
    ignore (Sim.schedule sim ~delay:1.0 (fun () -> ()))
  done;
  Sim.run sim ~until:5.;
  check int "events fired" 7 (Sim.events_fired sim)

let test_sim_max_events_valve () =
  let sim = Sim.create () in
  let fired = ref 0 in
  for _ = 1 to 10 do
    ignore (Sim.schedule sim ~delay:1.0 (fun () -> incr fired))
  done;
  Sim.run ~max_events:3 sim ~until:5.;
  check int "stopped at the valve" 3 !fired

let test_trace_noisy_piecewise_constant () =
  let t = Trace.noisy ~seed:4 ~mean:0.5 ~amplitude:0.3 ~interval:10. in
  check bool "constant within an interval" true
    (Trace.availability t 12.0 = Trace.availability t 17.9)

let test_everyware_fifo_per_link () =
  (* equal-size messages on the same link arrive in send order *)
  let sim = Sim.create () in
  let bus = Everyware.create sim (Network.create ()) in
  let received = ref [] in
  Everyware.register bus ~id:1 ~site:"a" ~handler:(fun ~src:_ msg -> received := msg :: !received);
  Everyware.register bus ~id:2 ~site:"b" ~handler:(fun ~src:_ _ -> ());
  for i = 1 to 10 do
    Everyware.send bus ~src:2 ~dst:1 ~bytes:100 i
  done;
  Sim.run sim ~until:10.;
  check (Alcotest.list int) "fifo" [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ] (List.rev !received)

let prop_heap_random_updates =
  (* interleave inserts, score bumps and pops; the heap must always pop a
     maximal member *)
  let gen = QCheck.(list_of_size (QCheck.Gen.int_range 1 120) (int_range 0 2)) in
  QCheck.Test.make ~name:"heap under random updates" ~count:50 gen (fun ops ->
      let n = 40 in
      let score = Array.make (n + 1) 0. in
      let h = Sat.Heap.create ~nvars:n ~key:score in
      let next = ref 1 in
      let ok = ref true in
      List.iteri
        (fun i op ->
          match op with
          | 0 ->
              if !next <= n then begin
                Sat.Heap.insert h !next;
                incr next
              end
          | 1 ->
              if !next > 1 then begin
                let v = 1 + (i mod (!next - 1)) in
                score.(v) <- score.(v) +. float_of_int (i + 1);
                Sat.Heap.increase h v
              end
          | _ ->
              if not (Sat.Heap.is_empty h) then begin
                let top = Sat.Heap.remove_max h in
                (* no remaining member may beat the popped one *)
                for v = 1 to !next - 1 do
                  if Sat.Heap.mem h v && score.(v) > score.(top) then ok := false
                done
              end)
        ops;
      !ok)

(* ---------- Resource ---------- *)

let test_resource_memory_rule () =
  let r =
    Resource.make ~id:0 ~name:"n0" ~site:"ucsb" ~speed:100. ~mem_bytes:(1024 * 1024 * 1024)
      ~kind:Resource.Interactive
  in
  check bool "60% rule" true
    (Resource.usable_memory r = int_of_float (0.6 *. float_of_int (1024 * 1024 * 1024)));
  check bool "min memory is 128MB" true (Resource.min_client_memory = 128 * 1024 * 1024)

let test_resource_validation () =
  Alcotest.check_raises "zero speed rejected" (Invalid_argument "Resource.make: speed must be positive")
    (fun () ->
      ignore
        (Resource.make ~id:0 ~name:"x" ~site:"s" ~speed:0. ~mem_bytes:1 ~kind:Resource.Interactive))

let () =
  Alcotest.run "grid"
    [
      ( "sim",
        [
          Alcotest.test_case "time ordering" `Quick test_sim_ordering;
          Alcotest.test_case "fifo ties" `Quick test_sim_fifo_ties;
          Alcotest.test_case "cancel" `Quick test_sim_cancel;
          Alcotest.test_case "cancel after fire" `Quick test_sim_cancel_fired_no_leak;
          Alcotest.test_case "cancel twice" `Quick test_sim_cancel_twice;
          Alcotest.test_case "pending count" `Quick test_sim_pending_count;
          Alcotest.test_case "nested schedule" `Quick test_sim_nested_schedule;
          Alcotest.test_case "until boundary" `Quick test_sim_until_boundary;
          Alcotest.test_case "negative delay" `Quick test_sim_negative_delay_clamped;
          Alcotest.test_case "determinism" `Quick test_sim_determinism;
          Alcotest.test_case "cancel storage" `Quick test_sim_cancel_storage;
          QCheck_alcotest.to_alcotest prop_sim_matches_model;
        ] );
      ( "trace",
        [
          Alcotest.test_case "constant" `Quick test_trace_constant;
          Alcotest.test_case "clamping" `Quick test_trace_clamping;
          Alcotest.test_case "periodic bounds" `Quick test_trace_periodic_bounds;
          Alcotest.test_case "noisy determinism" `Quick test_trace_noisy_deterministic;
          Alcotest.test_case "overlay" `Quick test_trace_overlay;
        ] );
      ( "nws",
        [
          Alcotest.test_case "empty forecast" `Quick test_nws_empty_forecast;
          Alcotest.test_case "constant series" `Quick test_nws_constant_series;
          Alcotest.test_case "regime shift" `Quick test_nws_tracks_shift;
          Alcotest.test_case "adaptive error bounded" `Quick test_nws_adaptive_beats_worst;
          Alcotest.test_case "adversarial: step change" `Quick test_nws_step_change;
          Alcotest.test_case "adversarial: oscillation" `Quick test_nws_oscillation_bounded;
          Alcotest.test_case "adversarial: slow drift" `Quick test_nws_slow_drift;
        ] );
      ( "network",
        [
          Alcotest.test_case "intra vs inter" `Quick test_network_intra_vs_inter;
          Alcotest.test_case "custom link" `Quick test_network_custom_link;
          Alcotest.test_case "size monotone" `Quick test_network_size_monotone;
        ] );
      ( "everyware",
        [
          Alcotest.test_case "delivery" `Quick test_everyware_delivery;
          Alcotest.test_case "size-dependent latency" `Quick test_everyware_big_messages_slower;
          Alcotest.test_case "unknown destination" `Quick test_everyware_unregistered_drop;
          Alcotest.test_case "unregister in flight" `Quick test_everyware_unregister_in_flight;
          Alcotest.test_case "fault drop" `Quick test_everyware_fault_drop;
          Alcotest.test_case "fault delay and duplicate" `Quick
            test_everyware_fault_delay_and_duplicate;
          QCheck_alcotest.to_alcotest prop_everyware_link_order;
        ] );
      ( "fault",
        [
          Alcotest.test_case "crash/hang schedule" `Quick test_fault_crash_hang_schedule;
          Alcotest.test_case "partition window" `Quick test_fault_partition_window;
          Alcotest.test_case "drop probability" `Quick test_fault_drop_probability_and_determinism;
          Alcotest.test_case "slow/flaky schedule" `Quick test_fault_slow_flaky_schedule;
          Alcotest.test_case "validate speed faults" `Quick test_fault_validate_speed_faults;
        ] );
      ( "batch",
        [
          Alcotest.test_case "lifecycle" `Quick test_batch_lifecycle;
          Alcotest.test_case "cancel queued" `Quick test_batch_cancel_queued;
          Alcotest.test_case "cancel running" `Quick test_batch_cancel_running;
          Alcotest.test_case "deterministic wait" `Quick test_batch_deterministic_wait;
        ] );
      ( "coverage",
        [
          Alcotest.test_case "everyware fifo" `Quick test_everyware_fifo_per_link;
          QCheck_alcotest.to_alcotest prop_heap_random_updates;
          Alcotest.test_case "nws best predictor" `Quick test_nws_best_predictor_named;
          Alcotest.test_case "nws forecast range" `Quick test_nws_forecast_in_range;
          Alcotest.test_case "sim fired counter" `Quick test_sim_events_fired_counter;
          Alcotest.test_case "sim max events" `Quick test_sim_max_events_valve;
          Alcotest.test_case "trace piecewise" `Quick test_trace_noisy_piecewise_constant;
        ] );
      ( "resource",
        [
          Alcotest.test_case "memory rules" `Quick test_resource_memory_rule;
          Alcotest.test_case "validation" `Quick test_resource_validation;
        ] );
    ]

(* GridSAT under fire: a run with crashes, a site partition, message
   loss and a master outage injected, narrated through the
   failure-detection and recovery events.

   Four faults are scripted against the simulation clock:
   - the busiest client is crashed (silently) mid-search,
   - the "west" site is partitioned off the grid for 60 s,
   - 10% of all messages are dropped for the whole run,
   - the master itself is crashed late in the run and restarted 20 s
     later from its write-ahead journal.

   The run must still terminate with the fault-free answer: the master's
   heartbeat lease detects the crash, the subproblem is recovered from
   its checkpoint, the ack/retry channel pushes critical messages
   through the lossy links, and the replacement master re-adopts the
   surviving clients' work through the resync protocol.

   Run with: dune exec examples/chaos.exe *)

module C = Gridsat_core
module F = Grid.Fault

(* Eight uniform hosts across two sites, master on the east side. *)
let testbed () =
  let base = C.Testbed.uniform ~n:8 ~speed:500. () in
  let hosts =
    List.mapi
      (fun i (h : C.Testbed.host) ->
        let r = h.C.Testbed.resource in
        let site = if i < 4 then "east" else "west" in
        {
          h with
          C.Testbed.resource =
            Grid.Resource.make ~id:r.Grid.Resource.id ~name:r.Grid.Resource.name ~site
              ~speed:r.Grid.Resource.speed ~mem_bytes:r.Grid.Resource.mem_bytes
              ~kind:r.Grid.Resource.kind;
        })
      base.C.Testbed.hosts
  in
  { base with C.Testbed.name = "chaos-demo"; master_site = "east"; hosts }

let config =
  {
    C.Config.default with
    C.Config.split_timeout = 2.;
    slice = 0.5;
    share_flush_interval = 1.;
    overall_timeout = 100_000.;
    nws_probe_interval = 5.;
    checkpoint = C.Config.Light;
    checkpoint_period = 5.;
    heartbeat_period = 5.;
    (* the lease must outlive the 60 s partition, or the west side would
       be falsely written off wholesale *)
    suspect_timeout = 120.;
  }

let () =
  Format.printf "=== GridSAT vs chaos: crash + partition + 10%% message loss ===@.@.";
  let cnf = Workloads.Php.instance ~pigeons:7 ~holes:6 in
  Format.printf "instance: pigeonhole 7/6 (%d vars, %d clauses)@.@." (Sat.Cnf.nvars cnf)
    (Sat.Cnf.nclauses cnf);

  Format.printf "--- fault-free reference run ---@.";
  let clean = C.Gridsat.solve ~config ~testbed:(testbed ()) cnf in
  Format.printf "answer: %s in %.1f virtual seconds@.@."
    (C.Gridsat.answer_string clean.C.Master.answer)
    clean.C.Master.time;

  (* scale the scripted faults to the reference duration so they land
     mid-search on any machine *)
  let t = clean.C.Master.time in
  let p_from = 0.25 *. t and p_until = (0.25 *. t) +. 60. in
  let m_at = Float.max (p_until +. 10.) (0.6 *. t) in
  let fault_plan =
    [
      F.Partition_site { site = "west"; from_t = p_from; until_t = p_until };
      F.Drop_messages { src_site = None; dst_site = None; p = 0.1; from_t = 0.; until_t = infinity };
      F.Crash_master { at = m_at; restart_after = 20.; by_verdict = false };
    ]
  in
  Format.printf "--- chaos run ---@.";
  Format.printf
    "plan: partition west [%.0f s, %.0f s], drop 10%% of messages, crash busiest,@.\
    \      crash the master at %.0f s and restart it 20 s later@.@."
    p_from p_until m_at;
  let crashed = ref None in
  let on_master m =
    (* crash whichever client is busiest once the search is underway *)
    C.Master.schedule m ~delay:(0.15 *. t) (fun () ->
        if not (C.Master.finished m) then
          match C.Master.busy_client_ids m with
          | [] -> ()
          | id :: _ ->
              crashed := Some id;
              C.Master.crash_host m id)
  in
  let r = C.Gridsat.solve ~config ~fault_plan ~on_master ~testbed:(testbed ()) cnf in

  let interesting = function
    | C.Events.Host_crashed _ | C.Events.Host_hung _ | C.Events.Client_suspected _
    | C.Events.False_suspicion _ | C.Events.Recovered_from_checkpoint _
    | C.Events.Recovery_requeued _ | C.Events.Orphan_returned _ | C.Events.Message_given_up _
    | C.Events.Master_crashed | C.Events.Master_restarted | C.Events.Master_outage_detected _
    | C.Events.Client_resynced _ | C.Events.Rederived_from_lineage _ | C.Events.Terminated _ ->
        true
    | _ -> false
  in
  Format.printf "--- detection -> recovery timeline ---@.";
  List.iter
    (fun e -> if interesting e.C.Events.kind then Format.printf "%a@." C.Events.pp e)
    r.C.Master.events;
  let retries =
    List.length
      (List.filter
         (fun e -> match e.C.Events.kind with C.Events.Message_retried _ -> true | _ -> false)
         r.C.Master.events)
  in
  Format.printf "@.--- damage report ---@.";
  (match !crashed with
  | Some id -> Format.printf "crashed client:    %d@." id
  | None -> Format.printf "crashed client:    (none was busy)@.");
  Format.printf "messages dropped:  %d (%d bytes)@." (C.Master.counter r "dropped_messages")
    (C.Master.counter r "dropped_bytes");
  Format.printf "retransmissions:   %d@." retries;
  Format.printf "recoveries:        %d@." (C.Master.counter r "recoveries");
  Format.printf "rederivations:     %d@." (C.Master.counter r "rederivations");
  Format.printf "master crashes:    %d@." (C.Master.counter r "master_crashes");
  Format.printf "false suspicions:  %d@." (C.Master.counter r "false_suspicions");

  Format.printf "@.--- run summary ---@.%a@.@." C.Gridsat.pp_result r;
  let same =
    C.Gridsat.answer_string clean.C.Master.answer = C.Gridsat.answer_string r.C.Master.answer
  in
  Format.printf "verdict unchanged under chaos: %b@." same;
  if not same then exit 1

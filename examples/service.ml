(* The multi-tenant job service under load: three tenants share one
   8-host pool, submitting a mixed-priority batch that oversubscribes
   it.  The service leases 2 hosts per run, keeps at most 3 runs in
   flight, and holds the rest in a bounded admission queue.

   The script exercises every lifecycle path:
   - a High-priority job submitted late preempts a running Low job
     (the victim is requeued, not lost),
   - one job carries a deadline too tight for its instance and is
     cancelled gracefully — its hosts come straight back to the pool,
   - a burst of Low submissions overflows the queue and is shed with
     retry-after hints,
   - and once the dust settles the whole first batch is resubmitted:
     every instance is served from the verdict cache, with zero
     subproblems dispatched the second time around.

   Run with: dune exec examples/service.exe *)

module C = Gridsat_core
module Svc = Gridsat_service.Service
module Job = Gridsat_service.Job
module W = Workloads

let instance i =
  if i mod 2 = 0 then W.Php.instance ~pigeons:6 ~holes:5
  else W.Random_sat.planted ~nvars:22 ~ratio:5.0 ~seed:(40 + i) ()

let tenant i = [| "alice"; "bob"; "carol" |].(i mod 3)

let show_outcome label = function
  | Svc.Accepted -> Printf.printf "  %-12s accepted\n" label
  | Svc.Cached a ->
      Printf.printf "  %-12s served from cache: %s\n" label (C.Gridsat.answer_string a)
  | Svc.Rejected { retry_after } ->
      Printf.printf "  %-12s shed (retry in %.0fs)\n" label retry_after

let () =
  let testbed = C.Testbed.uniform ~n:8 ~speed:500. () in
  let cfg =
    {
      Svc.default_config with
      Svc.hosts_per_job = 2;
      max_concurrent = 3;
      queue_capacity = 8;
      retry_after_base = 15.;
      run = { C.Config.default with C.Config.split_timeout = 5. };
    }
  in
  let svc = Svc.create ~cfg ~testbed () in

  print_endline "-- wave 1: six jobs from three tenants over a 3-run pool --";
  for i = 0 to 5 do
    let priority = if i = 4 then Job.Low else Job.Normal in
    let label = Printf.sprintf "%s/job%d" (tenant i) i in
    show_outcome label (Svc.submit svc ~tenant:(tenant i) ~priority ~label (instance i))
  done;

  (* A deadline the pigeonhole instance cannot meet from the back of the
     queue: the run is cancelled cleanly when it expires. *)
  show_outcome "bob/rush"
    (Svc.submit svc ~tenant:"bob" ~priority:Job.Normal ~deadline_in:2. ~label:"bob/rush"
       (W.Php.instance ~pigeons:7 ~holes:6));

  (* Scripted for later: a High job that lands while the pool is full and
     preempts the weakest running Low job, and a Low burst that overflows
     the queue and gets shed. *)
  Svc.submit_at svc ~at:2. ~tenant:"carol" ~priority:Job.High ~label:"carol/urgent"
    (W.Random_sat.planted ~nvars:22 ~ratio:5.0 ~seed:99 ());
  for i = 0 to 5 do
    Svc.submit_at svc ~at:2.5 ~tenant:"alice" ~priority:Job.Low
      ~label:(Printf.sprintf "alice/burst%d" i)
      (W.Random_sat.planted ~nvars:20 ~ratio:5.0 ~seed:(70 + i) ())
  done;

  Svc.run svc;

  print_endline "\n-- outcomes --";
  List.iter
    (fun (j : Job.t) ->
      match j.Job.state with
      | Job.Done t ->
          Printf.printf "  #%-2d %-14s %-6s %-14s preemptions=%d\n" j.Job.id j.Job.label
            (Job.priority_string j.Job.priority)
            (Job.terminal_string t) j.Job.preemptions
      | _ -> assert false)
    (Svc.jobs svc);

  print_endline "\n-- wave 2: resubmitting wave 1 (everything should hit the cache) --";
  for i = 0 to 5 do
    let label = Printf.sprintf "%s/again%d" (tenant i) i in
    show_outcome label (Svc.submit svc ~tenant:(tenant i) ~priority:Job.Normal ~label (instance i))
  done;

  let s = Svc.stats svc in
  Printf.printf
    "\nsubmitted %d  admitted %d  shed %d  cache-hits %d  deadlines %d  preempted %d  completed %d\n"
    s.Svc.submitted s.Svc.admitted s.Svc.shed s.Svc.cache_hits s.Svc.deadline_expired
    s.Svc.preempted s.Svc.completed;
  Printf.printf "pool: %d/%d hosts free again\n" s.Svc.hosts_free s.Svc.hosts_total

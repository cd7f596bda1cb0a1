(* The benchmark's workloads.  Each one turns a seed into DIMACS text
   and run seeds; the program only ever sees the parsed text.  Why each
   workload exists is recorded in BENCHMARK.json and README.md. *)

module C = Gridsat_core
module S = Gridsat_service.Service
module J = Gridsat_service.Job

type expect = Expect_sat | Expect_unsat

type solve_input = { text : string; expect : expect; run_seed : int }

type job_input = {
  jtext : string;
  jexpect : expect;
  tenant : string;
  priority : J.priority;
  at : float;
}

type inputs = Solves of solve_input list | Jobs of job_input list

type t = {
  name : string;
  inputs : seed:int -> inputs;
  testbed : unit -> C.Testbed.t;
  config : run_seed:int -> C.Config.t;
}

(* Table-1 apparatus: the GrADS testbed and [Scale.t1_config]; a run
   seed moves both the master's seed and the solvers' seeds. *)
let t1_config ?(standby = false) ~timeout ~run_seed () =
  let base = Bench_lib.Scale.t1_config ~timeout in
  {
    base with
    C.Config.seed = run_seed;
    standby;
    ship_sync = standby;
    solver_config = { base.C.Config.solver_config with Sat.Solver.seed = 1000 * run_seed };
  }

(* A closed loop of [count] GridSAT solves of one formula on the GrADS
   testbed; solve [k] of seed [s] runs with run seed [s * count + k]. *)
let grads_loop ~name ?standby ~count (cnf, expect) =
  let text = lazy (Sat.Dimacs.to_string (Lazy.force cnf)) in
  {
    name;
    inputs =
      (fun ~seed ->
        Solves
          (List.init count (fun k ->
               { text = Lazy.force text; expect; run_seed = (seed * count) + k })));
    testbed = Bench_lib.Scale.grads;
    config = (fun ~run_seed -> t1_config ?standby ~timeout:Bench_lib.Scale.gridsat_timeout_solvable ~run_seed ());
  }

(* A Table-1 row's formula and the verdict the registry records for it. *)
let row name =
  let open Workloads.Registry in
  match find name with
  | Some ({ status = Sat; _ } as e) -> (lazy (e.gen ()), Expect_sat)
  | Some ({ status = Unsat; _ } as e) -> (lazy (e.gen ()), Expect_unsat)
  | Some { status = Open; _ } | None -> invalid_arg ("Workload: no row with a known verdict: " ^ name)

(* The service batch: [jobs] submissions arriving every 0.75 virtual
   seconds (an open loop in virtual time) on a uniform 8-host pool, two
   hosts per job and four jobs at a time.  Tenants t0-t2 take turns and
   every 5th job is High priority.  Every 4th job is PHP(6,5), every
   4th+3 resubmits job i/2's formula, the rest are planted 3-SAT. *)
let service_pool () = C.Testbed.uniform ~n:8 ~speed:500. ()

let service_config =
  {
    S.default_config with
    S.hosts_per_job = 2;
    max_concurrent = 4;
    queue_capacity = 64;
    run = { C.Config.default with C.Config.split_timeout = 5. };
  }

let service_batch ~jobs ~seed =
  let php = lazy (Sat.Dimacs.to_string (Workloads.Php.instance ~pigeons:6 ~holes:5)) in
  let memo = Hashtbl.create jobs in
  let rec instance i =
    match Hashtbl.find_opt memo i with
    | Some x -> x
    | None ->
        let x =
          match i mod 4 with
          | 0 -> (Lazy.force php, Expect_unsat)
          | 3 -> instance (i / 2)
          | _ ->
              ( Sat.Dimacs.to_string
                  (Workloads.Random_sat.planted ~nvars:22 ~ratio:5.0 ~seed:((seed * 100_000) + i) ()),
                Expect_sat )
        in
        Hashtbl.replace memo i x;
        x
  in
  Jobs
    (List.init jobs (fun i ->
         let jtext, jexpect = instance i in
         {
           jtext;
           jexpect;
           tenant = Printf.sprintf "t%d" (i mod 3);
           priority = (if i mod 5 = 0 then J.High else J.Normal);
           at = 0.75 *. float i;
         }))

let service ~name ~jobs =
  {
    name;
    inputs = (fun ~seed -> service_batch ~jobs ~seed);
    testbed = service_pool;
    config = (fun ~run_seed:_ -> service_config.S.run);
  }

(* The 6pipe/7pipe family one size down: equivalence of two 5-bit
   multipliers, UNSAT by construction. *)
let mitre5 = (lazy (Workloads.Equiv.multiplier_mitre ~bits:5 ~bug:false), Expect_unsat)

let all =
  [
    grads_loop ~name:"t1-mitre5" ~count:10 mitre5;
    grads_loop ~name:"t1-6pipe" ~count:2 (row "6pipe.cnf");
    grads_loop ~name:"standby-sync" ~standby:true ~count:10 mitre5;
    service ~name:"service-10k" ~jobs:10_000;
  ]

(* The same code paths at small sizes, for [perf.exe smoke]. *)
let smoke =
  [
    grads_loop ~name:"smoke-w10_75" ~count:1 (row "w10_75.cnf");
    grads_loop ~name:"smoke-standby" ~standby:true ~count:1 (row "w10_75.cnf");
    service ~name:"smoke-service" ~jobs:200;
  ]

let find name = List.find_opt (fun w -> w.name = name) (all @ smoke)

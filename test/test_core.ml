(* Tests for the distributed GridSAT layer: subproblems, scheduler,
   checkpoints, the master/client protocol, and full end-to-end runs on
   simulated testbeds. *)

module T = Sat.Types
module Cnf = Sat.Cnf
module Solver = Sat.Solver
module Brute = Sat.Brute
module C = Gridsat_core
module Sub = C.Subproblem
module Cfg = C.Config

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

(* ---------- instances ---------- *)

let php ~pigeons ~holes =
  let v p h = ((p - 1) * holes) + h in
  let at_least = List.init pigeons (fun p -> List.init holes (fun h -> v (p + 1) (h + 1))) in
  let at_most =
    List.concat_map
      (fun h ->
        List.concat_map
          (fun p1 ->
            List.filter_map
              (fun p2 -> if p2 > p1 then Some [ -v p1 h; -v p2 h ] else None)
              (List.init pigeons (fun i -> i + 1)))
          (List.init pigeons (fun i -> i + 1)))
      (List.init holes (fun i -> i + 1))
  in
  Cnf.make ~nvars:(pigeons * holes) (at_least @ at_most)

let random_cnf_gen ~max_vars ~max_clauses ~max_len =
  let open QCheck.Gen in
  int_range 1 max_vars >>= fun nv ->
  int_range 0 max_clauses >>= fun nc ->
  let lit_gen = map2 (fun v s -> if s then v else -v) (int_range 1 nv) bool in
  let clause_gen = list_size (int_range 1 max_len) lit_gen in
  list_size (return nc) clause_gen >|= fun clauses -> Cnf.make ~nvars:nv clauses

(* A config that splits eagerly so small instances still exercise the
   distributed machinery. *)
let eager_config =
  {
    Cfg.default with
    Cfg.split_timeout = 2.;
    slice = 0.5;
    share_flush_interval = 1.;
    overall_timeout = 100_000.;
    nws_probe_interval = 5.;
  }

let testbed4 = C.Testbed.uniform ~n:4 ~speed:500. ()

let answer_of_result (r : C.Master.result) = r.C.Master.answer

let is_sat = function C.Master.Sat _ -> true | _ -> false
let is_unsat = function C.Master.Unsat -> true | _ -> false
let is_unknown = function C.Master.Unknown _ -> true | _ -> false

let has_event p (r : C.Master.result) = List.exists (fun e -> p e.C.Events.kind) r.C.Master.events

(* ---------- Subproblem ---------- *)

let test_subproblem_initial () =
  let cnf = php ~pigeons:4 ~holes:3 in
  let sp = Sub.initial cnf in
  check int "all clauses" (Cnf.nclauses cnf) (Sub.nclauses sp);
  check int "no path" 0 (Sub.depth sp);
  check bool "bytes positive" true (Sub.bytes sp > 0)

let test_subproblem_prune () =
  let sp =
    {
      Sub.nvars = 4;
      facts = [ T.pos 1 ];
      path = [ T.neg 2 ];
      clauses =
        Clause_lists.of_list
          [
            [| T.pos 1; T.pos 3 |] (* satisfied by fact 1: dropped *);
            [| T.neg 2; T.pos 4 |] (* satisfied by path ~2: dropped *);
            [| T.neg 1; T.pos 3 |] (* ~1 false by fact: stripped to (3) *);
            [| T.pos 2; T.pos 4 |] (* 2 false by path: kept whole (taint) *);
          ];
    }
  in
  let pruned = Sub.prune sp in
  let as_lists = List.map Array.to_list (Clause_lists.to_list pruned.Sub.clauses) in
  check int "two clauses survive" 2 (List.length as_lists);
  check bool "fact-false literal stripped" true (List.mem [ T.pos 3 ] as_lists);
  check bool "path literal kept" true (List.mem [ T.pos 2; T.pos 4 ] as_lists)

let test_subproblem_split_roundtrip () =
  (* split a solver mid-search; both halves together must preserve the
     answer (Figure 2 semantics) *)
  let cnf = php ~pigeons:5 ~holes:4 in
  let solver = Solver.create cnf in
  let rec drive n =
    if n = 0 then None
    else
      match Solver.run solver ~budget:20 with
      | Solver.Budget_exhausted ->
          if Solver.decision_level solver > 0 then Sub.split_from solver else drive (n - 1)
      | _ -> None
  in
  match drive 1000 with
  | None -> Alcotest.fail "could not reach a splittable state"
  | Some sp ->
      check int "path extended" 1 (Sub.depth sp);
      let b = Sub.to_solver ~config:Solver.default_config sp in
      let sat_a = match Solver.solve solver with Solver.Sat _ -> true | _ -> false in
      let sat_b = match Solver.solve b with Solver.Sat _ -> true | _ -> false in
      check bool "unsat on both branches" false (sat_a || sat_b)

let test_subproblem_capture () =
  let cnf = Cnf.make ~nvars:3 [ [ 1 ]; [ -1; 2 ]; [ 2; 3 ] ] in
  let solver = Solver.create cnf in
  let sp = Sub.capture solver in
  check bool "facts include propagated roots" true
    (List.mem (T.pos 1) sp.Sub.facts && List.mem (T.pos 2) sp.Sub.facts);
  (* both clauses are satisfied at the root: nothing left to transfer *)
  check int "clauses pruned" 0 (Sub.nclauses sp)

(* A solver refuted while installing its clauses stops at the first root
   conflict, so its clause set is partial: capturing it must fail rather
   than ship a subproblem that could yield a false model. *)
let test_subproblem_capture_refuted () =
  let cnf = Cnf.make ~nvars:3 [ [ 1; 2 ]; [ 2; 3 ]; [ -3; 1 ] ] in
  let solver = Solver.create_with_roots ~nvars:3 (Cnf.clauses cnf) [ T.neg 1; T.neg 2 ] in
  check bool "refuted during set-up" false (Solver.is_ok solver);
  Alcotest.check_raises "capture raises" (Invalid_argument "Subproblem.capture: refuted solver")
    (fun () -> ignore (Sub.capture solver))

let prop_subproblem_wire_roundtrip =
  QCheck.Test.make ~name:"subproblem wire format roundtrips" ~count:100 ~long_factor:20
    (QCheck.make (random_cnf_gen ~max_vars:10 ~max_clauses:30 ~max_len:4))
    (fun cnf ->
      let nv = Cnf.nvars cnf in
      let sp =
        {
          Sub.nvars = nv;
          facts = (if nv >= 1 then [ T.pos 1 ] else []);
          path = (if nv >= 2 then [ T.neg 2 ] else []);
          clauses = Cnf.clauses cnf;
        }
      in
      let back = Sub.of_string (Sub.to_string sp) in
      back.Sub.nvars = sp.Sub.nvars
      && back.Sub.facts = sp.Sub.facts
      && back.Sub.path = sp.Sub.path
      && Clause_lists.to_list back.Sub.clauses = Clause_lists.to_list sp.Sub.clauses)

let test_subproblem_wire_errors () =
  let expect_fail text =
    match Sub.of_string text with
    | exception Failure _ -> ()
    | _ -> Alcotest.fail "expected Failure"
  in
  expect_fail "";
  expect_fail "p wrong 3 1\nf 0\na 0\n1 0\n";
  expect_fail "p subproblem 3 1\nf 0\na 0\n1 2\n"

(* Literals are checked where they are parsed: a 0 inside a line and a
   variable above the header's count both fail in [of_string], with
   [Failure], not later in [Types.lit_of_int] or [to_solver]. *)
let test_subproblem_wire_literal_errors () =
  let expect_failure text =
    match Sub.of_string text with
    | exception Failure _ -> ()
    | exception e -> Alcotest.failf "expected Failure, got %s" (Printexc.to_string e)
    | _ -> Alcotest.fail "expected Failure"
  in
  expect_failure "p subproblem 3 1\nf 0\na 0\n1 0 2 0\n";
  expect_failure "p subproblem 3 1\nf 1 0 0\na 0\n1 0\n";
  expect_failure "p subproblem 3 1\nf 0\na 0\n1 -4 0\n";
  expect_failure "p subproblem 3 1\nf 0\na 4 0\n1 0\n";
  expect_failure (Printf.sprintf "p subproblem 3 1\nf 0\na 0\n%d 0\n" min_int)

(* Integers are decimal, as in DIMACS: [int_of_string_opt] used to read
   OCaml literal syntax. *)
let test_subproblem_wire_decimal_only () =
  let expect_failure text =
    match Sub.of_string text with
    | exception Failure _ -> ()
    | exception e -> Alcotest.failf "expected Failure, got %s" (Printexc.to_string e)
    | _ -> Alcotest.failf "expected Failure on %S" text
  in
  expect_failure "p subproblem 3 1\nf 0\na 0\n0x2 -0b11 0\n";
  expect_failure "p subproblem 10 1\nf 0\na 0\n1_0 0\n";
  expect_failure "p subproblem 0x3 1\nf 0\na 0\n1 0\n";
  expect_failure "p subproblem 3 1\nf 0x1 0\na 0\n1 0\n";
  expect_failure "p subproblem 3 1\nf 0\na 0\n99999999999999999999 0\n";
  expect_failure "p subproblem 99999999999999999999 1\nf 0\na 0\n1 0\n"

let same_as_legacy (sp : Sub.t) (nvars, facts, path, clauses) =
  sp.Sub.nvars = nvars && sp.Sub.facts = facts && sp.Sub.path = path
  && Clause_lists.to_list sp.Sub.clauses = clauses

let prop_subproblem_matches_legacy =
  QCheck.Test.make ~name:"wire decoder matches the old one outside the documented divergences"
    ~count:2000 ~long_factor:20 (QCheck.make ~print:String.escaped Doc_gen.sub_doc) (fun doc ->
      let fresh = try Some (Sub.of_string doc) with Failure _ -> None in
      let old = try Some (Legacy.Subproblem.of_string (Doc_gen.sub_legacy_view doc)) with _ -> None in
      match (fresh, old) with
      | Some sp, Some o -> same_as_legacy sp o
      | None, None -> true
      | _ -> false)

let prop_subproblem_mutations =
  QCheck.Test.make ~name:"wire byte mutations raise only Failure" ~count:2000 ~long_factor:20
    (QCheck.make ~print:String.escaped QCheck.Gen.(Doc_gen.sub_doc >>= Doc_gen.mutate))
    (fun doc ->
      match Sub.of_string doc with
      | _ | (exception Failure _) -> true)

let prop_prune_idempotent =
  QCheck.Test.make ~name:"subproblem pruning is idempotent" ~count:100
    (QCheck.make (random_cnf_gen ~max_vars:10 ~max_clauses:40 ~max_len:4))
    (fun cnf ->
      let nv = Cnf.nvars cnf in
      let sp =
        {
          Sub.nvars = nv;
          facts = (if nv >= 1 then [ T.pos 1 ] else []);
          path = (if nv >= 2 then [ T.neg 2 ] else []);
          clauses = Cnf.clauses cnf;
        }
      in
      let once = Sub.prune sp in
      let twice = Sub.prune once in
      Clause_lists.to_list once.Sub.clauses = Clause_lists.to_list twice.Sub.clauses)

let prop_prune_never_grows =
  QCheck.Test.make ~name:"pruning never grows a subproblem" ~count:100
    (QCheck.make (random_cnf_gen ~max_vars:10 ~max_clauses:40 ~max_len:4))
    (fun cnf ->
      let sp = Sub.initial cnf in
      let sp = { sp with Sub.facts = (if Cnf.nvars cnf >= 1 then [ T.neg 1 ] else []) } in
      Sub.bytes (Sub.prune sp) <= Sub.bytes sp)

(* ---------- subproblem hand-off ---------- *)

(* A formula with some search in it — random 3-SAT at the threshold,
   planted 4-SAT or a Tseitin parity formula — a propagation budget and a
   seed; odd seeds run with a tight learned-clause cap, so that the
   donor's database also holds deleted and strengthened clauses. *)
let handoff_gen =
  let open QCheck.Gen in
  int_bound 1000 >>= fun seed ->
  oneof
    [
      map (fun nvars -> Workloads.Random_sat.instance ~nvars ~ratio:4.26 ~seed ()) (int_range 50 90);
      map
        (fun nvars -> Workloads.Random_sat.planted ~k:4 ~nvars ~ratio:9.9 ~seed ())
        (int_range 40 70);
      map
        (fun half -> Workloads.Tseitin.instance ~nvertices:(2 * half) ~degree:3 ~charge:`Odd ~seed)
        (int_range 6 10);
    ]
  >>= fun cnf -> int_range 20 3000 >|= fun budget -> (cnf, budget, seed)

let handoff_print (cnf, budget, seed) =
  Printf.sprintf "budget %d seed %d\n%s" budget seed (Sat.Dimacs.to_string cnf)

let handoff_config seed =
  let base = { Solver.default_config with Solver.seed } in
  if seed mod 2 = 0 then base else { base with Solver.learned_cap_factor = 0.05; learned_cap_min = 20 }

(* The solver after the budget, if it left the search open at a decision
   level above the root. *)
let mid_search (cnf, budget, seed) =
  let s = Solver.create ~config:(handoff_config seed) cnf in
  match Solver.run s ~budget with
  | Solver.Budget_exhausted when Solver.decision_level s > 0 -> Some s
  | _ -> None

let same_subproblem (a : Sub.t) (b : Sub.t) =
  a.Sub.nvars = b.Sub.nvars
  && a.Sub.facts = b.Sub.facts
  && a.Sub.path = b.Sub.path
  && Clause_lists.to_list a.Sub.clauses = Clause_lists.to_list b.Sub.clauses
  && Sub.to_string a = Sub.to_string b

let prop_split_from_is_pruned_split =
  QCheck.Test.make ~name:"split_from equals prune of the pre-split active clauses" ~count:150
    (QCheck.make ~print:handoff_print handoff_gen) (fun case ->
      match (mid_search case, mid_search case) with
      | Some reference, Some s ->
          let clauses = Solver.active_clauses reference in
          let expected =
            Option.map
              (fun (facts, path) ->
                Sub.prune { Sub.nvars = Solver.nvars reference; facts; path; clauses })
              (Solver.split reference)
          in
          let got = Sub.split_from s in
          Solver.root_lits reference = Solver.root_lits s
          &&
          (match (expected, got) with
          | Some e, Some g -> same_subproblem e g
          | None, None -> true
          | _ -> false)
      | None, None -> true
      | _ -> false)

(* The solver a subproblem used to be installed through: a formula built
   from its clauses, whose normalised clauses then go to the solver. *)
let cnf_path_solver ~config (sp : Sub.t) =
  Solver.create_with_roots ~config ~facts:sp.Sub.facts ~nvars:sp.Sub.nvars
    (Cnf.clauses (Cnf.of_lit_arrays ~nvars:sp.Sub.nvars (Clause_lists.to_list sp.Sub.clauses)))
    sp.Sub.path

let counters s = { (Solver.stats s) with Sat.Stats.bcp_seconds = 0.; total_seconds = 0. }

(* Literals reversed, the first one repeated, and a tautology added:
   normalisation must sort, drop duplicates and drop a clause that the RNG
   seed must not count. *)
let scrambled (sp : Sub.t) =
  let scramble c =
    let r = Array.of_list (List.rev (Array.to_list c)) in
    if Array.length r = 0 then r else Array.append r [| r.(0) |]
  in
  let tautology = if sp.Sub.nvars >= 1 then [ [| T.pos 1; T.neg 1 |] ] else [] in
  { sp with Sub.clauses = Clause_lists.of_list (tautology @ List.map scramble (Clause_lists.to_list sp.Sub.clauses)) }

let prop_to_solver_matches_cnf_path =
  QCheck.Test.make ~name:"to_solver runs like a solver built from a formula" ~count:150
    (QCheck.make ~print:handoff_print handoff_gen) (fun ((_, budget, seed) as case) ->
      match mid_search case with
      | None -> true
      | Some s ->
          let config = handoff_config seed in
          let captured = Sub.capture s in
          let branch = Option.get (Sub.split_from s) in
          List.for_all
            (fun sp ->
              let a = Sub.to_solver ~config sp and b = cnf_path_solver ~config sp in
              let oa = Solver.run a ~budget and ob = Solver.run b ~budget in
              let kind = function Solver.Sat _ -> 0 | Unsat -> 1 | Budget_exhausted -> 2 | Mem_pressure -> 3 in
              kind oa = kind ob
              && counters a = counters b
              && Solver.root_lits a = Solver.root_lits b
              && ((not (Solver.is_ok a)) || same_subproblem (Sub.capture a) (Sub.capture b)))
            [ captured; branch; scrambled captured; scrambled branch ])

(* A received subproblem's arrays are also the master's in-flight copy,
   the receiver's origin and maybe a heavy checkpoint: installing and
   searching must leave them as they arrived. *)
let test_to_solver_leaves_clauses_alone () =
  let cnf = php ~pigeons:6 ~holes:5 in
  let donor = Solver.create cnf in
  ignore (Solver.run donor ~budget:500);
  let branch = Option.get (Sub.split_from donor) in
  List.iter
    (fun (what, (sp : Sub.t)) ->
      let before = Clause_lists.to_list sp.Sub.clauses in
      let s = Sub.to_solver ~config:Solver.default_config sp in
      ignore (Solver.run s ~budget:20_000);
      check bool (what ^ ": search ran") true ((Solver.stats s).Sat.Stats.conflicts > 0);
      check bool (what ^ ": clause arrays unchanged") true
        (Clause_lists.to_list sp.Sub.clauses = before))
    [ ("initial", Sub.initial cnf); ("split branch", branch) ]

(* ---------- Scheduler ---------- *)

let cand ?(health = 1.0) ~id ~speed ~mem_gb ~forecast () =
  {
    C.Scheduler.resource =
      Grid.Resource.make ~id ~name:(Printf.sprintf "r%d" id) ~site:"s" ~speed
        ~mem_bytes:(int_of_float (mem_gb *. 1024. *. 1024. *. 1024.))
        ~kind:Grid.Resource.Interactive;
    forecast;
    health;
  }

let test_scheduler_rank_monotone () =
  let base = cand ~id:1 ~speed:100. ~mem_gb:1. ~forecast:0.5 () in
  let faster = cand ~id:2 ~speed:200. ~mem_gb:1. ~forecast:0.5 () in
  let freer = cand ~id:3 ~speed:100. ~mem_gb:1. ~forecast:1.0 () in
  let bigger = cand ~id:4 ~speed:100. ~mem_gb:4. ~forecast:0.5 () in
  check bool "speed raises rank" true (C.Scheduler.rank faster > C.Scheduler.rank base);
  check bool "availability raises rank" true (C.Scheduler.rank freer > C.Scheduler.rank base);
  check bool "memory raises rank" true (C.Scheduler.rank bigger > C.Scheduler.rank base)

let test_scheduler_pick_policies () =
  let rng = lazy (Random.State.make [| 1 |]) in
  let cands =
    [ cand ~id:1 ~speed:100. ~mem_gb:1. ~forecast:0.9 (); cand ~id:2 ~speed:300. ~mem_gb:1. ~forecast:0.9 () ]
  in
  (match C.Scheduler.pick Cfg.Nws_rank ~rng cands with
  | Some c -> check int "nws picks fastest" 2 c.C.Scheduler.resource.Grid.Resource.id
  | None -> Alcotest.fail "expected a pick");
  (match C.Scheduler.pick Cfg.First_fit ~rng cands with
  | Some c -> check int "first-fit picks lowest id" 1 c.C.Scheduler.resource.Grid.Resource.id
  | None -> Alcotest.fail "expected a pick");
  check bool "empty pool" true (C.Scheduler.pick Cfg.Nws_rank ~rng [] = None)

let test_scheduler_backlog () =
  check bool "longest-running first" true
    (C.Scheduler.pick_backlog [ (7, 100.); (3, 10.); (9, 50.) ] = Some 3);
  check bool "empty backlog" true (C.Scheduler.pick_backlog [] = None);
  (* two clients busy since the same instant (mass recovery re-homing a
     batch in one event): the lower id wins, regardless of entry order *)
  check bool "tie breaks on lower id" true
    (C.Scheduler.pick_backlog [ (9, 10.); (3, 10.); (7, 50.) ] = Some 3);
  check bool "tie break is order-independent" true
    (C.Scheduler.pick_backlog [ (3, 10.); (9, 10.); (7, 50.) ] = Some 3);
  check bool "older entry beats lower id" true
    (C.Scheduler.pick_backlog [ (1, 20.); (9, 10.) ] = Some 9)

let test_scheduler_migration_rule () =
  check bool "2x rule fires" true (C.Scheduler.should_migrate ~busy_rank:10. ~idle_rank:20.);
  check bool "below 2x no" false (C.Scheduler.should_migrate ~busy_rank:10. ~idle_rank:19.);
  (* the paper's bar is "at least twice": the exact boundary migrates *)
  check bool "exact 2x boundary migrates" true
    (C.Scheduler.should_migrate ~busy_rank:7.5 ~idle_rank:15.);
  check bool "just under the boundary stays" false
    (C.Scheduler.should_migrate ~busy_rank:7.5 ~idle_rank:14.999)

(* ---------- Checkpoint ---------- *)

let test_checkpoint_light_restores_original_clauses () =
  let cnf = Cnf.make ~nvars:3 [ [ 1; 2 ]; [ -1; 3 ] ] in
  let store = C.Checkpoint.create cnf in
  let sp = { Sub.nvars = 3; facts = []; path = [ T.pos 1 ]; clauses = Clause_lists.of_list [ [| T.neg 1; T.pos 3 |] ] }
  in
  let bytes = C.Checkpoint.save store ~client:5 ~mode:Cfg.Light sp in
  check bool "light checkpoint small" true (bytes < Sub.bytes sp + 64);
  match C.Checkpoint.restore store ~client:5 with
  | None -> Alcotest.fail "expected a checkpoint"
  | Some restored ->
      check bool "path preserved" true (restored.Sub.path = [ T.pos 1 ]);
      (* clause (1 2) is satisfied by path 1 => pruned; (-1 3) loses nothing
         (the false literal is a path literal, kept for soundness) *)
      check int "clauses rebuilt from the problem file" 1 (Sub.nclauses restored)

let test_checkpoint_heavy_roundtrip () =
  let cnf = Cnf.make ~nvars:2 [ [ 1; 2 ] ] in
  let store = C.Checkpoint.create cnf in
  let sp = { Sub.nvars = 2; facts = [ T.pos 2 ]; path = []; clauses = Clause_lists.of_list [ [| T.pos 1; T.neg 2 |] ] }
  in
  ignore (C.Checkpoint.save store ~client:1 ~mode:Cfg.Heavy sp);
  (match C.Checkpoint.restore store ~client:1 with
  | Some restored -> check int "heavy keeps stored clauses" 1 (Sub.nclauses restored)
  | None -> Alcotest.fail "expected a checkpoint");
  check int "saves counted" 1 (C.Checkpoint.saves store);
  C.Checkpoint.drop store ~client:1;
  check bool "dropped" true (C.Checkpoint.restore store ~client:1 = None)

let test_checkpoint_none_mode () =
  let store = C.Checkpoint.create (Cnf.make ~nvars:1 []) in
  let sp = Sub.initial (Cnf.make ~nvars:1 []) in
  check int "no-checkpoint stores nothing" 0
    (C.Checkpoint.save store ~client:1 ~mode:Cfg.No_checkpoint sp)

(* A client's periodic light checkpoint takes only the root of its
   running solver; what it stores must be what stripping a full capture
   stored. *)
let test_checkpoint_light_copies_no_clauses () =
  let cnf = php ~pigeons:8 ~holes:7 in
  let donor = Solver.create cnf in
  ignore (Solver.run donor ~budget:500);
  let s = Sub.to_solver ~config:Solver.default_config (Option.get (Sub.split_from donor)) in
  ignore (Solver.run s ~budget:500);
  check bool "solver still running" true (Solver.is_ok s);
  let root = Sub.capture_root s and full = Sub.capture s in
  check bool "root has a path" true (root.Sub.path <> []);
  check int "root copies no clauses" 0 (Sub.nclauses root);
  check int "same seal"
    (C.Checkpoint.seal_of { full with Sub.clauses = Sat.Arena.empty })
    (C.Checkpoint.seal_of root);
  let saved sp =
    let store = C.Checkpoint.create cnf in
    let bytes = C.Checkpoint.save store ~client:1 ~mode:Cfg.Light sp in
    (bytes, Sub.to_string (Option.get (C.Checkpoint.restore store ~client:1)))
  in
  check bool "same bytes and restore" true (saved full = saved root)

(* ---------- end-to-end runs ---------- *)

let test_gridsat_unsat () =
  let r = C.Gridsat.solve ~config:eager_config ~testbed:testbed4 (php ~pigeons:7 ~holes:6) in
  check bool "unsat" true (is_unsat (answer_of_result r));
  check bool "used several clients" true (C.Master.counter r "max_clients" >= 2);
  check bool "split happened" true (C.Master.counter r "splits" >= 1);
  check bool "positive virtual time" true (r.C.Master.time > 0.)

let test_gridsat_sat_verified () =
  let cnf = php ~pigeons:8 ~holes:8 in
  let r = C.Gridsat.solve ~config:eager_config ~testbed:testbed4 cnf in
  (match answer_of_result r with
  | C.Master.Sat m -> check bool "model satisfies" true (Sat.Model.satisfies cnf m)
  | _ -> Alcotest.fail "expected sat");
  check bool "verification logged" true
    (has_event (function C.Events.Model_verified true -> true | _ -> false) r)

let test_gridsat_trivial_stays_sequential () =
  (* an easy instance must never spread beyond one client (the scheduler's
     goal is "to keep the execution as sequential as possible") *)
  let cnf = Cnf.make ~nvars:4 [ [ 1; 2 ]; [ -1; 3 ]; [ 2; 4 ] ] in
  let r = C.Gridsat.solve ~config:{ eager_config with Cfg.split_timeout = 50. } ~testbed:testbed4 cnf in
  check bool "sat" true (is_sat (answer_of_result r));
  check int "one client" 1 (C.Master.counter r "max_clients");
  check int "no splits" 0 (C.Master.counter r "splits")

let test_gridsat_timeout () =
  let cnf = php ~pigeons:9 ~holes:8 in
  let config = { eager_config with Cfg.overall_timeout = 3. } in
  let r = C.Gridsat.solve ~config ~testbed:testbed4 cnf in
  check bool "unknown on timeout" true (is_unknown (answer_of_result r));
  check bool "time at timeout" true (r.C.Master.time >= 3.);
  (* a timed-out run is still a complete run: the report document builds
     and validates, so --report/--trace artifacts survive the timeout *)
  let doc = C.Run_report.build ~meta:[ ("problem", Obs.Json.String "php-9-8") ] ~obs:Obs.disabled r in
  match Obs.Report.validate doc with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("timed-out run report invalid: " ^ e)

let test_gridsat_figure3_sequence () =
  (* the five-message split protocol must appear in order in the log *)
  let r = C.Gridsat.solve ~config:eager_config ~testbed:testbed4 (php ~pigeons:7 ~holes:6) in
  let times p =
    List.filter_map (fun e -> if p e.C.Events.kind then Some e.C.Events.time else None) r.C.Master.events
  in
  let first p = match times p with [] -> None | t :: _ -> Some t in
  let requested = first (function C.Events.Split_requested _ -> true | _ -> false) in
  let granted = first (function C.Events.Split_granted _ -> true | _ -> false) in
  let completed = first (function C.Events.Split_completed _ -> true | _ -> false) in
  match (requested, granted, completed) with
  | Some t1, Some t2, Some t3 ->
      check bool "request before grant" true (t1 <= t2);
      check bool "grant before completion" true (t2 <= t3)
  | _ -> Alcotest.fail "split protocol events missing"

let test_gridsat_sharing_counts () =
  let r = C.Gridsat.solve ~config:eager_config ~testbed:testbed4 (php ~pigeons:7 ~holes:6) in
  check bool "clauses were shared" true (C.Master.counter r "shared_clauses" > 0);
  check bool "broadcast events logged" true
    (has_event (function C.Events.Shares_broadcast _ -> true | _ -> false) r)

let test_gridsat_deterministic () =
  let run () =
    let r = C.Gridsat.solve ~config:eager_config ~testbed:testbed4 (php ~pigeons:6 ~holes:5) in
    (C.Gridsat.answer_string r.C.Master.answer, r.C.Master.time, (C.Master.counter r "splits"),
     r.C.Master.messages, List.length r.C.Master.events)
  in
  check bool "identical reruns" true (run () = run ())

let test_gridsat_memory_pressure_splits () =
  (* tiny hosts: the client must split under memory pressure rather than die *)
  let testbed = C.Testbed.uniform ~n:8 ~speed:500. ~mem_mb:1 () in
  let config =
    {
      eager_config with
      Cfg.min_client_memory = 0;
      split_timeout = 1000. (* only memory splits *);
      mem_headroom = 0.3 (* ask early, before the solver's own reduction kicks in *);
    }
  in
  let r = C.Gridsat.solve ~config ~testbed (php ~pigeons:9 ~holes:8) in
  check bool "still unsat" true (is_unsat (answer_of_result r));
  check bool "memory split requested" true
    (has_event
       (function C.Events.Split_requested { reason = `Memory; _ } -> true | _ -> false)
       r)

let test_gridsat_solves_where_baseline_memouts () =
  (* the paper's headline: problems zChaff cannot fit in one host's memory
     fall to the distributed solver *)
  let testbed = C.Testbed.uniform ~n:8 ~speed:500. ~mem_mb:1 () in
  let cnf = php ~pigeons:9 ~holes:8 in
  let baseline = C.Baseline.run ~host:(C.Testbed.fastest testbed) cnf in
  check bool "baseline memouts" true (baseline.C.Baseline.outcome = C.Baseline.Memout);
  let config = { eager_config with Cfg.min_client_memory = 0 } in
  let r = C.Gridsat.solve ~config ~testbed cnf in
  check bool "gridsat solves it" true (is_unsat (answer_of_result r))

let test_gridsat_backlog_served () =
  (* 2 hosts, eager splitting: some requests must be denied then served *)
  let testbed = C.Testbed.uniform ~n:2 ~speed:400. () in
  let config = { eager_config with Cfg.split_timeout = 1. } in
  let r = C.Gridsat.solve ~config ~testbed (php ~pigeons:7 ~holes:6) in
  check bool "unsat" true (is_unsat (answer_of_result r));
  check bool "some request was backlogged" true
    (has_event (function C.Events.Split_denied _ -> true | _ -> false) r)

let test_gridsat_scheduler_policies_all_correct () =
  List.iter
    (fun policy ->
      let config = { eager_config with Cfg.scheduler = policy } in
      let r = C.Gridsat.solve ~config ~testbed:testbed4 (php ~pigeons:6 ~holes:5) in
      check bool "unsat under every policy" true (is_unsat (answer_of_result r)))
    [ Cfg.Nws_rank; Cfg.Random_pick; Cfg.First_fit ]

let test_gridsat_no_sharing_still_correct () =
  let config = { eager_config with Cfg.share_max_len = 0 } in
  let r = C.Gridsat.solve ~config ~testbed:testbed4 (php ~pigeons:6 ~holes:5) in
  check bool "unsat without sharing" true (is_unsat (answer_of_result r));
  check int "nothing shared" 0 (C.Master.counter r "shared_clauses")

let test_gridsat_heterogeneous_testbed () =
  let r = C.Gridsat.solve ~config:eager_config ~testbed:(C.Testbed.grads ()) (php ~pigeons:7 ~holes:6) in
  check bool "unsat on grads testbed" true (is_unsat (answer_of_result r))

let test_gridsat_migration () =
  (* host 1 is slow, host 2 is much faster: after both register, the master
     should migrate the initial problem from 1 to 2 *)
  let slow =
    Grid.Resource.make ~id:1 ~name:"slow" ~site:"a" ~speed:50. ~mem_bytes:(512 * 1024 * 1024)
      ~kind:Grid.Resource.Interactive
  in
  let fast =
    Grid.Resource.make ~id:2 ~name:"fast" ~site:"a" ~speed:1000. ~mem_bytes:(512 * 1024 * 1024)
      ~kind:Grid.Resource.Interactive
  in
  let testbed =
    {
      C.Testbed.name = "mig";
      master_site = "a";
      hosts =
        [
          { C.Testbed.resource = slow; trace = Grid.Trace.constant 1.0 };
          { C.Testbed.resource = fast; trace = Grid.Trace.constant 1.0 };
        ];
      batch = None;
      late_hosts = [];
      configure_network = (fun _ -> ());
    }
  in
  let config = { eager_config with Cfg.split_timeout = 1000. } in
  let r = C.Gridsat.solve ~config ~testbed (php ~pigeons:7 ~holes:6) in
  check bool "unsat" true (is_unsat (answer_of_result r));
  check bool "migration happened" true
    (has_event (function C.Events.Migration { src = 1; dst = 2; _ } -> true | _ -> false) r)

(* The migrated branch is moved, not copied or re-derived: after
   Migrate_to -> transfer -> resume, the destination holds the same
   subproblem and finishes it, and the timeline never shows the work
   double-counted or lost. *)
let test_gridsat_migration_preserves_subproblem () =
  let slow =
    Grid.Resource.make ~id:1 ~name:"slow" ~site:"a" ~speed:50. ~mem_bytes:(512 * 1024 * 1024)
      ~kind:Grid.Resource.Interactive
  in
  let fast =
    Grid.Resource.make ~id:2 ~name:"fast" ~site:"a" ~speed:1000. ~mem_bytes:(512 * 1024 * 1024)
      ~kind:Grid.Resource.Interactive
  in
  let testbed =
    {
      C.Testbed.name = "mig-resume";
      master_site = "a";
      hosts =
        [
          { C.Testbed.resource = slow; trace = Grid.Trace.constant 1.0 };
          { C.Testbed.resource = fast; trace = Grid.Trace.constant 1.0 };
        ];
      batch = None;
      late_hosts = [];
      configure_network = (fun _ -> ());
    }
  in
  (* splitting off: exactly one subproblem exists for the whole run, so
     whoever finishes must have resumed the migrated branch *)
  let config = { eager_config with Cfg.split_timeout = 1000. } in
  let r = C.Gridsat.solve ~config ~testbed (php ~pigeons:7 ~holes:6) in
  check bool "unsat" true (is_unsat (answer_of_result r));
  check (Alcotest.int) "no splits: a single preserved branch" 0 (C.Master.counter r "splits");
  let index p =
    let rec go i = function
      | [] -> -1
      | e :: rest -> if p e.C.Events.kind then i else go (i + 1) rest
    in
    go 0 r.C.Master.events
  in
  let assigned = index (function C.Events.Problem_assigned { dst = 1; _ } -> true | _ -> false) in
  let migrated = index (function C.Events.Migration { src = 1; dst = 2; _ } -> true | _ -> false) in
  let finished = index (function C.Events.Client_finished_unsat 2 -> true | _ -> false) in
  check bool "timeline records the migration" true (migrated >= 0);
  check bool "migration follows the initial assignment" true (assigned >= 0 && assigned < migrated);
  check bool "destination resumed and finished the migrated branch" true (finished > migrated);
  let curve = C.Timeline.busy_curve r.C.Master.events in
  check (Alcotest.int) "the branch is never double-counted" 1 (C.Timeline.peak curve)

(* Regression: on 6pipe.cnf at this seed a client is refuted while
   setting up its subproblem, and the master migrates it before its first
   slice.  Shipping the half-installed solver's clauses used to let the
   receiver find a "model" that fails verification (Unknown). *)
let test_gridsat_migrate_refuted_client () =
  let cnf = (Option.get (Workloads.Registry.find "6pipe.cnf")).Workloads.Registry.gen () in
  let base = Bench_lib.Scale.t1_config ~timeout:Bench_lib.Scale.gridsat_timeout_solvable in
  let config =
    {
      base with
      Cfg.seed = 56;
      solver_config = { base.Cfg.solver_config with Solver.seed = 56000 };
    }
  in
  let r = C.Gridsat.solve ~config ~testbed:(Bench_lib.Scale.grads ()) cnf in
  check bool "unsat" true (is_unsat (answer_of_result r))

let test_gridsat_migration_disabled () =
  let config = { eager_config with Cfg.migration_enabled = false } in
  let r = C.Gridsat.solve ~config ~testbed:testbed4 (php ~pigeons:6 ~holes:5) in
  check bool "no migration events" false
    (has_event (function C.Events.Migration _ -> true | _ -> false) r)

let test_late_host_joins () =
  (* one slow host starts alone; a fast host joins at t=5 and is used *)
  let mk id speed =
    {
      C.Testbed.resource =
        Grid.Resource.make ~id ~name:(Printf.sprintf "h%d" id) ~site:"a" ~speed
          ~mem_bytes:(512 * 1024 * 1024) ~kind:Grid.Resource.Interactive;
      trace = Grid.Trace.constant 1.0;
    }
  in
  let testbed =
    {
      C.Testbed.name = "late";
      master_site = "a";
      hosts = [ mk 1 400. ];
      batch = None;
      late_hosts = [ (5., mk 2 800.) ];
      configure_network = (fun _ -> ());
    }
  in
  let config = { eager_config with Cfg.split_timeout = 1. } in
  let r = C.Gridsat.solve ~config ~testbed (php ~pigeons:7 ~holes:6) in
  check bool "unsat" true (is_unsat (answer_of_result r));
  check bool "late client registered" true
    (has_event (function C.Events.Client_started 2 -> true | _ -> false) r);
  check int "both hosts were busy at some point" 2 (C.Master.counter r "max_clients")

(* ---------- batch (Blue Horizon) ---------- *)

let batch_testbed ~mean_wait ~duration =
  let interactive = C.Testbed.uniform ~n:2 ~speed:300. () in
  {
    interactive with
    C.Testbed.name = "batch-test";
    batch =
      Some
        {
          C.Testbed.site = "local";
          nodes = 4;
          node_speed = 800.;
          node_mem = 1024 * 1024 * 1024;
          duration;
          mean_wait;
          queue_seed = 0;
        };
  }

let test_batch_cancelled_when_solved_early () =
  let testbed = batch_testbed ~mean_wait:1.0e7 ~duration:100. in
  let r = C.Gridsat.solve ~config:eager_config ~testbed (php ~pigeons:6 ~holes:5) in
  check bool "solved before batch start" true (is_unsat (answer_of_result r));
  check bool "job submitted" true
    (has_event (function C.Events.Batch_job_submitted _ -> true | _ -> false) r);
  check bool "job cancelled" true
    (has_event (function C.Events.Batch_job_cancelled -> true | _ -> false) r)

let test_batch_nodes_join () =
  let testbed = batch_testbed ~mean_wait:0.001 ~duration:1.0e6 in
  let r = C.Gridsat.solve ~config:eager_config ~testbed (php ~pigeons:7 ~holes:6) in
  check bool "unsat" true (is_unsat (answer_of_result r));
  check bool "batch job started" true
    (has_event (function C.Events.Batch_job_started _ -> true | _ -> false) r);
  check bool "batch clients registered" true
    (has_event (function C.Events.Client_started id -> id >= 1000 | _ -> false) r)

let test_batch_expiry_terminates () =
  let testbed = batch_testbed ~mean_wait:0.001 ~duration:2.0 in
  let config = { eager_config with Cfg.overall_timeout = 1.0e6 } in
  let r = C.Gridsat.solve ~config ~testbed (php ~pigeons:9 ~holes:8) in
  (* either we solved before the 2-second job expired, or the expiry ended
     the run; with this hard instance expiry wins *)
  check bool "batch expiry ends the run" true (is_unknown (answer_of_result r))

(* ---------- failures and checkpointing ---------- *)

let solve_with_kill ~config ~testbed ~tkill cnf =
  let killed = ref None in
  C.Gridsat.solve ~config ~testbed
    ~on_master:(fun m ->
      let sim_kill () =
        (* find a busy client and kill it *)
        let events = C.Master.events_so_far m in
        let busy =
          List.fold_left
            (fun acc e ->
              match e.C.Events.kind with
              | C.Events.Problem_assigned { dst; _ } -> Some dst
              | C.Events.Client_finished_unsat id when acc = Some id -> None
              | _ -> acc)
            None events
        in
        match busy with
        | Some id when not (C.Master.finished m) ->
            killed := Some id;
            C.Master.kill_client m id
        | _ -> ()
      in
      C.Master.schedule m ~delay:tkill sim_kill)
    cnf
  |> fun r -> (r, !killed)

let test_kill_busy_without_checkpoint_rederives () =
  (* no checkpointing is armed, so the dead client's subproblem cannot be
     restored — it must be re-derived from the original CNF plus the
     journaled guiding-path lineage, and the run must still conclude *)
  let config = { eager_config with Cfg.split_timeout = 1000. } in
  let r, killed = solve_with_kill ~config ~testbed:testbed4 ~tkill:5. (php ~pigeons:8 ~holes:7) in
  check bool "a client was killed" true (killed <> None);
  check bool "lineage re-derivation logged" true
    (has_event (function C.Events.Rederived_from_lineage _ -> true | _ -> false) r);
  check bool "still unsat despite the loss" true (is_unsat (answer_of_result r))

let test_kill_busy_with_checkpoint_recovers () =
  let config =
    { eager_config with Cfg.split_timeout = 1000.; checkpoint = Cfg.Light; slice = 0.5 }
  in
  let r, killed = solve_with_kill ~config ~testbed:testbed4 ~tkill:9. (php ~pigeons:7 ~holes:6) in
  check bool "a client was killed" true (killed <> None);
  check bool "recovery event logged" true
    (has_event (function C.Events.Recovered_from_checkpoint _ -> true | _ -> false) r);
  check bool "answer still correct" true (is_unsat (answer_of_result r))

let test_kill_idle_is_tolerated () =
  let config = { eager_config with Cfg.split_timeout = 1000. } in
  let r =
    C.Gridsat.solve ~config ~testbed:testbed4
      ~on_master:(fun m ->
        C.Master.schedule m ~delay:3. (fun () ->
            (* client 4 is idle on this easy run; killing it must not
               disturb the answer *)
            C.Master.kill_client m 4))
      (php ~pigeons:6 ~holes:5)
  in
  check bool "still unsat" true (is_unsat (answer_of_result r))

(* A four-host testbed with every host on its own site and slow, high-
   latency links, so control and handoff messages spend observable
   virtual time in flight and failures can be injected mid-handoff. *)
let testbed4_slow =
  let base = C.Testbed.uniform ~n:4 ~speed:500. () in
  let sites = [| "s1"; "s2"; "s3"; "s4" |] in
  let hosts =
    List.mapi
      (fun i (h : C.Testbed.host) ->
        let r = h.C.Testbed.resource in
        {
          h with
          C.Testbed.resource =
            Grid.Resource.make ~id:r.Grid.Resource.id ~name:r.Grid.Resource.name ~site:sites.(i)
              ~speed:r.Grid.Resource.speed ~mem_bytes:r.Grid.Resource.mem_bytes
              ~kind:r.Grid.Resource.kind;
        })
      base.C.Testbed.hosts
  in
  {
    base with
    C.Testbed.name = "uniform-4-slow";
    master_site = "s1";
    hosts;
    configure_network =
      (fun net ->
        Array.iter
          (fun a ->
            Array.iter
              (fun b ->
                if a < b then Grid.Network.set_link net a b ~latency:0.5 ~bandwidth:1e6)
              sites)
          sites);
  }

(* Kill the reserved split partner the moment the pairing is announced:
   the donor's peer-to-peer handoff can never be acknowledged, so its
   retry budget runs out and the branch must come back to the master as
   an orphan instead of being silently lost. *)
let test_kill_reserved_partner_mid_handoff () =
  let killed = ref None in
  let config =
    {
      eager_config with
      Cfg.checkpoint = Cfg.Light;
      retry_base = 0.5;
      retry_max_attempts = 3;
    }
  in
  let r =
    C.Gridsat.solve ~config ~testbed:testbed4_slow
      ~on_master:(fun m ->
        let rec poll () =
          if (not (C.Master.finished m)) && !killed = None then begin
            (match
               List.find_map
                 (fun e ->
                   match e.C.Events.kind with
                   | C.Events.Split_granted { partner; _ } -> Some partner
                   | _ -> None)
                 (C.Master.events_so_far m)
             with
            | Some partner ->
                killed := Some partner;
                C.Master.kill_client m partner
            | None -> ());
            if !killed = None then C.Master.schedule m ~delay:0.2 poll
          end
        in
        C.Master.schedule m ~delay:0.2 poll)
      (php ~pigeons:7 ~holes:6)
  in
  check bool "a reserved partner was killed" true (!killed <> None);
  check bool "the branch came back as an orphan" true
    (has_event (function C.Events.Orphan_returned _ -> true | _ -> false) r);
  check bool "answer still correct" true (is_unsat (answer_of_result r))

(* Kill a split requester right after its partner was reserved: the
   partner must not be left parked in Reserved, and after termination no
   host may remain Reserved at all. *)
let test_terminate_releases_reservations () =
  let killed = ref None in
  let master = ref None in
  let config = { eager_config with Cfg.checkpoint = Cfg.Light } in
  let r =
    C.Gridsat.solve ~config ~testbed:testbed4
      ~on_master:(fun m ->
        master := Some m;
        let rec poll () =
          if (not (C.Master.finished m)) && !killed = None then begin
            (match
               List.find_map
                 (fun e ->
                   match e.C.Events.kind with
                   | C.Events.Split_granted { client; _ } -> Some client
                   | _ -> None)
                 (C.Master.events_so_far m)
             with
            | Some requester ->
                killed := Some requester;
                C.Master.kill_client m requester
            | None -> ());
            if !killed = None then C.Master.schedule m ~delay:0.2 poll
          end
        in
        C.Master.schedule m ~delay:0.2 poll)
      (php ~pigeons:7 ~holes:6)
  in
  check bool "a split requester was killed" true (!killed <> None);
  check bool "its work was recovered" true (is_unsat (answer_of_result r));
  match !master with
  | Some m -> check (Alcotest.list Alcotest.int) "no host left Reserved" [] (C.Master.reserved_hosts m)
  | None -> Alcotest.fail "master not captured"

let test_checkpoint_events_logged () =
  let config = { eager_config with Cfg.checkpoint = Cfg.Heavy } in
  let r = C.Gridsat.solve ~config ~testbed:testbed4 (php ~pigeons:7 ~holes:6) in
  check bool "checkpoints saved" true
    (has_event (function C.Events.Checkpoint_saved _ -> true | _ -> false) r);
  check bool "checkpoint bytes reported" true (C.Master.counter r "checkpoint_bytes" > 0)

(* ---------- Protocol / Events / Config / Testbed coverage ---------- *)

let test_protocol_sizes () =
  let sp = Sub.initial (php ~pigeons:4 ~holes:3) in
  check bool "problem message dominated by the subproblem" true
    (C.Protocol.size (C.Protocol.Problem { pid = (1, 0); sp; sent_at = 0. }) = Sub.bytes sp);
  check bool "control messages are small" true
    (C.Protocol.size C.Protocol.Stop = C.Protocol.control_bytes);
  check bool "heartbeats and acks are small" true
    (C.Protocol.size (C.Protocol.Heartbeat { decisions = 0 }) = C.Protocol.control_bytes
    && C.Protocol.size (C.Protocol.Ack { mid = 7 }) = C.Protocol.control_bytes);
  check bool "reliable envelope weighs what its payload weighs" true
    (C.Protocol.size
       (C.Protocol.Reliable
          { mid = 3; low = 1; payload = C.Protocol.Problem { pid = (1, 0); sp; sent_at = 0. } })
    = Sub.bytes sp);
  check bool "critical classification" true
    (C.Protocol.critical (C.Protocol.Finished_unsat { pid = (1, 0); proof = None })
    && C.Protocol.critical (C.Protocol.Orphaned { pid = (1, 0); sp })
    && (not (C.Protocol.critical (C.Protocol.Heartbeat { decisions = 0 })))
    && not (C.Protocol.critical (C.Protocol.Shares { clauses = [] })));
  let shares = [ [| T.pos 1; T.neg 2 |]; [| T.pos 3 |] ] in
  check bool "share size counts literals" true
    (C.Protocol.shares_bytes shares > C.Protocol.control_bytes);
  check bool "share and relay sizes agree" true
    (C.Protocol.size (C.Protocol.Shares { clauses = shares })
    = C.Protocol.size (C.Protocol.Share_relay { origin = 1; clauses = shares }))

(* ---------- Reliable channel unit tests ---------- *)

let make_reliable ~sim ?(max_attempts = 3) ?on_exhausted ~sent ~gave () =
  C.Reliable.create ~sim
    ~send_raw:(fun ~dst msg -> sent := (dst, msg) :: !sent)
    ~active:(fun () -> true)
    ~retry_base:1.0 ~max_attempts
    ~on_retry:(fun ~dst:_ ~attempt:_ -> ())
    ?on_exhausted
    ~on_give_up:(fun ~dst msg -> gave := (dst, msg) :: !gave)
    ()

let drain sim = while Grid.Sim.step sim do () done

let test_reliable_duplicate_ack () =
  let sim = Grid.Sim.create () in
  let sent = ref [] and gave = ref [] in
  let rel = make_reliable ~sim ~sent ~gave () in
  C.Reliable.send rel ~dst:7 C.Protocol.Stop;
  let mid =
    match !sent with
    | [ (7, C.Protocol.Reliable { mid; _ }) ] -> mid
    | _ -> Alcotest.fail "expected one enveloped transmission"
  in
  C.Reliable.handle_ack rel ~src:7 ~mid;
  check int "settled" 0 (C.Reliable.outstanding rel);
  (* a duplicate ack (retransmission crossed the first ack) is a no-op *)
  C.Reliable.handle_ack rel ~src:7 ~mid;
  C.Reliable.handle_ack rel ~src:7 ~mid:999;
  check int "still settled" 0 (C.Reliable.outstanding rel);
  drain sim;
  check int "no retries after the ack" 0 (C.Reliable.retries rel);
  check bool "never gave up" true (!gave = [])

(* Streams under any fault mix: 2-3 endpoints exchange numbered payloads
   over one bus whose every send (envelopes, acks and NACKs alike) takes
   a random drop, delay, duplicate or corrupt decision, with attempt
   budgets small enough that some envelopes are given up.  For each
   (src, dst) stream the receiver delivers payloads in send order, each
   at most once, and every payload not abandoned; the sender's
   [on_give_up] sees the abandoned ones oldest first, and nothing is left
   outstanding.  (An abandoned payload may still have been delivered: its
   last copy or ack can be lost after delivery.) *)
let prop_reliable_streams =
  let decision =
    QCheck.Gen.(
      frequency
        [
          (4, return Grid.Everyware.Deliver);
          (2, return Grid.Everyware.Drop);
          (1, map (fun d -> Grid.Everyware.Delay d) (float_bound_inclusive 6.));
          (1, map (fun d -> Grid.Everyware.Duplicate d) (float_bound_inclusive 6.));
          (1, return Grid.Everyware.Corrupt);
        ])
  in
  let gen =
    QCheck.Gen.(
      quad (int_range 2 3) (int_range 1 2)
        (list_size (int_range 1 40) (triple (int_range 1 3) (int_range 1 3) (float_bound_inclusive 30.)))
        (list_size (int_range 0 300) decision))
  in
  QCheck.Test.make ~name:"streams deliver in order, once" ~count:300 (QCheck.make gen)
    (fun (n, max_attempts, sends, decisions) ->
      let sim = Grid.Sim.create () in
      let bus = Grid.Everyware.create sim (Grid.Network.create ()) in
      let pending = ref decisions in
      Grid.Everyware.set_fault bus (fun ~src_site:_ ~dst_site:_ ~bytes:_ ->
          match !pending with
          | d :: rest ->
              pending := rest;
              d
          | [] -> Grid.Everyware.Deliver);
      Grid.Everyware.set_corrupt bus C.Protocol.corrupt;
      let delivered = Hashtbl.create 16 and abandoned = Hashtbl.create 16 in
      let note tbl key k = Hashtbl.replace tbl key (k :: Option.value ~default:[] (Hashtbl.find_opt tbl key)) in
      let seq_of = function C.Protocol.Cancel { pid = _, k } -> k | _ -> -1 in
      let endpoints =
        List.init n (fun i ->
            let id = i + 1 in
            let raw ~dst msg = C.Protocol.send bus ~src:id ~dst ~epoch:0 msg in
            let rel =
              C.Reliable.create ~sim ~send_raw:raw
                ~active:(fun () -> true)
                ~retry_base:1.0 ~max_attempts
                ~on_retry:(fun ~dst:_ ~attempt:_ -> ())
                ~on_give_up:(fun ~dst msg -> note abandoned (id, dst) (seq_of msg))
                ()
            in
            Grid.Everyware.register bus ~id ~site:(Printf.sprintf "s%d" id) ~handler:(fun ~src msg ->
                C.Reliable.receive ~rel (C.Reliable.streams_of rel) ~me:id ~epoch:0 ~reply:raw
                  ~log:ignore
                  ~deliver:(fun ~src msg -> note delivered (src, id) (seq_of msg))
                  ~src msg);
            rel)
      in
      let sent = Hashtbl.create 16 in
      List.iter
        (fun (src, dst, at) ->
          if src <= n && dst <= n && src <> dst then
            ignore
              (Grid.Sim.schedule sim ~delay:at (fun () ->
                   let k = Option.value ~default:0 (Hashtbl.find_opt sent (src, dst)) in
                   Hashtbl.replace sent (src, dst) (k + 1);
                   C.Reliable.send (List.nth endpoints (src - 1)) ~dst
                     (C.Protocol.Cancel { pid = (src, k) }))))
        sends;
      drain sim;
      let ascending l = List.sort_uniq compare l = l in
      let ints l = String.concat " " (List.map string_of_int l) in
      Hashtbl.iter
        (fun (src, dst) count ->
          let got = List.rev (Option.value ~default:[] (Hashtbl.find_opt delivered (src, dst)))
          and lost = List.rev (Option.value ~default:[] (Hashtbl.find_opt abandoned (src, dst))) in
          if
            not
              (ascending got && ascending lost
              && List.for_all (fun k -> List.mem k lost || List.mem k got) (List.init count Fun.id))
          then
            QCheck.Test.fail_reportf "stream %d -> %d: %d sent, delivered [%s], abandoned [%s]" src
              dst count (ints got) (ints lost))
        sent;
      List.for_all (fun rel -> C.Reliable.outstanding rel = 0) endpoints)

(* A stream's receive state is one counter per peer: 10,000 envelopes
   delivered in order, from two peers, leave it as large as 10 did. *)
let test_reliable_receive_state_bounded () =
  let rx = C.Reliable.streams () in
  let deliver_from src mid =
    C.Reliable.receive rx ~me:0 ~epoch:0
      ~reply:(fun ~dst:_ _ -> ())
      ~log:ignore
      ~deliver:(fun ~src:_ _ -> ())
      ~src
      (C.Protocol.Reliable { mid; low = mid; payload = C.Protocol.Stop })
  in
  for mid = 0 to 4 do
    deliver_from 1 mid;
    deliver_from 2 mid
  done;
  let words = Obj.reachable_words (Obj.repr rx) in
  for mid = 5 to 4_999 do
    deliver_from 1 mid;
    deliver_from 2 mid
  done;
  check int "no growth after 10,000 envelopes" words (Obj.reachable_words (Obj.repr rx))

let test_reliable_exhaustion_signal () =
  let sim = Grid.Sim.create () in
  let sent = ref [] and gave = ref [] in
  let exhausted = ref [] in
  let rel =
    make_reliable ~sim ~max_attempts:3
      ~on_exhausted:(fun ~dst ~attempts -> exhausted := (dst, attempts) :: !exhausted)
      ~sent ~gave ()
  in
  C.Reliable.send rel ~dst:9 C.Protocol.Stop;
  check int "one in flight" 1 (C.Reliable.outstanding rel);
  drain sim (* nobody ever acks *);
  check (Alcotest.list (Alcotest.pair int int)) "exhaustion fired with the attempt count"
    [ (9, 3) ] !exhausted;
  check int "then the owner was told" 1 (List.length !gave);
  check bool "with the original payload" true (List.hd !gave = (9, C.Protocol.Stop));
  check int "initial + 3 retries transmitted" 4 (List.length !sent);
  check int "nothing left outstanding" 0 (C.Reliable.outstanding rel);
  check int "give-up counted" 1 (C.Reliable.gave_up rel)

(* A client whose master moved takes back the unacked tail of its stream
   to the old endpoint: in send order, without a give-up, and with no
   retry left armed toward that endpoint. *)
let test_reliable_stop_to () =
  let sim = Grid.Sim.create () in
  let sent = ref [] and gave = ref [] in
  let rel = make_reliable ~sim ~sent ~gave () in
  let msgs = List.init 3 (fun k -> C.Protocol.Split_failed { partner = k }) in
  List.iter (C.Reliable.send rel ~dst:9) msgs;
  C.Reliable.send rel ~dst:5 C.Protocol.Stop;
  check bool "the stream to 9 comes back in send order" true (C.Reliable.stop_to rel ~dst:9 = msgs);
  check int "the stream to 5 is untouched" 1 (C.Reliable.outstanding rel);
  check bool "a stream taken twice is empty" true (C.Reliable.stop_to rel ~dst:9 = []);
  sent := [];
  drain sim;
  check bool "no retry toward 9 afterwards" true (List.for_all (fun (dst, _) -> dst <> 9) !sent);
  check bool "no give-up for what was taken back" true
    (List.for_all (fun (dst, _) -> dst <> 9) !gave)

(* ---------- Config validation ---------- *)

let test_config_validate () =
  let ok c = match Cfg.validate c with Ok () -> true | Error _ -> false in
  let rejects c =
    match Cfg.validate c with
    | Error msg -> String.length msg > 0
    | Ok () -> false
  in
  check bool "default config is valid" true (ok Cfg.default);
  check bool "experiment sets are valid" true
    (ok Cfg.experiment_set_1 && ok Cfg.experiment_set_2);
  check bool "suspect timeout must exceed heartbeat" true
    (rejects { Cfg.default with Cfg.suspect_timeout = Cfg.default.Cfg.heartbeat_period });
  check bool "checkpoint period must be positive" true
    (rejects { Cfg.default with Cfg.checkpoint_period = 0. });
  (* the CLI's --timeout flag lands here: a non-positive override must be
     refused before the run starts, not clamped or ignored *)
  check bool "zero overall timeout rejected" true
    (rejects { Cfg.default with Cfg.overall_timeout = 0. });
  check bool "negative overall timeout rejected" true
    (rejects { Cfg.default with Cfg.overall_timeout = -5. });
  check bool "at least one delivery attempt" true
    (rejects { Cfg.default with Cfg.retry_max_attempts = 0 });
  check bool "heartbeat must be positive" true
    (rejects { Cfg.default with Cfg.heartbeat_period = 0. });
  check bool "journal must compact eventually" true
    (rejects { Cfg.default with Cfg.journal_compact_every = 0 });
  check bool "resync grace must be positive" true
    (rejects { Cfg.default with Cfg.resync_grace = 0. });
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  (match Cfg.validate { Cfg.default with Cfg.retry_max_attempts = -1 } with
  | Error msg -> check bool "error names the field" true (contains msg "retry")
  | Ok () -> Alcotest.fail "negative retry budget accepted");
  check bool "certify forbids clause sharing" true
    (rejects { Cfg.default with Cfg.certify = true; share_max_len = 10 });
  check bool "certify with sharing off is valid" true
    (ok { Cfg.default with Cfg.certify = true; share_max_len = 0 });
  match Cfg.validate_exn { Cfg.default with Cfg.suspect_timeout = 1.; heartbeat_period = 5. } with
  | () -> Alcotest.fail "validate_exn let an inconsistent config through"
  | exception Invalid_argument _ -> ()

let test_fault_plan_validate () =
  let module F = Grid.Fault in
  let ok specs = match F.validate specs with Ok () -> true | Error _ -> false in
  let rejects specs = match F.validate specs with Error _ -> true | Ok () -> false in
  check bool "empty plan is valid" true (ok []);
  check bool "corruption probability above 1 rejected" true
    (rejects
       [
         F.Corrupt_messages
           { src_site = None; dst_site = None; p = 1.5; from_t = 0.; until_t = infinity };
       ]);
  check bool "negative corruption probability rejected" true
    (rejects
       [
         F.Corrupt_messages
           { src_site = None; dst_site = None; p = -0.1; from_t = 0.; until_t = infinity };
       ]);
  check bool "inverted corruption window rejected" true
    (rejects
       [
         F.Corrupt_messages { src_site = None; dst_site = None; p = 0.1; from_t = 5.; until_t = 1. };
       ]);
  check bool "negative journal rot count rejected" true
    (rejects [ F.Corrupt_storage { at = 0.; journal_records = -1; checkpoints = true } ]);
  check bool "valid corruption plan accepted" true
    (ok
       [
         F.Corrupt_messages
           { src_site = None; dst_site = None; p = 0.05; from_t = 0.; until_t = infinity };
         F.Corrupt_storage { at = 3.; journal_records = 2; checkpoints = true };
       ])

let test_events_printing () =
  (* every constructor renders without raising *)
  let kinds =
    [
      C.Events.Client_started 1;
      C.Events.Problem_assigned { src = 0; dst = 1; bytes = 10; depth = 2 };
      C.Events.Split_requested { client = 1; reason = `Memory };
      C.Events.Split_requested { client = 1; reason = `Long_running };
      C.Events.Split_granted { client = 1; partner = 2 };
      C.Events.Split_denied { client = 1 };
      C.Events.Split_completed { src = 1; dst = 2; bytes = 5 };
      C.Events.Migration { src = 1; dst = 2; bytes = 5 };
      C.Events.Shares_broadcast { origin = 1; count = 3; recipients = 4 };
      C.Events.Client_finished_unsat 1;
      C.Events.Client_found_model 1;
      C.Events.Model_verified true;
      C.Events.Client_killed 1;
      C.Events.Host_crashed 1;
      C.Events.Host_hung 1;
      C.Events.Client_suspected { client = 1 };
      C.Events.False_suspicion { client = 1 };
      C.Events.Message_retried { src = 1; dst = 2; attempt = 3 };
      C.Events.Message_given_up { src = 1; dst = 2 };
      C.Events.Recovery_requeued { client = 1 };
      C.Events.Orphan_returned { donor = 1 };
      C.Events.Checkpoint_saved { client = 1; bytes = 9 };
      C.Events.Recovered_from_checkpoint { client = 1; onto = 2 };
      C.Events.Retries_exhausted { src = 1; dst = 2; attempts = 6 };
      C.Events.Rederived_from_lineage { holder = Some 3; depth = 4 };
      C.Events.Rederived_from_lineage { holder = None; depth = 0 };
      C.Events.Master_crashed;
      C.Events.Master_restarted;
      C.Events.Master_outage_detected { client = 2 };
      C.Events.Client_resynced { client = 2; busy = true };
      C.Events.Batch_job_submitted { nodes = 4 };
      C.Events.Batch_job_started { nodes = 4 };
      C.Events.Batch_job_cancelled;
      C.Events.Terminated "why";
    ]
  in
  List.iter
    (fun kind ->
      let s = Format.asprintf "%a" C.Events.pp (C.Events.make 1.5 kind) in
      check bool "nonempty rendering" true (String.length s > 5))
    kinds

let test_config_experiment_sets () =
  check int "set 1 shares length 10" 10 Cfg.experiment_set_1.Cfg.share_max_len;
  check int "set 2 shares length 3" 3 Cfg.experiment_set_2.Cfg.share_max_len;
  check bool "set 2 doubles the timeout" true
    (Cfg.experiment_set_2.Cfg.overall_timeout > Cfg.experiment_set_1.Cfg.overall_timeout)

let test_testbed_shapes () =
  let grads = C.Testbed.grads () in
  check int "grads has 34 hosts" 34 (C.Testbed.nhosts grads);
  check bool "grads has no batch" true (grads.C.Testbed.batch = None);
  let set2 = C.Testbed.set2 () in
  check int "set2 has 27 hosts" 27 (C.Testbed.nhosts set2);
  check bool "set2 has a batch spec" true (set2.C.Testbed.batch <> None);
  let fast = C.Testbed.fastest grads in
  List.iter
    (fun (h : C.Testbed.host) ->
      check bool "fastest is max" true
        (h.C.Testbed.resource.Grid.Resource.speed <= fast.C.Testbed.resource.Grid.Resource.speed))
    grads.C.Testbed.hosts;
  (* host ids are unique *)
  let ids = List.map (fun h -> h.C.Testbed.resource.Grid.Resource.id) grads.C.Testbed.hosts in
  check int "unique ids" (List.length ids) (List.length (List.sort_uniq compare ids))

let test_answer_strings () =
  check bool "unsat string" true (C.Gridsat.answer_string C.Master.Unsat = "UNSAT");
  check bool "unknown string" true
    (C.Gridsat.answer_string (C.Master.Unknown "x") = "UNKNOWN(x)")

let test_subproblem_bytes_monotone () =
  let small = Sub.initial (php ~pigeons:3 ~holes:3) in
  let big = Sub.initial (php ~pigeons:6 ~holes:6) in
  check bool "more clauses cost more bytes" true (Sub.bytes big > Sub.bytes small)

(* ---------- Timeline ---------- *)

let test_timeline_curve () =
  let ev t k = C.Events.make t k in
  let events =
    [
      ev 0. (C.Events.Client_started 1);
      ev 1. (C.Events.Problem_assigned { src = 0; dst = 1; bytes = 10; depth = 0 });
      ev 5. (C.Events.Problem_assigned { src = 1; dst = 2; bytes = 10; depth = 1 });
      ev 9. (C.Events.Client_finished_unsat 2);
      ev 12. (C.Events.Client_finished_unsat 1);
      ev 12. (C.Events.Terminated "done");
    ]
  in
  let curve = C.Timeline.busy_curve events in
  check int "peak" 2 (C.Timeline.peak curve);
  (* busy: 1 during [1,5), 2 during [5,9), 1 during [9,12) => 15 client-seconds *)
  check bool "client seconds" true (abs_float (C.Timeline.client_seconds curve -. 15.) < 1e-6);
  check bool "average" true (abs_float (C.Timeline.average curve -. (15. /. 12.)) < 1e-6)

let test_timeline_migration_frees_source () =
  let ev t k = C.Events.make t k in
  let events =
    [
      ev 0. (C.Events.Problem_assigned { src = 0; dst = 1; bytes = 1; depth = 0 });
      ev 2. (C.Events.Migration { src = 1; dst = 2; bytes = 1 });
      ev 2. (C.Events.Problem_assigned { src = 1; dst = 2; bytes = 1; depth = 0 });
      ev 6. (C.Events.Client_found_model 2);
    ]
  in
  let curve = C.Timeline.busy_curve events in
  check bool "peak stays 1-2" true (C.Timeline.peak curve <= 2);
  check int "final count zero" 0 (snd (List.nth curve (List.length curve - 1)))

let test_timeline_chart_renders () =
  let r = C.Gridsat.solve ~config:eager_config ~testbed:testbed4 (php ~pigeons:6 ~holes:5) in
  let curve = C.Timeline.busy_curve r.C.Master.events in
  let chart = C.Timeline.ascii_chart ~width:30 ~height:5 curve in
  check bool "chart nonempty" true (String.length chart > 0);
  check bool "has bars" true (String.contains chart '#');
  check bool "empty curve handled" true (C.Timeline.ascii_chart [] = "(no data)\n");
  (* a single-point curve has no elapsed time: defined no-data output,
     zero average, zero integral *)
  let point = [ (3., 1) ] in
  let chart = C.Timeline.ascii_chart point in
  check bool "single point renders no-data" true
    (String.length chart > 0 && chart.[0] = '(' && String.contains chart ')');
  check (Alcotest.float 1e-9) "single point average" 0. (C.Timeline.average point);
  check (Alcotest.float 1e-9) "empty average" 0. (C.Timeline.average []);
  check (Alcotest.float 1e-9) "single point integral" 0. (C.Timeline.client_seconds point)

(* ---------- the answer-correctness property ---------- *)

(* [cnf]'s answer on [testbed] agrees with brute force; a portfolio run
   must also never split. *)
let agrees_with_brute ~config ~testbed cnf =
  let r = C.Gridsat.solve ~config ~testbed cnf in
  (match (answer_of_result r, Brute.solve cnf) with
  | C.Master.Sat m, Brute.Sat _ -> Sat.Model.satisfies cnf m
  | C.Master.Unsat, Brute.Unsat -> true
  | _ -> false)
  && ((not config.Cfg.portfolio) || C.Master.counter r "splits" = 0)

let prop_gridsat_matches_brute =
  QCheck.Test.make ~name:"gridsat agrees with brute force" ~count:60
    (QCheck.make (random_cnf_gen ~max_vars:10 ~max_clauses:44 ~max_len:3))
    (fun cnf ->
      (* every formula runs split, then as a portfolio of root copies *)
      let split = { eager_config with Cfg.split_timeout = 0.5 } in
      agrees_with_brute ~config:split ~testbed:testbed4 cnf
      && agrees_with_brute ~config:{ split with Cfg.portfolio = true } ~testbed:testbed4 cnf)

(* The same check on two slow hosts with a short split timeout, so that
   about one run in five splits, over smaller formulas (0 clauses
   included): once split, once as a portfolio. *)
let on_two_slow_hosts ~portfolio cnf =
  let config = { eager_config with Cfg.split_timeout = 0.1; slice = 0.1; portfolio } in
  agrees_with_brute ~config ~testbed:(C.Testbed.uniform ~n:2 ~speed:1. ()) cnf

let prop_split_matches_brute =
  QCheck.Test.make ~name:"par solver agrees with brute force" ~count:60
    (QCheck.make (random_cnf_gen ~max_vars:9 ~max_clauses:36 ~max_len:3))
    (on_two_slow_hosts ~portfolio:false)

let prop_portfolio_matches_brute =
  QCheck.Test.make ~name:"portfolio agrees with brute force" ~count:60
    (QCheck.make (random_cnf_gen ~max_vars:9 ~max_clauses:36 ~max_len:3))
    (on_two_slow_hosts ~portfolio:true)

(* ---------- baseline ---------- *)

let test_baseline_outcomes () =
  let host = C.Testbed.fastest testbed4 in
  let sat = C.Baseline.run ~host (php ~pigeons:5 ~holes:5) in
  (match sat.C.Baseline.outcome with
  | C.Baseline.Sat m -> check bool "model ok" true (Sat.Model.satisfies (php ~pigeons:5 ~holes:5) m)
  | _ -> Alcotest.fail "expected sat");
  let unsat = C.Baseline.run ~host (php ~pigeons:5 ~holes:4) in
  check bool "unsat" true (unsat.C.Baseline.outcome = C.Baseline.Unsat);
  check bool "time positive" true (unsat.C.Baseline.time > 0.);
  let tout = C.Baseline.run ~timeout:0.001 ~host (php ~pigeons:9 ~holes:8) in
  check bool "timeout" true (tout.C.Baseline.outcome = C.Baseline.Timeout)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

(* ---------- registry retention ---------- *)

(* Runs a bus, a journal, a checkpoint store and a reliable endpoint
   against [obs]'s registry and returns weak pointers to them.  Not
   inlined, so nothing of theirs stays on the caller's stack. *)
let[@inline never] run_owners obs =
  let sim = Grid.Sim.create () in
  let bus = Grid.Everyware.create ~obs sim (Grid.Network.create ()) in
  Grid.Everyware.register bus ~id:0 ~site:"a" ~handler:(fun ~src:_ _ -> ());
  Grid.Everyware.register bus ~id:1 ~site:"a" ~handler:(fun ~src:_ _ -> ());
  (let n = ref 0 in
   Grid.Everyware.set_fault bus (fun ~src_site:_ ~dst_site:_ ~bytes:_ ->
       incr n;
       if !n mod 2 = 0 then Grid.Everyware.Drop else Grid.Everyware.Deliver));
  for _ = 1 to 4 do
    C.Protocol.send bus ~src:0 ~dst:1 ~epoch:0 C.Protocol.Stop
  done;
  let journal = C.Journal.create ~obs ~compact_every:2 () in
  List.iter (C.Journal.append journal)
    C.Journal.[ Registered { client = 1 }; Registered { client = 2 }; Died { client = 2 } ];
  let store = C.Checkpoint.create ~obs (Cnf.make ~nvars:2 [ [ 1; 2 ] ]) in
  let sp = { Sub.nvars = 2; facts = []; path = []; clauses = Clause_lists.of_list [ [| T.pos 1 |] ] } in
  ignore (C.Checkpoint.save store ~client:1 ~mode:Cfg.Heavy sp);
  C.Checkpoint.corrupt_all store;
  ignore (C.Checkpoint.restore store ~client:1);
  let rel =
    C.Reliable.create ~obs ~sim
      ~send_raw:(fun ~dst:_ _ -> ())
      ~active:(fun () -> true)
      ~retry_base:1.0 ~max_attempts:2
      ~on_retry:(fun ~dst:_ ~attempt:_ -> ())
      ~on_give_up:(fun ~dst:_ _ -> ())
      ()
  in
  C.Reliable.send rel ~dst:7 C.Protocol.Stop;
  drain sim;
  let weak = Weak.create 4 in
  List.iteri (fun i o -> Weak.set weak i (Some o))
    [ Obj.repr bus; Obj.repr journal; Obj.repr store; Obj.repr rel ];
  weak

(* The registry keeps each owner's count (its cell, or the small record
   a view reads), never the owner: dropped owners are collected while
   the registry lives on, and its export still shows their final
   counts. *)
let test_registry_retains_no_owner () =
  let obs = Obs.create () in
  let weak = run_owners obs in
  Gc.full_major ();
  List.iteri
    (fun i name -> check bool (name ^ " collected") false (Weak.check weak i))
    [ "bus"; "journal"; "checkpoint store"; "reliable endpoint" ];
  let exported = Obs.Metrics.export_merged (Obs.metrics obs) in
  List.iter
    (fun (name, n) ->
      match List.assoc_opt name exported with
      | Some (Obs.Metrics.Counter v) -> check int name n v
      | _ -> Alcotest.failf "no %s series" name)
    [
      ("net.messages.sent", 4);
      ("net.messages.dropped", 2);
      ("journal.appends", 3);
      ("journal.compactions", 1);
      ("checkpoint.saves", 1);
      ("checkpoint.discarded", 1);
      ("reliable.retries", 2);
      ("reliable.exhausted", 1);
    ]

let () =
  Alcotest.run "core"
    [
      ( "subproblem",
        [
          Alcotest.test_case "initial" `Quick test_subproblem_initial;
          Alcotest.test_case "prune" `Quick test_subproblem_prune;
          Alcotest.test_case "split roundtrip" `Quick test_subproblem_split_roundtrip;
          Alcotest.test_case "capture" `Quick test_subproblem_capture;
          Alcotest.test_case "capture of a refuted solver" `Quick test_subproblem_capture_refuted;
          Alcotest.test_case "to_solver leaves clauses alone" `Quick
            test_to_solver_leaves_clauses_alone;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "rank monotone" `Quick test_scheduler_rank_monotone;
          Alcotest.test_case "pick policies" `Quick test_scheduler_pick_policies;
          Alcotest.test_case "backlog order" `Quick test_scheduler_backlog;
          Alcotest.test_case "migration rule" `Quick test_scheduler_migration_rule;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "light restore" `Quick test_checkpoint_light_restores_original_clauses;
          Alcotest.test_case "heavy roundtrip" `Quick test_checkpoint_heavy_roundtrip;
          Alcotest.test_case "none mode" `Quick test_checkpoint_none_mode;
          Alcotest.test_case "light copies no clauses" `Quick test_checkpoint_light_copies_no_clauses;
        ] );
      ( "registry",
        [ Alcotest.test_case "owners are not retained" `Quick test_registry_retains_no_owner ] );
      ( "end-to-end",
        [
          Alcotest.test_case "unsat run" `Slow test_gridsat_unsat;
          Alcotest.test_case "sat verified" `Slow test_gridsat_sat_verified;
          Alcotest.test_case "easy stays sequential" `Quick test_gridsat_trivial_stays_sequential;
          Alcotest.test_case "timeout" `Slow test_gridsat_timeout;
          Alcotest.test_case "figure 3 sequence" `Slow test_gridsat_figure3_sequence;
          Alcotest.test_case "sharing counts" `Slow test_gridsat_sharing_counts;
          Alcotest.test_case "deterministic" `Slow test_gridsat_deterministic;
          Alcotest.test_case "memory-pressure splits" `Slow test_gridsat_memory_pressure_splits;
          Alcotest.test_case "beats baseline memout" `Slow test_gridsat_solves_where_baseline_memouts;
          Alcotest.test_case "backlog served" `Slow test_gridsat_backlog_served;
          Alcotest.test_case "all scheduler policies" `Slow test_gridsat_scheduler_policies_all_correct;
          Alcotest.test_case "no sharing still correct" `Slow test_gridsat_no_sharing_still_correct;
          Alcotest.test_case "heterogeneous testbed" `Slow test_gridsat_heterogeneous_testbed;
          Alcotest.test_case "migration" `Slow test_gridsat_migration;
          Alcotest.test_case "migration preserves subproblem" `Slow
            test_gridsat_migration_preserves_subproblem;
          Alcotest.test_case "migration disabled" `Slow test_gridsat_migration_disabled;
          Alcotest.test_case "refuted client migrates as received" `Slow
            test_gridsat_migrate_refuted_client;
          Alcotest.test_case "late host joins" `Slow test_late_host_joins;
        ] );
      ( "batch",
        [
          Alcotest.test_case "cancel on early solve" `Slow test_batch_cancelled_when_solved_early;
          Alcotest.test_case "nodes join" `Slow test_batch_nodes_join;
          Alcotest.test_case "expiry terminates" `Slow test_batch_expiry_terminates;
        ] );
      ( "failures",
        [
          Alcotest.test_case "busy kill without checkpoint" `Slow
            test_kill_busy_without_checkpoint_rederives;
          Alcotest.test_case "busy kill with checkpoint" `Slow test_kill_busy_with_checkpoint_recovers;
          Alcotest.test_case "idle kill tolerated" `Slow test_kill_idle_is_tolerated;
          Alcotest.test_case "partner killed mid-handoff" `Slow
            test_kill_reserved_partner_mid_handoff;
          Alcotest.test_case "reservations released" `Slow test_terminate_releases_reservations;
          Alcotest.test_case "checkpoint events" `Slow test_checkpoint_events_logged;
        ] );
      ( "reliable",
        [
          Alcotest.test_case "duplicate ack is a no-op" `Quick test_reliable_duplicate_ack;
          QCheck_alcotest.to_alcotest prop_reliable_streams;
          Alcotest.test_case "receive state bounded" `Quick test_reliable_receive_state_bounded;
          Alcotest.test_case "retry exhaustion signal" `Quick test_reliable_exhaustion_signal;
          Alcotest.test_case "stop_to takes one stream back" `Quick test_reliable_stop_to;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "message sizes" `Quick test_protocol_sizes;
          Alcotest.test_case "event rendering" `Quick test_events_printing;
          Alcotest.test_case "config validation" `Quick test_config_validate;
          Alcotest.test_case "fault plan validation" `Quick test_fault_plan_validate;
          Alcotest.test_case "experiment configs" `Quick test_config_experiment_sets;
          Alcotest.test_case "testbed shapes" `Quick test_testbed_shapes;
          Alcotest.test_case "answer strings" `Quick test_answer_strings;
          Alcotest.test_case "subproblem bytes" `Quick test_subproblem_bytes_monotone;
        ] );
      ( "timeline",
        [
          Alcotest.test_case "curve arithmetic" `Quick test_timeline_curve;
          Alcotest.test_case "migration frees source" `Quick test_timeline_migration_frees_source;
          Alcotest.test_case "chart renders" `Quick test_timeline_chart_renders;
        ] );
      ("par_solver", qsuite [ prop_split_matches_brute; prop_portfolio_matches_brute ]);
      ( "correctness",
        [
          Alcotest.test_case "wire format errors" `Quick test_subproblem_wire_errors;
          Alcotest.test_case "wire format literal errors" `Quick
            test_subproblem_wire_literal_errors;
          Alcotest.test_case "wire format decimal integers only" `Quick
            test_subproblem_wire_decimal_only;
        ]
        @ qsuite
            [
              prop_gridsat_matches_brute;
              prop_prune_idempotent;
              prop_prune_never_grows;
              prop_subproblem_wire_roundtrip;
              prop_subproblem_matches_legacy;
              prop_subproblem_mutations;
            ] );
      ("hand-off", qsuite [ prop_split_from_is_pruned_split; prop_to_solver_matches_cnf_path ]);
      ("baseline", [ Alcotest.test_case "outcomes" `Slow test_baseline_outcomes ]);
    ]

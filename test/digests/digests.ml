(* Prints every digest the stack computes, for a fixed corpus:
   verdict-cache keys, the word-lane frame digest of one message per
   protocol constructor, the checkpoint seal of a split and the rolling
   digests of sealed journal and job-log records. *)

module T = Sat.Types
module C = Gridsat_core
module P = C.Protocol
module Sub = C.Subproblem
module Cache = Gridsat_service.Cache
module Joblog = Gridsat_service.Joblog

let lits = List.map T.lit_of_int

(* ---------- verdict-cache keys ---------- *)

let planted seed = Workloads.Random_sat.planted ~nvars:22 ~ratio:5.0 ~seed ()

let php = Workloads.Php.instance ~pigeons:6 ~holes:5

let dimacs_clauses cnf =
  let a = Sat.Cnf.clauses cnf in
  List.init (Sat.Arena.nclauses a) (fun k ->
      Array.to_list (Array.map T.to_int (Sat.Arena.clause a k)))

(* The clauses reversed, each with its literals reversed, and every third
   one repeated: the same clause set as [cnf]. *)
let permuted cnf =
  let cs = dimacs_clauses cnf in
  let again = List.filteri (fun k _ -> k mod 3 = 0) cs in
  Sat.Cnf.make ~nvars:(Sat.Cnf.nvars cnf) (List.rev_map List.rev (cs @ again))

(* A 40-literal clause next to its own 39- and 41-literal neighbours, so
   long clauses share their first literals. *)
let long_clause =
  let run n = List.init n (fun k -> if k mod 2 = 0 then k + 1 else -(k + 1)) in
  Sat.Cnf.make ~nvars:50 [ run 40; run 39; run 41; List.rev (run 40); [ 1; 2; 3 ]; [ -50 ] ]

(* nvars = 5000: literals of four digits, clauses up to 12 literals, with
   shared prefixes and repeats. *)
let wide =
  let rng = Random.State.make [| 5000 |] in
  let lit () =
    let v = 1 + Random.State.int rng 5000 in
    if Random.State.bool rng then v else -v
  in
  let prefix = List.init 6 (fun _ -> lit ()) in
  let cs =
    List.init 300 (fun k ->
        let tail = List.init (1 + Random.State.int rng 6) (fun _ -> lit ()) in
        if k mod 4 = 0 then prefix @ tail else tail)
  in
  Sat.Cnf.make ~nvars:5000 (cs @ List.filteri (fun k _ -> k mod 7 = 0) cs)

let cache_corpus =
  [
    ("planted 3-SAT seed 700001", planted 700_001);
    ("planted 3-SAT seed 700002", planted 700_002);
    ("php 6 5", php);
    ("php 6 5 permuted, duplicated", permuted php);
    ("planted permuted, duplicated", permuted (planted 700_001));
    ("40-literal clause", long_clause);
    ("nvars 5000", wide);
    ("empty formula", Sat.Cnf.make ~nvars:3 []);
    ("empty clause", Sat.Cnf.make ~nvars:2 [ []; [ 1; -2 ] ]);
  ]

(* ---------- frames ---------- *)

(* A split of 6pipe.cnf: run the solver in small budgets until it sits at
   a decision level above the root. *)
let pipe_split =
  let cnf = (Option.get (Workloads.Registry.find "6pipe.cnf")).Workloads.Registry.gen () in
  let s = Sat.Solver.create cnf in
  let rec drive n =
    if n = 0 then failwith "6pipe: no splittable state"
    else
      match Sat.Solver.run s ~budget:2000 with
      | Sat.Solver.Budget_exhausted when Sat.Solver.decision_level s > 0 -> (
          match Sub.split_from s with Some sp -> sp | None -> drive (n - 1))
      | Sat.Solver.Budget_exhausted -> drive (n - 1)
      | _ -> failwith "6pipe: solved before a split"
  in
  drive 100

let entries : P.journal_entry list =
  [
    Registered { client = 3 };
    Assigned { pid = (0, 0); dst = 4; path = [] };
    Split
      {
        donor = 2;
        donor_pid = (2, 5);
        donor_path = lits [ 1; -3; 10 ];
        pid = (2, 6);
        dst = 8;
        path = lits [ 1; -3; -10 ];
      };
    Refuted { pid = (5, 100) };
    Died { client = 100 };
    Adopted { pid = (1, 2); client = 3; path = lits [ -4000; 17; 9999 ] };
    Verdict { answer = "UNSAT" };
  ]

let messages : (string * P.msg) list =
  let small = Sub.initial (Sat.Cnf.make ~nvars:4 [ [ 1; -2 ]; [ 2; 3; -4 ]; [ -1 ] ]) in
  [
    ("register", Register);
    ("problem 6pipe split", Problem { pid = (3, 7); sp = pipe_split; sent_at = 12.5 });
    ( "problem_received",
      Problem_received { pid = (3, 7); from = 2; bytes = 24_917; path = lits [ 5; -6 ] } );
    ("split_request memory", Split_request `Memory);
    ("split_request long", Split_request `Long_running);
    ("split_partner", Split_partner { partner = 11 });
    ( "split_ok",
      Split_ok
        {
          pid = (2, 6);
          donor_pid = (2, 5);
          dst = 8;
          bytes = 4096;
          path = lits [ 1; -3; -10 ];
          donor_path = lits [ 1; -3; 10 ];
        } );
    ("split_failed", Split_failed { partner = 4 });
    ("shares", Shares { clauses = [ Array.of_list (lits [ 1; -2; 30 ]); Array.of_list (lits [ -7 ]) ] });
    ( "share_relay",
      Share_relay { origin = 5; clauses = [ Array.of_list (lits [ -100; 200; -3000; 40_000 ]) ] } );
    ("finished_unsat", Finished_unsat { pid = (1, 1); proof = None });
    ("finished_unsat proof", Finished_unsat { pid = (1, 1); proof = Some "1 -2 0\nd 3 0\n0\n" });
    ("found_model", Found_model (Sat.Model.of_array [| false; true; false; true; true |]));
    ("migrate_to", Migrate_to { target = 6 });
    ("cancel", Cancel { pid = (4, 2) });
    ("orphaned", Orphaned { pid = (4, 3); sp = small });
    ("resync_request", Resync_request);
    ("resync idle", Resync { pid = None; path = []; busy_since = 0. });
    ("resync busy", Resync { pid = Some (2, 2); path = lits [ 8; -9 ]; busy_since = 3.25 });
    ("stop", Stop);
    ("heartbeat", Heartbeat { decisions = 123_456_789 });
    ("ship", Ship { seq = 17; entries; log_digest = "00ff" });
    ("epoch_notice", Epoch_notice);
    ("ack", Ack { mid = 42 });
    ("nack", Nack { mid = -1 });
    ("reliable", Reliable { mid = 43; low = 41; payload = Split_partner { partner = 2 } });
    ("framed", Framed { digest = min_int; epoch = 3; payload = Stop });
    ("corrupt_payload", Corrupt_payload);
  ]

(* ---------- sealed logs ---------- *)

let jobs : Joblog.entry list =
  [
    Submitted { id = 1; tenant = "alice"; priority = "high"; digest = "abc-123"; deadline = None };
    Submitted { id = 20; tenant = "bob"; priority = "low"; digest = "def-456"; deadline = Some 9.5 };
    Admitted { id = 1 };
    Shed { id = 300; retry_after = 1.25 };
    Cache_hit { id = 4000; answer = "SAT" };
    Started { id = 1; hosts = [ 0; 7; 12 ] };
    Started { id = 2; hosts = [] };
    Requeued { id = 1; reason = "preempted" };
    Finished { id = 1; terminal = "UNSAT" };
  ]

let () =
  print_endline "== cache keys";
  List.iter (fun (name, cnf) -> Printf.printf "%s: %s\n" name (Cache.digest cnf)) cache_corpus;
  print_endline "== frame digests";
  List.iter
    (fun (name, m) ->
      match P.frame m with
      | Framed { digest; _ } -> Printf.printf "%s: %x\n" name digest
      | _ -> assert false)
    messages;
  Printf.printf "6pipe split: %d bytes, word digest of its text %x\n"
    (String.length (Sub.to_string pipe_split))
    (C.Integrity.hash_word C.Integrity.put_string (Sub.to_string pipe_split));
  print_endline "== checkpoint seals";
  Printf.printf "6pipe split: %x\n" (C.Checkpoint.seal_of pipe_split);
  print_endline "== journal seals";
  let j = C.Journal.create ~compact_every:1000 () in
  List.iter
    (fun e ->
      C.Journal.append j e;
      Printf.printf "%s: %s\n" (Format.asprintf "%a" C.Journal.pp_entry e) (C.Journal.log_digest j))
    entries;
  print_endline "== joblog seals";
  let l = Joblog.create () in
  List.iter
    (fun e ->
      Joblog.append l e;
      Printf.printf "%s: %s\n" (Format.asprintf "%a" Joblog.pp_entry e) (Joblog.log_digest l))
    jobs

module Sub = Gridsat_core.Subproblem
module Solver = Sat.Solver

type outcome = Sat of Sat.Model.t | Unsat | Budget_exhausted

type stats = {
  domains : int;
  splits : int;
  shared_clauses : int;
  subproblems_solved : int;
  propagations : int;
}

(* All cross-domain state lives behind one mutex: a work queue of
   subproblems, a grow-only clause pool with per-worker read cursors, the
   outstanding-problem count for termination detection and splitting, and
   the result cell.  Contention is negligible because workers only take
   the lock between compute slices. *)
type shared = {
  mutex : Mutex.t;
  cond : Condition.t;
  queue : Sub.t Queue.t;
  pool : (int * Sat.Types.lit array) list ref; (* (origin, clause), newest first *)
  mutable pool_len : int;
  mutable outstanding : int; (* queued + being-solved subproblems *)
  domains : int;
  mutable result : outcome option;
  mutable splits : int;
  mutable shared_clauses : int;
  mutable subproblems_solved : int;
  mutable propagations : int;
  mutable budget_left : int;
}

let with_lock sh f =
  Mutex.lock sh.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock sh.mutex) f

let set_result sh r =
  with_lock sh (fun () ->
      if sh.result = None then begin
        sh.result <- Some r;
        Condition.broadcast sh.cond
      end)

(* Take the next subproblem, or learn that the run is over.  Blocks while
   other workers still hold problems that might be split. *)
let next_work sh =
  with_lock sh (fun () ->
      let rec wait () =
        match sh.result with
        | Some _ -> None
        | None -> (
            match Queue.take_opt sh.queue with
            | Some sp -> Some sp
            | None ->
                if sh.outstanding = 0 then begin
                  if sh.result = None then sh.result <- Some Unsat;
                  Condition.broadcast sh.cond;
                  None
                end
                else begin
                  Condition.wait sh.cond sh.mutex;
                  wait ()
                end)
      in
      wait ())

let push_work sh sp =
  with_lock sh (fun () ->
      Queue.push sp sh.queue;
      sh.outstanding <- sh.outstanding + 1;
      sh.splits <- sh.splits + 1;
      Condition.signal sh.cond)

let finish_problem sh =
  with_lock sh (fun () ->
      sh.outstanding <- sh.outstanding - 1;
      sh.subproblems_solved <- sh.subproblems_solved + 1;
      if sh.outstanding = 0 && Queue.is_empty sh.queue then begin
        if sh.result = None then sh.result <- Some Unsat;
        Condition.broadcast sh.cond
      end)

let publish_shares sh ~origin clauses =
  if clauses <> [] then
    with_lock sh (fun () ->
        List.iter
          (fun c ->
            sh.pool := (origin, c) :: !(sh.pool);
            sh.pool_len <- sh.pool_len + 1)
          clauses;
        sh.shared_clauses <- sh.shared_clauses + List.length clauses)

(* Clauses published by other workers since this worker's cursor. *)
let pull_shares sh ~origin ~cursor =
  with_lock sh (fun () ->
      let fresh = sh.pool_len - cursor in
      if fresh <= 0 then ([], sh.pool_len)
      else begin
        let rec take n acc = function
          | (o, c) :: rest when n > 0 ->
              take (n - 1) (if o <> origin then c :: acc else acc) rest
          | _ -> acc
        in
        (take fresh [] !(sh.pool), sh.pool_len)
      end)

let consume_budget sh amount =
  with_lock sh (fun () ->
      sh.propagations <- sh.propagations + amount;
      sh.budget_left <- sh.budget_left - amount;
      if sh.budget_left <= 0 && sh.result = None then begin
        sh.result <- Some Budget_exhausted;
        Condition.broadcast sh.cond
      end)

(* Domains that neither solve nor have a queued problem waiting for them:
   waiting ones and ones not started yet alike, so whether a split happens
   does not depend on how fast the OS starts the domains. *)
let idle_domains sh = with_lock sh (fun () -> sh.domains - sh.outstanding)

let worker sh ~id ~cnf ~share_max_len ~slice_budget ~seed () =
  let cursor = ref 0 in
  let solver_config =
    {
      Solver.default_config with
      Solver.share_export_max = max share_max_len Solver.default_config.Solver.share_export_max;
      seed = seed + id;
    }
  in
  let rec work_loop () =
    match next_work sh with
    | None -> ()
    | Some sp ->
        let solver = Sub.to_solver ~config:solver_config sp in
        slice_loop solver;
        work_loop ()
  and slice_loop solver =
    let stop = with_lock sh (fun () -> sh.result <> None) in
    if not stop then begin
      let before = (Solver.stats solver).Sat.Stats.propagations in
      let outcome = Solver.run solver ~budget:slice_budget in
      consume_budget sh ((Solver.stats solver).Sat.Stats.propagations - before);
      match outcome with
      | Solver.Sat model ->
          if Sat.Model.satisfies cnf model then set_result sh (Sat model)
          else failwith "Par_solver: model verification failed (solver bug)"
      | Solver.Unsat -> finish_problem sh
      | Solver.Mem_pressure | Solver.Budget_exhausted ->
          publish_shares sh ~origin:id (Solver.drain_shares solver ~max_len:share_max_len);
          let fresh, c = pull_shares sh ~origin:id ~cursor:!cursor in
          cursor := c;
          if fresh <> [] then Solver.queue_foreign_clauses solver fresh;
          if idle_domains sh > 0 && Solver.decision_level solver > 0 then begin
            match Sub.split_from solver with
            | Some sp -> push_work sh sp
            | None -> ()
          end;
          slice_loop solver
    end
  in
  work_loop ()

(* Portfolio worker: race on the full problem with a distinct seed,
   exchanging short clauses through the shared pool. *)
let portfolio_worker sh ~id ~cnf ~share_max_len ~slice_budget ~seed () =
  let cursor = ref 0 in
  let solver_config =
    {
      Solver.default_config with
      Solver.share_export_max = max share_max_len Solver.default_config.Solver.share_export_max;
      random_decision_freq = 0.05;
      seed = seed + (37 * id) + 1;
    }
  in
  let solver = Solver.create ~config:solver_config cnf in
  let rec slice_loop () =
    let stop = with_lock sh (fun () -> sh.result <> None) in
    if not stop then begin
      let before = (Solver.stats solver).Sat.Stats.propagations in
      let outcome = Solver.run solver ~budget:slice_budget in
      consume_budget sh ((Solver.stats solver).Sat.Stats.propagations - before);
      match outcome with
      | Solver.Sat model ->
          if Sat.Model.satisfies cnf model then set_result sh (Sat model)
          else failwith "Par_solver: model verification failed (solver bug)"
      | Solver.Unsat -> set_result sh Unsat
      | Solver.Mem_pressure | Solver.Budget_exhausted ->
          publish_shares sh ~origin:id (Solver.drain_shares solver ~max_len:share_max_len);
          let fresh, c = pull_shares sh ~origin:id ~cursor:!cursor in
          cursor := c;
          if fresh <> [] then Solver.queue_foreign_clauses solver fresh;
          slice_loop ()
    end
  in
  slice_loop ()

let make_shared ~domains total_budget =
  {
    mutex = Mutex.create ();
    cond = Condition.create ();
    queue = Queue.create ();
    pool = ref [];
    pool_len = 0;
    outstanding = 1;
    domains;
    result = None;
    splits = 0;
    shared_clauses = 0;
    subproblems_solved = 0;
    propagations = 0;
    budget_left = total_budget;
  }

let finish sh =
  let outcome = match sh.result with Some r -> r | None -> Unsat in
  ( outcome,
    {
      domains = sh.domains;
      splits = sh.splits;
      shared_clauses = sh.shared_clauses;
      subproblems_solved = sh.subproblems_solved;
      propagations = sh.propagations;
    } )

let portfolio ?num_domains ?(share_max_len = 10) ?(slice_budget = 20_000)
    ?(total_budget = max_int) ?(seed = 0) cnf =
  let domains =
    match num_domains with
    | Some n -> max 1 n
    | None -> max 1 (Domain.recommended_domain_count ())
  in
  let sh = make_shared ~domains total_budget in
  let spawn id = Domain.spawn (portfolio_worker sh ~id ~cnf ~share_max_len ~slice_budget ~seed) in
  let workers = List.init domains spawn in
  List.iter Domain.join workers;
  finish sh

let solve ?num_domains ?(share_max_len = 10) ?(slice_budget = 20_000) ?(total_budget = max_int)
    ?(seed = 0) cnf =
  let domains =
    match num_domains with
    | Some n -> max 1 n
    | None -> max 1 (Domain.recommended_domain_count ())
  in
  let sh = make_shared ~domains total_budget in
  Queue.push (Sub.initial cnf) sh.queue;
  let spawn id = Domain.spawn (worker sh ~id ~cnf ~share_max_len ~slice_budget ~seed) in
  let workers = List.init domains spawn in
  List.iter Domain.join workers;
  finish sh

(** Shared-memory parallel GridSAT on OCaml 5 domains.

    This backend runs the same algorithm as the distributed solver — search
    -space splitting on guiding paths plus global sharing of short learned
    clauses — but with real threads instead of simulated grid hosts: a
    lock-protected work queue of {!Gridsat_core.Subproblem.t}s, a global
    clause pool, and one solver per domain.  Workers split their problem
    whenever a domain has no problem to solve, so parallelism again
    follows demand.

    The answer is deterministic (it is the problem's satisfiability);
    running times and statistics are not, since domains race. *)

type outcome = Sat of Sat.Model.t | Unsat | Budget_exhausted

type stats = {
  domains : int;
  splits : int;
  shared_clauses : int;
  subproblems_solved : int;  (** exhausted (UNSAT) subproblems *)
  propagations : int;
}

val solve :
  ?num_domains:int ->
  ?share_max_len:int ->
  ?slice_budget:int ->
  ?total_budget:int ->
  ?seed:int ->
  Sat.Cnf.t ->
  outcome * stats
(** [solve cnf] returns the verified answer.  [num_domains] defaults to
    [Domain.recommended_domain_count ()]; [total_budget] caps the summed
    propagation count across workers (default: effectively unlimited),
    after which [Budget_exhausted] is returned. *)

val portfolio :
  ?num_domains:int ->
  ?share_max_len:int ->
  ?slice_budget:int ->
  ?total_budget:int ->
  ?seed:int ->
  Sat.Cnf.t ->
  outcome * stats
(** The contrast to GridSAT's search-space splitting: every domain races a
    differently-seeded solver on the {e whole} problem, sharing short
    learned clauses; the first answer wins.  [stats.splits] is always 0.
    Modern portfolio solvers (and the paper's NAGSAT discussion) motivate
    this ablation — compare with {!solve} in the benchmarks. *)

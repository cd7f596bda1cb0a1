(** CNF preprocessing (an extension beyond the paper's 2003 toolchain).

    Three classic equisatisfiability-preserving simplifications, applied to
    fixpoint in rounds:
    - {b subsumption}: drop any clause that is a superset of another;
    - {b self-subsuming resolution}: if resolving two clauses on a pivot
      yields a subset of one of them, strengthen that clause by removing
      the pivot literal;
    - {b bounded variable elimination} (SatELite-style): eliminate a
      variable by replacing its occurrences with all resolvents when that
      does not grow the clause count.

    Eliminated variables are recorded so that a model of the simplified
    formula can be {!extend}ed to a model of the original one. *)

type elimination
(** Reconstruction data for one eliminated variable. *)

type result = {
  cnf : Cnf.t;  (** the simplified formula (same variable space) *)
  clauses_before : int;
  clauses_after : int;
  eliminated : int;  (** variables removed by elimination *)
  subsumed : int;  (** clauses dropped by subsumption *)
  strengthened : int;  (** literals removed by self-subsumption *)
  elims : elimination list;  (** consumed by {!extend} *)
}

val run : Cnf.t -> result
(** [run cnf] simplifies, in at most three rounds of subsumption then
    variable elimination; an elimination never adds clauses net. *)

val extend : result -> Model.t -> Model.t
(** Completes a model of [result.cnf] into a model of the original
    formula by choosing values for the eliminated variables. *)

(** DRUP proof logging and checking.

    The paper's master verifies SAT answers by evaluating the model;
    nothing in 2003 verified UNSAT answers.  This module adds that,
    modern-style: the solver can log every learned clause (and deletion)
    as a DRUP proof, and {!check} replays the proof with a small,
    independent unit-propagation engine — each learned clause must be a
    reverse-unit-propagation (RUP) consequence of the clauses before it,
    and the proof must end in the empty clause.  A checked proof gives an
    end-to-end soundness guarantee that does not trust the solver.

    Proofs can also be (de)serialised in the standard DRUP text format
    used by SAT-competition checkers. *)

type step =
  | Add of Types.lit array  (** a learned clause, in derivation order *)
  | Delete of Types.lit array  (** an explicit deletion (optional in DRUP) *)

type t = step list
(** A proof, in derivation order. *)

val check : Cnf.t -> t -> (unit, string) result
(** [check cnf proof] verifies that every added clause is RUP with respect
    to the formula plus the previously added (and not yet deleted) clauses,
    and that the proof derives the empty clause (or an immediate root
    conflict).  Returns a diagnostic on failure. *)

val check_under : Cnf.t -> assumptions:Types.lit list -> t -> (unit, string) result
(** [check_under cnf ~assumptions proof] is {!check} relative to a set of
    assumed literals: every RUP test (and the final empty-clause check) is
    seeded with [assumptions] in addition to the negated clause.  A proof
    that checks certifies that [cnf /\ assumptions] is unsatisfiable —
    exactly what a guiding-path subproblem claims, with [assumptions] the
    branch's path literals.  This is how the master certifies each
    distributed UNSAT fragment: the fragment only needs to be valid under
    its own branch, not for the global formula.  Unit propagation is
    monotone under extra assumptions, so any proof accepted by {!check}
    is accepted here too.  Proof steps (and assumptions) mentioning
    variables outside the formula's range yield [Error], never an
    exception — proof text that crossed the network is untrusted input. *)

val check_clause_rup : Cnf.t -> Types.lit array list -> Types.lit array -> bool
(** [check_clause_rup cnf earlier clause] checks a single RUP step:
    asserting the negation of [clause] and unit-propagating over
    [cnf @ earlier] must yield a conflict. *)

val to_string : t -> string
(** Standard DRUP text ("d" lines for deletions, "0"-terminated). *)

val of_string : string -> t
(** Parses DRUP text with {!Dimacs.Scan}: a step a line, [d] first for a
    deletion, its integers ended by the line's only [0].  Raises [Failure]
    on malformed input. *)

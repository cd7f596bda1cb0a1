(** Verdict cache keyed by canonical CNF digest.

    Two submissions of the same formula — same clauses in any order, any
    duplication, any clause-internal literal order — canonicalise to the
    same key, so the second one is served instantly without dispatching a
    single subproblem.

    Trust argument: the cache only ever stores verdicts the master
    already {e proved} — a SAT model that passed {!Sat.Model.satisfies},
    or an UNSAT verdict (certified fragment-by-fragment when certify mode
    is on).  On top of that, a cached SAT model is re-verified against
    the {e newly submitted} formula at serve time, so even a digest
    collision (or a rotted stored model) cannot make the service hand a
    wrong model to a different formula: a hit that fails re-verification
    is treated as a miss.  Unknown verdicts (timeouts, cancellations) are
    never cached — they describe the run, not the formula. *)

type t

val create : unit -> t

val digest : Sat.Cnf.t -> string
(** Canonical digest, 25 characters ([%016x-%08x]): the key of the
    formula's set of clauses and its variable count.  Each clause is
    hashed as its normalised literals (sorted and free of duplicates, as
    {!Sat.Cnf} keeps them), duplicates are found by an open-addressed
    table that compares literals on a hash tie, and the distinct clause
    hashes are summed into two independent lanes, so clause order,
    literal order and duplicated clauses do not change the key.

    Cost: linear in the formula's literals, with no sort.  The working
    arrays are this domain's reused scratch, so a call allocates a
    constant few dozen words (the key and its seal), whatever the
    formula's size up to 2{^20} clauses. *)

val find : t -> digest:string -> cnf:Sat.Cnf.t -> Gridsat_core.Master.answer option
(** A verified verdict for this formula, if one is stored.  SAT hits are
    re-checked against [cnf] before being served; a failing check counts
    as a miss (and evicts the entry). *)

val store : t -> digest:string -> Gridsat_core.Master.answer -> unit
(** Remembers a terminal verdict.  Unknown answers are ignored; an
    existing entry is kept (first proof wins). *)

val size : t -> int

val hits : t -> int

val stores : t -> int

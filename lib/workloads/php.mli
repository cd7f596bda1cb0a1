(** Pigeonhole instances.

    [instance ~pigeons ~holes] asks whether [pigeons] pigeons fit into
    [holes] holes, one per hole.  Unsatisfiable iff [pigeons > holes], and
    famously exponential for resolution-based solvers — the stand-in for
    the "hand-made" hard UNSAT families of the SAT2002 suite. *)

val instance : pigeons:int -> holes:int -> Sat.Cnf.t

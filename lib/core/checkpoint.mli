(** Checkpoint store (paper Section 3.4).

    [Light] checkpoints persist only the root assignment of a client's
    subproblem (the clause set is recovered from the original problem
    file); [Heavy] checkpoints also persist the learned-clause database.
    The paper estimates ~0.5 GB per client for heavy checkpoints — the
    store tracks sizes so benchmarks can report that cost. *)

type t

val create : ?obs:Obs.t -> Sat.Cnf.t -> t
(** The original formula, used to rebuild clause sets for light
    checkpoints.  [obs] (default [Obs.disabled]) receives save/restore
    counters, a stored-bytes histogram, and instant-spans. *)

val save :
  t -> client:int -> pid:Protocol.pid -> mode:Config.checkpoint_mode -> Subproblem.t -> int
(** Stores (replacing) the client's checkpoint of branch [pid]; returns
    stored bytes (0 for [No_checkpoint]).  A client holds one snapshot,
    of the branch it saved last. *)

val restore : t -> client:int -> pid:Protocol.pid -> Subproblem.t option
(** The subproblem to restart branch [pid] from, if the client's
    snapshot was saved for [pid]; a snapshot of another branch yields
    [None] and is kept, counted neither restored nor discarded.
    The subproblem is reconstructed per the stored mode:
    a light checkpoint yields the original clauses plus the saved root
    assignment; a heavy checkpoint yields the full saved state.  A
    snapshot whose at-rest integrity seal (the CRC lane of its canonical
    words, taken at save time) no longer matches is discarded and [None] is
    returned — restoring a rotted root assignment could silently narrow
    the search space, while [None] sends the caller down the safe
    lineage re-derivation path. *)

val seal_of : Subproblem.t -> int
(** The at-rest seal of a snapshot: the CRC lane of the words
    {!Subproblem.emit} writes for it (see {!Integrity}). *)

val corrupt_all : t -> unit
(** Fault injection: rot every stored snapshot at rest, so the next
    {!restore} of each discards it. *)

val drop : t -> client:int -> unit

val total_bytes : t -> int

val saves : t -> int

val discarded : t -> int
(** Snapshots discarded on restore because their integrity seal no longer
    matched. *)

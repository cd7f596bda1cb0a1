(** Resource ranking and selection policies (paper Section 3.3).

    Pure functions over candidate descriptions so the policies are easy to
    test and to ablate against each other in the benchmarks. *)

type candidate = {
  resource : Grid.Resource.t;
  forecast : float;  (** NWS availability forecast in [0, 1] *)
  health : float;  (** {!Health.score} in [(0, 1]]; 1.0 when no model is wired *)
}

val rank : candidate -> float
(** The master's resource rank: forecast processing power scaled by a
    memory-capacity factor (the paper ranks by "processing power and
    memory capacity as forecast by the NWS"), multiplied by the host's
    observed health score. *)

val pick :
  Config.scheduler_policy -> rng:Random.State.t Lazy.t -> candidate list -> candidate option
(** Chooses the resource to receive the next subproblem among idle
    candidates.  [Nws_rank] takes the best {!rank}; the other policies are
    benchmark ablations.  Only [Random_pick] draws from [rng], so a run
    under the others never makes it. *)

val pick_backlog : (int * float) list -> int option
(** Given [(client, busy-since)] backlogged split requests, returns the
    client that has been working on the same subproblem the longest
    (the paper's backlog rule). *)

val should_migrate : busy_rank:float -> idle_rank:float -> bool
(** Migration heuristic: move a subproblem when an idle resource is at
    least twice as powerful as the one it currently runs on. *)

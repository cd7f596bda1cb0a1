(** Pool state, split out of {!Master}.

    A pool is the host-side half of the old monolithic master: the
    inventory of grid hosts with their lease states ([Launching] →
    [Idle] → [Reserved] → [Busy], or [Dead]), the per-host NWS
    forecasters the scheduler ranks by, the failure-detector anchors
    ([last_heard]), and the reliable transport endpoint.  A [Reserved]
    host carries its {!hold}: the one record of why it is reserved, which
    only the pool writes ({!reserve}, {!release}, {!close_split},
    {!end_holds}).  It knows nothing about any particular solve run — the
    split tree, journal and certification bookkeeping stay in {!Master} —
    which is what lets the {!module:Gridsat_service} front-end schedule
    many concurrent runs over one shared host inventory, leasing each run
    its own pool. *)

(** Why a host is reserved, and what ends the reservation. *)
type hold =
  | Partner of int
      (** split partner granted to this requester.  The split's
          [Split_ok] makes it [Awaiting_problem requester]; its
          [Split_failed] or lost grant, or the requester finishing, dying
          or orphaning its branch, releases it. *)
  | Awaiting_problem of int
      (** waiting on a problem from this sender (see {!end_holds}).
          [Problem_received], a resync, or the host's or sender's death
          ends it. *)
  | Migration of int
      (** target of this migration source.  [Problem_received] ends it
          and frees the source; a lost [Migrate_to], or the source dying
          or orphaning its branch, releases it. *)
  | Delivery of Protocol.pid * Subproblem.t
      (** a problem the master sent, with its copy.  [Problem_received]
          ends it; a lost [Problem] or the addressee's death re-homes the
          copy; the pid's hedge resolving cancels it. *)

type rstate = Launching | Idle | Reserved of hold | Busy | Dead

type host = {
  client : Client.t;
  resource : Grid.Resource.t;
  trace : Grid.Trace.t;
  nws : Grid.Nws.t;
  mutable rstate : rstate;
  mutable busy_since : float;
  mutable last_heard : float;  (** failure-detector lease anchor *)
  mutable fenced : bool;
      (** a declared-dead host that spoke again was told to stop *)
  mutable pid : Protocol.pid option;
      (** the subproblem this host is working on *)
  mutable partner_of : int list;
      (** the requesters whose split's problem reached this partner
          before their [Split_ok]: it holds [Partner requester] for each
          until {!close_split}. *)
}

type t

val create : unit -> t

val add :
  t -> sim:Grid.Sim.t -> client:Client.t -> resource:Grid.Resource.t -> trace:Grid.Trace.t -> unit
(** Registers a freshly launched host, in [Launching] state with its
    lease anchored at the current virtual time. *)

val find : t -> int -> host
val find_opt : t -> int -> host option
val iter : (int -> host -> unit) -> t -> unit
val fold : (int -> host -> 'a -> 'a) -> t -> 'a -> 'a

val set_reliable : t -> Reliable.t -> unit
(** Installs the pool's reliable transport endpoint (once, at
    construction). *)

val reliable : t -> Reliable.t

val set_health : t -> Health.t -> unit
(** Wires a host-health model into scheduling: {!idle_candidates}
    withholds hosts whose circuit breaker is open and attaches each
    admissible host's health score to its candidate, and {!rank} blends
    the score in.  Without a model every host scores 1.0 (the pure NWS
    ranking). *)

val health : t -> Health.t option

val is_busy : host -> bool
val is_dead : host -> bool
val busy_count : t -> int
val busy_ids : t -> int list
val reserved_ids : t -> int list

val unload : host -> unit
(** A [Busy] host becomes [Idle] with no pid; no-op in any other state. *)

val reserve : t -> int -> hold -> unit
(** Puts the host in [Reserved hold], replacing any hold it had. *)

val release : t -> int -> unit
(** Returns a [Reserved] host to [Idle]; no-op in any other state. *)

val end_holds : t -> awaiting:int option -> unit
(** Ends every hold and pending split.  A [Reserved] host returns to
    [Idle] (run termination), or with [Some master] (a crashed master's
    amnesia) awaits the sender its hold named: the requester, the
    migration source, or [master] for a [Delivery]. *)

val holders : t -> (hold -> bool) -> int list
(** The hosts holding a hold the predicate accepts, ascending, counting
    early split partners (see [partner_of]). *)

val close_split : t -> int -> ?partner:int -> confirmed:bool -> unit -> unit
(** [close_split t requester ~partner] closes the split a [Split_ok],
    [Split_failed] or lost grant names; without [partner], every split of
    [requester].  A partner still reserved for it becomes
    [Awaiting_problem requester] when [confirmed] (a [Split_ok]), else
    [Idle]; an early partner forgets it.  No-op without such a split. *)

val idle_candidates : t -> resyncing:bool -> now:float -> Scheduler.candidate list
(** Live, admissible idle hosts as scheduler candidates, ascending by
    resource id.  Empty while [resyncing]: an "idle" host may hold
    unreported work until reconciliation closes.  Hosts in health
    probation are withheld. *)

val rank : t -> host -> float
(** The host's scheduler rank under its current NWS forecast and health
    score. *)

val weakest_busy : t -> host option

val expired : t -> now:float -> timeout:float -> int list
(** Monitored hosts whose heartbeat lease ran out, ascending. *)

val observe_nws : t -> now:float -> unit
(** Feeds every live host's availability trace into its forecaster. *)

val aggregate_solver_stats : t -> Sat.Stats.t

(** A GridSAT client: one solver process on one Grid host.

    A client is launched "empty", registers with the master, and waits for
    a subproblem.  While solving it runs in compute slices whose step
    budget follows the host's speed and current availability; it monitors
    its own memory and run time to decide when to ask the master for a
    split (paper Section 3.3: "the decision to add a resource is made
    locally by a client"), broadcasts freshly learned short clauses, and
    merges clauses received from peers.  On a split directive it performs
    the Figure 2 transformation and ships the complementary subproblem
    directly to its partner (peer-to-peer, the large message of
    Figure 3).

    Liveness: every client beacons a {!Protocol.Heartbeat} to the master
    each [heartbeat_period], and all critical control messages ride a
    reliable (ack + bounded-retry) channel.  Clause shares remain
    fire-and-forget.

    Master outages: when a reliable send toward the master exhausts its
    retry budget the client concludes the master is down, flags it once
    ({!Events.Master_outage_detected}) and keeps solving autonomously.
    Its control messages (results, split requests, orphan returns) wait
    on the reliable stream to the master: the given-up tail is re-sent
    on it at once, oldest first, later ones join behind it, and the
    stream's own backoff probes the master.  Only clause-share batches
    wait in a bounded outbox, flushed the moment anything arrives from
    a (restarted) master; a {!Protocol.Resync_request} is answered with
    the client's current pid and guiding-path lineage so the new master
    can adopt the work.  A frame from a promoted standby re-points the
    client, and the unacked tail of its stream to the old endpoint
    moves, in order, to the stream to the new one. *)

type t

type callbacks = {
  log : Events.kind -> unit;  (** master-side event log *)
  save_checkpoint : client:int -> pid:Protocol.pid -> Subproblem.t -> unit;
      (** snapshot of the client's branch [pid] for {!Checkpoint.save} *)
  note_dup : int -> unit;
      (** [n] foreign clauses were suppressed as duplicates on ingestion *)
  note_outbox : depth:int -> shed:int -> unit;
      (** outage-outbox occupancy changed: current [depth] and how many
          buffered share batches the watermark policy just [shed] *)
}

val create :
  ?obs:Obs.t ->
  sim:Grid.Sim.t ->
  bus:Protocol.msg Grid.Everyware.t ->
  cfg:Config.t ->
  resource:Grid.Resource.t ->
  trace:Grid.Trace.t ->
  master:int ->
  callbacks ->
  t
(** Registers the client's endpoint and schedules its startup
    registration with the master (a short launch delay applies). *)

val id : t -> int

val is_alive : t -> bool

val is_hung : t -> bool

val kill : t -> unit
(** Failure injection: the host dies.  The endpoint is unregistered; any
    in-flight messages to it are dropped.  The master is {e not} notified
    (it discovers the death through its own monitoring). *)

val hang : t -> unit
(** Failure injection: the process wedges.  It stops computing,
    heartbeating, answering and retrying, but its endpoint stays
    registered, so to the rest of the grid it is indistinguishable from a
    live-but-unreachable process. *)

val set_slow_factor : t -> float -> unit
(** Failure injection: divide the client's per-slice compute budget by
    [factor] ([1.0] restores full speed; non-positive values are
    ignored).  Unlike {!kill}/{!hang} the client stays fully responsive —
    heartbeats, acks and protocol traffic are unaffected — so the
    slowdown is invisible to crash detection and must be caught by the
    health model's progress-rate signal. *)

val slow_factor : t -> float

val solver_stats : t -> Sat.Stats.t
(** Accumulated statistics over every subproblem this client worked on. *)

val outbox_pressured : t -> bool
(** Whether the share outbox is latched above its high watermark
    (releases at the low watermark) — a resource-pressure input to
    service brownout. *)


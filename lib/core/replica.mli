(** Hot-standby master replica (the receive side of journal shipping).

    The standby owns a shadow {!Journal} fed exclusively by the primary's
    {!Protocol.Ship} batches, which the primary's in-order stream
    delivers once each, in the order they were flushed.  The prefix
    rule: a batch is applied only if its [seq] equals the entries
    applied so far.  A batch that starts anywhere else (a shipment was
    given up, or lost with a crashed primary that came back) would leave
    the shadow journal no longer a prefix of the primary's, so it is a
    {!Events.Replication_diverged} and is not applied.  Nothing re-ships
    a lost batch, so every later one diverges too, until promotion or the
    end of the run: the count measures how long the shadow stayed off the
    prefix, not how many shipments were lost.  After every
    applied batch the standby compares its shadow journal's
    {!Journal.log_digest} against the [log_digest] the primary read at
    flush time, an O(1) check however long the run.  A match proves the
    shadow holds exactly the entries the primary wrote, in order; a
    mismatch is a divergence too.  Either way replication is unsound and
    the run's tests treat it as fatal.  At-rest rot of the primary's
    own journal is not a divergence (the standby still holds the lost
    records); it surfaces where the primary reads its storage.

    The shipment stream doubles as the standby's liveness signal: the
    primary flushes on [ship_interval] even when the batch is empty.
    When the standby hears nothing for [standby_lease] virtual seconds it
    fires [on_lease_expired] exactly once — the hook through which
    {!Master} promotes the standby into a primary at a bumped epoch.

    The replica deliberately owns no {!Reliable} channel of its own: it
    receives through {!Reliable.receive} with its own {!Reliable.streams},
    which raw-acks every reliable envelope and delivers the primary's
    shipments in order, once each.  That cumulative ack is its only
    answer: the primary reads the applied count off each acked [Ship]
    with {!receipt}. *)

type t

val standby_id : int
(** Bus endpoint id of the standby ([-1]; client ids are positive and the
    primary master is [0]). *)

val site : string
(** The standby's grid site (["standby"]), distinct from the master's so
    a {!Grid.Fault.Partition_site} on it cuts exactly the replication
    link. *)

val create :
  ?obs:Obs.t ->
  sim:Grid.Sim.t ->
  bus:Protocol.msg Grid.Everyware.t ->
  cfg:Config.t ->
  log:(Events.kind -> unit) ->
  on_lease_expired:(unit -> unit) ->
  unit ->
  t
(** Registers the standby endpoint on [bus] at {!standby_id}/{!site} and
    arms the lease watchdog.  [log] receives
    {!Events.Replication_diverged} / {!Events.Stale_epoch_rejected}
    ground truth. *)

val receipt : applied:int -> Protocol.msg -> int
(** The primary's mirror of the prefix rule: the standby's applied count
    once the stream settles [msg] after [applied].  Acks settle oldest
    first, so only a [Ship] whose [seq] is [applied] advances it. *)

val journal : t -> Journal.t
(** The shadow journal — handed to the promoting master as its
    authoritative write-ahead log.  Every applied entry is also applied
    to its state, so it holds a live copy of the primary's split tree. *)

val applied : t -> int
(** Journal entries applied so far (the shadow journal's append count):
    the [seq] the next batch must carry. *)

val batches : t -> int
(** Ship batches applied (including empty liveness ticks). *)

val divergences : t -> int
(** Batches off the prefix or with a mismatched digest — must be zero in
    any sound run. *)

val epoch : t -> int
(** Highest master epoch this replica has seen. *)

val mark_promoted : t -> unit
(** Force the replica inert without firing the lease callback (the master
    promotes it for an external reason, e.g. an explicit handover). *)

val stop : t -> unit
(** The run is over: cancel the watchdog and ignore further traffic. *)

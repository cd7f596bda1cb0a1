(** In-order, at-least-once streams for critical control messages, like
    the TCP streams EveryWare gave the paper's processes.

    The master and every client own one.  {!send} numbers the payload on
    the stream to [dst], wraps it in a {!Protocol.Reliable} envelope and
    retries it on a bounded exponential backoff until acked.  {!receive},
    the twin of {!Protocol.send}, is every endpoint's receive side.

    The contract, per (sender, receiver) stream:
    - the receiver delivers in send order, each envelope at most once; an
      envelope ahead of a missing one waits, unacked, in a buffer, and the
      first one ahead of a gap NACKs the missing one, which the sender
      then resends at once;
    - a NACK never gives a stream up: it proves the link works.  An
      envelope NACKed after its last attempt gets one more transmission,
      and the timer of that last attempt still ends it;
    - acks are cumulative: [Ack {mid}] settles every envelope up to [mid];
    - every envelope not abandoned is delivered;
    - an envelope that exhausts its attempts is abandoned with every later
      unacked one on its stream, and all go to [on_give_up] oldest first
      (a client re-sends a tail given up toward its master on the same
      stream, so its control messages wait out an outage there);
    - each transmission carries the stream's lowest unacked number, so the
      receiver skips abandoned numbers instead of waiting for them.

    An abandoned envelope may still have been delivered (its ack was lost,
    or it arrived late).  Per peer, the receive state is one counter plus
    the envelopes buffered ahead; the send state is one counter plus the
    unacked envelopes. *)

type t

val endpoint_jitter : float
(** The [jitter] of the master's and every client's channel: 0.1. *)

val create :
  ?obs:Obs.t ->
  ?obs_tid:int ->
  ?seed:int ->
  ?jitter:float ->
  ?on_ack:(dst:int -> latency:float -> Protocol.msg -> unit) ->
  sim:Grid.Sim.t ->
  send_raw:(dst:int -> Protocol.msg -> unit) ->
  active:(unit -> bool) ->
  retry_base:float ->
  max_attempts:int ->
  on_retry:(dst:int -> attempt:int -> unit) ->
  ?on_exhausted:(dst:int -> attempts:int -> unit) ->
  on_give_up:(dst:int -> Protocol.msg -> unit) ->
  unit ->
  t
(** [obs]/[obs_tid] label this channel's telemetry (send/retry/exhausted
    counters, an ack-latency histogram, and retry instant-spans) with the
    owning endpoint.
    [active] gates retries: a dead client must not keep transmitting.
    [retry_base] is the first backoff delay; attempt [k] waits
    [retry_base * 2^k], capped at [32 * retry_base].  [jitter] (clamped
    to [[0, 1]], default 0) spreads every delay uniformly over
    [±jitter×delay] using a private RNG seeded from [(seed, obs_tid)] —
    deterministic under a fixed seed, but desynchronised across
    endpoints, so channels that all exhausted during a master outage do
    not stampede the restarted master in lockstep.  [on_ack] (default
    no-op) reports each settled send's round-trip latency and payload —
    the health model's ack-latency feed, deliberately separate from the
    obs-gated histogram, and the primary's receipt for a journal
    shipment.  After [max_attempts] unacked (re)transmissions,
    [on_exhausted] fires once (a distinct signal that the budget ran dry —
    clients use it to detect a master outage) and then [on_give_up]
    fires with each abandoned payload of the stream, oldest first. *)

val set_retry_base : t -> float option -> unit
(** Adaptive override of the backoff base ([None] restores the
    configured constant).  The override is clamped to
    [[0.001, retry_base]]: observed-latency tuning may tighten the
    schedule but never slow it past the configured worst case. *)

val backoff : t -> int -> float
(** The delay the channel would arm for retry attempt [k]: the bounded
    exponential above, with one fresh jitter draw when jitter is on
    (exposed so tests can pin the cap and the jitter envelope). *)

val send : t -> dst:int -> Protocol.msg -> unit
(** Numbers the payload on the stream to [dst], transmits the envelope
    immediately and arms its first retry timer. *)

val handle_ack : t -> src:int -> mid:int -> unit
(** [src] delivered the stream to it up to [mid]: settles every envelope
    numbered [mid] or below.  Acks for settled or abandoned envelopes are
    ignored. *)

val nudge : t -> dst:int -> unit
(** Retransmits every envelope still outstanding toward [dst] right now,
    in stream order, on a reset attempt budget.  Called on proof of life
    from a previously unreachable peer (a restarted master's resync
    request): transmissions made into the outage were lost, and without
    the reset a stale exhaustion timer could declare the recovered link
    dead. *)

(** {1 Receiving} *)

type streams
(** The receive side of an endpoint's streams: per source, the number it
    delivers next and the envelopes buffered ahead of it.  A channel
    holds one ({!streams_of}); the standby, which never sends reliably,
    makes its own ({!streams}). *)

val streams : unit -> streams

val streams_of : t -> streams

val receive :
  ?rel:t ->
  streams ->
  me:int ->
  epoch:int ->
  reply:(dst:int -> Protocol.msg -> unit) ->
  log:(Events.kind -> unit) ->
  ?report:(src:int -> bool) ->
  ?succession:(src:int -> epoch:int -> bool) ->
  ?accept:(src:int -> Protocol.msg -> bool) ->
  deliver:(src:int -> Protocol.msg -> unit) ->
  src:int ->
  Protocol.msg ->
  unit
(** The one receive path of endpoint [me] at [epoch], in a fixed order.
    [reply] sends raw, framed at the receiver's epoch.
    + A header epoch below [epoch] is fenced before the frame is
      verified (the header survives rot): log
      {!Events.Stale_epoch_rejected}, reply {!Protocol.Epoch_notice}.
    + A frame that fails {!Protocol.verify} is dropped; if [report src]
      (default [true]), log {!Events.Corrupt_message_detected} and NACK a
      reliable mid that survived.
    + A newer epoch reaches [succession] only from a verified frame; it
      returns whether to go on (default [true]).
    + [accept] (default [true]) says whether to handle a verified frame.
    + A {!Protocol.Reliable} envelope joins its source's stream, whose
      payloads are delivered in order, once each, after a cumulative
      ack; [Ack]/[Nack] settle [rel] (ignored without one); anything
      else is delivered. *)

val stop : t -> unit
(** Cancels every retry timer and abandons the unacked envelopes without
    handing them to [on_give_up] (owner is shutting down, or a master
    crashed).  Stream numbers carry on, so a receiver skips the abandoned
    ones on the next envelope. *)

val stop_to : t -> dst:int -> Protocol.msg list
(** {!stop} for the stream to [dst] alone, returning its abandoned
    payloads oldest first: a client whose master moved to a promoted
    standby re-sends them, in order, on the stream to the new endpoint. *)

val reset : t -> unit
(** {!stop}, then forgets every stream, both directions: the owner
    starts afresh at a new epoch (a promoted standby speaks from a new
    endpoint, so its peers start new streams with it). *)

val outstanding : t -> int
(** Envelopes still awaiting an ack. *)

val retries : t -> int
(** Total retransmissions performed. *)

val gave_up : t -> int
(** Sends abandoned after exhausting [max_attempts]. *)


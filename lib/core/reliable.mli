(** At-least-once delivery with receiver-side dedup for critical control
    messages.

    Both the master and every client own one instance.  {!send} wraps the
    payload in a {!Protocol.Reliable} envelope with a per-sender message
    id and retries it on a bounded exponential backoff until an
    {!Protocol.Ack} arrives or the attempt budget is exhausted, at which
    point the owner's [on_give_up] decides what the loss means (a donor
    returns the orphaned subproblem to the master; the master releases a
    reserved partner).  {!receive} is the receive side of every endpoint,
    the twin of {!Protocol.send}: it fences stale epochs, verifies the
    frame, acks and dedups envelopes through an {!inbox}, and settles
    acks and NACKs. *)

type t

val endpoint_jitter : float
(** The [jitter] of the master's and every client's channel: 0.1. *)

val create :
  ?obs:Obs.t ->
  ?obs_tid:int ->
  ?seed:int ->
  ?jitter:float ->
  ?on_ack:(dst:int -> latency:float -> unit) ->
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
    no-op) reports each settled send's round-trip latency — the health
    model's ack-latency feed, deliberately separate from the obs-gated
    histogram.  After [max_attempts] unacked (re)transmissions,
    [on_exhausted] fires (a distinct signal that the budget ran dry —
    clients use it to detect a master outage) and then [on_give_up]
    fires with the original payload. *)

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
(** Transmits the envelope immediately and arms the first retry timer. *)

val handle_ack : t -> mid:int -> unit
(** Settles an outstanding send; unknown mids (duplicate acks, acks after
    give-up) are ignored. *)

val handle_nack : t -> mid:int -> unit
(** The receiver reported envelope [mid] arrived corrupt: cancel its
    backoff timer and retransmit immediately.  The retransmission still
    consumes an attempt, so a link that corrupts every copy exhausts the
    bounded budget and reaches [on_give_up] rather than retrying forever.
    Unknown mids are ignored. *)

val nudge : t -> dst:int -> unit
(** Retransmits every envelope still outstanding toward [dst] right now,
    on a reset attempt budget.  Called on proof of life from a previously
    unreachable peer (a restarted master's resync request): transmissions
    made into the outage were lost, and without the reset a stale
    exhaustion timer could declare the recovered link dead. *)

(** {1 Receiving} *)

type inbox
(** Receive-side dedup: every [(src, mid)] already delivered.  A channel
    holds one ({!inbox_of}); the standby makes its own ({!inbox}). *)

val inbox : unit -> inbox

val inbox_of : t -> inbox

val admit : inbox -> src:int -> mid:int -> bool
(** [true] exactly once per [(src, mid)]: the caller should ack every
    envelope but deliver only admitted ones. *)

val receive :
  ?rel:t ->
  inbox ->
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
    + A {!Protocol.Reliable} envelope is acked and its payload delivered
      once per mid ({!admit}); [Ack]/[Nack] settle [rel] (ignored
      without one); anything else is delivered. *)

val stop : t -> unit
(** Cancels all retry timers (owner is shutting down). *)

val outstanding : t -> int
(** Envelopes still awaiting an ack. *)

val outstanding_to : t -> dst:int -> int
(** Envelopes still awaiting an ack from one destination (clients probe a
    downed master only when no envelope toward it is already in flight). *)

val retries : t -> int
(** Total retransmissions performed. *)

val gave_up : t -> int
(** Sends abandoned after exhausting [max_attempts]. *)

val nacked : t -> int
(** Immediate retransmissions triggered by receiver NACKs. *)

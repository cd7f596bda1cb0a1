(** EveryWare-style messaging between simulated processes.

    The paper's GridSAT components communicate through the EveryWare
    toolkit.  This layer provides the same service over the simulator:
    typed point-to-point messages between registered endpoints, with
    global traffic accounting.  Peer-to-peer subproblem transfers and
    master/client control traffic both go through here.

    Each (src, dst) link is a stream, as EveryWare's TCP connections
    were: a message is delivered at the later of its send time plus the
    network transfer time for its size and the link's previous delivery,
    so a small message never overtakes a large one sent before it.

    Delivery is perfect unless a fault hook is installed (see
    {!set_fault}): fault injection can drop, delay, duplicate or corrupt
    any message at send time, which is how {!Fault} plans model lossy WAN
    links, partitions, and latency spikes.  No decision reorders a link:
    a delayed or duplicated message holds back the messages sent after
    it on its link. *)

type fault_decision =
  | Deliver  (** normal delivery after the transfer time *)
  | Drop  (** the message is lost; counted in {!messages_dropped} *)
  | Delay of float
      (** delivered, but this many extra seconds late (and the link's
          later messages with it) *)
  | Duplicate of float
      (** delivered normally, plus a second copy this much later (which
          holds back the link's later messages too) *)
  | Corrupt
      (** delivered on time, but the payload is passed through the hook
          installed with {!set_corrupt} (bit rot in flight); degrades to
          [Deliver] if no corruptor is installed *)

type 'msg t

val create : ?obs:Obs.t -> Sim.t -> Network.t -> 'msg t
(** [obs] (default [Obs.disabled]) receives send/drop/duplicate counters
    and per-site-pair message byte/latency histograms. *)

val register : 'msg t -> id:int -> site:string -> handler:(src:int -> 'msg -> unit) -> unit
(** Registers endpoint [id] at [site].  Re-registering replaces the
    handler (used when a client restarts on the same host). *)

val registered : 'msg t -> id:int -> bool
(** Whether [id] currently has an endpoint (a crashed master's endpoint
    disappears until its replacement re-registers). *)

val unregister : 'msg t -> id:int -> unit
(** Messages in flight to an unregistered endpoint are dropped silently
    (a crashed host). *)

val send : 'msg t -> src:int -> dst:int -> bytes:int -> 'msg -> unit
(** Schedules delivery of [msg] after the transfer time from [src]'s site
    to [dst]'s site, and not before the link's previous delivery, subject
    to the fault hook.  Raises [Invalid_argument]
    if [src] is not registered; unknown destinations drop the message at
    delivery time. *)

val set_fault :
  'msg t -> (src_site:string -> dst_site:string -> bytes:int -> fault_decision) -> unit
(** Installs a delivery hook consulted once per {!send}.  The hook must be
    deterministic given the send sequence (seed any randomness) or runs
    stop being reproducible. *)

val clear_fault : 'msg t -> unit

val set_corrupt : 'msg t -> ('msg -> 'msg) -> unit
(** Installs the payload transform applied when the fault hook answers
    [Corrupt].  The transform models in-flight bit rot and must be
    deterministic; the protocol layer supplies one that garbles message
    content while leaving routing/framing headers readable. *)

val messages_sent : 'msg t -> int

val bytes_sent : 'msg t -> int

val messages_dropped : 'msg t -> int
(** Messages the fault hook decided to drop. *)

val bytes_dropped : 'msg t -> int


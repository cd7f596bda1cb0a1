(** Telemetry context for a run.

    [Obs.t] bundles a metrics registry, a span recorder, a flight
    recorder and an anomaly-trigger funnel behind one on/off switch.
    Every subsystem takes an optional [?obs] argument defaulting to
    {!disabled}; the disabled context exports nothing, hands out inert
    gauges and histograms (a counter is still its caller's own count) and
    never records a span or flight event, so instrumented code costs a
    few predictable branches when telemetry is off (verified by the
    [obs] micro-bench).

    The embedding run owns the clock: grid runs point it at virtual
    simulation time (making traces deterministic per seed), sequential
    runs leave the default CPU clock. *)

module Json = Json
module Clock = Clock
module Metrics = Metrics
module Span = Span
module Chrome = Chrome
module Report = Report
module Flight = Flight
module Anomaly = Anomaly
module Slo = Slo
module Expo = Expo

type t

val create : ?flight:Flight.t -> ?anomaly:Anomaly.t -> unit -> t
(** A live context (metrics + spans enabled), clocked by {!Clock.now}
    until {!set_clock}.  The flight recorder and anomaly funnel default
    to their disabled instances so plain telemetry runs pay (and emit)
    nothing new; pass live ones to opt in. *)

val disabled : t
(** The shared inert context. *)

val enabled : t -> bool

val metrics : t -> Metrics.t

val spans : t -> Span.t

val flight : t -> Flight.t

val anomaly : t -> Anomaly.t

val scope : t -> labels:(string * string) list -> t
(** A context whose metrics handles are scoped by [labels] (see
    {!Metrics.scope}); spans, flight recorder and anomaly funnel are
    shared with the parent. *)

val set_clock : t -> (unit -> float) -> unit
(** Point span and flight-event timestamps at a custom time source
    (e.g. virtual simulation time). *)

(** Metrics registry: counters, gauges, and log-bucketed histograms.

    Instruments are made once by [(name, labels)] — the key — and the
    returned handle is kept by the instrumented code, so recording on the
    hot path is a single mutable-field update — no hashing, no
    allocation.

    A count has one store.  Either its owner keeps it in a {!counter}
    cell, which is the owner's own count whether or not the registry is
    enabled, or the owner keeps it elsewhere (a journal's applied state,
    a solver's statistics) and registers a {!view} that reads it.  A key
    holds every cell and view registered under it, and its exported
    value is their sum, taken at export: two owners of one key (a
    primary and a standby journal, every solver of one client) show the
    total.

    A registry created with [enabled:false] (or the shared {!disabled}
    instance) registers nothing and renders empty; its gauges and
    histograms are dummies, a store into a shared scratch cell.  Hot
    paths that want to skip even that store can branch on {!is_enabled}
    once at setup. *)

type t

type counter

type gauge

type histogram

val create : enabled:bool -> t

val disabled : t
(** Shared always-off registry: it registers and exports nothing. *)

val is_enabled : t -> bool

val scope : t -> labels:(string * string) list -> t
(** A scoped handle sharing this registry's table: [labels] are appended
    to the labels of every instrument created through it.  This is how
    the service isolates concurrent jobs — each job's subsystems get a
    handle scoped by [job]/[tenant] labels, so their samples land in
    distinct instruments instead of bleeding into each other.  Scoping a
    disabled registry returns it unchanged. *)

val counter : t -> ?labels:(string * string) list -> string -> counter
(** A fresh cell of the caller's own, registered under the key when the
    registry is enabled.  Each call makes a new cell: its
    {!counter_value} is what was recorded through it, and the key's
    export is the sum over every cell and view under it. *)

val view : t -> ?labels:(string * string) list -> string -> (unit -> int) -> unit
(** [view t name read] registers [read] under the counter key: at each
    export it is called and added to the key's sum.  This is how a count
    kept elsewhere becomes a series without a second store.  [read] is
    kept as long as the registry, so it should capture the count's cell
    or small record, never the endpoint that holds it.  No-op on a
    disabled registry. *)

val gauge : t -> ?labels:(string * string) list -> string -> gauge
(** Find-or-create: the same key returns the same gauge (and likewise
    for {!histogram}). *)

val histogram : t -> ?labels:(string * string) list -> string -> histogram
(** Log-bucketed: 4 sub-buckets per octave (~12% relative accuracy). *)

val incr : counter -> unit

val add : counter -> int -> unit

val counter_value : counter -> int
(** This cell's count, not the key's sum. *)

val set : gauge -> float -> unit

val gauge_max : gauge -> float -> unit
(** Keep the maximum of the recorded values. *)

val gauge_value : gauge -> float

val observe : histogram -> float -> unit
(** Record a sample.  Non-finite and negative samples count in [count]
    but not in any bucket. *)

val hist_count : histogram -> int

val hist_sum : histogram -> float

val quantile : histogram -> float -> float
(** [quantile h q] with [q] in [0,1]: approximate value below which a
    fraction [q] of samples fall (bucket-midpoint interpolation).  0.0
    when empty. *)

val to_json : t -> Json.t
(** Deterministic export: instruments sorted by name then labels.
    Counters carry the sum of their key's cells and views, gauges their
    value; histograms carry count, sum, min/max and p50/p90/p99. *)

val merged_json : t -> Json.t
(** Label-stripped service-level view: instruments sharing a base name
    are merged — counters sum their keys' sums, gauges keep the max, histograms add
    bucket-wise (count/sum add, min/max widen), so merged quantiles stay
    within the bucket resolution of the per-label quantile envelope. *)

type export =
  | Counter of int
  | Gauge of float
  | Histogram of {
      count : int;
      sum : float;
      lo : float;
      hi : float;
      p50 : float;
      p90 : float;
      p99 : float;
    }

val export_all : t -> (string * export) list
(** Flat deterministic snapshot (sorted by full key, labels included);
    feeds {!Expo}. *)

val export_merged : t -> (string * export) list
(** Like {!export_all} over the label-stripped merged view of
    {!merged_json}. *)

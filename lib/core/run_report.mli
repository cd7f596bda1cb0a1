(** The aggregated run report: one JSON document merging every layer of
    a finished run — the metrics registry, the span tree, the run-level
    counters from {!Master.result}, the aggregated {!Sat.Stats} (its
    counts in [solver], its wall-clock timings apart in [wall]), and the
    {!Timeline} busy curve.  [gridsat solve --report] writes it; [gridsat
    report] validates and summarises it. *)

val build : ?meta:(string * Obs.Json.t) list -> obs:Obs.t -> Master.result -> Obs.Json.t
(** A [gridsat-report/1] document ({!Obs.Report.schema}).  [meta] is
    prepended to the report's [meta] object (problem name, seed, ...). *)

val trace : ?process_name:string -> obs:Obs.t -> unit -> Obs.Json.t
(** The run's Chrome [trace_event] document ({!Obs.Chrome.export}). *)

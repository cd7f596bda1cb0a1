(** Monotonic wall clock.

    Reads the system's monotonic clock (via [bechamel.monotonic_clock]),
    which never steps backwards and costs one unboxed, allocation-free
    call.  Every timing site in the libraries reads this module, so
    solver timing and default span timestamps share one time base. *)

val now_ns : unit -> int
(** Nanoseconds on the monotonic clock; only differences are meaningful.
    Allocates nothing. *)

val seconds : int -> float
(** [seconds ns] converts a nanosecond count to seconds. *)

val now : unit -> float
(** Seconds since this module was initialised (program start). *)

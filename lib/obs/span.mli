(** Causal span recorder.

    A span is a named interval (or instant) on a logical track, carrying
    an id and its parent's id so protocol exchanges — a split's
    five-message sequence, a share broadcast's fan-out — can be followed
    across processes.  Timestamps come from the recorder's clock, which
    the embedding run points at virtual (simulation) time for grid runs
    or at {!Clock.now} for sequential ones; with a deterministic clock
    the recorded stream is deterministic too.

    Track ids ([tid]) identify the emitting process: {!master_tid} for
    the master, the client id for clients, {!run_tid} for run-level
    events. *)

type id = int
(** 0 is "no span" (the root, or a recorder that is off). *)

type kind = Complete | Instant

type span = {
  sid : id;
  parent : id;
  name : string;
  cat : string;  (** coarse category: "solver", "protocol", "master", ... *)
  tid : int;
  start : float;
  mutable stop : float;  (** = [start] until {!exit}; instants keep it equal *)
  mutable closed : bool;
  mutable args : (string * Json.t) list;
  kind : kind;
}

type t

val none : id

val run_tid : int
(** Track for run-scoped events (0). *)

val master_tid : int
(** Track for the master process (1000). *)

val create : enabled:bool -> t

val disabled : t

val is_enabled : t -> bool

val set_clock : t -> (unit -> float) -> unit
(** Replace the time source (default {!Clock.now}). *)

val now : t -> float

val enter :
  t -> ?parent:id -> ?args:(string * Json.t) list -> ?tid:int -> cat:string -> string -> id
(** Open a span; returns its id ({!none} when disabled or full). *)

val exit : t -> ?args:(string * Json.t) list -> id -> unit
(** Close a span, stamping its end time and appending [args].  Closing
    {!none} or an already-closed span is a no-op. *)

val instant :
  t -> ?parent:id -> ?args:(string * Json.t) list -> ?tid:int -> cat:string -> string -> id
(** Record a point event. *)

val spans : t -> span list
(** All recorded spans in creation order. *)

val count : t -> int

val dropped : t -> int
(** Spans discarded after the recorder filled up (capacity 200_000). *)

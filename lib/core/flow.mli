(** Watermark-bounded queues and windowed byte budgets.

    The resource-exhaustion primitives shared by the client's outage
    outbox (share batches parked while the master is down), clause sharing
    (per-link bandwidth budgets) and, indirectly, the service brownout
    (queue-pressure signals).  Everything here is deterministic: shed
    decisions are a function of queue content, the configured watermarks
    and virtual time only, so bounded runs replay byte-identically. *)

(** {1 Watermark queue} *)

type 'a queue
(** A FIFO bounded by a high watermark.  Pushing past the high watermark
    sheds the lowest-value item (ties broken oldest-first), so every item
    it holds must be safe to lose: the client's outbox holds share
    batches only, and its control messages wait on the reliable stream
    instead.  [under_pressure] latches when depth reaches the high
    watermark and releases once it drains to the low watermark
    (hysteresis, so an oscillating producer cannot flap downstream
    policy). *)

val queue : ?low:int -> high:int -> value:('a -> int) -> unit -> 'a queue
(** [low] defaults to [high / 2].  Raises [Invalid_argument] when
    [high < 1] or [low] lies outside [[0, high]].  Higher [value] means
    more worth keeping. *)

val push : 'a queue -> 'a -> 'a list
(** Append at the tail; returns the items shed to restore the watermark
    (possibly including the pushed item itself). *)

val pop : 'a queue -> 'a option
(** Remove the head (FIFO order). *)

val drain : 'a queue -> 'a list
(** Remove and return everything, oldest first. *)

val depth : 'a queue -> int

val peak : 'a queue -> int
(** Highest depth ever reached. *)

val shed_count : 'a queue -> int
(** Total items shed over the queue's lifetime. *)

val under_pressure : 'a queue -> bool
(** True from the instant depth reaches the high watermark until it
    drains back to the low watermark. *)

(** {1 Windowed byte budget} *)

type budget
(** Per-key (per-link) byte budget per virtual-time window, HordeSat
    style: each key may charge at most [bytes_per_window] bytes inside
    any window of [window] virtual seconds (windows are aligned to
    [floor (now / window)], so same-seed runs charge identically). *)

val budget : bytes_per_window:int -> window:float -> budget
(** Raises [Invalid_argument] when [bytes_per_window < 1] or
    [window <= 0]. *)

val admit : budget -> key:int -> now:float -> bytes:int -> bool
(** Charge [bytes] against [key]'s current window if it fits; [false]
    means the charge was refused (and counted as shed). *)

val remaining : budget -> key:int -> now:float -> int

val charged_total : budget -> int
(** Bytes admitted across all keys and windows. *)

val budget_shed_bytes : budget -> int

val budget_shed_items : budget -> int

val window_peak : budget -> int
(** The largest byte total any single key charged inside one window —
    by construction never exceeds [bytes_per_window]. *)

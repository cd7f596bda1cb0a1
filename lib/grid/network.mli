(** Wide-area network model.

    Sites (campuses) are connected by links with latency and bandwidth;
    hosts within a site communicate over a fast LAN.  Transfer time is
    [latency + bytes / bandwidth] — enough to reproduce the paper's
    communication effects (subproblem transfers of 10 KB – 500 MB
    dominate, clause shares are small but frequent). *)

type t

val create :
  ?intra_latency:float ->
  ?intra_bandwidth:float ->
  ?default_latency:float ->
  ?default_bandwidth:float ->
  unit ->
  t
(** Bandwidths in bytes per virtual second, latencies in virtual
    seconds.  Defaults: LAN 0.5 ms / 100 MB/s, WAN 40 ms / 2 MB/s. *)

val set_link : t -> string -> string -> latency:float -> bandwidth:float -> unit
(** Overrides the (symmetric) link between two sites. *)

val transfer_time : t -> src:string -> dst:string -> bytes:int -> float
(** Time to move [bytes] from a host at [src] to a host at [dst]. *)

type link
(** The parameters of the link between two sites, as they are now. *)

val link : t -> string -> string -> link

val link_time : link -> bytes:int -> float
(** [transfer_time] over this link: [link_time (link t src dst) ~bytes]
    is [transfer_time t ~src ~dst ~bytes]. *)

val version : t -> int
(** Moves with every {!set_link}: a {!link} kept from an older version
    may be out of date. *)

(** Descriptions of Grid computational resources.

    A resource models one host of the testbed: a relative processing speed
    (solver propagation steps per virtual second when unloaded), a memory
    capacity, a site (for network costs) and a kind — interactive hosts are
    available immediately, batch hosts only exist while a batch job runs
    (paper Section 4: GrADS/UCSB hosts vs. IBM Blue Horizon nodes). *)

type kind = Interactive | Batch

type t = {
  id : int;
  name : string;
  site : string;
  speed : float;  (** solver steps per virtual second at 100% availability *)
  mem_bytes : int;
  kind : kind;
}

val make : id:int -> name:string -> site:string -> speed:float -> mem_bytes:int -> kind:kind -> t

val min_client_memory : int
(** Clients refuse to start on hosts below this free-memory threshold
    (paper: 128 MB). *)

val usable_memory : t -> int
(** The solver memory budget on this host: 60% of capacity, the paper's
    rule for avoiding the Linux out-of-memory killer. *)

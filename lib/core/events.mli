(** Timestamped event log of a GridSAT run.

    The log is how tests assert protocol behaviour (e.g. the five-message
    split sequence of Figure 3) and how examples narrate a run. *)

type kind =
  | Client_started of int  (** client id registered with the master *)
  | Problem_assigned of { src : int; dst : int; bytes : int; depth : int }
  | Split_requested of { client : int; reason : [ `Memory | `Long_running ] }
  | Split_granted of { client : int; partner : int }
  | Split_denied of { client : int }  (** no idle resource: request backlogged *)
  | Split_completed of { src : int; dst : int; bytes : int }
  | Migration of { src : int; dst : int; bytes : int }
  | Shares_broadcast of { origin : int; count : int; recipients : int }
  | Client_finished_unsat of int
  | Client_found_model of int
  | Model_verified of bool
  | Client_killed of int
  | Host_crashed of int  (** fault injection ground truth: silent crash *)
  | Host_hung of int  (** fault injection ground truth: silent hang *)
  | Client_suspected of { client : int }
      (** the failure detector's lease on this client expired *)
  | False_suspicion of { client : int }
      (** a message arrived from a host already declared dead; it is fenced *)
  | Message_retried of { src : int; dst : int; attempt : int }
  | Message_given_up of { src : int; dst : int }
  | Recovery_requeued of { client : int }
      (** a recovered subproblem is parked until a host frees up *)
  | Orphan_returned of { donor : int }
      (** a donor's peer-to-peer handoff exhausted its retries *)
  | Retries_exhausted of { src : int; dst : int; attempts : int }
      (** a reliable send ran out its whole retry budget (precedes the
          owner's give-up recovery) *)
  | Checkpoint_saved of { client : int; bytes : int }
  | Recovered_from_checkpoint of { client : int; onto : int }
  | Rederived_from_lineage of { holder : int option; depth : int }
      (** a lost subproblem with no usable checkpoint was reconstructed
          from the original CNF and its journaled guiding-path lineage *)
  | Master_crashed  (** fault injection ground truth: the master process died *)
  | Master_restarted  (** a fresh master came up and replayed the journal *)
  | Master_outage_detected of { client : int }
      (** a client exhausted its retries toward the master: flagged once
          per outage; its control messages stay on the reliable stream
          and its share batches wait in the outbox *)
  | Client_resynced of { client : int; busy : bool }
      (** reconciliation: the client reported its state to the new master *)
  | Batch_job_submitted of { nodes : int }
  | Batch_job_started of { nodes : int }
  | Batch_job_cancelled
  | Corrupt_message_detected of { receiver : int; nacked : bool }
      (** an integrity frame failed its digest check at [receiver];
          [nacked] if the corrupt payload was a reliable envelope whose
          mid survived, triggering an immediate retransmit request *)
  | Storage_corrupted of { journal_records : int; checkpoints : bool }
      (** fault injection ground truth: at-rest rot of the master's
          stable storage *)
  | Unsat_fragment_certified of { pid : Protocol.pid; client : int; steps : int }
      (** the client's DRUP fragment for [pid] RUP-checked against the
          original formula under the branch's journaled guiding path *)
  | Certification_failed of { pid : Protocol.pid; client : int; reason : string }
      (** an UNSAT claim whose proof was missing, malformed, or did not
          check; the claim is rejected and the client quarantined *)
  | Client_quarantined of { client : int }
      (** the client's answer failed verification: it is written off and
          its subproblem re-derived from lineage onto another host *)
  | Host_slowed of { host : int; factor : float }
      (** fault injection ground truth: the host now computes [factor]×
          slower ([1.0] restores full speed) *)
  | Hedge_launched of { pid : Protocol.pid; primary : int; backup : int }
      (** the subproblem outlived the fleet's p99 duration with idle
          capacity available, so another copy was dispatched; in
          portfolio mode, [backup] registered and got a copy of the
          root *)
  | Hedge_cancelled of { pid : Protocol.pid; loser : int }
      (** another copy answered and [loser] was told to stand down, or
          [loser] died while another copy held the pid *)
  | Host_probation of { host : int; until_t : float }
      (** the host's circuit breaker tripped: no work until [until_t] *)
  | Host_readmitted of { host : int }
      (** a half-open host's canary subproblem succeeded; breaker closed *)
  | Journal_shipped of { seq : int; entries : int }
      (** the primary flushed a journal batch to the hot standby *)
  | Replication_diverged of { seq : int }
      (** the standby's shadow journal stopped being a prefix of the
          primary's at batch [seq]: the batch did not start at the
          standby's applied count, or its log digest did not match —
          replication is unsound (should never happen) *)
  | Standby_promoted of { epoch : int }
      (** the standby's lease on the primary expired: it bumped the master
          epoch, took over the run, and is resyncing the clients *)
  | Stale_epoch_rejected of { receiver : int; src : int; epoch : int; current : int }
      (** an endpoint refused a frame whose epoch predates the one it has
          seen — a zombie primary's traffic after a partition heal *)
  | Stale_primary_fenced of { epoch : int }
      (** a superseded primary observed a frame from a newer epoch and
          stood down for good *)
  | Shares_shed of { origin : int; clauses : int; bytes : int }
      (** the per-link share budget refused these clauses (longest
          first); they were dropped, not queued *)
  | Outbox_shed of { client : int; shed : int }
      (** a client's master-outage outbox crossed its high watermark and
          shed buffered share batches (the only thing it holds) *)
  | Forced_compaction of { occupancy : int; quota : int }
      (** an append pushed the journal past its disk quota; an emergency
          snapshot compaction was forced *)
  | Journal_degraded of { occupancy : int; quota : int }
      (** even compacted, the journal exceeds its quota: the run enters
          journaled-degraded mode — appends continue to be counted,
          replica shipping pauses, a durability alert trips *)
  | Journal_recovered of { occupancy : int; quota : int }
      (** quota relief (or compaction shrinkage) brought the journal back
          under quota; durability guarantees resume *)
  | Terminated of string

type t = { time : float; kind : kind }

val make : float -> kind -> t

val pp : Format.formatter -> t -> unit

val flight_view : kind -> string * (string * Obs.Json.t) list
(** Stable structured rendering for the flight recorder: a snake_case
    event name plus identifying arguments. *)

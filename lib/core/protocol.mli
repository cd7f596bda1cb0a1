(** Wire protocol between the GridSAT master and its clients.

    Mirrors the paper's message flows: the five-message split sequence of
    Figure 3 ([Split_request] / [Split_partner] / peer-to-peer [Problem] /
    [Problem_received] / [Split_ok]), clause-share broadcasts, result
    reporting, and the master's control directives.

    On top of the paper's flows the protocol carries the failure-handling
    machinery: every live subproblem has a {!pid} so duplicated or
    re-homed copies cannot corrupt the master's accounting, clients
    [Heartbeat] so the master's lease-based detector can declare silent
    hosts dead, and critical control messages travel inside a {!Reliable}
    envelope that is numbered on its (sender, receiver) stream, delivered
    in order once, [Ack]ed, and retried with bounded exponential
    backoff.  Clause [Shares] stay fire-and-forget: losing a
    learned clause is semantically safe. *)

type pid = int * int
(** Identity of a live subproblem: [(origin client, local counter)].  The
    initial problem is [(0, 0)]; a split branch is stamped by its donor.
    Pids make re-delivery and recovery idempotent at the master. *)

(** The master's write-ahead journal entries.  Defined here — and
    re-exported verbatim by {!Journal} — so {!Ship} can carry them to a
    hot-standby replica without a [Journal]/[Protocol] dependency cycle.
    See {!Journal} for the per-constructor semantics. *)
type journal_entry =
  | Registered of { client : int }
  | Assigned of { pid : pid; dst : int; path : Sat.Types.lit list }
  | Split of {
      donor : int;
      donor_pid : pid;
      donor_path : Sat.Types.lit list;
      pid : pid;
      dst : int;
      path : Sat.Types.lit list;
    }
  | Refuted of { pid : pid }
  | Died of { client : int }
  | Adopted of { pid : pid; client : int; path : Sat.Types.lit list }
  | Verdict of { answer : string }

type msg =
  | Register  (** client -> master: the empty client is up *)
  | Problem of { pid : pid; sp : Subproblem.t; sent_at : float }
      (** problem transfer — master -> first client, or peer -> peer after a
          split/migration.  This is the large message (Figure 3, message 3). *)
  | Problem_received of { pid : pid; from : int; bytes : int; path : Sat.Types.lit list }
      (** receiver -> master (Figure 3, message 4): who sent the problem,
          its size, and its guiding-path lineage (journaled so the branch
          stays re-derivable even before any checkpoint exists) *)
  | Split_request of [ `Memory | `Long_running ]  (** client -> master (message 1) *)
  | Split_partner of { partner : int }  (** master -> client (message 2) *)
  | Split_ok of {
      pid : pid;
      donor_pid : pid;
      dst : int;
      bytes : int;
      path : Sat.Types.lit list;
      donor_path : Sat.Types.lit list;
    }
      (** donor -> master (message 5); [pid] stamps the handed-off branch,
          [donor_pid] names the branch the donor split, and [dst] the
          partner it went to, so the answer closes exactly that split.
          Carries both sides' guiding-path lineages — the new branch's
          [path] and the donor's grown [donor_path] — so the master can
          journal them and later re-derive either branch from the original
          CNF alone. *)
  | Split_failed of { partner : int }
      (** donor -> master: nothing to split for the granted [partner] *)
  | Shares of { clauses : Sat.Types.lit array list }  (** client -> master *)
  | Share_relay of { origin : int; clauses : Sat.Types.lit array list }
      (** master -> every other active client *)
  | Finished_unsat of { pid : pid; proof : string option }
      (** client -> master: subproblem exhausted.  In certified runs
          [proof] carries the client's DRUP fragment (standard text
          format); the master RUP-checks it against the original formula
          under the branch's journaled guiding path before believing it. *)
  | Found_model of Sat.Model.t  (** client -> master: candidate assignment *)
  | Migrate_to of { target : int }  (** master -> client directive *)
  | Cancel of { pid : pid }
      (** master -> client: stop working on [pid] and report idle.  Sent to
          the losing copy of a hedged subproblem once the winner's result
          is in; a client no longer holding [pid] ignores it, so late or
          re-delivered cancels are harmless. *)
  | Orphaned of { pid : pid; sp : Subproblem.t }
      (** donor -> master: a peer-to-peer handoff was given up on after
          exhausting retries; the branch comes back for re-homing so a dead
          partner cannot silently swallow part of the search space *)
  | Resync_request
      (** restarted master -> every known client: report what you are
          doing so the replayed journal can be reconciled with reality *)
  | Resync of { pid : pid option; path : Sat.Types.lit list; busy_since : float }
      (** client -> restarted master: [Some pid] with the current
          guiding-path lineage if busy (the master adopts the work),
          [None] if idle *)
  | Stop  (** master -> everyone: run is over *)
  | Heartbeat of { decisions : int }
      (** client -> master liveness beacon, fire-and-forget.  Carries the
          client's cumulative solver decision count so the master's health
          model can derive a progress rate: a straggler that heartbeats on
          time but decides slowly is visible here and nowhere else. *)
  | Ship of { seq : int; entries : journal_entry list; log_digest : string }
      (** primary master -> hot standby: journal records appended since the
          last shipment, numbered by the batch's first entry index [seq],
          plus the primary's rolling {!Journal.log_digest} after the batch.
          Critical: rides the primary's in-order stream to the standby,
          which applies a batch only if [seq] equals its applied count,
          then checks its own log digest against [log_digest] (continuous
          consistency verification).  The stream's ack of the envelope is
          the standby's receipt: the primary reads [seq] plus the batch
          length as the standby's applied count. *)
  | Epoch_notice
      (** receiver -> stale sender: your frame carried an epoch below
          mine.  Tells a fenced zombie primary that it has been superseded
          (the current epoch rides in the notice's own frame header). *)
  | Ack of { mid : int }
      (** receiver -> sender: the sender's stream is delivered up to
          envelope [mid] *)
  | Nack of { mid : int }
      (** receiver -> sender: reliable envelope [mid] arrived corrupt, or
          is missing ahead of envelopes that arrived; retransmit now
          instead of waiting out the backoff timer *)
  | Reliable of { mid : int; low : int; payload : msg }
      (** retry envelope for critical control messages: envelope [mid] of
          the sender's stream to this receiver, carrying the lowest
          number still unacked on that stream ([low], a header field
          like [mid], not digested) *)
  | Framed of { digest : int; epoch : int; payload : msg }
      (** integrity frame sealing every message put on the wire;
          receivers verify with {!verify}
          and refuse payloads whose digest does not match.  [epoch] is the
          sender's master epoch (0 for the whole run unless a standby was
          promoted): receivers reject frames from stale epochs, which
          structurally fences zombie primaries after a partition heals. *)
  | Corrupt_payload
      (** what a garbled message reads as at the receiver: unparseable
          trash.  Never sent deliberately — produced by {!corrupt} under
          fault injection. *)

val control_bytes : int
(** Nominal size of a control message.  Pids and host ids ride in its
    header, so they add nothing to a message's size. *)

val shares_bytes : Sat.Types.lit array list -> int
(** Serialised size of a clause-share batch. *)

val entry_bytes : journal_entry -> int
(** Serialised size of one journal record — the unit of the journal's
    disk-quota accounting and of [Ship] batch sizing. *)

val emit_entry : Integrity.sink -> journal_entry -> unit
(** A journal record's one emitter: every field, as words for the
    at-rest seal and the [Ship] frame digest, and as one readable line
    ({!Journal.pp_entry}), e.g. [adopted 2.1 @ 6 [1 -3]]. *)

val size : msg -> int
(** Size charged to the network for a message.  A [Reliable] envelope
    costs what its payload costs. *)

val critical : msg -> bool
(** Whether a message must be sent through the reliable (ack/retry)
    channel.  [Shares]/[Share_relay], [Heartbeat], [Stop] and the
    envelope machinery itself are not critical. *)

(** {1 Integrity framing} *)

val digest : msg -> int
(** Word-lane digest of the message's canonical words (every semantic
    field, in a fixed order), streamed through {!Integrity.hash_word}
    without building any text.  Deterministic across runs. *)

val frame : ?epoch:int -> msg -> msg
(** Seals a message for the wire:
    [Framed { digest = digest msg; epoch; payload = msg }].  [epoch]
    (default 0) is a header field alongside the digest — it is {e not}
    digested, so (like a reliable envelope's mid) it survives in-flight
    payload corruption and a receiver can fence a stale sender even when
    the payload is trash. *)

val send : msg Grid.Everyware.t -> src:int -> dst:int -> epoch:int -> msg -> unit
(** Puts [msg] on the wire framed at [epoch], sized by {!size}: the one
    way every endpoint sends. *)

val epoch_of : msg -> int
(** The epoch carried in a message's frame header (0 for unframed
    messages).  {!Reliable.receive}, the twin of {!send}, reads it before
    {!verify}, so a stale sender is fenced even when its payload rotted. *)

val verify : msg -> [ `Ok of msg | `Corrupt of msg ]
(** Checks and strips a {!frame}: a step of {!Reliable.receive}.
    Unframed messages pass through as [`Ok]; a framed payload whose
    digest does not match comes back as [`Corrupt payload] so the receiver
    can still read surviving envelope headers (to NACK a [Reliable] mid). *)

val corrupt : msg -> msg
(** Fault injection's payload transform ({!Grid.Everyware.set_corrupt}):
    garbles the message content to {!Corrupt_payload} while the framing
    digest and a reliable envelope's [mid] and [low] — fixed-position
    headers with their own CRC in any real encoding — survive readable. *)

type kind =
  | Client_started of int
  | Problem_assigned of { src : int; dst : int; bytes : int; depth : int }
  | Split_requested of { client : int; reason : [ `Memory | `Long_running ] }
  | Split_granted of { client : int; partner : int }
  | Split_denied of { client : int }
  | Split_completed of { src : int; dst : int; bytes : int }
  | Migration of { src : int; dst : int; bytes : int }
  | Shares_broadcast of { origin : int; count : int; recipients : int }
  | Client_finished_unsat of int
  | Client_found_model of int
  | Model_verified of bool
  | Client_killed of int
  | Host_crashed of int
  | Host_hung of int
  | Client_suspected of { client : int }
  | False_suspicion of { client : int }
  | Message_retried of { src : int; dst : int; attempt : int }
  | Message_given_up of { src : int; dst : int }
  | Recovery_requeued of { client : int }
  | Orphan_returned of { donor : int }
  | Retries_exhausted of { src : int; dst : int; attempts : int }
  | Checkpoint_saved of { client : int; bytes : int }
  | Recovered_from_checkpoint of { client : int; onto : int }
  | Rederived_from_lineage of { holder : int option; depth : int }
  | Master_crashed
  | Master_restarted
  | Master_outage_detected of { client : int }
  | Client_resynced of { client : int; busy : bool }
  | Batch_job_submitted of { nodes : int }
  | Batch_job_started of { nodes : int }
  | Batch_job_cancelled
  | Corrupt_message_detected of { receiver : int; nacked : bool }
  | Storage_corrupted of { journal_records : int; checkpoints : bool }
  | Unsat_fragment_certified of { pid : Protocol.pid; client : int; steps : int }
  | Certification_failed of { pid : Protocol.pid; client : int; reason : string }
  | Client_quarantined of { client : int }
  | Host_slowed of { host : int; factor : float }
  | Hedge_launched of { pid : Protocol.pid; primary : int; backup : int }
  | Hedge_cancelled of { pid : Protocol.pid; loser : int }
  | Host_probation of { host : int; until_t : float }
  | Host_readmitted of { host : int }
  | Journal_shipped of { seq : int; entries : int }
  | Replication_diverged of { seq : int }
  | Standby_promoted of { epoch : int }
  | Stale_epoch_rejected of { receiver : int; src : int; epoch : int; current : int }
  | Stale_primary_fenced of { epoch : int }
  | Shares_shed of { origin : int; clauses : int; bytes : int }
  | Outbox_shed of { client : int; shed : int }
  | Forced_compaction of { occupancy : int; quota : int }
  | Journal_degraded of { occupancy : int; quota : int }
  | Journal_recovered of { occupancy : int; quota : int }
  | Terminated of string

type t = { time : float; kind : kind }

let make time kind = { time; kind }

let pp_kind ppf = function
  | Client_started id -> Format.fprintf ppf "client %d started" id
  | Problem_assigned { src; dst; bytes; depth } ->
      Format.fprintf ppf "problem (depth %d, %d bytes) sent %d -> %d" depth bytes src dst
  | Split_requested { client; reason } ->
      Format.fprintf ppf "client %d requests split (%s)" client
        (match reason with `Memory -> "memory pressure" | `Long_running -> "long-running")
  | Split_granted { client; partner } ->
      Format.fprintf ppf "master pairs client %d with idle client %d" client partner
  | Split_denied { client } -> Format.fprintf ppf "no idle resource for client %d (backlogged)" client
  | Split_completed { src; dst; bytes } ->
      Format.fprintf ppf "split completed: %d bytes moved %d -> %d" bytes src dst
  | Migration { src; dst; bytes } ->
      Format.fprintf ppf "migration: %d bytes moved %d -> %d" bytes src dst
  | Shares_broadcast { origin; count; recipients } ->
      Format.fprintf ppf "client %d shared %d clauses with %d peers" origin count recipients
  | Client_finished_unsat id -> Format.fprintf ppf "client %d: subproblem unsatisfiable" id
  | Client_found_model id -> Format.fprintf ppf "client %d: found a satisfying assignment" id
  | Model_verified ok -> Format.fprintf ppf "master verified model: %b" ok
  | Client_killed id -> Format.fprintf ppf "client %d killed" id
  | Host_crashed id -> Format.fprintf ppf "fault: host %d crashed (silently)" id
  | Host_hung id -> Format.fprintf ppf "fault: host %d hung (unresponsive)" id
  | Client_suspected { client } ->
      Format.fprintf ppf "client %d suspected dead (lease expired)" client
  | False_suspicion { client } ->
      Format.fprintf ppf "client %d was falsely suspected; fencing it" client
  | Message_retried { src; dst; attempt } ->
      Format.fprintf ppf "message %d -> %d retried (attempt %d)" src dst attempt
  | Message_given_up { src; dst } ->
      Format.fprintf ppf "message %d -> %d abandoned after max retries" src dst
  | Recovery_requeued { client } ->
      Format.fprintf ppf "no idle host: client %d's work queued for recovery" client
  | Orphan_returned { donor } ->
      Format.fprintf ppf "client %d returned an orphaned subproblem (handoff failed)" donor
  | Retries_exhausted { src; dst; attempts } ->
      Format.fprintf ppf "retry budget %d -> %d exhausted after %d attempts" src dst attempts
  | Checkpoint_saved { client; bytes } ->
      Format.fprintf ppf "checkpoint of client %d saved (%d bytes)" client bytes
  | Recovered_from_checkpoint { client; onto } ->
      Format.fprintf ppf "client %d's work recovered onto client %d" client onto
  | Rederived_from_lineage { holder; depth } ->
      Format.fprintf ppf "lost subproblem (depth %d%s) re-derived from its split lineage" depth
        (match holder with Some h -> Printf.sprintf ", last held by %d" h | None -> "")
  | Master_crashed -> Format.fprintf ppf "fault: master crashed (volatile state lost)"
  | Master_restarted -> Format.fprintf ppf "master restarted; journal replayed, resyncing clients"
  | Master_outage_detected { client } ->
      Format.fprintf ppf "client %d detected the master outage (retries exhausted); buffering" client
  | Client_resynced { client; busy } ->
      Format.fprintf ppf "client %d resynced (%s)" client (if busy then "busy" else "idle")
  | Batch_job_submitted { nodes } -> Format.fprintf ppf "batch job submitted (%d nodes)" nodes
  | Batch_job_started { nodes } -> Format.fprintf ppf "batch job started (%d nodes)" nodes
  | Batch_job_cancelled -> Format.fprintf ppf "batch job cancelled"
  | Corrupt_message_detected { receiver; nacked } ->
      Format.fprintf ppf "endpoint %d received a corrupt payload%s" receiver
        (if nacked then " (nacked for immediate retransmit)" else " (dropped)")
  | Storage_corrupted { journal_records; checkpoints } ->
      Format.fprintf ppf "fault: stable storage rotted (%d journal records%s)" journal_records
        (if checkpoints then ", all checkpoints" else "")
  | Unsat_fragment_certified { pid = a, b; client; steps } ->
      Format.fprintf ppf "UNSAT fragment %d.%d from client %d certified (%d proof steps)" a b
        client steps
  | Certification_failed { pid = a, b; client; reason } ->
      Format.fprintf ppf "certification of %d.%d from client %d FAILED: %s" a b client reason
  | Client_quarantined { client } ->
      Format.fprintf ppf "client %d quarantined (unverifiable answer); its work re-derived" client
  | Host_slowed { host; factor } ->
      if factor = 1.0 then Format.fprintf ppf "fault: host %d restored to full speed" host
      else Format.fprintf ppf "fault: host %d slowed %gx" host factor
  | Hedge_launched { pid = a, b; primary; backup } ->
      Format.fprintf ppf "subproblem %d.%d on client %d hedged onto client %d" a b primary backup
  | Hedge_cancelled { pid = a, b; loser } ->
      Format.fprintf ppf "hedge %d.%d resolved; losing copy on client %d cancelled" a b loser
  | Host_probation { host; until_t } ->
      Format.fprintf ppf "host %d enters probation until t=%.1f (circuit breaker open)" host until_t
  | Host_readmitted { host } ->
      Format.fprintf ppf "host %d re-admitted (canary subproblem succeeded)" host
  | Journal_shipped { seq; entries } ->
      Format.fprintf ppf "journal batch #%d shipped to the standby (%d entries)" seq entries
  | Replication_diverged { seq } ->
      Format.fprintf ppf "standby log DIVERGED from the primary's at batch #%d" seq
  | Standby_promoted { epoch } ->
      Format.fprintf ppf "standby promoted to primary (epoch %d); resyncing clients" epoch
  | Stale_epoch_rejected { receiver; src; epoch; current } ->
      Format.fprintf ppf "endpoint %d rejected a frame from %d at stale epoch %d (current %d)"
        receiver src epoch current
  | Stale_primary_fenced { epoch } ->
      Format.fprintf ppf "superseded primary (epoch %d) saw a newer epoch and fenced itself" epoch
  | Shares_shed { origin; clauses; bytes } ->
      Format.fprintf ppf "share budget: %d clauses (%d bytes) from client %d shed" clauses bytes
        origin
  | Outbox_shed { client; shed } ->
      Format.fprintf ppf "client %d outbox hit its watermark: %d share batches shed" client shed
  | Forced_compaction { occupancy; quota } ->
      Format.fprintf ppf "journal over quota (%d > %d bytes): emergency compaction forced"
        occupancy quota
  | Journal_degraded { occupancy; quota } ->
      Format.fprintf ppf
        "journal DEGRADED: still %d bytes over a %d-byte quota after compaction; replica \
         shipping paused"
        occupancy quota
  | Journal_recovered { occupancy; quota } ->
      Format.fprintf ppf "journal recovered from degraded mode (%d bytes%s)" occupancy
        (if quota = 0 then ", quota lifted" else Printf.sprintf " under a %d-byte quota" quota)
  | Terminated why -> Format.fprintf ppf "terminated: %s" why

let pp ppf t = Format.fprintf ppf "[%10.1f] %a" t.time pp_kind t.kind

(* Compact structured view for the flight recorder: a stable snake_case
   name plus the identifying arguments, cheap enough to build on every
   logged event when the recorder is live. *)
let flight_view kind : string * (string * Obs.Json.t) list =
  let i n v = (n, Obs.Json.Int v) in
  let f n v = (n, Obs.Json.Float v) in
  let s n v = (n, Obs.Json.String v) in
  let b n v = (n, Obs.Json.Bool v) in
  let pid (a, p) = [ i "pid_src" a; i "pid_seq" p ] in
  match kind with
  | Client_started id -> ("client_started", [ i "client" id ])
  | Problem_assigned { src; dst; bytes; depth } ->
      ("problem_assigned", [ i "src" src; i "dst" dst; i "bytes" bytes; i "depth" depth ])
  | Split_requested { client; reason } ->
      ( "split_requested",
        [ i "client" client; s "reason" (match reason with `Memory -> "memory" | `Long_running -> "long_running") ] )
  | Split_granted { client; partner } -> ("split_granted", [ i "client" client; i "partner" partner ])
  | Split_denied { client } -> ("split_denied", [ i "client" client ])
  | Split_completed { src; dst; bytes } ->
      ("split_completed", [ i "src" src; i "dst" dst; i "bytes" bytes ])
  | Migration { src; dst; bytes } -> ("migration", [ i "src" src; i "dst" dst; i "bytes" bytes ])
  | Shares_broadcast { origin; count; recipients } ->
      ("shares_broadcast", [ i "origin" origin; i "count" count; i "recipients" recipients ])
  | Client_finished_unsat id -> ("client_finished_unsat", [ i "client" id ])
  | Client_found_model id -> ("client_found_model", [ i "client" id ])
  | Model_verified ok -> ("model_verified", [ b "ok" ok ])
  | Client_killed id -> ("client_killed", [ i "client" id ])
  | Host_crashed id -> ("host_crashed", [ i "host" id ])
  | Host_hung id -> ("host_hung", [ i "host" id ])
  | Client_suspected { client } -> ("client_suspected", [ i "client" client ])
  | False_suspicion { client } -> ("false_suspicion", [ i "client" client ])
  | Message_retried { src; dst; attempt } ->
      ("message_retried", [ i "src" src; i "dst" dst; i "attempt" attempt ])
  | Message_given_up { src; dst } -> ("message_given_up", [ i "src" src; i "dst" dst ])
  | Recovery_requeued { client } -> ("recovery_requeued", [ i "client" client ])
  | Orphan_returned { donor } -> ("orphan_returned", [ i "donor" donor ])
  | Retries_exhausted { src; dst; attempts } ->
      ("retries_exhausted", [ i "src" src; i "dst" dst; i "attempts" attempts ])
  | Checkpoint_saved { client; bytes } -> ("checkpoint_saved", [ i "client" client; i "bytes" bytes ])
  | Recovered_from_checkpoint { client; onto } ->
      ("recovered_from_checkpoint", [ i "client" client; i "onto" onto ])
  | Rederived_from_lineage { holder; depth } ->
      ( "rederived_from_lineage",
        (match holder with Some h -> [ i "holder" h ] | None -> []) @ [ i "depth" depth ] )
  | Master_crashed -> ("master_crashed", [])
  | Master_restarted -> ("master_restarted", [])
  | Master_outage_detected { client } -> ("master_outage_detected", [ i "client" client ])
  | Client_resynced { client; busy } -> ("client_resynced", [ i "client" client; b "busy" busy ])
  | Batch_job_submitted { nodes } -> ("batch_job_submitted", [ i "nodes" nodes ])
  | Batch_job_started { nodes } -> ("batch_job_started", [ i "nodes" nodes ])
  | Batch_job_cancelled -> ("batch_job_cancelled", [])
  | Corrupt_message_detected { receiver; nacked } ->
      ("corrupt_message_detected", [ i "receiver" receiver; b "nacked" nacked ])
  | Storage_corrupted { journal_records; checkpoints } ->
      ("storage_corrupted", [ i "journal_records" journal_records; b "checkpoints" checkpoints ])
  | Unsat_fragment_certified { pid = p; client; steps } ->
      ("unsat_fragment_certified", pid p @ [ i "client" client; i "steps" steps ])
  | Certification_failed { pid = p; client; reason } ->
      ("certification_failed", pid p @ [ i "client" client; s "reason" reason ])
  | Client_quarantined { client } -> ("client_quarantined", [ i "client" client ])
  | Host_slowed { host; factor } -> ("host_slowed", [ i "host" host; f "factor" factor ])
  | Hedge_launched { pid = p; primary; backup } ->
      ("hedge_launched", pid p @ [ i "primary" primary; i "backup" backup ])
  | Hedge_cancelled { pid = p; loser } -> ("hedge_cancelled", pid p @ [ i "loser" loser ])
  | Host_probation { host; until_t } -> ("host_probation", [ i "host" host; f "until" until_t ])
  | Host_readmitted { host } -> ("host_readmitted", [ i "host" host ])
  | Journal_shipped { seq; entries } -> ("journal_shipped", [ i "seq" seq; i "entries" entries ])
  | Replication_diverged { seq } -> ("replication_diverged", [ i "seq" seq ])
  | Standby_promoted { epoch } -> ("standby_promoted", [ i "epoch" epoch ])
  | Stale_epoch_rejected { receiver; src; epoch; current } ->
      ( "stale_epoch_rejected",
        [ i "receiver" receiver; i "src" src; i "epoch" epoch; i "current" current ] )
  | Stale_primary_fenced { epoch } -> ("stale_primary_fenced", [ i "epoch" epoch ])
  | Shares_shed { origin; clauses; bytes } ->
      ("shares_shed", [ i "origin" origin; i "clauses" clauses; i "bytes" bytes ])
  | Outbox_shed { client; shed } -> ("outbox_shed", [ i "client" client; i "shed" shed ])
  | Forced_compaction { occupancy; quota } ->
      ("forced_compaction", [ i "occupancy" occupancy; i "quota" quota ])
  | Journal_degraded { occupancy; quota } ->
      ("journal_degraded", [ i "occupancy" occupancy; i "quota" quota ])
  | Journal_recovered { occupancy; quota } ->
      ("journal_recovered", [ i "occupancy" occupancy; i "quota" quota ])
  | Terminated why -> ("terminated", [ s "why" why ])

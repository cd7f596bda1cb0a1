type scheduler_policy = Nws_rank | Random_pick | First_fit

type checkpoint_mode = No_checkpoint | Light | Heavy

type t = {
  share_max_len : int;
  split_timeout : float;
  overall_timeout : float;
  slice : float;
  share_flush_interval : float;
  mem_headroom : float;
  min_client_memory : int;
  scheduler : scheduler_policy;
  nws_probe_interval : float;
  migration_enabled : bool;
  checkpoint : checkpoint_mode;
  checkpoint_period : float;
  heartbeat_period : float;
  suspect_timeout : float;
  retry_base : float;
  retry_max_attempts : int;
  hedge : bool;
  portfolio : bool;
  journal_compact_every : int;
  resync_grace : float;
  certify : bool;
  standby : bool;
  ship_sync : bool;
  ship_interval : float;
  standby_lease : float;
  share_budget : int;
  share_window : float;
  journal_quota : int;
  outbox_cap : int;
  solver_config : Sat.Solver.config;
  seed : int;
}

let default =
  {
    share_max_len = 10;
    split_timeout = 100.;
    overall_timeout = 6000.;
    slice = 2.0;
    share_flush_interval = 10.;
    mem_headroom = 0.9;
    min_client_memory = Grid.Resource.min_client_memory;
    scheduler = Nws_rank;
    nws_probe_interval = 30.;
    migration_enabled = true;
    checkpoint = No_checkpoint;
    checkpoint_period = 10.;
    heartbeat_period = 10.;
    suspect_timeout = 60.;
    retry_base = 2.;
    retry_max_attempts = 6;
    hedge = false;
    portfolio = false;
    journal_compact_every = 64;
    resync_grace = 10.;
    certify = false;
    standby = false;
    ship_sync = false;
    ship_interval = 2.;
    standby_lease = 30.;
    share_budget = 0;
    share_window = 10.;
    journal_quota = 0;
    outbox_cap = 32;
    solver_config = Sat.Solver.default_config;
    seed = 0;
  }

let experiment_set_1 = default

let experiment_set_2 = { default with share_max_len = 3; overall_timeout = 12_000. }

let validate t =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  if t.heartbeat_period <= 0. then
    err "heartbeat_period must be positive, got %g" t.heartbeat_period
  else if t.suspect_timeout <= t.heartbeat_period then
    err
      "suspect_timeout (%g) must exceed heartbeat_period (%g): a lease shorter than one beacon \
       interval declares every healthy client dead"
      t.suspect_timeout t.heartbeat_period
  else if t.checkpoint_period <= 0. then
    err "checkpoint_period must be positive, got %g" t.checkpoint_period
  else if t.retry_max_attempts < 1 then
    err "retry_max_attempts must be at least 1, got %d" t.retry_max_attempts
  else if t.retry_base <= 0. then err "retry_base must be positive, got %g" t.retry_base
  else if t.slice <= 0. then err "slice must be positive, got %g" t.slice
  else if t.overall_timeout <= 0. then
    err "overall_timeout must be positive, got %g" t.overall_timeout
  else if t.share_flush_interval <= 0. then
    err "share_flush_interval must be positive, got %g" t.share_flush_interval
  else if not (t.mem_headroom > 0. && t.mem_headroom <= 1.) then
    err "mem_headroom must lie in (0, 1], got %g" t.mem_headroom
  else if t.share_max_len < 0 then err "share_max_len must be non-negative, got %d" t.share_max_len
  else if t.split_timeout < 0. then err "split_timeout must be non-negative, got %g" t.split_timeout
  else if t.nws_probe_interval <= 0. then
    err "nws_probe_interval must be positive, got %g" t.nws_probe_interval
  else if t.min_client_memory < 0 then
    err "min_client_memory must be non-negative, got %d" t.min_client_memory
  else if t.journal_compact_every < 1 then
    err "journal_compact_every must be at least 1, got %d" t.journal_compact_every
  else if t.resync_grace <= 0. then err "resync_grace must be positive, got %g" t.resync_grace
  else if t.certify && t.share_max_len > 0 then
    err
      "certify requires share_max_len = 0: foreign clauses are not locally derivable, so \
       clause-sharing runs cannot produce checkable per-branch proofs"
  else if t.ship_sync && not t.standby then
    err
      "ship_sync requires standby: synchronous journal shipping with zero standbys would \
       block every append on an ack that can never arrive"
  else if t.standby && t.ship_interval <= 0. then
    err "ship_interval must be positive, got %g" t.ship_interval
  else if t.standby && t.standby_lease <= t.heartbeat_period then
    err
      "standby_lease (%g) must exceed heartbeat_period (%g): a lease shorter than one ship \
       interval's worth of silence would promote the standby against a healthy primary"
      t.standby_lease t.heartbeat_period
  else if t.share_budget < 0 then
    err "share_budget must be non-negative (0 disables the budget), got %d" t.share_budget
  else if t.share_window <= 0. then
    err "share_window must be positive, got %g" t.share_window
  else if t.journal_quota < 0 then
    err "journal_quota must be non-negative (0 disables the quota), got %d" t.journal_quota
  else if t.outbox_cap < 1 then
    err
      "outbox_cap must be at least 1, got %d: a zero-capacity outbox would shed every \
       envelope buffered during a master outage"
      t.outbox_cap
  else Ok ()

let validate_exn t =
  match validate t with Ok () -> () | Error msg -> invalid_arg ("Config.validate: " ^ msg)

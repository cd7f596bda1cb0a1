(** GridSAT: the distributed solver, end to end.

    [solve ~testbed cnf] stands up the whole apparatus on the simulated
    Grid — network, messaging, NWS probes, master, one client per host,
    the batch job if any — runs the master-client protocol to completion,
    and returns the answer with full run metrics and the event log.

    {[
      let testbed = Gridsat_core.Testbed.grads () in
      let result = Gridsat_core.Gridsat.solve ~testbed cnf in
      match result.Gridsat_core.Master.answer with
      | Gridsat_core.Master.Sat model -> ...
      | Gridsat_core.Master.Unsat -> ...
      | Gridsat_core.Master.Unknown reason -> ...
    ]} *)

(** {1 Fault presets}

    The canned plans behind the CLI's fault flags.  Each is a pure
    function of its arguments. *)

val primary_site : string
(** The site [--chaos-partition] puts the primary on, alone. *)

val chaos_plan : standby:bool -> partition:bool -> Grid.Fault.spec list
(** [--chaos]: host 1 crashes at 2 s, the master crashes at 6 s, and 10%
    message loss plus 5% duplication run all along.  The master restarts
    4 s later, or never with [standby] (the standby's lease expiry
    promotes it instead); with [standby] the crash is due by the verdict,
    so a run that would end before 6 s fails over too.  [partition]
    replaces the master crash with a partition of {!primary_site} from
    6 s to 18 s.  A primary alone on that site is cut off from every
    client and cannot finish, so a run still open at 6 s must promote
    the standby, which leaves a usurped primary whose stale-epoch frames
    must be fenced after the heal.  Times are absolute virtual seconds,
    early enough to fire on small instances. *)

val straggler_plan : n:int -> flaky:bool -> seed:int -> Grid.Fault.spec list
(** [--stragglers n]: hosts 1..n slow down 6-10x at a seeded instant in
    [[1, 3)] s, or with [flaky] oscillate on a seeded 4-8 s period.
    Heartbeats and acks stay on time, so only the health model's
    progress-rate signal and hedging can defend against them. *)

val link_faults :
  corrupt_p:float -> choke:int -> window:float -> from_t:float -> until_t:float ->
  Grid.Fault.spec list
(** [--choke] and [--corrupt-p] over every link during [[from_t, until_t)]:
    a {!Grid.Fault.Choke_link} of [choke] bytes per [window] when [choke > 0],
    then a {!Grid.Fault.Corrupt_messages} with probability [corrupt_p] when
    it is not [0].  An out-of-range [corrupt_p] is kept, so
    {!Grid.Fault.validate} rejects the plan. *)

val solve :
  ?config:Config.t ->
  ?fault_plan:Grid.Fault.spec list ->
  ?obs:Obs.t ->
  ?health:Health.t ->
  ?on_master:(Master.t -> unit) ->
  testbed:Testbed.t ->
  Sat.Cnf.t ->
  Master.result
(** Runs to termination (answer, timeout, or unrecoverable failure).
    Raises [Invalid_argument] if [config] is inconsistent (see
    {!Config.validate}) or [fault_plan] is malformed.  [fault_plan] is
    armed by {!Master.arm_faults} with the config's [seed]: host, master
    and storage faults fire on the simulation clock, message faults apply
    to every send, and the same plan and seed replay the identical
    failure schedule.  [health] wires a
    (possibly shared) host-health model into the run's scheduling; see
    {!Master.create}.  [on_master] exposes
    the master right after construction — tests use it to inject failures
    at scheduled times.  [obs] (default [Obs.disabled]) collects metrics
    and spans across every layer of the run; its span clock is pointed at
    the simulation's virtual clock, so exported traces are deterministic
    for a given config and seed. *)

val answer_string : Master.answer -> string
(** "SAT", "UNSAT" or "UNKNOWN(reason)". *)

val pp_result : Format.formatter -> Master.result -> unit
(** One-paragraph run summary (answer, time, peak clients, traffic). *)

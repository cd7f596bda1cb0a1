(* A snapshot knows the pid it was saved for: a client keeps its last
   snapshot after its branch moves on (a migration source), so the
   snapshot must not answer for another branch. *)
type entry = { pid : Protocol.pid; sp : Subproblem.t; bytes : int; light : bool; mutable seal : int }

type t = {
  cnf : Sat.Cnf.t;
  store : (int, entry) Hashtbl.t;
  saves : Obs.Metrics.counter;
  discarded : Obs.Metrics.counter;
  obs : Obs.t;
  obs_on : bool;
  c_restores : Obs.Metrics.counter;
  h_bytes : Obs.Metrics.histogram;
}

let create ?(obs = Obs.disabled) cnf =
  let m = Obs.metrics obs in
  {
    cnf;
    store = Hashtbl.create 16;
    saves = Obs.Metrics.counter m "checkpoint.saves";
    discarded = Obs.Metrics.counter m "checkpoint.discarded";
    obs;
    obs_on = Obs.enabled obs;
    c_restores = Obs.Metrics.counter m "checkpoint.restores";
    h_bytes = Obs.Metrics.histogram m "checkpoint.bytes";
  }

let record_save t ~client ~light bytes =
  Obs.Metrics.incr t.saves;
  if t.obs_on then begin
    Obs.Metrics.observe t.h_bytes (float_of_int bytes);
    ignore
      (Obs.Span.instant (Obs.spans t.obs) ~tid:Obs.Span.master_tid ~cat:"checkpoint"
         ~args:
           [
             ("client", Obs.Json.Int client);
             ("bytes", Obs.Json.Int bytes);
             ("light", Obs.Json.Bool light);
           ]
         "checkpoint.save")
  end

(* At-rest integrity seal over the snapshot's serialised form, taken at
   save time and re-checked on restore. *)
let seal_of sp = Integrity.crc32_of (Integrity.hash Subproblem.emit sp)

let save t ~client ~pid ~mode sp =
  match mode with
  | Config.No_checkpoint -> 0
  | Config.Light | Config.Heavy ->
      let light = mode = Config.Light in
      (* a light checkpoint persists only the root assignment; its clauses
         come back from the problem file on restore *)
      let sp = if light then { sp with Subproblem.clauses = Sat.Arena.empty } else sp in
      let bytes = Subproblem.bytes sp in
      Hashtbl.replace t.store client { pid; sp; bytes; light; seal = seal_of sp };
      record_save t ~client ~light bytes;
      bytes

let restore t ~client ~pid =
  match Hashtbl.find_opt t.store client with
  | None -> None
  | Some e when e.pid <> pid -> None
  | Some { sp; light; seal; _ } when seal = seal_of sp ->
      Obs.Metrics.incr t.c_restores;
      if t.obs_on then
        ignore
          (Obs.Span.instant (Obs.spans t.obs) ~tid:Obs.Span.master_tid ~cat:"checkpoint"
             ~args:[ ("client", Obs.Json.Int client); ("light", Obs.Json.Bool light) ]
             "checkpoint.restore");
      if light then
        Some (Subproblem.prune { sp with Subproblem.clauses = Sat.Cnf.clauses t.cnf })
      else Some sp
  | Some _ ->
      (* the snapshot rotted at rest: restoring garbage could silently
         narrow the search space, so the checkpoint is discarded and the
         caller falls back to lineage re-derivation *)
      Hashtbl.remove t.store client;
      Obs.Metrics.incr t.discarded;
      if t.obs_on then
        ignore
          (Obs.Span.instant (Obs.spans t.obs) ~tid:Obs.Span.master_tid ~cat:"checkpoint"
             ~args:[ ("client", Obs.Json.Int client) ]
             "checkpoint.corrupt_discarded");
      None

let corrupt_all t = Hashtbl.iter (fun _ e -> e.seal <- Integrity.corrupted e.seal) t.store

let drop t ~client = Hashtbl.remove t.store client

let total_bytes t = Hashtbl.fold (fun _ e acc -> acc + e.bytes) t.store 0

let saves t = Obs.Metrics.counter_value t.saves

let discarded t = Obs.Metrics.counter_value t.discarded

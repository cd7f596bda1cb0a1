type priority = Low | Normal | High

let priority_level = function Low -> 0 | Normal -> 1 | High -> 2

let priority_string = function Low -> "low" | Normal -> "normal" | High -> "high"

let priority_of_string = function
  | "low" -> Ok Low
  | "normal" -> Ok Normal
  | "high" -> Ok High
  | s -> Error (Printf.sprintf "unknown priority %S (expected low|normal|high)" s)

type terminal =
  | Verdict of Gridsat_core.Master.answer
  | Cached of Gridsat_core.Master.answer
  | Shed of { retry_after : float }
  | Deadline_expired
  | Cancelled of string

type state = Queued | Running | Done of terminal

type t = {
  id : int;
  tenant : string;
  priority : priority;
  label : string;
  cnf : Sat.Cnf.t;
  digest : string;
  mutable deadline : float option;
      (* advisory: brownout stretches it, so the armed expiry timer
         re-checks this field before cancelling *)
  submitted_at : float;
  mutable state : state;
  mutable started_at : float option;
  mutable finished_at : float option;
  mutable preemptions : int;
  mutable result : Gridsat_core.Master.result option;
}

let terminal_string = function
  | Verdict a -> "verdict:" ^ Gridsat_core.Gridsat.answer_string a
  | Cached a -> "cached:" ^ Gridsat_core.Gridsat.answer_string a
  | Shed _ -> "shed"
  | Deadline_expired -> "deadline"
  | Cancelled reason -> "cancelled:" ^ reason

let state_string = function
  | Queued -> "queued"
  | Running -> "running"
  | Done t -> terminal_string t

let is_terminal t = match t.state with Done _ -> true | _ -> false

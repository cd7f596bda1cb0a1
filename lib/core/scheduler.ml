type candidate = { resource : Grid.Resource.t; forecast : float; health : float }

(* Rank = forecast effective speed, weighted by a slowly growing memory
   factor: a host with four times the memory ranks twice as high at equal
   speed.  Clients are memory-bound as often as CPU-bound (Section 1).
   The health multiplier sits beside the forecast: both are observations
   of how much of the advertised capacity is actually being delivered —
   NWS for the machine, the health model for the solver process. *)
let rank c =
  let mem_gb = float_of_int c.resource.Grid.Resource.mem_bytes /. (1024. *. 1024. *. 1024.) in
  c.resource.Grid.Resource.speed *. c.forecast *. c.health
  *. sqrt (Float.max 0.25 mem_gb)

let pick policy ~rng candidates =
  match candidates with
  | [] -> None
  | first :: _ -> (
      match policy with
      | Config.Nws_rank ->
          Some
            (List.fold_left
               (fun best c -> if rank c > rank best then c else best)
               first candidates)
      | Config.Random_pick ->
          Some (List.nth candidates (Random.State.int rng (List.length candidates)))
      | Config.First_fit ->
          Some
            (List.fold_left
               (fun best c ->
                 if c.resource.Grid.Resource.id < best.resource.Grid.Resource.id then c else best)
               first candidates))

(* Longest-running-first (earliest busy-since wins).  Two clients that
   became busy at the same instant — common right after a mass recovery
   re-homes a batch of subproblems in one event — tie-break on the lower
   client id, not on backlog insertion order, so the choice is a function
   of the entries alone. *)
let pick_backlog entries =
  match entries with
  | [] -> None
  | (c0, t0) :: rest ->
      let client, _ =
        List.fold_left
          (fun (bc, bt) (c, t) -> if t < bt || (t = bt && c < bc) then (c, t) else (bc, bt))
          (c0, t0) rest
      in
      Some client

(* Exactly 2x counts: the paper's bar is "at least twice the forecast
   rank", so the boundary itself migrates (>=, not >). *)
let should_migrate ~busy_rank ~idle_rank = idle_rank >= 2. *. busy_rank

(* Shared row runner for the table reproductions: times the zChaff-model
   baseline on the fastest host and GridSAT on the given testbed, and
   renders paper-vs-measured rows. *)

module R = Workloads.Registry
module C = Gridsat_core

type row = {
  entry : R.entry;
  baseline : C.Baseline.run;
  grid : C.Master.result;
  real_seconds : float;
}

let status_string = function R.Sat -> "SAT" | R.Unsat -> "UNSAT" | R.Open -> "*"

let paper_time_string = function
  | R.Seconds s -> Printf.sprintf "%.0f" s
  | R.Timeout -> "TIME_OUT"
  | R.Memout -> "MEM_OUT"
  | R.Hours_bh -> "33h+8hBH"

let baseline_string (b : C.Baseline.run) =
  match b.C.Baseline.outcome with
  | C.Baseline.Sat _ -> Printf.sprintf "%.0f" b.C.Baseline.time
  | C.Baseline.Unsat -> Printf.sprintf "%.0f" b.C.Baseline.time
  | C.Baseline.Timeout -> "TIME_OUT"
  | C.Baseline.Memout -> "MEM_OUT"

let grid_time_string (g : C.Master.result) =
  match g.C.Master.answer with
  | C.Master.Sat _ | C.Master.Unsat -> Printf.sprintf "%.0f" g.C.Master.time
  | C.Master.Unknown _ -> "TIME_OUT"

let measured_status (row : row) =
  (* cross-check the baseline and grid answers against the expected status *)
  let of_grid =
    match row.grid.C.Master.answer with
    | C.Master.Sat _ -> Some R.Sat
    | C.Master.Unsat -> Some R.Unsat
    | C.Master.Unknown _ -> None
  in
  let of_baseline =
    match row.baseline.C.Baseline.outcome with
    | C.Baseline.Sat _ -> Some R.Sat
    | C.Baseline.Unsat -> Some R.Unsat
    | C.Baseline.Timeout | C.Baseline.Memout -> None
  in
  match (of_grid, of_baseline) with Some s, _ | None, Some s -> Some s | None, None -> None

let status_consistent row =
  match (measured_status row, row.entry.R.status) with
  | None, _ -> true
  | Some R.Sat, R.Sat | Some R.Unsat, R.Unsat -> true
  | Some _, R.Open -> true
  | Some _, _ -> false

let speedup row =
  match (row.baseline.C.Baseline.outcome, row.grid.C.Master.answer) with
  | (C.Baseline.Sat _ | C.Baseline.Unsat), (C.Master.Sat _ | C.Master.Unsat) ->
      Some (row.baseline.C.Baseline.time /. Float.max 1e-9 row.grid.C.Master.time)
  | _ -> None

let run_row ?(testbed = Scale.grads ()) ?config (e : R.entry) =
  let t0 = Unix.gettimeofday () in
  let cnf = e.R.gen () in
  let baseline =
    C.Baseline.run ~timeout:Scale.zchaff_timeout ~host:(C.Testbed.fastest testbed) cnf
  in
  let config =
    match config with Some c -> c | None -> Scale.t1_config ~timeout:(Scale.row_timeout e)
  in
  let grid = C.Gridsat.solve ~config ~testbed cnf in
  { entry = e; baseline; grid; real_seconds = Unix.gettimeofday () -. t0 }

let category_header = function
  | R.Both_solved -> "Problems solved by zChaff and GridSAT"
  | R.Gridsat_only -> "Problems solved by GridSAT only"
  | R.Neither_solved -> "Remaining problems"

let print_table1_header () =
  Printf.printf "%-32s %-6s | %8s %8s %7s %5s | %8s %8s %5s | %s\n" "File name" "status"
    "zChaff" "GridSAT" "speedup" "maxcl" "paper-z" "paper-g" "p-cl" "ok";
  Printf.printf "%s\n" (String.make 118 '-')

let print_row (row : row) =
  let e = row.entry in
  let ok = if status_consistent row then "" else "  STATUS-MISMATCH!" in
  Printf.printf "%-32s %-6s | %8s %8s %7s %5d | %8s %8s %5s | %.0fs%s\n%!" e.R.name
    (status_string e.R.status) (baseline_string row.baseline) (grid_time_string row.grid)
    (match speedup row with Some s -> Printf.sprintf "%.2f" s | None -> "-")
    (C.Master.counter row.grid "max_clients")
    (paper_time_string e.R.paper_zchaff)
    (paper_time_string e.R.paper_gridsat)
    (match e.R.paper_max_clients with Some c -> string_of_int c | None -> "-")
    row.real_seconds ok

(* Category agreement summary: does the measured row land in the paper's
   band (solved-by-both / gridsat-only / neither)? *)
let measured_category (row : row) =
  let base_solved =
    match row.baseline.C.Baseline.outcome with
    | C.Baseline.Sat _ | C.Baseline.Unsat -> true
    | C.Baseline.Timeout | C.Baseline.Memout -> false
  in
  let grid_solved =
    match row.grid.C.Master.answer with
    | C.Master.Sat _ | C.Master.Unsat -> true
    | C.Master.Unknown _ -> false
  in
  match (base_solved, grid_solved) with
  | true, true -> R.Both_solved
  | false, true -> R.Gridsat_only
  | _, false -> R.Neither_solved

let print_category_summary rows =
  let agree =
    List.length (List.filter (fun r -> measured_category r = r.entry.R.category) rows)
  in
  Printf.printf "\ncategory agreement: %d/%d rows land in the paper's band\n" agree
    (List.length rows);
  List.iter
    (fun r ->
      if measured_category r <> r.entry.R.category then
        Printf.printf "  deviating: %-32s paper=%s measured=%s\n" r.entry.R.name
          (category_header r.entry.R.category)
          (category_header (measured_category r)))
    rows

module T = Sat.Types

type t = {
  nvars : int;
  facts : T.lit list;
  path : T.lit list;
  clauses : T.lit array list;
}

let initial cnf =
  { nvars = Sat.Cnf.nvars cnf; facts = []; path = []; clauses = Sat.Cnf.clauses cnf }

let nclauses t = List.length t.clauses

let depth t = List.length t.path

let bytes t =
  let clause_bytes = List.fold_left (fun acc c -> acc + 48 + (8 * Array.length c)) 0 t.clauses in
  clause_bytes + (8 * (List.length t.facts + List.length t.path)) + 64

(* The clause arrays stay the subproblem's: the solver copies each as it
   normalises it, and other holders of this value (the master's in-flight
   table, the receiver's origin, heavy checkpoints) see them unchanged. *)
let to_solver ~config ?obs ?obs_tid t =
  Sat.Solver.create_with_roots ~config ?obs ?obs_tid ~facts:t.facts ~nvars:t.nvars t.clauses
    t.path

let capture solver =
  if not (Sat.Solver.is_ok solver) then invalid_arg "Subproblem.capture: refuted solver";
  {
    nvars = Sat.Solver.nvars solver;
    facts = Sat.Solver.root_facts solver;
    path = Sat.Solver.root_path solver;
    clauses = Sat.Solver.active_clauses solver;
  }

let prune t =
  let root = Hashtbl.create 64 in
  List.iter (fun l -> Hashtbl.replace root l ()) t.facts;
  List.iter (fun l -> Hashtbl.replace root l ()) t.path;
  let fact_vars = Hashtbl.create 64 in
  List.iter (fun l -> Hashtbl.replace fact_vars (T.var l) ()) t.facts;
  let satisfied c = Array.exists (fun l -> Hashtbl.mem root l) c in
  let strippable l = Hashtbl.mem root (T.negate l) && Hashtbl.mem fact_vars (T.var l) in
  let simplify c =
    if satisfied c then None
    else Some (Array.of_list (List.filter (fun l -> not (strippable l)) (Array.to_list c)))
  in
  { t with clauses = List.filter_map simplify t.clauses }

(* A subproblem is fully determined by the original formula and its
   guiding path (the paper's Figure 2 invariant): root facts are globally
   implied (the solver re-derives them by propagation) and learned clauses
   are only accelerants.  So the lineage alone reconstructs the branch. *)
let of_lineage cnf path =
  prune { nvars = Sat.Cnf.nvars cnf; facts = []; path; clauses = Sat.Cnf.clauses cnf }

(* No [prune]: the donor's active clauses are already pruned against its
   own root, which the new branch's root extends by one literal, and
   [split_clauses] drops the clauses that literal satisfies. *)
let split_from solver =
  if Sat.Solver.decision_level solver = 0 then None
  else
    let clauses = Sat.Solver.split_clauses solver in
    Option.map
      (fun (facts, path) -> { nvars = Sat.Solver.nvars solver; facts; path; clauses })
      (Sat.Solver.split solver)

(* Certified transfers must stay lineage-pure: the travelling clause set is
   the clause set this client itself received (inductively, a subset of the
   original formula — [prune] with no facts only drops satisfied clauses,
   it never strips literals), and no root facts travel, so the receiver's
   whole root state is exactly its guiding path.  The master can then check
   the receiver's eventual DRUP fragment against the original CNF under
   the journaled path alone. *)
let split_pure ~origin solver =
  match Sat.Solver.split solver with
  | None -> None
  | Some (_facts, path) ->
      Some (prune { nvars = origin.nvars; facts = []; path; clauses = origin.clauses })

let capture_pure ~origin solver =
  prune
    {
      nvars = origin.nvars;
      facts = [];
      path = Sat.Solver.root_path solver;
      clauses = origin.clauses;
    }

(* Wire format:
     p subproblem <nvars> <nclauses>
     f <facts as DIMACS ints> 0
     a <path as DIMACS ints> 0
     <clause> 0
     ... *)
let emit sink t =
  let open Integrity in
  let lit l =
    put_int sink (T.to_int l);
    put_char sink ' '
  in
  put_string sink "p subproblem ";
  put_int sink t.nvars;
  put_char sink ' ';
  put_int sink (List.length t.clauses);
  put_string sink "\nf ";
  List.iter lit t.facts;
  put_string sink "0\na ";
  List.iter lit t.path;
  put_string sink "0\n";
  List.iter
    (fun c ->
      Array.iter lit c;
      put_string sink "0\n")
    t.clauses

let to_string t = Integrity.render emit t

let of_string text =
  let lines = String.split_on_char '\n' text |> List.filter (fun l -> String.trim l <> "") in
  let parse_ints nvars body =
    let ints =
      String.split_on_char ' ' body
      |> List.filter (fun s -> s <> "")
      |> List.map (fun s ->
             match int_of_string_opt s with
             | Some i -> i
             | None -> failwith ("Subproblem.of_string: not an integer: " ^ s))
    in
    match List.rev ints with
    | 0 :: rev ->
        List.rev_map
          (fun i ->
            if i = 0 then failwith "Subproblem.of_string: 0 inside a line";
            if i > nvars || i < -nvars then
              failwith (Printf.sprintf "Subproblem.of_string: literal %d out of range" i);
            T.lit_of_int i)
          rev
    | _ -> failwith "Subproblem.of_string: line not terminated by 0"
  in
  match lines with
  | header :: rest -> (
      match String.split_on_char ' ' header |> List.filter (fun s -> s <> "") with
      | [ "p"; "subproblem"; nv; _nc ] ->
          let nvars =
            match int_of_string_opt nv with
            | Some n when n >= 0 -> n
            | _ -> failwith "Subproblem.of_string: bad variable count"
          in
          let parse_ints = parse_ints nvars in
          let facts = ref [] and path = ref [] and clauses = ref [] in
          List.iter
            (fun line ->
              if String.length line >= 2 && line.[0] = 'f' && line.[1] = ' ' then
                facts := parse_ints (String.sub line 2 (String.length line - 2))
              else if String.length line >= 2 && line.[0] = 'a' && line.[1] = ' ' then
                path := parse_ints (String.sub line 2 (String.length line - 2))
              else clauses := Array.of_list (parse_ints line) :: !clauses)
            rest;
          { nvars; facts = !facts; path = !path; clauses = List.rev !clauses }
      | _ -> failwith "Subproblem.of_string: missing header")
  | [] -> failwith "Subproblem.of_string: empty document"

let pp ppf t =
  Format.fprintf ppf "subproblem: %d vars, %d clauses, %d facts, path depth %d (%d bytes)"
    t.nvars (nclauses t) (List.length t.facts) (depth t) (bytes t)

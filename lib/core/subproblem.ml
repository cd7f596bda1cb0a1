module T = Sat.Types

type t = {
  nvars : int;
  facts : T.lit list;
  path : T.lit list;
  clauses : Sat.Arena.t;
}

let initial cnf = { nvars = Sat.Cnf.nvars cnf; facts = []; path = []; clauses = Sat.Cnf.clauses cnf }

let nclauses t = Sat.Arena.nclauses t.clauses

let depth t = List.length t.path

(* The size the model has always charged: 48 bytes a clause, 8 a literal
   or root literal, 64 for the message. *)
let bytes t =
  (48 * nclauses t) + (8 * Sat.Arena.nlits t.clauses)
  + (8 * (List.length t.facts + List.length t.path))
  + 64

(* The arena stays the subproblem's: the solver copies the clauses into
   its own arena before it normalises them, and other holders of this
   value (the master's in-flight table, the receiver's origin, heavy
   checkpoints) see it unchanged. *)
let to_solver ~config ?obs ?obs_tid t =
  Sat.Solver.create_with_roots ~config ?obs ?obs_tid ~facts:t.facts ~nvars:t.nvars t.clauses
    t.path

let capture_root solver =
  if not (Sat.Solver.is_ok solver) then invalid_arg "Subproblem.capture: refuted solver";
  {
    nvars = Sat.Solver.nvars solver;
    facts = Sat.Solver.root_facts solver;
    path = Sat.Solver.root_path solver;
    clauses = Sat.Arena.empty;
  }

let capture solver = { (capture_root solver) with clauses = Sat.Solver.active_clauses solver }

(* Marks indexed by literal: [1] for a root literal, [2] for a literal
   whose variable a fact assigns. *)
let prune t =
  let mark = Bytes.make (2 * (t.nvars + 1)) '\000' in
  let set bit l = Bytes.set mark l (Char.chr (Char.code (Bytes.get mark l) lor bit)) in
  List.iter (set 1) t.facts;
  List.iter (set 1) t.path;
  List.iter (fun l -> set 2 l; set 2 (T.negate l)) t.facts;
  let has bit l = Char.code (Bytes.get mark l) land bit <> 0 in
  let { Sat.Arena.lits; starts } = t.clauses in
  let b = Sat.Arena.buffer ~clauses:(nclauses t) ~lits:(Sat.Arena.nlits t.clauses) in
  let rec satisfied p e = p < e && (has 1 lits.(p) || satisfied (p + 1) e) in
  for k = 0 to nclauses t - 1 do
    if not (satisfied starts.(k) starts.(k + 1)) then begin
      for p = starts.(k) to starts.(k + 1) - 1 do
        let l = lits.(p) in
        (* stripped: false by a fact, never by a path literal *)
        if not (has 1 (T.negate l) && has 2 l) then Sat.Arena.push b l
      done;
      Sat.Arena.close b
    end
  done;
  { t with clauses = Sat.Arena.contents b }

(* A subproblem is fully determined by the original formula and its
   guiding path (the paper's Figure 2 invariant): root facts are globally
   implied (the solver re-derives them by propagation) and learned clauses
   are only accelerants.  So the lineage alone reconstructs the branch. *)
let of_lineage cnf path = prune { (initial cnf) with path }

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
  Option.map (fun (_facts, path) -> prune { origin with facts = []; path }) (Sat.Solver.split solver)

let capture_pure ~origin solver = prune { origin with facts = []; path = Sat.Solver.root_path solver }

(* Wire format:
     p subproblem <nvars> <nclauses>
     f <facts as DIMACS ints> 0
     a <path as DIMACS ints> 0
     <clause> 0
     ...
   A digest covers the same fields as words: the two counts, then the
   facts, the path and each clause as a length and literal codes. *)
let emit sink t =
  let open Integrity in
  let { Sat.Arena.lits; starts } = t.clauses in
  put_text sink "p subproblem ";
  put_int sink t.nvars;
  put_text sink " ";
  put_int sink (nclauses t);
  put_text sink "\nf ";
  put_lit_list sink ~sep:' ' t.facts;
  put_text sink "0\na ";
  put_lit_list sink ~sep:' ' t.path;
  put_text sink "0\n";
  for k = 0 to nclauses t - 1 do
    put_lits sink ~sep:' ' lits starts.(k) (starts.(k + 1) - starts.(k));
    put_text sink "0\n"
  done

let to_string t = Integrity.render emit t

(* Each line after the header is the facts ([f ...]), the path ([a ...])
   or one clause.  Every line is read straight into the arena buffer
   after the closed clauses: a clause line is closed there, and a root
   line is copied out as a list. *)
let of_string text =
  let module S = Sat.Dimacs.Scan in
  let sc = S.create ~fail:(fun m -> Failure ("Subproblem.of_string: " ^ m)) text in
  if not (S.more sc) then S.error sc "empty document";
  let nvars, nclauses = S.header sc "subproblem" in
  let b = Sat.Arena.buffer ~clauses:(min nclauses (String.length text / 2)) ~lits:(String.length text / 3) in
  let e = ref 0 and facts = ref [] and path = ref [] in
  let root () =
    let stop = S.lits sc b !e ~nvars in
    let data = Sat.Arena.storage b in
    List.init (stop - !e) (fun k -> data.(!e + k))
  in
  while S.more sc do
    if S.word sc "f" then facts := root ()
    else if S.word sc "a" then path := root ()
    else begin
      e := S.lits sc b !e ~nvars;
      Sat.Arena.close_at b !e
    end
  done;
  { nvars; facts = !facts; path = !path; clauses = Sat.Arena.contents b }

let pp ppf t =
  Format.fprintf ppf "subproblem: %d vars, %d clauses, %d facts, path depth %d (%d bytes)"
    t.nvars (nclauses t) (List.length t.facts) (depth t) (bytes t)

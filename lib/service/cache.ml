module Master = Gridsat_core.Master
module Integrity = Gridsat_core.Integrity

type entry = Model of Sat.Model.t | Unsat_proved

type t = {
  table : (string, entry) Hashtbl.t;
  mutable hits : int;
  mutable stores : int;
}

let create () = { table = Hashtbl.create 16; hits = 0; stores = 0 }

(* Writes the clause [lits.(s .. e - 1)] at [flat.(s)] as its DIMACS
   literals in ascending order.  A Cnf clause is strictly increasing in the
   internal encoding, where variable [v] is [2v] and [-v] is [2v + 1]: the
   DIMACS order is its negative literals by descending variable, then its
   positive ones by ascending variable. *)
let put_dimacs flat (lits : Sat.Types.lit array) s e =
  let j = ref s in
  for k = e - 1 downto s do
    if not (Sat.Types.is_pos lits.(k)) then begin
      flat.(!j) <- Sat.Types.to_int lits.(k);
      incr j
    end
  done;
  for k = s to e - 1 do
    if Sat.Types.is_pos lits.(k) then begin
      flat.(!j) <- Sat.Types.to_int lits.(k);
      incr j
    end
  done

(* Lexicographic order on the clauses [flat.(i .. ei - 1)] and
   [flat.(j .. ej - 1)], a proper prefix first: the order the key has
   always been defined by, so existing keys stay valid. *)
let rec compare_from (flat : int array) i ei j ej =
  if i = ei || j = ej then Int.compare (ei - i) (ej - j)
  else if flat.(i) < flat.(j) then -1
  else if flat.(i) > flat.(j) then 1
  else compare_from flat (i + 1) ei (j + 1) ej

let compare_clauses flat off a b = compare_from flat off.(a) off.(a + 1) off.(b) off.(b + 1)

(* Canonical form: each clause as its sorted DIMACS literals (Cnf
   normalisation already removed duplicate literals), the clause list
   itself sorted and deduplicated.  The formula's identity is exactly
   this set-of-sets plus the variable count, streamed as
   "p <nvars>;" then "<lit> <lit> ... ;" per clause.  The DIMACS literals
   sit in one flat array laid out as the formula's arena, clause [k] at
   [off.(k) .. off.(k + 1) - 1], and only their indices are sorted.  Merge
   sort only because it compares less than heap sort; any sort gives the
   same key. *)
let digest cnf =
  let { Sat.Arena.lits; starts = off } = Sat.Cnf.clauses cnf in
  let n = Sat.Arena.nclauses (Sat.Cnf.clauses cnf) in
  let flat = Array.make (Array.length lits) 0 in
  for k = 0 to n - 1 do
    put_dimacs flat lits off.(k) off.(k + 1)
  done;
  let order = Array.init n Fun.id in
  Array.stable_sort (compare_clauses flat off) order;
  let h = Integrity.hasher () in
  Integrity.add_string h "p ";
  Integrity.add_int h (Sat.Cnf.nvars cnf);
  Integrity.add_char h ';';
  for k = 0 to n - 1 do
    let c = order.(k) in
    if k = 0 || compare_clauses flat off order.(k - 1) c <> 0 then begin
      for p = off.(c) to off.(c + 1) - 1 do
        Integrity.add_int h flat.(p);
        Integrity.add_char h ' '
      done;
      Integrity.add_char h ';'
    end
  done;
  Printf.sprintf "%x-%x" (Integrity.fnv1a_of h) (Integrity.crc32_of h)

let find t ~digest ~cnf =
  match Hashtbl.find_opt t.table digest with
  | None -> None
  | Some Unsat_proved ->
      t.hits <- t.hits + 1;
      Some Master.Unsat
  | Some (Model m) ->
      (* serve-time re-verification against the formula actually
         submitted: a hit never trusts the digest alone *)
      if Sat.Model.satisfies cnf m then begin
        t.hits <- t.hits + 1;
        Some (Master.Sat m)
      end
      else begin
        Hashtbl.remove t.table digest;
        None
      end

let store t ~digest answer =
  if not (Hashtbl.mem t.table digest) then
    match answer with
    | Master.Sat m ->
        Hashtbl.replace t.table digest (Model m);
        t.stores <- t.stores + 1
    | Master.Unsat ->
        Hashtbl.replace t.table digest Unsat_proved;
        t.stores <- t.stores + 1
    | Master.Unknown _ -> ()

let size t = Hashtbl.length t.table

let hits t = t.hits

let stores t = t.stores

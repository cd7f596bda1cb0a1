module Master = Gridsat_core.Master
module Integrity = Gridsat_core.Integrity

type entry = Model of Sat.Model.t | Unsat_proved

type t = {
  table : (string, entry) Hashtbl.t;
  mutable hits : int;
  mutable stores : int;
}

let create () = { table = Hashtbl.create 16; hits = 0; stores = 0 }

(* Lexicographic order on sorted clauses, a proper prefix first: the order
   the key has always been defined by, so existing keys stay valid. *)
let compare_clauses (a : int array) (b : int array) =
  let la = Array.length a and lb = Array.length b in
  let rec from k =
    if k = la || k = lb then Int.compare la lb
    else match Int.compare a.(k) b.(k) with 0 -> from (k + 1) | c -> c
  in
  from 0

(* Canonical form: each clause as its sorted DIMACS literals (Cnf
   normalisation already removed duplicate literals), the clause list
   itself sorted and deduplicated.  The formula's identity is exactly
   this set-of-sets plus the variable count, streamed as
   "p <nvars>;" then "<lit> <lit> ... ;" per clause.  Merge sort only
   because it compares less than heap sort; any sort gives the same key. *)
let digest cnf =
  let clauses =
    Array.of_list (Sat.Cnf.clauses cnf)
    |> Array.map (fun c ->
           let ints = Array.map Sat.Types.to_int c in
           Array.stable_sort Int.compare ints;
           ints)
  in
  Array.stable_sort compare_clauses clauses;
  let h = Integrity.hasher () in
  Integrity.add_string h "p ";
  Integrity.add_int h (Sat.Cnf.nvars cnf);
  Integrity.add_char h ';';
  Array.iteri
    (fun k c ->
      if k = 0 || compare_clauses clauses.(k - 1) c <> 0 then begin
        Array.iter
          (fun l ->
            Integrity.add_int h l;
            Integrity.add_char h ' ')
          c;
        Integrity.add_char h ';'
      end)
    clauses;
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

type t = {
  nvars : int;
  clauses : Types.lit array list; (* reversed insertion order is fine *)
  nliterals : int;
  dropped : int;
  has_empty : bool;
}

(* A sorted copy of the clause without duplicate literals, or [None] if it
   is a tautology (a literal and its negation end up adjacent). *)
let normalise lits =
  let a = Array.copy lits in
  (* merge sort with an insertion-sort cutoff: on short clauses faster
     than the heap sort of [Array.sort] *)
  Array.stable_sort Int.compare a;
  (* compact in place: the first [n] slots hold the distinct literals seen *)
  let n = ref 0 and tautological = ref false in
  for i = 0 to Array.length a - 1 do
    let l = a.(i) in
    if !n = 0 || a.(!n - 1) <> l then begin
      if !n > 0 && a.(!n - 1) lxor l = 1 then tautological := true;
      a.(!n) <- l;
      incr n
    end
  done;
  if !tautological then None else Some (if !n = Array.length a then a else Array.sub a 0 !n)

let check_lit ~nvars l =
  let v = Types.var l in
  if v < 1 || v > nvars then
    invalid_arg
      (Printf.sprintf "Cnf: literal %d out of range (nvars = %d)" (Types.to_int l) nvars)

let of_lit_arrays ~nvars arrays =
  if nvars < 0 then invalid_arg "Cnf: negative nvars";
  let clauses = ref [] and nliterals = ref 0 and dropped = ref 0 and has_empty = ref false in
  let add_clause arr =
    Array.iter (check_lit ~nvars) arr;
    match normalise arr with
    | None -> incr dropped
    | Some c ->
        if Array.length c = 0 then has_empty := true;
        nliterals := !nliterals + Array.length c;
        clauses := c :: !clauses
  in
  List.iter add_clause arrays;
  {
    nvars;
    clauses = List.rev !clauses;
    nliterals = !nliterals;
    dropped = !dropped;
    has_empty = !has_empty;
  }

let make ~nvars clauses =
  let encode c = Array.of_list (List.map Types.lit_of_int c) in
  of_lit_arrays ~nvars (List.map encode clauses)

let nvars t = t.nvars

let nclauses t = List.length t.clauses

let clauses t = t.clauses

let iter f t = List.iter f t.clauses

let nliterals t = t.nliterals

let dropped_tautologies t = t.dropped

let has_empty_clause t = t.has_empty

let clause_eval clause assignment =
  Array.exists
    (fun l ->
      let v = assignment.(Types.var l) in
      if Types.is_pos l then v else not v)
    clause

let eval t assignment =
  if Array.length assignment < t.nvars + 1 then invalid_arg "Cnf.eval: assignment too short";
  List.for_all (fun c -> clause_eval c assignment) t.clauses

let with_extra_clauses t extra =
  let fresh = of_lit_arrays ~nvars:t.nvars extra in
  {
    nvars = t.nvars;
    clauses = t.clauses @ fresh.clauses;
    nliterals = t.nliterals + fresh.nliterals;
    dropped = t.dropped + fresh.dropped;
    has_empty = t.has_empty || fresh.has_empty;
  }

let pp ppf t =
  Format.fprintf ppf "@[<v>cnf: %d vars, %d clauses@," t.nvars (nclauses t);
  List.iter (fun c -> Format.fprintf ppf "%a@," Types.pp_clause c) t.clauses;
  Format.fprintf ppf "@]"

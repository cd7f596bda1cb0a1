type t = {
  nvars : int;
  clauses : Types.lit array list; (* reversed insertion order is fine *)
  nliterals : int;
  dropped : int;
  has_empty : bool;
}

let out_of_range ~nvars l =
  let v = Types.var l in
  v < 1 || v > nvars

let check_lit ~nvars l =
  if out_of_range ~nvars l then
    invalid_arg
      (Printf.sprintf "Cnf: literal %d out of range (nvars = %d)" (Types.to_int l) nvars)

(* In a sorted clause of [n] distinct literals a literal and its negation
   are adjacent. *)
let rec tautological (a : Types.lit array) n k =
  k < n && (a.(k - 1) lxor a.(k) = 1 || tautological a n (k + 1))

(* Literals sort by variable, so only the two ends of the sorted copy [a]
   can be out of range (a negative int has a huge [var]).  The error names
   the first bad literal of the input, as a literal-by-literal check
   would. *)
let check_range ~nvars lits a n =
  if n > 0 && (out_of_range ~nvars a.(0) || out_of_range ~nvars a.(n - 1)) then
    Array.iter (check_lit ~nvars) lits

let normalise ~nvars lits =
  let a = Array.copy lits in
  let len = Array.length a in
  Types.sort_lits a;
  (* compact in place: the first [n] slots hold the distinct literals seen *)
  let n = ref (min len 1) in
  for i = 1 to len - 1 do
    if a.(i) <> a.(!n - 1) then begin
      a.(!n) <- a.(i);
      incr n
    end
  done;
  let n = !n in
  check_range ~nvars lits a n;
  if tautological a n 1 then None else Some (if n = len then a else Array.sub a 0 n)

let of_lit_arrays ~nvars arrays =
  if nvars < 0 then invalid_arg "Cnf: negative nvars";
  let clauses = ref [] and nliterals = ref 0 and dropped = ref 0 and has_empty = ref false in
  let add_clause arr =
    match normalise ~nvars arr with
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

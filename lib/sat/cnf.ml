type t = { nvars : int; clauses : Arena.t; dropped : int; has_empty : bool }

type builder = { bnvars : int; buf : Arena.buf }

let builder ~nvars ~clauses ~lits =
  if nvars < 0 then invalid_arg "Cnf: negative nvars";
  { bnvars = nvars; buf = Arena.buffer ~clauses ~lits }

let buffer b = b.buf

let add b l = Arena.push b.buf l

let end_clause b = Arena.close_normalised ~nvars:b.bnvars b.buf

let build b =
  let clauses = Arena.contents b.buf in
  let rec has_empty k = k > 0 && (clauses.starts.(k) = clauses.starts.(k - 1) || has_empty (k - 1)) in
  { nvars = b.bnvars; clauses; dropped = Arena.dropped b.buf; has_empty = has_empty (Arena.nclauses clauses) }

let of_list ~nvars length push cs =
  let b = builder ~nvars ~clauses:(List.length cs) ~lits:(List.fold_left (fun n c -> n + length c) 0 cs) in
  List.iter
    (fun c ->
      push b c;
      end_clause b)
    cs;
  build b

let of_lit_arrays ~nvars = of_list ~nvars Array.length (fun b c -> Array.iter (add b) c)

let make ~nvars = of_list ~nvars List.length (fun b c -> List.iter (fun i -> add b (Types.lit_of_int i)) c)

(* The formula's own clauses are normalised already: they are only copied. *)
let with_extra_clauses t extra =
  let { Arena.lits; starts } = t.clauses in
  let b = builder ~nvars:t.nvars ~clauses:(Arena.nclauses t.clauses + List.length extra) ~lits:(Array.length lits) in
  for k = 0 to Arena.nclauses t.clauses - 1 do
    Arena.push_slice b.buf lits starts.(k) (starts.(k + 1) - starts.(k));
    Arena.close b.buf
  done;
  List.iter
    (fun c ->
      Array.iter (add b) c;
      end_clause b)
    extra;
  let t' = build b in
  { t' with dropped = t.dropped + t'.dropped }

let normalise ~nvars lits = Arena.normalise ~nvars lits 0 (Array.length lits)

let nvars t = t.nvars

let nclauses t = Arena.nclauses t.clauses

let clauses t = t.clauses

let nliterals t = Arena.nlits t.clauses

let dropped_tautologies t = t.dropped

let has_empty_clause t = t.has_empty

let lit_holds assignment l = if Types.is_pos l then assignment.(Types.var l) else not assignment.(Types.var l)

let clause_eval clause assignment = Array.exists (lit_holds assignment) clause

let eval t assignment =
  if Array.length assignment < t.nvars + 1 then invalid_arg "Cnf.eval: assignment too short";
  let { Arena.lits; starts } = t.clauses in
  let rec holds p e = p < e && (lit_holds assignment lits.(p) || holds (p + 1) e) in
  let rec all k = k = nclauses t || (holds starts.(k) starts.(k + 1) && all (k + 1)) in
  all 0

let pp ppf t =
  Format.fprintf ppf "@[<v>cnf: %d vars, %d clauses@," t.nvars (nclauses t);
  for k = 0 to nclauses t - 1 do
    Format.fprintf ppf "%a@," Types.pp_clause (Arena.clause t.clauses k)
  done;
  Format.fprintf ppf "@]"

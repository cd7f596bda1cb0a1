exception Parse_error of string

module Scan = struct
  type t = { s : string; mutable pos : int; fail : string -> exn }

  let create ~fail s = { s; pos = 0; fail }

  let error t fmt = Printf.ksprintf (fun m -> raise (t.fail m)) fmt

  let[@inline] is_blank c = c = ' ' || c = '\t' || c = '\r'

  let[@inline] is_space c = is_blank c || c = '\n'

  let[@inline] is_digit c = c >= '0' && c <= '9'

  let[@inline] advance t = t.pos <- t.pos + 1

  let peek t =
    while t.pos < String.length t.s && is_blank t.s.[t.pos] do
      advance t
    done;
    if t.pos < String.length t.s then t.s.[t.pos] else '\n'

  let rec more t = peek t <> '\n' || (t.pos < String.length t.s && (advance t; more t))

  let skip_line t =
    t.pos <- Option.value (String.index_from_opt t.s t.pos '\n') ~default:(String.length t.s)

  (* The whitespace-delimited token at the cursor, for error messages. *)
  let token t =
    let e = ref t.pos in
    while !e < String.length t.s && not (is_space t.s.[!e]) do
      incr e
    done;
    String.sub t.s t.pos (!e - t.pos)

  let word t w =
    ignore (peek t);
    let n = String.length w and len = String.length t.s in
    let rec same i = i = n || (t.pos + i < len && t.s.[t.pos + i] = w.[i] && same (i + 1)) in
    same 0 && (t.pos + n = len || is_space t.s.[t.pos + n]) && (t.pos <- t.pos + n; true)

  (* Up to it, [10 * v + d] cannot overflow. *)
  let cutoff = (max_int - 9) / 10

  (* The hot loops make no calls, so the positions stay in registers; the
     cursor moves once, past the integer and the blanks after it. *)
  let int t =
    let s = t.s and len = String.length t.s in
    let p = ref t.pos in
    while !p < len && is_blank s.[!p] do
      incr p
    done;
    t.pos <- !p;
    let neg = !p < len && s.[!p] = '-' in
    if neg || (!p < len && s.[!p] = '+') then incr p;
    let digits = !p and v = ref 0 in
    while !p < len && is_digit s.[!p] && !v <= cutoff do
      v := (10 * !v) + Char.code s.[!p] - 48;
      incr p
    done;
    if !p < len && is_digit s.[!p] then begin
      (* [v] is past the cutoff: one more digit may still fit, two cannot *)
      let d = Char.code s.[!p] - 48 in
      if !v > (max_int - d) / 10 || (!p + 1 < len && is_digit s.[!p + 1]) then
        error t "integer out of range: %s" (token t);
      v := (10 * !v) + d;
      incr p
    end;
    if !p = digits || (!p < len && not (is_space s.[!p])) then
      error t "not an integer: %S" (token t);
    while !p < len && is_blank s.[!p] do
      incr p
    done;
    t.pos <- !p;
    if neg then - !v else !v

  let header t kind =
    if not (word t "p" && word t kind) then error t "malformed problem line: %S" (token t);
    let nvars = int t in
    let nclauses = int t in
    if nvars < 0 || peek t <> '\n' then error t "malformed problem line";
    (nvars, nclauses)

  let rec line t f =
    if peek t = '\n' then error t "line not terminated by 0";
    match int t with
    | 0 -> if peek t <> '\n' then error t "0 inside a line"
    | i ->
        f i;
        line t f
end

let parse_string s =
  let sc = Scan.create ~fail:(fun m -> Parse_error m) s in
  let header = ref None and open_clause = ref false in
  while Scan.more sc do
    match (Scan.peek sc, !header) with
    | 'c', _ -> Scan.skip_line sc
    | '%', _ -> sc.pos <- String.length s
    | 'p', None ->
        let nvars, nclauses = Scan.header sc "cnf" in
        (* a clause takes two bytes at least, a literal about three *)
        let clauses = min nclauses (String.length s / 2) and lits = String.length s / 3 in
        header := Some (Cnf.builder ~nvars ~clauses ~lits, nvars)
    | 'p', Some _ -> Scan.error sc "duplicate problem header"
    | _, None -> Scan.error sc "clause data before 'p cnf' header"
    | _, Some (b, nvars) ->
        (* [Scan.int] leaves the cursor past the blanks after it *)
        while sc.pos < String.length s && s.[sc.pos] <> '\n' do
          match Scan.int sc with
          | 0 ->
              Cnf.end_clause b;
              open_clause := false
          | i ->
              (* not [abs i > nvars]: [abs min_int] is negative *)
              if i > nvars || i < -nvars then
                Scan.error sc "literal %d exceeds declared variable count %d" i nvars;
              Cnf.add b (Types.lit_of_int i);
              open_clause := true
        done
  done;
  match !header with
  | None -> Scan.error sc "missing 'p cnf' header"
  | Some (b, _) ->
      if !open_clause then Cnf.end_clause b;
      Cnf.build b

let parse_file path = parse_string (In_channel.with_open_bin path In_channel.input_all)

let to_string cnf =
  let { Arena.lits; starts } = Cnf.clauses cnf in
  let buf = Buffer.create (32 + (4 * Array.length lits)) in
  Printf.bprintf buf "p cnf %d %d\n" (Cnf.nvars cnf) (Cnf.nclauses cnf);
  for k = 0 to Cnf.nclauses cnf - 1 do
    for p = starts.(k) to starts.(k + 1) - 1 do
      Buffer.add_string buf (string_of_int (Types.to_int lits.(p)));
      Buffer.add_char buf ' '
    done;
    Buffer.add_string buf "0\n"
  done;
  Buffer.contents buf

let write_file path cnf = Out_channel.with_open_bin path (fun oc -> output_string oc (to_string cnf))

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
    let n = String.length w and len = String.length t.s and i = ref 0 in
    while !i < n && t.pos + !i < len && t.s.[t.pos + !i] = w.[!i] do
      incr i
    done;
    !i = n && (t.pos + n = len || is_space t.s.[t.pos + n]) && (t.pos <- t.pos + n; true)

  (* Whether [10 * v] plus the digit [c] is at most [max_int], which is
     [10 * q + r]. *)
  let q = max_int / 10 and r = max_int mod 10

  let[@inline] fits v c = v < q || (v = q && Char.code c - 48 <= r)

  (* The error for the token at [start], which is not an integer: its
     digits stopped at [stop], on a digit only if the value overflowed. *)
  let bad_int t start stop =
    t.pos <- start;
    if stop < String.length t.s && is_digit t.s.[stop] then
      error t "integer out of range: %s" (token t)
    else error t "not an integer: %S" (token t)

  (* The readers below decode integers the same way, in their own loops:
     a call per integer would cost more than its bytes. *)
  let int t =
    let s = t.s and len = String.length t.s in
    let p = ref t.pos in
    while !p < len && is_blank s.[!p] do
      incr p
    done;
    let start = !p in
    let neg = !p < len && s.[!p] = '-' in
    if neg || (!p < len && s.[!p] = '+') then incr p;
    let digits = !p and v = ref 0 in
    while !p < len && is_digit s.[!p] && fits !v s.[!p] do
      v := (10 * !v) + Char.code s.[!p] - 48;
      incr p
    done;
    if !p = digits || (!p < len && not (is_space s.[!p])) then bad_int t start !p;
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

  (* One loop over the line: the cursor and the clause's end stay in
     locals, and each literal goes straight into the buffer's storage. *)
  let lits t b e ~nvars =
    let s = t.s and len = String.length t.s in
    let p = ref t.pos and e = ref e and data = ref (Arena.storage b) and ended = ref false in
    while not !ended do
      while !p < len && is_blank s.[!p] do
        incr p
      done;
      if !p = len || s.[!p] = '\n' then error t "line not terminated by 0";
      let start = !p in
      let neg = s.[!p] = '-' in
      if neg || s.[!p] = '+' then incr p;
      let digits = !p and v = ref 0 in
      while !p < len && is_digit s.[!p] && fits !v s.[!p] do
        v := (10 * !v) + Char.code s.[!p] - 48;
        incr p
      done;
      if !p = digits || (!p < len && not (is_space s.[!p])) then bad_int t start !p;
      if !v = 0 then begin
        while !p < len && is_blank s.[!p] do
          incr p
        done;
        if !p < len && s.[!p] <> '\n' then error t "0 inside a line";
        ended := true
      end
      else begin
        if !v > nvars then error t "literal %d out of range" (if neg then - !v else !v);
        if !e = Array.length !data then data := Arena.grow_storage b !e;
        !data.(!e) <- (!v lsl 1) lor Bool.to_int neg;
        incr e
      end
    done;
    t.pos <- !p;
    !e
end

(* Closes the clause written up to [e], normalising it only if it was
   not read canonical; returns where the next clause starts. *)
let close_clause ~nvars b ~canonical e =
  if canonical then (Arena.close_at b e; e) else Arena.close_normalised_at ~nvars b e

let parse_string s =
  let sc = Scan.create ~fail:(fun m -> Parse_error m) s in
  while Scan.more sc && Scan.peek sc = 'c' do
    Scan.skip_line sc
  done;
  (match Scan.peek sc with
  | 'p' -> ()
  | '\n' | '%' -> Scan.error sc "missing 'p cnf' header"
  | _ -> Scan.error sc "clause data before 'p cnf' header");
  let nvars, nclauses = Scan.header sc "cnf" in
  let len = String.length s in
  (* a clause takes two bytes at least, a literal about three *)
  let cnf = Cnf.builder ~nvars ~clauses:(min nclauses (len / 2)) ~lits:(len / 3) in
  let b = Cnf.buffer cnf in
  (* The open clause is [data.(start .. e - 1)].  It is canonical (sorted,
     distinct, no literal beside its negation, so already normalised)
     while each literal exceeds [prev lor 1]: [Types] encodes [v] as [2v]
     and [-v] as [2v + 1]. *)
  let data = ref (Arena.storage b) and start = ref 0 and e = ref 0 in
  let prev = ref min_int and canonical = ref true in
  let p = ref sc.pos and line_start = ref false in
  while !p < len do
    match s.[!p] with
    | ' ' | '\t' | '\r' -> incr p
    | '\n' ->
        incr p;
        line_start := true
    | 'c' when !line_start ->
        while !p < len && s.[!p] <> '\n' do
          incr p
        done
    | '%' when !line_start -> p := len
    | 'p' when !line_start -> Scan.error sc "duplicate problem header"
    | c ->
        line_start := false;
        let token = !p in
        let neg = c = '-' in
        if neg || c = '+' then incr p;
        let digits = !p and v = ref 0 in
        while !p < len && Scan.is_digit s.[!p] && Scan.fits !v s.[!p] do
          v := (10 * !v) + Char.code s.[!p] - 48;
          incr p
        done;
        if !p = digits || (!p < len && not (Scan.is_space s.[!p])) then Scan.bad_int sc token !p;
        if !v = 0 then begin
          e := close_clause ~nvars b ~canonical:!canonical !e;
          start := !e;
          prev := min_int;
          canonical := true
        end
        else begin
          if !v > nvars then
            Scan.error sc "literal %d exceeds declared variable count %d" (if neg then - !v else !v)
              nvars;
          let l = (!v lsl 1) lor Bool.to_int neg in
          if l <= !prev lor 1 then canonical := false;
          prev := l;
          if !e = Array.length !data then data := Arena.grow_storage b !e;
          !data.(!e) <- l;
          incr e
        end
  done;
  (* a last clause without its 0 is kept *)
  if !e > !start then ignore (close_clause ~nvars b ~canonical:!canonical !e);
  Cnf.build cnf

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

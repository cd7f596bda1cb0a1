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
   positive ones by ascending variable.  One pass counts the negative
   literals; the next places each literal by arithmetic on its sign bit,
   not by a branch on a sign that is a coin flip in a random formula. *)
let put_dimacs flat (lits : Sat.Types.lit array) s e =
  let negs = ref 0 in
  for k = s to e - 1 do
    negs := !negs + (lits.(k) land 1)
  done;
  (* the next negative literal goes at [down], the next positive at [up] *)
  let down = ref (s + !negs - 1) and up = ref (s + !negs) in
  for k = s to e - 1 do
    let neg = lits.(k) land 1 and v = lits.(k) lsr 1 in
    flat.((neg * !down) + ((1 - neg) * !up)) <- v - (2 * neg * v);
    down := !down - neg;
    up := !up + 1 - neg
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

(* The number of bits [x >= 0] needs. *)
let bits x =
  let b = ref 0 in
  while x lsr !b <> 0 do
    incr b
  done;
  !b

(* This domain's scratch arrays, reused by every digest that fits in
   [keep] words, as [Sat.Arena.buffer] reuses its buffer: [flat] holds the
   DIMACS literals, [keys] the packed clause keys. *)
type scratch = { mutable flat : int array; mutable keys : int array }

let keep = 1 lsl 20

let kept = Domain.DLS.new_key (fun () -> { flat = [||]; keys = [||] })

let scratch ~lits ~clauses =
  let grow a need = if need <= Array.length a then a else Array.make (max need (min keep (2 * Array.length a))) 0 in
  if lits > keep || clauses > keep then { flat = Array.make lits 0; keys = Array.make clauses 0 }
  else begin
    let s = Domain.DLS.get kept in
    s.flat <- grow s.flat lits;
    s.keys <- grow s.keys clauses;
    s
  end

(* Canonical form: each clause as its sorted DIMACS literals (Cnf
   normalisation already removed duplicate literals), the clause list
   itself sorted and deduplicated.  The formula's identity is exactly
   this set-of-sets plus the variable count, streamed as
   "p <nvars>;" then "<lit> <lit> ... ;" per clause.  The DIMACS literals
   sit in [flat] laid out as the formula's arena, clause [c] at
   [off.(c) .. off.(c + 1) - 1].

   The clause order is found on ints.  Clause [c]'s key packs its first
   [k] literals, each offset by [nvars + 1] into [1 .. 2 nvars + 1] so
   that 0 marks "clause ended" and a proper prefix sorts first, above [c]
   itself in the low bits; [k] is as many literals as fit in 62 bits.
   Keys order clauses exactly as [compare_clauses] does unless their
   first [k] literals tie, so after one int sort only a run of equal
   prefixes that holds a clause longer than [k] is ordered again by
   [compare_clauses]; in any other run every clause is the same clause. *)
let digest cnf =
  let ({ Sat.Arena.lits; starts = off } as clauses) = Sat.Cnf.clauses cnf in
  let n = Sat.Arena.nclauses clauses and nvars = Sat.Cnf.nvars cnf in
  let { flat; keys } = scratch ~lits:(Array.length lits) ~clauses:n in
  let lit_bits = bits ((2 * nvars) + 1) and idx_bits = bits (max 0 (n - 1)) in
  let k = (62 - idx_bits) / lit_bits in
  for c = 0 to n - 1 do
    let s = off.(c) and e = off.(c + 1) in
    put_dimacs flat lits s e;
    let key = ref 0 in
    for j = s to s + k - 1 do
      key := (!key lsl lit_bits) lor if j < e then flat.(j) + nvars + 1 else 0
    done;
    keys.(c) <- (!key lsl idx_bits) lor c
  done;
  Sat.Types.sort_sub keys 0 n;
  let h = Integrity.hasher () in
  Integrity.add_string h "p ";
  Integrity.add_int h nvars;
  Integrity.add_char h ';';
  let mask = (1 lsl idx_bits) - 1 and i = ref 0 in
  while !i < n do
    (* the run [i, j) of keys with one prefix, turned into clause indices *)
    let prefix = keys.(!i) lsr idx_bits and j = ref !i and long = ref false in
    while !j < n && keys.(!j) lsr idx_bits = prefix do
      let c = keys.(!j) land mask in
      keys.(!j) <- c;
      if off.(c + 1) - off.(c) > k then long := true;
      incr j
    done;
    if !long && !j - !i > 1 then begin
      let run = Array.sub keys !i (!j - !i) in
      Array.stable_sort (compare_clauses flat off) run;
      Array.blit run 0 keys !i (!j - !i)
    end;
    for x = !i to !j - 1 do
      let c = keys.(x) in
      if x = !i || (!long && compare_clauses flat off keys.(x - 1) c <> 0) then begin
        Integrity.add_ints h ~sep:' ' flat off.(c) (off.(c + 1) - off.(c));
        Integrity.add_char h ';'
      end
    done;
    i := !j
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

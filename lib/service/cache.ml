module Master = Gridsat_core.Master
module Integrity = Gridsat_core.Integrity

type entry = Model of Sat.Model.t | Unsat_proved

type t = {
  table : (string, entry) Hashtbl.t;
  mutable hits : int;
  mutable stores : int;
}

let create () = { table = Hashtbl.create 16; hits = 0; stores = 0 }

(* The digest's scratch arrays, from spare slots ([Sat.Arena.take_ints]):
   [hashes] holds each clause's word digest, [set] the open-addressed set
   of distinct clauses, as clause index + 1 (0 is an empty slot). *)
let hashes_slot = Sat.Arena.ints ()

let set_slot = Sat.Arena.ints ()

(* The second lane's mix of a clause digest: a bijection unrelated to the
   word lane's own steps, so that the two sums below are independent. *)
let remix h =
  let h = (h lxor (h lsr 31)) * 0x1C69B3F74AC4AE35 in
  h lxor (h lsr 29)

(* The clauses [a] and [b] hold the same literals.  Cnf keeps each
   clause's literals sorted and free of duplicates, so the same set is the
   same sequence. *)
let same_clause (lits : Sat.Types.lit array) (starts : int array) a b =
  let pa = starts.(a) and pb = starts.(b) in
  let len = starts.(a + 1) - pa in
  len = starts.(b + 1) - pb
  &&
  let rec from k = k = len || (lits.(pa + k) = lits.(pb + k) && from (k + 1)) in
  from 0

(* The key of a clause set.  Each clause is hashed as its normalised
   literal codes; an open-addressed table of clause indices finds the
   distinct clauses, comparing their literals on a digest tie, so a
   duplicate counts once.  The distinct digests are summed into two
   lanes, one of them remixed, and each sum is sealed with its lane,
   [nvars] and the number of distinct clauses: the order of clauses and
   literals cannot move the key.  O(literals), no sort. *)
let digest cnf =
  let ({ Sat.Arena.lits; starts } as clauses) = Sat.Cnf.clauses cnf in
  let n = Sat.Arena.nclauses clauses and nvars = Sat.Cnf.nvars cnf in
  let slots = ref 16 in
  while !slots < 2 * n do
    slots := 2 * !slots
  done;
  let slots = !slots in
  let hashes = Sat.Arena.take_ints hashes_slot (max n 64) and set = Sat.Arena.take_ints set_slot slots in
  Array.fill set 0 slots 0;
  let mask = slots - 1 and distinct = ref 0 and a = ref 0 and b = ref 0 in
  for c = 0 to n - 1 do
    let h = Integrity.word_digest lits starts.(c) (starts.(c + 1) - starts.(c)) in
    hashes.(c) <- h;
    let slot = ref (h land mask) and probing = ref true in
    while !probing do
      let d = set.(!slot) - 1 in
      if d < 0 then begin
        set.(!slot) <- c + 1;
        probing := false;
        incr distinct;
        a := !a + h;
        b := !b + remix h
      end
      else if hashes.(d) = h && same_clause lits starts d c then probing := false
      else slot := (!slot + 1) land mask
    done
  done;
  Sat.Arena.give hashes_slot hashes;
  Sat.Arena.give set_slot set;
  let seal lane sum = Integrity.word_digest [| lane; nvars; !distinct; sum |] 0 4 in
  Printf.sprintf "%016x-%08x" (seal 0 !a) (seal 1 !b land 0xFFFF_FFFF)

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

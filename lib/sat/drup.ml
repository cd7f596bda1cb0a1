module T = Types

type step = Add of T.lit array | Delete of T.lit array

type t = step list

(* A small, self-contained unit-propagation engine over occurrence lists.
   Deliberately independent of the CDCL solver: it shares no code with it,
   so a checked proof does not trust the solver's propagation. *)
module Engine = struct
  (* Clause [idx] is [src.(idx).(off.(idx) .. off.(idx) + len.(idx) - 1)]:
     the formula's clauses are read in place from its arena, and a proof
     step's clause is its own array. *)
  type engine = {
    nvars : int;
    mutable src : T.lit array array;
    mutable off : int array;
    mutable len : int array;
    mutable nclauses : int;
    mutable deleted : bool array;
    occ : int list array; (* literal -> indices of clauses containing it *)
  }

  let create nvars =
    {
      nvars;
      src = Array.make 16 [||];
      off = Array.make 16 0;
      len = Array.make 16 0;
      nclauses = 0;
      deleted = Array.make 16 false;
      occ = Array.make (2 * (nvars + 1)) [];
    }

  let add_slice e lits pos n =
    if e.nclauses = Array.length e.src then begin
      let grow a fill =
        let b = Array.make (2 * e.nclauses) fill in
        Array.blit a 0 b 0 e.nclauses;
        b
      in
      e.src <- grow e.src [||];
      e.off <- grow e.off 0;
      e.len <- grow e.len 0;
      e.deleted <- grow e.deleted false
    end;
    let idx = e.nclauses in
    e.src.(idx) <- lits;
    e.off.(idx) <- pos;
    e.len.(idx) <- n;
    e.nclauses <- idx + 1;
    for p = pos to pos + n - 1 do
      e.occ.(lits.(p)) <- idx :: e.occ.(lits.(p))
    done

  let add e lits = add_slice e lits 0 (Array.length lits)

  let of_cnf cnf =
    let e = create (Cnf.nvars cnf) and { Arena.lits; starts } = Cnf.clauses cnf in
    for k = 0 to Cnf.nclauses cnf - 1 do
      add_slice e lits starts.(k) (starts.(k + 1) - starts.(k))
    done;
    e

  (* Lenient deletion (standard for DRUP): remove one clause with exactly
     these literals as a set; ignore if absent. *)
  let delete e lits =
    let target = List.sort_uniq compare (Array.to_list lits) in
    let matches idx =
      (not e.deleted.(idx))
      && List.sort_uniq compare (Array.to_list (Array.sub e.src.(idx) e.off.(idx) e.len.(idx))) = target
    in
    match lits with
    | [||] -> ()
    | _ ->
        let candidates = e.occ.(lits.(0)) in
        (match List.find_opt matches candidates with
        | Some idx -> e.deleted.(idx) <- true
        | None -> ())

  (* Unit propagation starting from [assumptions] (literals taken as true).
     Returns [true] iff a conflict is reached.  Fresh assignment state per
     call. *)
  let propagates_to_conflict e assumptions =
    let value = Array.make (e.nvars + 1) T.Unknown in
    let lit_value l = T.lit_value value.(T.var l) l in
    let queue = Queue.create () in
    let conflict = ref false in
    let assign l =
      match lit_value l with
      | T.True -> ()
      | T.False -> conflict := true
      | T.Unknown ->
          value.(T.var l) <- (if T.is_pos l then T.True else T.False);
          Queue.push l queue
    in
    List.iter assign assumptions;
    (* also propagate pre-existing unit clauses *)
    for idx = 0 to e.nclauses - 1 do
      if (not e.deleted.(idx)) && e.len.(idx) = 1 then assign e.src.(idx).(e.off.(idx))
    done;
    while (not !conflict) && not (Queue.is_empty queue) do
      let l = Queue.pop queue in
      let falsified = T.negate l in
      List.iter
        (fun idx ->
          if (not !conflict) && not e.deleted.(idx) then begin
            let lits = e.src.(idx) in
            let satisfied = ref false in
            let unassigned = ref [] in
            for p = e.off.(idx) to e.off.(idx) + e.len.(idx) - 1 do
              match lit_value lits.(p) with
              | T.True -> satisfied := true
              | T.Unknown -> unassigned := lits.(p) :: !unassigned
              | T.False -> ()
            done;
            if not !satisfied then
              match !unassigned with
              | [] -> conflict := true
              | [ u ] -> assign u
              | _ -> ()
          end)
        e.occ.(falsified)
    done;
    !conflict
end

let check_clause_rup cnf earlier clause =
  let e = Engine.of_cnf cnf in
  List.iter (Engine.add e) earlier;
  Engine.propagates_to_conflict e (List.map T.negate (Array.to_list clause))

(* Proof text arriving over the network is untrusted: a literal whose
   variable exceeds the formula's range would index out of the engine's
   arrays, so every step is bounds-checked before it touches the engine. *)
let check_under cnf ~assumptions proof =
  let nvars = Cnf.nvars cnf in
  let in_bounds l =
    let v = T.var l in
    v >= 1 && v <= nvars
  in
  let bad_lits lits = List.find_opt (fun l -> not (in_bounds l)) (Array.to_list lits) in
  let e = Engine.of_cnf cnf in
  let rec replay i = function
    | [] ->
        (* implicit final empty clause: the accumulated database must be
           unit-refutable under the assumptions *)
        if Engine.propagates_to_conflict e assumptions then Ok ()
        else Error "proof does not derive the empty clause"
    | Add [||] :: _ ->
        if Engine.propagates_to_conflict e assumptions then Ok ()
        else Error (Printf.sprintf "step %d: explicit empty clause is not RUP" i)
    | Add lits :: rest -> (
        match bad_lits lits with
        | Some l -> Error (Printf.sprintf "step %d: literal %d out of range" i (T.to_int l))
        | None ->
            let negated = List.map T.negate (Array.to_list lits) in
            if Engine.propagates_to_conflict e (assumptions @ negated) then begin
              Engine.add e lits;
              replay (i + 1) rest
            end
            else Error (Format.asprintf "step %d: clause %a is not RUP" i T.pp_clause lits))
    | Delete lits :: rest -> (
        match bad_lits lits with
        | Some l -> Error (Printf.sprintf "step %d: literal %d out of range" i (T.to_int l))
        | None ->
            Engine.delete e lits;
            replay (i + 1) rest)
  in
  match List.find_opt (fun l -> not (in_bounds l)) assumptions with
  | Some l -> Error (Printf.sprintf "assumption literal %d out of range" (T.to_int l))
  | None -> if Cnf.has_empty_clause cnf then Ok () else replay 0 proof

let check cnf proof = check_under cnf ~assumptions:[] proof

(* ---------- DRUP text format ---------- *)

(* [n >= 0] in decimal, with no string made for it. *)
let rec add_digits buf n =
  if n >= 10 then add_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 + (n mod 10)))

let to_string proof =
  let buf = Buffer.create 4096 in
  List.iter
    (fun step ->
      let lits = match step with Add l -> l | Delete l -> Buffer.add_string buf "d "; l in
      for k = 0 to Array.length lits - 1 do
        let i = T.to_int lits.(k) in
        if i < 0 then Buffer.add_char buf '-';
        add_digits buf (abs i);
        Buffer.add_char buf ' '
      done;
      Buffer.add_string buf "0\n")
    proof;
  Buffer.contents buf

(* Each line is read into this domain's arena buffer, as scratch, and
   copied out as its step's clause. *)
let of_string text =
  let sc = Dimacs.Scan.create ~fail:(fun m -> Failure ("Drup.of_string: " ^ m)) text in
  let b = Arena.buffer ~clauses:0 ~lits:0 and steps = ref [] in
  while Dimacs.Scan.more sc do
    let delete = Dimacs.Scan.word sc "d" in
    let e = Dimacs.Scan.lits sc b 0 ~nvars:max_int in
    let lits = Array.sub (Arena.storage b) 0 e in
    steps := (if delete then Delete lits else Add lits) :: !steps
  done;
  (* hands the buffer back for the next build *)
  ignore (Arena.contents b : Arena.t);
  List.rev !steps

module T = Types

type elimination = { var : int; pos_clauses : T.lit array list }

type result = {
  cnf : Cnf.t;
  clauses_before : int;
  clauses_after : int;
  eliminated : int;
  subsumed : int;
  strengthened : int;
  elims : elimination list; (* most recent first *)
}

(* Working state: clauses as normalised literal arrays, None when removed. *)
type state = {
  nvars : int;
  mutable clauses : T.lit array option array;
  mutable n : int;
  mutable subsumed : int;
  mutable strengthened : int;
  mutable elims : elimination list;
}

let add_clause st lits =
  if st.n = Array.length st.clauses then begin
    let a = Array.make (max 16 (2 * st.n)) None in
    Array.blit st.clauses 0 a 0 st.n;
    st.clauses <- a
  end;
  st.clauses.(st.n) <- Some lits;
  st.n <- st.n + 1

let occurrences st =
  let occ = Array.make (2 * (st.nvars + 1)) [] in
  for i = 0 to st.n - 1 do
    match st.clauses.(i) with
    | Some lits -> Array.iter (fun l -> occ.(l) <- i :: occ.(l)) lits
    | None -> ()
  done;
  occ

(* is [small] a subset of [big]?  both sorted *)
let subset small big =
  let ns = Array.length small and nb = Array.length big in
  let rec loop i j =
    if i >= ns then true
    else if j >= nb then false
    else if small.(i) = big.(j) then loop (i + 1) (j + 1)
    else if small.(i) > big.(j) then loop i (j + 1)
    else false
  in
  ns <= nb && loop 0 0

(* subset except that [small] contains [p] where [big] contains [negate p] *)
let subset_modulo small big p =
  Array.for_all
    (fun l -> if l = p then Array.exists (fun b -> b = T.negate p) big else Array.exists (fun b -> b = l) big)
    small

(* One subsumption + self-subsumption sweep.  Returns true if anything
   changed. *)
let subsumption_round st =
  let occ = occurrences st in
  let changed = ref false in
  (* candidate subsumers visit clauses sharing their rarest literal *)
  let rarest lits =
    Array.fold_left
      (fun best l -> if List.length occ.(l) < List.length occ.(best) then l else best)
      lits.(0) lits
  in
  for i = 0 to st.n - 1 do
    match st.clauses.(i) with
    | None -> ()
    | Some small ->
        if Array.length small > 0 then begin
          (* plain subsumption of longer clauses sharing the rarest literal *)
          List.iter
            (fun j ->
              if j <> i then
                match st.clauses.(j) with
                | Some big when subset small big ->
                    st.clauses.(j) <- None;
                    st.subsumed <- st.subsumed + 1;
                    changed := true
                | _ -> ())
            occ.(rarest small);
          (* self-subsuming resolution: for each literal p of [small], a
             clause containing ~p and the rest of [small] loses ~p *)
          Array.iter
            (fun p ->
              List.iter
                (fun j ->
                  if j <> i then
                    match st.clauses.(j) with
                    | Some big when subset_modulo small big p ->
                        let stronger =
                          Array.of_list
                            (List.filter (fun l -> l <> T.negate p) (Array.to_list big))
                        in
                        st.clauses.(j) <- Some stronger;
                        st.strengthened <- st.strengthened + 1;
                        changed := true
                    | _ -> ())
                occ.(T.negate p))
            small
        end
  done;
  !changed

(* Bounded variable elimination: replace a variable's clauses by their
   resolvents when that does not grow the database. *)
let elimination_round st =
  let changed = ref false in
  let occ = ref (occurrences st) in
  for v = 1 to st.nvars do
    let live lit = List.filter (fun j -> st.clauses.(j) <> None) !occ.(lit) in
    let pos = live (T.pos v) and neg = live (T.neg v) in
    let npos = List.length pos and nneg = List.length neg in
    if npos + nneg > 0 && npos * nneg <= npos + nneg && npos + nneg <= 20 then begin
      let clause j = match st.clauses.(j) with Some c -> c | None -> assert false in
      let resolve cp cn =
        let c = Array.of_list (List.filter (fun l -> T.var l <> v) (Array.to_list cp @ Array.to_list cn)) in
        Arena.normalise ~nvars:st.nvars c 0 (Array.length c)
      in
      let resolvents =
        List.concat_map (fun jp -> List.filter_map (fun jn -> resolve (clause jp) (clause jn)) neg) pos
      in
      (* record the positive side for model extension, then rewrite *)
      st.elims <- { var = v; pos_clauses = List.map clause pos } :: st.elims;
      List.iter (fun j -> st.clauses.(j) <- None) (pos @ neg);
      List.iter (add_clause st) resolvents;
      occ := occurrences st;
      changed := true
    end
  done;
  !changed

(* At most three rounds of subsumption then elimination. *)
let max_rounds = 3

let run cnf =
  let st =
    {
      nvars = Cnf.nvars cnf;
      clauses = Array.make (max 16 (Cnf.nclauses cnf)) None;
      n = 0;
      subsumed = 0;
      strengthened = 0;
      elims = [];
    }
  in
  for k = 0 to Cnf.nclauses cnf - 1 do
    add_clause st (Arena.clause (Cnf.clauses cnf) k)
  done;
  let before = st.n in
  let rec rounds k =
    if k > 0 then begin
      let a = subsumption_round st in
      let b = elimination_round st in
      if a || b then rounds (k - 1)
    end
  in
  rounds max_rounds;
  let survivors = List.filter_map Fun.id (Array.to_list st.clauses) in
  {
    cnf = Cnf.of_lit_arrays ~nvars:st.nvars survivors;
    clauses_before = before;
    clauses_after = List.length survivors;
    eliminated = List.length st.elims;
    subsumed = st.subsumed;
    strengthened = st.strengthened;
    elims = st.elims;
  }

let extend (result : result) model =
  let a = Model.to_array model in
  let lit_true l = if T.is_pos l then a.(T.var l) else not a.(T.var l) in
  (* reverse elimination order = head-first, since elims is newest-first *)
  List.iter
    (fun { var; pos_clauses } ->
      let forced_true =
        List.exists
          (fun c -> Array.for_all (fun l -> T.var l = var || not (lit_true l)) c)
          pos_clauses
      in
      a.(var) <- forced_true)
    result.elims;
  Model.of_array a

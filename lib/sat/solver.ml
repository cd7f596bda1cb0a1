module T = Types

(* A clause is one int block.  Slot 0 is the header: bit 0 is set once
   the clause is deleted, bit 1 marks a learned clause, and the bits from
   2 up hold the literal count [n].  Slots [1 .. n] are the literals, the
   watched ones in slots 1 and 2.  A learned clause ends with two slots
   holding the bits of its activity, a float (see [activity]).  Root
   strengthening rewrites the literals in place and lowers [n], so a block
   may have unused slots between its literals and its end. *)
type clause = int array

type restart_strategy = Luby | Geometric of float | Fixed

type config = {
  decay_interval : int;
  decay_factor : float;
  restarts_enabled : bool;
  restart_base : int;
  restart_strategy : restart_strategy;
  mem_limit_bytes : int;
  learned_cap_factor : float;
  learned_cap_min : int;
  reduce_db_enabled : bool;
  share_export_max : int;
  capture_conflicts : bool;
  random_decision_freq : float;
  emit_proof : bool;
  minimize_learned : bool;
  phase_saving : bool;
  seed : int;
}

let default_config =
  {
    decay_interval = 256;
    decay_factor = 0.5;
    restarts_enabled = true;
    restart_base = 128;
    restart_strategy = Luby;
    mem_limit_bytes = 256 * 1024 * 1024;
    learned_cap_factor = 2.0;
    learned_cap_min = 5_000;
    reduce_db_enabled = true;
    share_export_max = 16;
    capture_conflicts = false;
    random_decision_freq = 0.02;
    emit_proof = false;
    minimize_learned = false;
    phase_saving = false;
    seed = 0;
  }

type outcome = Sat of Model.t | Unsat | Budget_exhausted | Mem_pressure

type conflict_info = {
  conflicting_clause : T.lit array;
  conflicting_var : int;
  implication_graph : (int * int * T.lit array option) list;
  learned : T.lit array;
  uip_var : int;
  backjump_level : int;
}

let size (c : clause) = c.(0) lsr 2

let is_deleted (c : clause) = c.(0) land 1 <> 0

let is_learned (c : clause) = c.(0) land 2 <> 0

let set_size (c : clause) n = c.(0) <- (n lsl 2) lor (c.(0) land 3)

(* A block for [n] literals, all still 0. *)
let block ~learned n =
  let c = Array.make (if learned then n + 3 else n + 1) 0 in
  c.(0) <- (n lsl 2) lor if learned then 2 else 0;
  c

(* A fresh array of the clause's literals, for callers outside the
   solver and for proof steps. *)
let lits (c : clause) = Array.sub c 1 (size c)

(* A learned clause's activity: the high and the low 32 bits of the float
   in its last two slots.  Both are inlined, so the float stays unboxed
   and reading or bumping an activity allocates nothing. *)
let[@inline] activity (c : clause) =
  let e = Array.length c in
  Int64.float_of_bits
    (Int64.logor (Int64.shift_left (Int64.of_int c.(e - 2)) 32) (Int64.of_int c.(e - 1)))

let[@inline] set_activity (c : clause) a =
  let bits = Int64.bits_of_float a and e = Array.length c in
  c.(e - 2) <- Int64.to_int (Int64.shift_right_logical bits 32);
  c.(e - 1) <- Int64.to_int bits land 0xFFFF_FFFF

(* The "no clause" value: the reason of decisions and root units, and the
   filler of unused watch slots.  It is marked deleted, so code that
   skips deleted clauses skips it too.  Arrays of clauses are made with
   it: a long [Array.make] whose element is a young block forces a minor
   collection, and this one is old after the program's first. *)
let dummy_clause : clause = [| 1 |]

(* Literal values, one byte per literal in [t.vals]. *)
let v_unknown = '\000'

let v_true = '\001'

let v_false = '\002'

type t = {
  cfg : config;
  nvars : int;
  vals : Bytes.t; (* literal -> [v_unknown], [v_true] or [v_false] *)
  levels : int array; (* var -> decision level (valid when assigned) *)
  reasons : clause array; (* var -> antecedent, [dummy_clause] if none *)
  tainted : bool array;
      (* var -> the root-level assignment of this variable depends on a
         guiding-path assumption (so it is NOT implied by the global
         formula).  Tainted literals are kept inside clauses and re-enter
         learned clauses, which keeps every clause in the database — and
         hence every shared clause — valid for the global problem. *)
  score : float array; (* literal -> VSIDS counter *)
  var_activity : float array; (* var -> the larger of its two literal scores: the heap key *)
  (* The clauses watching literal [l]: entry [i < watch_n.(l)] is clause
     [watch_cls.(l).(i)] with "blocker" [watch_blk.(l).(i)], some other
     literal of the clause (usually the other watch).  If the blocker is
     true the clause is satisfied and need not be dereferenced at all —
     the classic mem-traffic optimisation for two-watched-literal BCP.
     Every list starts as the empty array and grows on the first push. *)
  watch_cls : clause array array;
  watch_blk : T.lit array array;
  watch_n : int array;
  order : Heap.t;
  trail : T.lit Vec.t;
  trail_lim : int Vec.t; (* trail index where each decision level starts *)
  mutable qhead : int;
  clauses : clause Vec.t; (* original problem clauses *)
  learnts : clause Vec.t;
  mutable ok : bool;
  seen : bool array;
  phase : bool array; (* var -> last assigned polarity (for phase saving) *)
  mutable var_inc : float;
  mutable cla_inc : float;
  stats : Stats.t;
  mutable conflicts_since_restart : int;
  mutable restart_limit : int;
  mutable luby_index : int;
  mutable n_active_clauses : int;
  mutable db_lits : int; (* total literal slots across active clauses *)
  pending_foreign : T.lit array Queue.t;
  fresh_shares : T.lit array Queue.t;
  mutable last_simplify_trail : int; (* root trail size at last simplification *)
  mutable proof_rev : Drup.step list; (* DRUP proof, newest step first *)
  rng : Random.State.t;
  learnt_buf : T.lit Vec.t; (* [analyze] scratch: the clause being learned *)
  to_clear : int Vec.t; (* [analyze] scratch: variables marked [seen] *)
  root_buf : T.lit Vec.t; (* [strip_root] scratch: the kept false literals *)
  mutable root_unknown : int; (* [count_root] results *)
  mutable root_kept : int;
  mutable bcp_ns : int; (* monotonic nanoseconds inside [propagate] *)
  mutable run_ns : int; (* ... and inside [run] *)
  (* telemetry: [obs_on] is the single hot-path guard; the instrument
     handles are resolved once at construction so recording is a mutable
     store, never a registry lookup *)
  obs : Obs.t;
  obs_on : bool;
  obs_tid : int;
  mutable obs_parent : Obs.Span.id; (* span to parent solver phases under *)
  c_decisions : Obs.Metrics.counter;
  c_conflicts : Obs.Metrics.counter;
  c_learned : Obs.Metrics.counter;
  c_restarts : Obs.Metrics.counter;
}

let nvars t = t.nvars

let decision_level t = Vec.size t.trail_lim

let n_learned t = Vec.size t.learnts

let is_ok t = t.ok

let stats t = t.stats

let set_obs_parent t sid = t.obs_parent <- sid

(* Accounting: 48 bytes of per-clause overhead + 8 per literal slot. *)
let db_bytes t = (48 * t.n_active_clauses) + (8 * t.db_lits)

(* Hot-path truth tests: one byte load and a constant compare. *)
let lit_true t l = Bytes.unsafe_get t.vals l = v_true

let lit_false t l = Bytes.unsafe_get t.vals l = v_false

let lit_unknown t l = Bytes.unsafe_get t.vals l = v_unknown

let var_unknown t v = lit_unknown t (T.pos v)

let value_of_lit t l =
  let b = Bytes.get t.vals l in
  if b = v_true then T.True else if b = v_false then T.False else T.Unknown

let value_of_var t v = value_of_lit t (T.pos v)

let level_of_var t v =
  if var_unknown t v then invalid_arg "Solver.level_of_var: unassigned variable" else t.levels.(v)

let antecedent_of_var t v =
  let c = t.reasons.(v) in
  if is_deleted c then None else Some (lits c)

let trail_literals t = Vec.to_list t.trail

(* Proof steps are built only while a proof is recorded.  A step copies
   its clause's literals: the solver permutes and strengthens clauses in
   place. *)
let proof_add t c = if t.cfg.emit_proof then t.proof_rev <- Drup.Add (lits c) :: t.proof_rev

let proof_unit t l = if t.cfg.emit_proof then t.proof_rev <- Drup.Add [| l |] :: t.proof_rev

let proof_refute t = if t.cfg.emit_proof then t.proof_rev <- Drup.Add [||] :: t.proof_rev

let proof_delete t c = if t.cfg.emit_proof then t.proof_rev <- Drup.Delete (lits c) :: t.proof_rev

let proof t = List.rev t.proof_rev

let root_lits t =
  let stop = if Vec.is_empty t.trail_lim then Vec.size t.trail else Vec.get t.trail_lim 0 in
  let rec loop i acc = if i < 0 then acc else loop (i - 1) (Vec.get t.trail i :: acc) in
  loop (stop - 1) []

let root_facts t = List.filter (fun l -> not t.tainted.(T.var l)) (root_lits t)

let root_path t = List.filter (fun l -> t.tainted.(T.var l)) (root_lits t)

(* ---------- VSIDS ---------- *)

let rescale_scores t =
  for l = 0 to Array.length t.score - 1 do
    t.score.(l) <- t.score.(l) *. 1e-100
  done;
  for v = 1 to t.nvars do
    t.var_activity.(v) <- Float.max t.score.(T.pos v) t.score.(T.neg v)
  done;
  t.var_inc <- t.var_inc *. 1e-100;
  Heap.rebuild t.order

(* Scores only grow between rescales, so a variable's activity is the
   larger of its old activity and the bumped score, and its heap key never
   falls. *)
let bump_lit t l =
  let s = t.score.(l) +. t.var_inc in
  t.score.(l) <- s;
  let v = T.var l in
  if s > t.var_activity.(v) then t.var_activity.(v) <- s;
  if s > 1e100 then rescale_scores t;
  Heap.increase t.order v

let bump_lits t (c : clause) =
  for k = 1 to size c do
    bump_lit t c.(k)
  done

let decay_scores t = t.var_inc <- t.var_inc /. t.cfg.decay_factor

let bump_clause_activity t c =
  if is_learned c then begin
    let a = activity c +. t.cla_inc in
    set_activity c a;
    if a > 1e100 then begin
      Vec.iter (fun cl -> set_activity cl (activity cl *. 1e-100)) t.learnts;
      t.cla_inc <- t.cla_inc *. 1e-100
    end
  end

(* ---------- assignment primitives ---------- *)

(* Whether some literal of clause [c] from slot [k] on, on a variable
   other than [v], is tainted. *)
let rec other_tainted t (c : clause) v k =
  k <= size c && ((T.var c.(k) <> v && t.tainted.(T.var c.(k))) || other_tainted t c v (k + 1))

(* [taint] is only consulted for root-level assignments without an
   antecedent clause; with an antecedent the taint is inherited from the
   clause's other literals. *)
let enqueue ?(taint = false) t l reason =
  let v = T.var l in
  Bytes.unsafe_set t.vals l v_true;
  Bytes.unsafe_set t.vals (T.negate l) v_false;
  t.levels.(v) <- decision_level t;
  t.reasons.(v) <- reason;
  if decision_level t = 0 then begin
    t.tainted.(v) <- (if reason == dummy_clause then taint else other_tainted t reason v 1);
    (* Root assignments are permanent, but their antecedents are not:
       [simplify_db] forgets them and [reduce_db] may then delete the
       clause, after which a proof checker's unit propagation could no
       longer re-derive the literal.  Persist each root literal as a unit
       proof step while its derivation is still in the database (it is RUP
       here: assumptions seed the guiding-path literals, propagation the
       rest). *)
    proof_unit t l
  end
  else t.tainted.(v) <- false;
  Vec.push t.trail l

let backtrack t level =
  if decision_level t > level then begin
    let keep = Vec.get t.trail_lim level in
    for i = Vec.size t.trail - 1 downto keep do
      let l = Vec.get t.trail i in
      let v = T.var l in
      t.phase.(v) <- T.is_pos l;
      Bytes.unsafe_set t.vals l v_unknown;
      Bytes.unsafe_set t.vals (T.negate l) v_unknown;
      t.reasons.(v) <- dummy_clause;
      Heap.insert t.order v
    done;
    Vec.shrink t.trail keep;
    Vec.shrink t.trail_lim level;
    t.qhead <- keep
  end

(* ---------- propagation ---------- *)

let add_watch t l c blocker =
  let n = t.watch_n.(l) in
  if n = Array.length t.watch_cls.(l) then begin
    let cap = max 4 (2 * n) in
    let cls = Array.make cap dummy_clause and blk = Array.make cap 0 in
    Array.blit t.watch_cls.(l) 0 cls 0 n;
    Array.blit t.watch_blk.(l) 0 blk 0 n;
    t.watch_cls.(l) <- cls;
    t.watch_blk.(l) <- blk
  end;
  t.watch_cls.(l).(n) <- c;
  t.watch_blk.(l).(n) <- blocker;
  t.watch_n.(l) <- n + 1

(* Live watch entries keep their relative order; entries of deleted
   clauses are dropped when met, unless a true blocker keeps the clause
   from being looked at.  On a conflict the rest of the list is kept as
   it is. *)
let propagate t =
  let start = Obs.Clock.now_ns () in
  let confl = ref dummy_clause in
  while !confl == dummy_clause && t.qhead < Vec.size t.trail do
    let p = Vec.get t.trail t.qhead in
    t.qhead <- t.qhead + 1;
    t.stats.propagations <- t.stats.propagations + 1;
    let false_lit = T.negate p in
    let cls = t.watch_cls.(false_lit) and blk = t.watch_blk.(false_lit) in
    let n = t.watch_n.(false_lit) in
    (* the library is built with -unsafe: one check covers the loop *)
    if n > Array.length cls || n > Array.length blk then invalid_arg "Solver.propagate: watch list";
    let i = ref 0 and j = ref 0 in
    while !i < n do
      let c = cls.(!i) and b = blk.(!i) in
      incr i;
      if lit_true t b then begin
        cls.(!j) <- c;
        blk.(!j) <- b;
        incr j
      end
      else if not (is_deleted c) then begin
        if c.(1) = false_lit then begin
          c.(1) <- c.(2);
          c.(2) <- false_lit
        end;
        let first = c.(1) in
        if lit_true t first then begin
          cls.(!j) <- c;
          blk.(!j) <- first;
          incr j
        end
        else begin
          let last = size c in
          let k = ref 3 in
          while !k <= last && lit_false t c.(!k) do
            incr k
          done;
          if !k <= last then begin
            (* found a replacement watch; move the clause to its list *)
            let w = c.(!k) in
            c.(2) <- w;
            c.(!k) <- false_lit;
            add_watch t w c first
          end
          else begin
            cls.(!j) <- c;
            blk.(!j) <- b;
            incr j;
            if lit_false t first then begin
              confl := c;
              while !i < n do
                cls.(!j) <- cls.(!i);
                blk.(!j) <- blk.(!i);
                incr i;
                incr j
              done
            end
            else enqueue t first c
          end
        end
      end
    done;
    if !j < n then begin
      Array.fill cls !j (n - !j) dummy_clause;
      t.watch_n.(false_lit) <- !j
    end
  done;
  t.bcp_ns <- t.bcp_ns + (Obs.Clock.now_ns () - start);
  if !confl == dummy_clause then None else Some !confl

(* ---------- conflict analysis (FirstUIP) ---------- *)

let analyze t confl =
  let learnt = t.learnt_buf and to_clear = t.to_clear in
  Vec.clear learnt;
  Vec.clear to_clear;
  Vec.push learnt 0 (* placeholder for the asserting literal *);
  let counter = ref 0 in
  let p = ref (-1) in
  let reason_clause = ref confl in
  let index = ref (Vec.size t.trail - 1) in
  let dlevel = decision_level t in
  let finished = ref false in
  while not !finished do
    let c = !reason_clause in
    bump_clause_activity t c;
    let start = if !p = -1 then 1 else 2 in
    for k = start to size c do
      let q = c.(k) in
      let v = T.var q in
      if not t.seen.(v) then begin
        if t.levels.(v) > 0 then begin
          t.seen.(v) <- true;
          Vec.push to_clear v;
          if t.levels.(v) >= dlevel then incr counter else Vec.push learnt q
        end
        else if t.tainted.(v) then begin
          (* root assumption: keep it so the learned clause stays
             globally valid and can be shared with every client *)
          t.seen.(v) <- true;
          Vec.push to_clear v;
          Vec.push learnt q
        end
      end
    done;
    while not t.seen.(T.var (Vec.get t.trail !index)) do
      decr index
    done;
    p := Vec.get t.trail !index;
    decr index;
    t.seen.(T.var !p) <- false;
    decr counter;
    if !counter = 0 then finished := true
    else begin
      reason_clause := t.reasons.(T.var !p);
      assert (!reason_clause != dummy_clause) (* only the UIP can lack an antecedent *)
    end
  done;
  Vec.set learnt 0 (T.negate !p);
  (* Optional local clause minimization (an extension beyond zChaff-2001):
     a non-asserting literal is redundant if every literal of its
     antecedent is already in the learned clause (seen) or is an untainted
     root fact.  Removing it is a self-subsuming resolution step, so the
     clause stays globally valid. *)
  if t.cfg.minimize_learned then begin
    let redundant q =
      let v = T.var q in
      let c = t.reasons.(v) in
      let rec implied k =
        k > size c
        ||
        let rv = T.var c.(k) in
        (rv = v || t.seen.(rv) || (t.levels.(rv) = 0 && not t.tainted.(rv))) && implied (k + 1)
      in
      t.levels.(v) > 0 && c != dummy_clause && implied 1
    in
    (* the kept literals follow the asserting one from last to first *)
    let n = Vec.size learnt in
    for k = 1 to (n - 1) / 2 do
      let q = Vec.get learnt k in
      Vec.set learnt k (Vec.get learnt (n - k));
      Vec.set learnt (n - k) q
    done;
    let kept = ref 1 in
    for k = 1 to n - 1 do
      let q = Vec.get learnt k in
      if not (redundant q) then begin
        Vec.set learnt !kept q;
        incr kept
      end
    done;
    Vec.shrink learnt !kept
  end;
  let n = Vec.size learnt in
  let c = block ~learned:true n in
  for k = 0 to n - 1 do
    c.(k + 1) <- Vec.get learnt k
  done;
  for k = 0 to Vec.size to_clear - 1 do
    t.seen.(Vec.get to_clear k) <- false
  done;
  (* Backjump level: the highest level among the non-asserting literals;
     put that literal in slot 2 so it can be watched. *)
  let blevel = ref 0 in
  let pos = ref 2 in
  for k = 2 to n do
    let lv = t.levels.(T.var c.(k)) in
    if lv > !blevel then begin
      blevel := lv;
      pos := k
    end
  done;
  if n > 1 then begin
    let tmp = c.(2) in
    c.(2) <- c.(!pos);
    c.(!pos) <- tmp
  end;
  (c, !blevel)

(* ---------- clause construction ---------- *)

let watch_clause t (c : clause) =
  add_watch t c.(1) c c.(2);
  add_watch t c.(2) c c.(1)

let attach_clause t c =
  watch_clause t c;
  t.n_active_clauses <- t.n_active_clauses + 1;
  t.db_lits <- t.db_lits + size c

let delete_clause t c =
  if not (is_deleted c) then begin
    proof_delete t c;
    c.(0) <- c.(0) lor 1;
    t.n_active_clauses <- t.n_active_clauses - 1;
    t.db_lits <- t.db_lits - size c
  end

let record_share t c =
  if size c <= t.cfg.share_export_max then begin
    if Queue.length t.fresh_shares >= 8192 then ignore (Queue.pop t.fresh_shares);
    Queue.push (lits c) t.fresh_shares
  end

(* Record a learned clause (already backjumped to its assertion level) and
   enqueue its asserting literal. *)
let record_learned t c =
  proof_add t c;
  t.stats.learned <- t.stats.learned + 1;
  if t.obs_on then Obs.Metrics.incr t.c_learned;
  t.stats.learned_literals <- t.stats.learned_literals + size c;
  record_share t c;
  bump_lits t c;
  if size c = 1 then enqueue t c.(1) dummy_clause
  else begin
    set_activity c t.cla_inc;
    attach_clause t c;
    Vec.push t.learnts c;
    enqueue t c.(1) c
  end

(* A false root literal may only be stripped when it is untainted (its
   negation is implied by the global formula); tainted literals stay so the
   clause remains globally valid. *)
let strippable t l = lit_false t l && not t.tainted.(T.var l)

(* One pass over a clause at decision level 0.  Returns false if one of
   its literals is true.  Otherwise sets [root_unknown] to the number of
   unknown literals and [root_kept] to the number that survive stripping:
   the unknown ones and the tainted false ones. *)
let count_root t (c : clause) =
  let last = size c in
  let unknown = ref 0 and kept = ref 0 and k = ref 1 in
  while !k <= last && not (lit_true t c.(!k)) do
    let l = c.(!k) in
    if lit_unknown t l then begin
      incr unknown;
      incr kept
    end
    else if not (strippable t l) then incr kept;
    incr k
  done;
  t.root_unknown <- !unknown;
  t.root_kept <- !kept;
  !k > last

let rec first_unknown t (c : clause) k = if lit_unknown t c.(k) then c.(k) else first_unknown t c (k + 1)

(* Rewrites a clause counted by [count_root] in place to its [root_kept]
   surviving literals: the unknown ones first, then the kept false ones,
   each group in its original order.  Each literal is read before its
   slot can be written. *)
let strip_root t (c : clause) =
  let kept_false = t.root_buf in
  Vec.clear kept_false;
  let u = ref 1 in
  for k = 1 to size c do
    let l = c.(k) in
    if lit_unknown t l then begin
      c.(!u) <- l;
      incr u
    end
    else if not (strippable t l) then Vec.push kept_false l
  done;
  for i = 0 to Vec.size kept_false - 1 do
    c.(!u + i) <- Vec.get kept_false i
  done;
  set_size c t.root_kept

(* A clause counted by [count_root] with at most one unknown literal:
   with none, the subproblem is refuted; with one, it is implied at the
   root, tainted if a kept false literal is. *)
let root_unit_or_conflict t c =
  if t.root_unknown = 0 then begin
    proof_refute t;
    t.ok <- false
  end
  else begin
    let l = first_unknown t c 1 in
    proof_unit t l;
    enqueue ~taint:(t.root_kept > 1) t l dummy_clause
  end

let rec unknown_upto t (c : clause) k n = k > n || (lit_unknown t c.(k) && unknown_upto t c (k + 1) n)

(* Whether [strip_root] would leave the clause counted by [count_root] as
   it is: nothing stripped, no kept false literal ahead of an unknown
   one. *)
let root_unchanged t c = t.root_kept = size c && unknown_upto t c 1 t.root_unknown

(* Install a clause block nobody else holds while at decision level 0:
   discard if satisfied, strip untainted false literals, then either
   record the conflict, enqueue the root implication, or store the
   surviving literals, unknown ones in the watched slots. *)
let install_clause_root t c =
  assert (decision_level t = 0);
  if not (count_root t c) then `Satisfied
  else if t.root_unknown <= 1 then begin
    root_unit_or_conflict t c;
    if t.root_unknown = 0 then `Conflict else `Implication
  end
  else begin
    let n = size c in
    if not (root_unchanged t c) then strip_root t c;
    (* an original clause installed verbatim is already in the checker's
       database; logging it would only bloat transferred proof
       fragments.  A proof step is owed only when the stored clause
       differs from the formula: learned/foreign, or strengthened by
       root-level stripping. *)
    if is_learned c || size c < n then proof_add t c;
    attach_clause t c;
    if is_learned c then Vec.push t.learnts c else Vec.push t.clauses c;
    bump_lits t c;
    `Added
  end

(* Drops deleted clauses, keeping the order of the others. *)
let compact_clause_vec vec =
  let j = ref 0 in
  for i = 0 to Vec.size vec - 1 do
    let c = Vec.get vec i in
    if not (is_deleted c) then begin
      Vec.set vec !j c;
      incr j
    end
  done;
  Vec.shrink vec !j

(* ---------- learned-DB reduction ---------- *)

let clause_locked t c =
  size c > 0
  &&
  let v = T.var c.(1) in
  t.reasons.(v) == c && not (var_unknown t v)

let reduce_db t =
  let sp =
    if t.obs_on then
      Obs.Span.enter (Obs.spans t.obs) ~parent:t.obs_parent ~tid:t.obs_tid ~cat:"solver"
        ~args:[ ("learnts", Obs.Json.Int (Vec.size t.learnts)) ]
        "reduce_db"
    else Obs.Span.none
  in
  compact_clause_vec t.learnts;
  (* newest first: the order this (unstable) sort has always been given *)
  let n = Vec.size t.learnts in
  let arr = Array.make n dummy_clause in
  for i = 0 to n - 1 do
    arr.(i) <- Vec.get t.learnts (n - 1 - i)
  done;
  Array.sort (fun a b -> Float.compare (activity a) (activity b)) arr;
  let target = n / 2 in
  let removed = ref 0 in
  Array.iter
    (fun c ->
      if !removed < target && (not (clause_locked t c)) && size c > 2 then begin
        delete_clause t c;
        incr removed
      end)
    arr;
  t.stats.deleted <- t.stats.deleted + !removed;
  compact_clause_vec t.learnts;
  if t.obs_on then
    Obs.Span.exit (Obs.spans t.obs) sp ~args:[ ("deleted", Obs.Json.Int !removed) ]

(* ---------- root-level simplification (the paper's pruning pass) ---------- *)

let rebuild_watches t =
  Array.iteri (fun l cls -> Array.fill cls 0 t.watch_n.(l) dummy_clause) t.watch_cls;
  Array.fill t.watch_n 0 (Array.length t.watch_n) 0;
  let rewatch c = if not (is_deleted c) then watch_clause t c in
  Vec.iter rewatch t.clauses;
  Vec.iter rewatch t.learnts

(* A clause with nothing to strip is left as it is, literal order
   included; a strengthened one is rewritten in its own block. *)
let simplify_clause_root t c =
  if not (is_deleted c) then begin
    if not (count_root t c) then delete_clause t c
    else if t.root_unknown <= 1 then begin
      root_unit_or_conflict t c;
      delete_clause t c
    end
    else if t.root_kept < size c then begin
      let before = if t.cfg.emit_proof then Array.copy c else dummy_clause in
      t.db_lits <- t.db_lits - (size c - t.root_kept);
      strip_root t c;
      proof_add t c;
      proof_delete t before
    end
  end

let simplify_db t =
  assert (decision_level t = 0);
  let sp =
    if t.obs_on then
      Obs.Span.enter (Obs.spans t.obs) ~parent:t.obs_parent ~tid:t.obs_tid ~cat:"solver"
        ~args:[ ("root_lits", Obs.Json.Int (Vec.size t.trail)) ]
        "simplify_db"
    else Obs.Span.none
  in
  (* Root-assigned variables never participate in conflict analysis, so
     their antecedents may be forgotten before clauses are deleted. *)
  Vec.iter (fun l -> t.reasons.(T.var l) <- dummy_clause) t.trail;
  Vec.iter (simplify_clause_root t) t.clauses;
  Vec.iter (simplify_clause_root t) t.learnts;
  compact_clause_vec t.clauses;
  compact_clause_vec t.learnts;
  rebuild_watches t;
  t.last_simplify_trail <- Vec.size t.trail;
  t.stats.root_simplifications <- t.stats.root_simplifications + 1;
  if t.obs_on then Obs.Span.exit (Obs.spans t.obs) sp

(* ---------- foreign clause merging (paper Section 3.2, four cases) ---------- *)

let pending_foreign t = Queue.length t.pending_foreign

let queue_foreign_clauses t cs = List.iter (fun c -> Queue.push c t.pending_foreign) cs

let merge_foreign t =
  assert (decision_level t = 0);
  let batch = Queue.length t.pending_foreign in
  let sp =
    if t.obs_on && batch > 0 then
      Obs.Span.enter (Obs.spans t.obs) ~parent:t.obs_parent ~tid:t.obs_tid ~cat:"solver"
        ~args:[ ("pending", Obs.Json.Int batch) ]
        "merge_foreign"
    else Obs.Span.none
  in
  let merged0 = t.stats.foreign_merged in
  while t.ok && not (Queue.is_empty t.pending_foreign) do
    let foreign = Queue.pop t.pending_foreign in
    let c = block ~learned:true (Array.length foreign) in
    Array.blit foreign 0 c 1 (Array.length foreign);
    set_activity c t.cla_inc;
    match install_clause_root t c with
    | `Satisfied -> t.stats.foreign_discarded <- t.stats.foreign_discarded + 1
    | `Conflict -> () (* all literals false: the subproblem is unsatisfiable *)
    | `Implication -> t.stats.foreign_implications <- t.stats.foreign_implications + 1
    | `Added -> t.stats.foreign_merged <- t.stats.foreign_merged + 1
  done;
  if t.obs_on && batch > 0 then
    Obs.Span.exit (Obs.spans t.obs) sp
      ~args:[ ("merged", Obs.Json.Int (t.stats.foreign_merged - merged0)) ]

(* ---------- shares export ---------- *)

let drain_shares t ~max_len =
  let out = ref [] in
  while not (Queue.is_empty t.fresh_shares) do
    let c = Queue.pop t.fresh_shares in
    if Array.length c <= max_len then out := c :: !out
  done;
  List.rev !out

(* ---------- decisions ---------- *)

(* Decision variables are never 0, so 0 stands for "none". *)
let rec random_unassigned t attempts =
  if attempts = 0 then 0
  else
    let v = 1 + Random.State.int t.rng t.nvars in
    if var_unknown t v then v else random_unassigned t (attempts - 1)

let rec heap_unassigned t =
  if Heap.is_empty t.order then 0
  else
    let v = Heap.remove_max t.order in
    if var_unknown t v then v else heap_unassigned t

let pick_branch_var t =
  let v =
    if t.cfg.random_decision_freq > 0. && Random.State.float t.rng 1.0 < t.cfg.random_decision_freq
    then random_unassigned t 8
    else 0
  in
  if v = 0 then heap_unassigned t else v

let decide t =
  match pick_branch_var t with
  | 0 -> false
  | v ->
      let l =
        if t.cfg.phase_saving then if t.phase.(v) then T.pos v else T.neg v
        else if t.score.(T.pos v) >= t.score.(T.neg v) then T.pos v
        else T.neg v
      in
      Vec.push t.trail_lim (Vec.size t.trail);
      enqueue t l dummy_clause;
      t.stats.decisions <- t.stats.decisions + 1;
      if t.obs_on then Obs.Metrics.incr t.c_decisions;
      if decision_level t > t.stats.max_decision_level then
        t.stats.max_decision_level <- decision_level t;
      true

(* ---------- restarts ---------- *)

(* Luby sequence: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ... *)
let rec luby i =
  (* find the k with 2^(k-1) <= i < 2^k *)
  let rec size k = if (1 lsl k) - 1 >= i then k else size (k + 1) in
  let k = size 1 in
  if i = (1 lsl k) - 1 then 1 lsl (k - 1) else luby (i - (1 lsl (k - 1)) + 1)

let restart t =
  backtrack t 0;
  t.conflicts_since_restart <- 0;
  t.luby_index <- t.luby_index + 1;
  (t.restart_limit <-
    (match t.cfg.restart_strategy with
    | Luby -> t.cfg.restart_base * luby t.luby_index
    | Geometric factor -> max 1 (int_of_float (float_of_int t.restart_limit *. factor))
    | Fixed -> t.cfg.restart_base));
  t.stats.restarts <- t.stats.restarts + 1;
  if t.obs_on then begin
    Obs.Metrics.incr t.c_restarts;
    ignore
      (Obs.Span.instant (Obs.spans t.obs) ~parent:t.obs_parent ~tid:t.obs_tid ~cat:"solver"
         ~args:[ ("restarts", Obs.Json.Int t.stats.restarts) ]
         "restart")
  end

(* ---------- construction ---------- *)

(* The one construction path.  Each clause of the arena is copied into
   its own block, which the solver then usually keeps as it is.  With
   [normalise] the block is first range-checked, sorted and de-duplicated
   in place ({!Arena.normalise_in_place}), and a tautology is dropped; a
   formula's clauses are normalised already.  The RNG is seeded with the
   number of clauses kept. *)
let create_internal cfg ~nvars ~obs ~obs_tid ~facts ~assumptions ~normalise (clauses : Arena.t) =
  let blocks = Array.make (Arena.nclauses clauses) dummy_clause and n = ref 0 in
  for k = 0 to Arena.nclauses clauses - 1 do
    let s = clauses.starts.(k) in
    let len = clauses.starts.(k + 1) - s in
    let c = block ~learned:false len in
    for i = 0 to len - 1 do
      c.(i + 1) <- clauses.lits.(s + i)
    done;
    let e = if normalise then Arena.normalise_in_place ~nvars c 1 (len + 1) else len + 1 in
    if e > 0 then begin
      set_size c (e - 1);
      blocks.(!n) <- c;
      incr n
    end
  done;
  let n = !n in
  let rec has_empty k = k < n && (size blocks.(k) = 0 || has_empty (k + 1)) in
  let var_activity = Array.make (nvars + 1) 0. in
  let order = Heap.create ~nvars ~key:var_activity in
  let m = Obs.metrics obs in
  let labels = [ ("client", string_of_int obs_tid) ] in
  let t =
    {
      cfg;
      nvars;
      vals = Bytes.make (2 * (nvars + 1)) v_unknown;
      tainted = Array.make (nvars + 1) false;
      levels = Array.make (nvars + 1) 0;
      reasons = Array.make (nvars + 1) dummy_clause;
      score = Array.make (2 * (nvars + 1)) 0.;
      var_activity;
      watch_cls = Array.make (2 * (nvars + 1)) [||];
      watch_blk = Array.make (2 * (nvars + 1)) [||];
      watch_n = Array.make (2 * (nvars + 1)) 0;
      order;
      trail = Vec.create 0;
      trail_lim = Vec.create 0;
      qhead = 0;
      clauses = Vec.create ~capacity:n dummy_clause;
      learnts = Vec.create dummy_clause;
      ok = not (has_empty 0);
      seen = Array.make (nvars + 1) false;
      phase = Array.make (nvars + 1) false;
      var_inc = 1.0;
      cla_inc = 1.0;
      stats = Stats.create ();
      conflicts_since_restart = 0;
      restart_limit = cfg.restart_base;
      luby_index = 1;
      n_active_clauses = 0;
      db_lits = 0;
      pending_foreign = Queue.create ();
      fresh_shares = Queue.create ();
      last_simplify_trail = 0;
      proof_rev = [];
      rng = Random.State.make [| cfg.seed; nvars; n |];
      learnt_buf = Vec.create 0;
      to_clear = Vec.create 0;
      root_buf = Vec.create 0;
      root_unknown = 0;
      root_kept = 0;
      bcp_ns = 0;
      run_ns = 0;
      obs;
      obs_on = Obs.enabled obs;
      obs_tid;
      obs_parent = Obs.Span.none;
      c_decisions = Obs.Metrics.counter m ~labels "solver.decisions";
      c_conflicts = Obs.Metrics.counter m ~labels "solver.conflicts";
      c_learned = Obs.Metrics.counter m ~labels "solver.learned";
      c_restarts = Obs.Metrics.counter m ~labels "solver.restarts";
    }
  in
  for v = 1 to nvars do
    Heap.insert order v
  done;
  let assert_root taint l =
    match value_of_lit t l with
    | T.Unknown -> enqueue ~taint t l dummy_clause
    | T.True -> ()
    | T.False -> t.ok <- false
  in
  List.iter (assert_root false) facts;
  List.iter (assert_root true) assumptions;
  let k = ref 0 in
  while t.ok && !k < n do
    ignore (install_clause_root t blocks.(!k));
    incr k
  done;
  if t.ok then (match propagate t with Some _ -> t.ok <- false | None -> ());
  t

let create ?(config = default_config) ?(obs = Obs.disabled) ?(obs_tid = Obs.Span.run_tid) cnf =
  create_internal config ~nvars:(Cnf.nvars cnf) ~obs ~obs_tid ~facts:[] ~assumptions:[]
    ~normalise:false (Cnf.clauses cnf)

let create_with_roots ?(config = default_config) ?(obs = Obs.disabled)
    ?(obs_tid = Obs.Span.run_tid) ?(facts = []) ~nvars clauses assumptions =
  if nvars < 0 then invalid_arg "Cnf: negative nvars";
  create_internal config ~nvars ~obs ~obs_tid ~facts ~assumptions ~normalise:true clauses

(* ---------- model extraction ---------- *)

let extract_model t =
  let a = Array.make (t.nvars + 1) false in
  for v = 1 to t.nvars do
    a.(v) <- lit_true t (T.pos v)
  done;
  Model.of_array a

(* ---------- conflict-info capture ---------- *)

let capture_graph t =
  List.map
    (fun l ->
      let v = T.var l in
      (v, t.levels.(v), antecedent_of_var t v))
    (Vec.to_list t.trail)

(* ---------- main search ---------- *)

let learned_cap t =
  int_of_float (t.cfg.learned_cap_factor *. float_of_int (Vec.size t.clauses))
  + t.cfg.learned_cap_min

(* A conflict at the root refutes the subproblem ([ok] turns false). *)
let handle_conflict t confl =
  t.stats.conflicts <- t.stats.conflicts + 1;
  if t.obs_on then Obs.Metrics.incr t.c_conflicts;
  t.conflicts_since_restart <- t.conflicts_since_restart + 1;
  if decision_level t = 0 then begin
    proof_refute t;
    t.ok <- false
  end
  else begin
    let c, blevel = analyze t confl in
    backtrack t blevel;
    record_learned t c;
    if t.stats.conflicts mod t.cfg.decay_interval = 0 then decay_scores t;
    t.cla_inc <- t.cla_inc /. 0.999
  end

let over_mem_limit t = db_bytes t > t.cfg.mem_limit_bytes

let run t ~budget =
  let start = Obs.Clock.now_ns () in
  let start_props = t.stats.propagations in
  let result = ref None in
  while Option.is_none !result do
    if not t.ok then result := Some Unsat
    else begin
      if decision_level t = 0 then begin
        merge_foreign t;
        if t.ok && Vec.size t.trail > t.last_simplify_trail && t.qhead = Vec.size t.trail then
          simplify_db t
      end;
      if not t.ok then result := Some Unsat
      else
        match propagate t with
        | Some confl ->
            handle_conflict t confl;
            if not t.ok then result := Some Unsat
            else begin
              if t.cfg.reduce_db_enabled && Vec.size t.learnts > learned_cap t then reduce_db t;
              if over_mem_limit t then begin
                if t.cfg.reduce_db_enabled then reduce_db t;
                if over_mem_limit t then result := Some Mem_pressure
              end
            end
        | None ->
            if t.stats.propagations - start_props >= budget then result := Some Budget_exhausted
            else if
              t.cfg.restarts_enabled
              && t.conflicts_since_restart >= t.restart_limit
              && decision_level t > 0
            then restart t
            else if decision_level t = 0 && pending_foreign t > 0 then
              () (* loop back to merge before deciding *)
            else if not (decide t) then result := Some (Sat (extract_model t))
    end
  done;
  t.run_ns <- t.run_ns + (Obs.Clock.now_ns () - start);
  t.stats.bcp_seconds <- Obs.Clock.seconds t.bcp_ns;
  t.stats.total_seconds <- Obs.Clock.seconds t.run_ns;
  match !result with Some r -> r | None -> assert false

let solve ?(budget = max_int) t = run t ~budget

(* ---------- splitting (paper Figure 2) ---------- *)

let split t =
  if decision_level t = 0 then None
  else begin
    let level1_start = Vec.get t.trail_lim 0 in
    let level1_end =
      if Vec.size t.trail_lim > 1 then Vec.get t.trail_lim 1 else Vec.size t.trail
    in
    let first_decision = Vec.get t.trail level1_start in
    let roots_before = root_lits t in
    let facts = List.filter (fun l -> not t.tainted.(T.var l)) roots_before in
    let path = List.filter (fun l -> t.tainted.(T.var l)) roots_before in
    let level1 = ref [] in
    for i = level1_end - 1 downto level1_start do
      level1 := Vec.get t.trail i :: !level1
    done;
    backtrack t 0;
    (* commit this side of the branch: the whole first decision level moves
       into the root as (tainted) guiding-path assumptions ([enqueue] logs
       each as a unit proof step, keeping the fragment checkable after the
       original antecedents are forgotten) *)
    List.iter
      (fun l ->
        match value_of_lit t l with
        | T.Unknown -> enqueue ~taint:true t l dummy_clause
        | T.True -> ()
        | T.False -> t.ok <- false)
      !level1;
    Some (facts, path @ [ T.negate first_decision ])
  end

(* ---------- transfer helpers ---------- *)

(* Root-level truth tests: a literal assigned at decision level 0. *)
let root_true t l = lit_true t l && t.levels.(T.var l) = 0

let root_strippable t l = lit_false t l && t.levels.(T.var l) = 0 && not t.tainted.(T.var l)

(* Appends the clause as it travels: none if deleted, satisfied at the
   root or containing [drop], else its literals in order without the
   strippable root-false ones. *)
let push_visible t ~drop b (c : clause) =
  let last = size c in
  let k = ref 1 and hidden = ref 0 in
  while !k <= last && c.(!k) <> drop && not (root_true t c.(!k)) do
    if root_strippable t c.(!k) then incr hidden;
    incr k
  done;
  if not (is_deleted c || !k <= last) then begin
    if !hidden = 0 then Arena.push_slice b c 1 last
    else
      for k = 1 to last do
        if not (root_strippable t c.(k)) then Arena.push b c.(k)
      done;
    Arena.close b
  end

(* Room for every clause, which only shrinks on the way. *)
let visible_clauses t ~drop =
  let lits n c = n + size c in
  let b =
    Arena.buffer
      ~clauses:(Vec.size t.clauses + Vec.size t.learnts)
      ~lits:(Vec.fold lits (Vec.fold lits 0 t.clauses) t.learnts)
  in
  Vec.iter (push_visible t ~drop b) t.clauses;
  Vec.iter (push_visible t ~drop b) t.learnts;
  Arena.contents b

(* [-1] is no literal. *)
let active_clauses t = visible_clauses t ~drop:(-1)

(* The new branch's root adds only the complement of the first decision
   to the donor's root, so pruning the donor's active clauses against it
   can only drop the clauses that complement satisfies. *)
let split_clauses t =
  if decision_level t = 0 then invalid_arg "Solver.split_clauses: no decision";
  visible_clauses t ~drop:(T.negate (Vec.get t.trail (Vec.get t.trail_lim 0)))

let transfer_bytes t =
  let roots = List.length (root_lits t) in
  db_bytes t + (8 * roots) + 64

(* ---------- manual driving (Figure 1 replay) ---------- *)

let decide_manual t l =
  if t.qhead <> Vec.size t.trail then
    invalid_arg "Solver.decide_manual: propagation pending";
  if not (lit_unknown t l) then invalid_arg "Solver.decide_manual: variable assigned";
  Vec.push t.trail_lim (Vec.size t.trail);
  enqueue t l dummy_clause;
  t.stats.decisions <- t.stats.decisions + 1

let propagate_manual t =
  match propagate t with
  | None -> `Ok
  | Some confl ->
      let conflicting_clause = lits confl in
      let conflicting_var = T.var confl.(1) in
      let implication_graph = capture_graph t in
      if decision_level t = 0 then begin
        t.ok <- false;
        `Conflict
          {
            conflicting_clause;
            conflicting_var;
            implication_graph;
            learned = [||];
            uip_var = 0;
            backjump_level = 0;
          }
      end
      else begin
        t.stats.conflicts <- t.stats.conflicts + 1;
        let c, blevel = analyze t confl in
        backtrack t blevel;
        record_learned t c;
        `Conflict
          {
            conflicting_clause;
            conflicting_var;
            implication_graph;
            learned = lits c;
            uip_var = T.var c.(1);
            backjump_level = blevel;
          }
      end

module T = Types

(* All of a solver's clauses live in one growable int array, its arena
   (MiniSat's clause allocator), and a clause is the int offset of its
   header there.  The header's bit 0 is set once the clause is deleted,
   bit 1 marks a learned clause, and the bits from 2 up hold the literal
   count [n].  The [n] literals follow the header, the watched ones
   first; a learned clause then ends with two slots holding the bits of
   its activity, a float (see [activity]).  Root strengthening rewrites
   the literals in place, lowers [n] and moves the activity down behind
   them.  Clauses are only ever appended: a deleted clause and stripped
   literals leave dead slots until [compact] copies the live clauses
   into a fresh arena. *)

type restart_strategy = Luby | Geometric of float | Fixed

type config = {
  restarts_enabled : bool;
  restart_base : int;
  restart_strategy : restart_strategy;
  mem_limit_bytes : int;
  learned_cap_factor : float;
  learned_cap_min : int;
  reduce_db_enabled : bool;
  share_export_max : int;
  emit_proof : bool;
  minimize_learned : bool;
  phase_saving : bool;
  seed : int;
}

let default_config =
  {
    restarts_enabled = true;
    restart_base = 128;
    restart_strategy = Luby;
    mem_limit_bytes = 256 * 1024 * 1024;
    learned_cap_factor = 2.0;
    learned_cap_min = 5_000;
    reduce_db_enabled = true;
    share_export_max = 16;
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

(* Literal helpers: one-line copies of {!Types}', so that they inline. *)
let[@inline] var l = l lsr 1

let[@inline] negate l = l lxor 1

let[@inline] pos v = v * 2

(* ---------- clauses in the arena ---------- *)

let[@inline] size a cr = a.(cr) lsr 2

let[@inline] is_deleted a cr = a.(cr) land 1 <> 0

let[@inline] is_learned a cr = a.(cr) land 2 <> 0

let set_size a cr n = a.(cr) <- (n lsl 2) lor (a.(cr) land 3)

(* Slots the clause takes: header, literals, and two more if learned
   (bit 1 of the header is worth exactly those two). *)
let[@inline] extent a cr = 1 + (a.(cr) lsr 2) + (a.(cr) land 2)

(* A fresh array of the clause's literals, for callers outside the
   solver and for proof steps. *)
let lits a cr = Array.sub a (cr + 1) (size a cr)

(* A learned clause's activity: the high and the low 32 bits of the float
   in the two slots behind its literals.  Both are inlined, so the float
   stays unboxed and reading or bumping an activity allocates nothing. *)
let[@inline] activity a cr =
  let e = cr + 1 + size a cr in
  Int64.float_of_bits
    (Int64.logor (Int64.shift_left (Int64.of_int a.(e)) 32) (Int64.of_int a.(e + 1)))

let[@inline] set_activity a cr x =
  let bits = Int64.bits_of_float x and e = cr + 1 + size a cr in
  a.(e) <- Int64.to_int (Int64.shift_right_logical bits 32);
  a.(e + 1) <- Int64.to_int bits land 0xFFFF_FFFF

(* The reason of decisions and root units: no clause. *)
let no_reason = -1

(* A growable stack of ints: the clause lists and the scratch buffers.
   It is local to this module, so every access inlines, and its stores
   are typed [int], so none goes through the write barrier. *)
type ints = { mutable items : int array; mutable len : int }

let ints cap = { items = Array.make (max cap 1) 0; len = 0 }

let grow_ints s =
  let items = Array.make (2 * Array.length s.items) 0 in
  for i = 0 to s.len - 1 do
    items.(i) <- s.items.(i)
  done;
  s.items <- items

let[@inline] push s x =
  if s.len = Array.length s.items then grow_ints s;
  s.items.(s.len) <- x;
  s.len <- s.len + 1

let iter f s =
  for i = 0 to s.len - 1 do
    f s.items.(i)
  done

let fold f acc s =
  let acc = ref acc in
  iter (fun x -> acc := f !acc x) s;
  !acc

(* Literal values, one byte per literal in [t.vals]. *)
let v_unknown = '\000'

let v_true = '\001'

let v_false = '\002'

type t = {
  cfg : config;
  nvars : int;
  vals : Bytes.t; (* literal -> [v_unknown], [v_true] or [v_false] *)
  levels : int array; (* var -> decision level (valid when assigned) *)
  reasons : int array; (* var -> antecedent clause, [no_reason] if none *)
  tainted : bool array;
      (* var -> the root-level assignment of this variable depends on a
         guiding-path assumption (so it is NOT implied by the global
         formula).  Tainted literals are kept inside clauses and re-enter
         learned clauses, which keeps every clause in the database — and
         hence every shared clause — valid for the global problem. *)
  score : float array; (* literal -> VSIDS counter *)
  var_activity : float array; (* var -> the larger of its two literal scores: the heap key *)
  mutable arena : int array; (* every clause, see the top of this file *)
  mutable arena_top : int; (* the first slot no clause holds *)
  mutable arena_dead : int; (* slots below [arena_top] no live clause uses *)
  (* The clauses watching literal [l]: pair [i < watch_n.(l)] of
     [watches.(l)] is a clause at slot [2i] and its "blocker" at [2i + 1],
     some other literal of the clause (usually the other watch).  If the
     blocker is true the clause is satisfied and need not be looked at
     at all — the classic mem-traffic optimisation for two-watched-literal
     BCP. *)
  watches : int array array;
  watch_n : int array;
  order : Heap.t;
  trail : T.lit array; (* assignments in order; never more than [nvars] *)
  mutable trail_n : int;
  trail_lim : int array; (* trail index where each decision level starts *)
  mutable lim_n : int; (* the decision level *)
  mutable qhead : int;
  clauses : ints; (* original problem clauses, in arena order *)
  learnts : ints; (* learned and merged clauses, in arena order *)
  mutable ok : bool;
  mutable released : bool; (* see [release] *)
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
  mutable rng : Random.State.t; (* seeded once the clauses are counted *)
  learnt_buf : ints; (* [analyze] scratch: the clause being learned *)
  to_clear : ints; (* [analyze] scratch: variables marked [seen] *)
  root_buf : ints; (* [strip_root] scratch: the kept false literals *)
  mutable root_unknown : int; (* [count_root] results *)
  mutable root_kept : int;
  mutable bcp_ns : int; (* monotonic nanoseconds inside [propagate] *)
  mutable run_ns : int; (* ... and inside [run] *)
  (* telemetry: [obs_on] is the single hot-path guard for spans; the
     [solver.*] series are views of [stats], registered at construction *)
  obs : Obs.t;
  obs_on : bool;
  obs_tid : int;
  mutable obs_parent : Obs.Span.id; (* span to parent solver phases under *)
}

let nvars t = t.nvars

let[@inline] decision_level t = t.lim_n

let n_learned t = t.learnts.len

let is_ok t = t.ok

let stats t = t.stats

let set_obs_parent t sid = t.obs_parent <- sid

(* Accounting: 48 bytes of per-clause overhead + 8 per literal slot. *)
let db_bytes t = (48 * t.n_active_clauses) + (8 * t.db_lits)

(* Hot-path truth tests: one byte load and a constant compare. *)
let[@inline] lit_true t l = Bytes.unsafe_get t.vals l = v_true

let[@inline] lit_false t l = Bytes.unsafe_get t.vals l = v_false

let[@inline] lit_unknown t l = Bytes.unsafe_get t.vals l = v_unknown

let var_unknown t v = lit_unknown t (pos v)

let value_of_lit t l =
  let b = Bytes.get t.vals l in
  if b = v_true then T.True else if b = v_false then T.False else T.Unknown

let value_of_var t v = value_of_lit t (pos v)

let level_of_var t v =
  if var_unknown t v then invalid_arg "Solver.level_of_var: unassigned variable" else t.levels.(v)

let antecedent_of_var t v =
  let r = t.reasons.(v) in
  if r = no_reason || is_deleted t.arena r then None else Some (lits t.arena r)

(* The first [n] items of an int array, in order. *)
let list_of_prefix a n =
  let rec loop i acc = if i < 0 then acc else loop (i - 1) (a.(i) :: acc) in
  loop (n - 1) []

let trail_literals t = list_of_prefix t.trail t.trail_n

(* Proof steps are built only while a proof is recorded.  A step copies
   its clause's literals: the solver permutes and strengthens clauses in
   place. *)
let proof_add t cr =
  if t.cfg.emit_proof then t.proof_rev <- Drup.Add (lits t.arena cr) :: t.proof_rev

let proof_unit t l = if t.cfg.emit_proof then t.proof_rev <- Drup.Add [| l |] :: t.proof_rev

let proof_refute t = if t.cfg.emit_proof then t.proof_rev <- Drup.Add [||] :: t.proof_rev

let proof_delete_lits t ls = if t.cfg.emit_proof then t.proof_rev <- Drup.Delete ls :: t.proof_rev

let proof_delete t cr = if t.cfg.emit_proof then proof_delete_lits t (lits t.arena cr)

let proof t = List.rev t.proof_rev

let root_lits t = list_of_prefix t.trail (if t.lim_n = 0 then t.trail_n else t.trail_lim.(0))

let root_facts t = List.filter (fun l -> not t.tainted.(var l)) (root_lits t)

let root_path t = List.filter (fun l -> t.tainted.(var l)) (root_lits t)

(* ---------- the arena ---------- *)

(* Room for a clause of [n] literals at [arena_top], its header written
   and its literals still to be filled in.  The clause is the caller's
   to keep, by moving [arena_top] past it ([commit]), or to drop.  A full
   arena grows by half. *)
let alloc t ~learned n =
  let need = t.arena_top + n + 3 in
  if need > Array.length t.arena then begin
    let a = Array.make (max need (Array.length t.arena * 3 / 2)) 0 in
    for i = 0 to t.arena_top - 1 do
      a.(i) <- t.arena.(i)
    done;
    t.arena <- a
  end;
  let cr = t.arena_top in
  t.arena.(cr) <- (n lsl 2) lor if learned then 2 else 0;
  cr

let commit t cr = t.arena_top <- cr + extent t.arena cr

(* Copies the clauses of both lists, in arena order, into a fresh arena
   of their exact size.  Each old header becomes a forwarding word, the
   clause's new offset shifted past the deleted bit; watch entries,
   reasons and the lists are moved through it, and watch entries of
   deleted clauses are dropped.  Both lists hold live clauses only. *)
let compact t =
  let old = t.arena in
  let live = fold (fun n cr -> n + extent old cr) in
  let a = Array.make (live (live 0 t.clauses) t.learnts) 0 and top = ref 0 in
  let move (s : ints) =
    for i = 0 to s.len - 1 do
      let cr = s.items.(i) in
      let e = extent old cr in
      for k = 0 to e - 1 do
        a.(!top + k) <- old.(cr + k)
      done;
      old.(cr) <- !top lsl 1;
      s.items.(i) <- !top;
      top := !top + e
    done
  in
  move t.clauses;
  move t.learnts;
  for v = 1 to t.nvars do
    let r = t.reasons.(v) in
    if r <> no_reason then
      t.reasons.(v) <- (if old.(r) land 1 = 0 then old.(r) lsr 1 else no_reason)
  done;
  for l = 0 to Array.length t.watches - 1 do
    let ws = t.watches.(l) and j = ref 0 in
    for i = 0 to t.watch_n.(l) - 1 do
      let h = old.(ws.(2 * i)) in
      if h land 1 = 0 then begin
        ws.(2 * !j) <- h lsr 1;
        ws.((2 * !j) + 1) <- ws.((2 * i) + 1);
        incr j
      end
    done;
    t.watch_n.(l) <- !j
  done;
  t.arena <- a;
  t.arena_top <- !top;
  t.arena_dead <- 0

(* Compaction once a fifth of the arena is dead, as in MiniSat. *)
let maybe_compact t = if 5 * t.arena_dead > t.arena_top then compact t

(* ---------- VSIDS ---------- *)

let rescale_scores t =
  for l = 0 to Array.length t.score - 1 do
    t.score.(l) <- t.score.(l) *. 1e-100
  done;
  for v = 1 to t.nvars do
    t.var_activity.(v) <- Float.max t.score.(pos v) t.score.(negate (pos v))
  done;
  t.var_inc <- t.var_inc *. 1e-100;
  Heap.rebuild t.order

(* Scores only grow between rescales, so a variable's activity is the
   larger of its old activity and the bumped score, and its heap key never
   falls.  A bump that leaves the activity as it was cannot move the
   variable in the heap, and its score stays below 1e100, as every score
   does between bumps. *)
let bump_lit t l =
  let s = t.score.(l) +. t.var_inc in
  t.score.(l) <- s;
  let v = var l in
  if s > t.var_activity.(v) then begin
    t.var_activity.(v) <- s;
    if s > 1e100 then rescale_scores t;
    Heap.increase t.order v
  end

let bump_lits t cr =
  for k = 1 to size t.arena cr do
    bump_lit t t.arena.(cr + k)
  done

(* VSIDS decay (the paper's periodic halving): every [decay_interval]
   conflicts, scores are multiplied by [decay_factor], by growing the bump
   increment instead. *)
let decay_interval = 256

let decay_factor = 0.5

let decay_scores t = t.var_inc <- t.var_inc /. decay_factor

let bump_clause_activity t cr =
  let a = t.arena in
  if is_learned a cr then begin
    let x = activity a cr +. t.cla_inc in
    set_activity a cr x;
    if x > 1e100 then begin
      iter (fun c -> set_activity a c (activity a c *. 1e-100)) t.learnts;
      t.cla_inc <- t.cla_inc *. 1e-100
    end
  end

(* ---------- assignment primitives ---------- *)

(* Whether some literal of clause [cr] from slot [k] on, on a variable
   other than [v], is tainted. *)
let rec other_tainted t a cr v k =
  k <= size a cr
  && ((var a.(cr + k) <> v && t.tainted.(var a.(cr + k))) || other_tainted t a cr v (k + 1))

(* [taint] is only consulted for root-level assignments without an
   antecedent clause; with an antecedent the taint is inherited from the
   clause's other literals. *)
let enqueue ?(taint = false) t l reason =
  let v = var l in
  Bytes.unsafe_set t.vals l v_true;
  Bytes.unsafe_set t.vals (negate l) v_false;
  t.levels.(v) <- t.lim_n;
  t.reasons.(v) <- reason;
  if t.lim_n = 0 then begin
    t.tainted.(v) <- (if reason = no_reason then taint else other_tainted t t.arena reason v 1);
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
  t.trail.(t.trail_n) <- l;
  t.trail_n <- t.trail_n + 1

let backtrack t level =
  if t.lim_n > level then begin
    let keep = t.trail_lim.(level) in
    for i = t.trail_n - 1 downto keep do
      let l = t.trail.(i) in
      let v = var l in
      t.phase.(v) <- l land 1 = 0;
      Bytes.unsafe_set t.vals l v_unknown;
      Bytes.unsafe_set t.vals (negate l) v_unknown;
      t.reasons.(v) <- no_reason;
      Heap.insert t.order v
    done;
    t.trail_n <- keep;
    t.lim_n <- level;
    t.qhead <- keep
  end

(* ---------- propagation ---------- *)

let add_watch t l cr blocker =
  let n = t.watch_n.(l) in
  let ws =
    let ws = t.watches.(l) in
    if 2 * n < Array.length ws then ws
    else begin
      let grown = Array.make (2 * max 4 (2 * n)) 0 in
      for i = 0 to (2 * n) - 1 do
        grown.(i) <- ws.(i)
      done;
      t.watches.(l) <- grown;
      grown
    end
  in
  ws.(2 * n) <- cr;
  ws.((2 * n) + 1) <- blocker;
  t.watch_n.(l) <- n + 1

(* Live watch entries keep their relative order; entries of deleted
   clauses are dropped when met, unless a true blocker keeps the clause
   from being looked at.  On a conflict the rest of the list is kept as
   it is.  Nothing here allocates, so the arena stays where it is. *)
let propagate t =
  let start = Obs.Clock.now_ns () in
  let a = t.arena in
  let confl = ref no_reason in
  while !confl = no_reason && t.qhead < t.trail_n do
    let p = t.trail.(t.qhead) in
    t.qhead <- t.qhead + 1;
    t.stats.propagations <- t.stats.propagations + 1;
    let false_lit = negate p in
    let ws = t.watches.(false_lit) and n = t.watch_n.(false_lit) in
    (* the library is built with -unsafe: one check covers the loop *)
    if 2 * n > Array.length ws then invalid_arg "Solver.propagate: watch list";
    let i = ref 0 and j = ref 0 in
    while !i < n do
      let cr = ws.(2 * !i) and b = ws.((2 * !i) + 1) in
      incr i;
      if lit_true t b then begin
        ws.(2 * !j) <- cr;
        ws.((2 * !j) + 1) <- b;
        incr j
      end
      else if not (is_deleted a cr) then begin
        if a.(cr + 1) = false_lit then begin
          a.(cr + 1) <- a.(cr + 2);
          a.(cr + 2) <- false_lit
        end;
        let first = a.(cr + 1) in
        if lit_true t first then begin
          ws.(2 * !j) <- cr;
          ws.((2 * !j) + 1) <- first;
          incr j
        end
        else begin
          let last = cr + size a cr in
          let k = ref (cr + 3) in
          while !k <= last && lit_false t a.(!k) do
            incr k
          done;
          if !k <= last then begin
            (* found a replacement watch; move the clause to its list *)
            let w = a.(!k) in
            a.(cr + 2) <- w;
            a.(!k) <- false_lit;
            add_watch t w cr first
          end
          else begin
            ws.(2 * !j) <- cr;
            ws.((2 * !j) + 1) <- b;
            incr j;
            if lit_false t first then begin
              confl := cr;
              while !i < n do
                ws.(2 * !j) <- ws.(2 * !i);
                ws.((2 * !j) + 1) <- ws.((2 * !i) + 1);
                incr i;
                incr j
              done
            end
            else enqueue t first cr
          end
        end
      end
    done;
    t.watch_n.(false_lit) <- !j
  done;
  t.bcp_ns <- t.bcp_ns + (Obs.Clock.now_ns () - start);
  if !confl = no_reason then None else Some !confl

(* ---------- conflict analysis (FirstUIP) ---------- *)

(* Writes the learned clause at the top of the arena, uncommitted (see
   [record_learned]), and returns it with its backjump level. *)
let analyze t confl =
  let learnt = t.learnt_buf and to_clear = t.to_clear in
  learnt.len <- 0;
  to_clear.len <- 0;
  push learnt 0 (* placeholder for the asserting literal *);
  let counter = ref 0 in
  let p = ref (-1) in
  let reason_clause = ref confl in
  let index = ref (t.trail_n - 1) in
  let dlevel = t.lim_n in
  let finished = ref false in
  while not !finished do
    let c = !reason_clause in
    bump_clause_activity t c;
    let a = t.arena in
    let start = if !p = -1 then 1 else 2 in
    for k = start to size a c do
      let q = a.(c + k) in
      let v = var q in
      if not t.seen.(v) then begin
        if t.levels.(v) > 0 then begin
          t.seen.(v) <- true;
          push to_clear v;
          if t.levels.(v) >= dlevel then incr counter else push learnt q
        end
        else if t.tainted.(v) then begin
          (* root assumption: keep it so the learned clause stays
             globally valid and can be shared with every client *)
          t.seen.(v) <- true;
          push to_clear v;
          push learnt q
        end
      end
    done;
    while not t.seen.(var t.trail.(!index)) do
      decr index
    done;
    p := t.trail.(!index);
    decr index;
    t.seen.(var !p) <- false;
    decr counter;
    if !counter = 0 then finished := true
    else begin
      reason_clause := t.reasons.(var !p);
      assert (!reason_clause <> no_reason) (* only the UIP can lack an antecedent *)
    end
  done;
  learnt.items.(0) <- negate !p;
  (* Optional local clause minimization (an extension beyond zChaff-2001):
     a non-asserting literal is redundant if every literal of its
     antecedent is already in the learned clause (seen) or is an untainted
     root fact.  Removing it is a self-subsuming resolution step, so the
     clause stays globally valid. *)
  if t.cfg.minimize_learned then begin
    let a = t.arena in
    let redundant q =
      let v = var q in
      let c = t.reasons.(v) in
      let rec implied k =
        k > size a c
        ||
        let rv = var a.(c + k) in
        (rv = v || t.seen.(rv) || (t.levels.(rv) = 0 && not t.tainted.(rv))) && implied (k + 1)
      in
      t.levels.(v) > 0 && c <> no_reason && implied 1
    in
    (* the kept literals follow the asserting one from last to first *)
    let ls = learnt.items and n = learnt.len in
    for k = 1 to (n - 1) / 2 do
      let q = ls.(k) in
      ls.(k) <- ls.(n - k);
      ls.(n - k) <- q
    done;
    let kept = ref 1 in
    for k = 1 to n - 1 do
      let q = ls.(k) in
      if not (redundant q) then begin
        ls.(!kept) <- q;
        incr kept
      end
    done;
    learnt.len <- !kept
  end;
  let n = learnt.len in
  let c = alloc t ~learned:true n in
  let a = t.arena in
  for k = 0 to n - 1 do
    a.(c + 1 + k) <- learnt.items.(k)
  done;
  for k = 0 to to_clear.len - 1 do
    t.seen.(to_clear.items.(k)) <- false
  done;
  (* Backjump level: the highest level among the non-asserting literals;
     put that literal in slot 2 so it can be watched. *)
  let blevel = ref 0 in
  let at = ref 2 in
  for k = 2 to n do
    let lv = t.levels.(var a.(c + k)) in
    if lv > !blevel then begin
      blevel := lv;
      at := k
    end
  done;
  if n > 1 then begin
    let tmp = a.(c + 2) in
    a.(c + 2) <- a.(c + !at);
    a.(c + !at) <- tmp
  end;
  (c, !blevel)

(* ---------- clause construction ---------- *)

let watch_clause t cr =
  let a = t.arena in
  add_watch t a.(cr + 1) cr a.(cr + 2);
  add_watch t a.(cr + 2) cr a.(cr + 1)

let count_clause t cr =
  t.n_active_clauses <- t.n_active_clauses + 1;
  t.db_lits <- t.db_lits + size t.arena cr

let delete_clause t cr =
  let a = t.arena in
  if not (is_deleted a cr) then begin
    proof_delete t cr;
    a.(cr) <- a.(cr) lor 1;
    t.n_active_clauses <- t.n_active_clauses - 1;
    t.db_lits <- t.db_lits - size a cr;
    t.arena_dead <- t.arena_dead + extent a cr
  end

let record_share t cr =
  if size t.arena cr <= t.cfg.share_export_max then begin
    if Queue.length t.fresh_shares >= 8192 then ignore (Queue.pop t.fresh_shares);
    Queue.push (lits t.arena cr) t.fresh_shares
  end

(* Record a learned clause from [analyze] (already backjumped to its
   assertion level) and enqueue its asserting literal.  A unit is not
   kept in the arena. *)
let record_learned t cr =
  proof_add t cr;
  t.stats.learned <- t.stats.learned + 1;
  t.stats.learned_literals <- t.stats.learned_literals + size t.arena cr;
  record_share t cr;
  bump_lits t cr;
  if size t.arena cr = 1 then enqueue t t.arena.(cr + 1) no_reason
  else begin
    set_activity t.arena cr t.cla_inc;
    commit t cr;
    watch_clause t cr;
    count_clause t cr;
    push t.learnts cr;
    enqueue t t.arena.(cr + 1) cr
  end

(* A false root literal may only be stripped when it is untainted (its
   negation is implied by the global formula); tainted literals stay so the
   clause remains globally valid. *)
let strippable t l = lit_false t l && not t.tainted.(var l)

(* One pass over a clause at decision level 0.  Returns false if one of
   its literals is true.  Otherwise sets [root_unknown] to the number of
   unknown literals and [root_kept] to the number that survive stripping:
   the unknown ones and the tainted false ones. *)
let count_root t cr =
  let a = t.arena in
  let last = cr + size a cr in
  let unknown = ref 0 and kept = ref 0 and k = ref (cr + 1) in
  while !k <= last && not (lit_true t a.(!k)) do
    let l = a.(!k) in
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

let rec first_unknown t a k = if lit_unknown t a.(k) then a.(k) else first_unknown t a (k + 1)

(* Rewrites a clause counted by [count_root] in place to its [root_kept]
   surviving literals: the unknown ones first, then the kept false ones,
   each group in its original order.  Each literal is read before its
   slot can be written.  A learned clause's activity moves down behind
   the kept literals; the slots freed are the caller's to account. *)
let strip_root t cr =
  let a = t.arena in
  let kept_false = t.root_buf in
  kept_false.len <- 0;
  let n = size a cr and learned = is_learned a cr in
  let act_hi = if learned then a.(cr + n + 1) else 0
  and act_lo = if learned then a.(cr + n + 2) else 0 in
  let u = ref (cr + 1) in
  for k = cr + 1 to cr + n do
    let l = a.(k) in
    if lit_unknown t l then begin
      a.(!u) <- l;
      incr u
    end
    else if not (strippable t l) then push kept_false l
  done;
  for i = 0 to kept_false.len - 1 do
    a.(!u + i) <- kept_false.items.(i)
  done;
  set_size a cr t.root_kept;
  if learned then begin
    a.(cr + t.root_kept + 1) <- act_hi;
    a.(cr + t.root_kept + 2) <- act_lo
  end

(* A clause counted by [count_root] with at most one unknown literal:
   with none, the subproblem is refuted; with one, it is implied at the
   root, tainted if a kept false literal is. *)
let root_unit_or_conflict t cr =
  if t.root_unknown = 0 then begin
    proof_refute t;
    t.ok <- false
  end
  else begin
    let l = first_unknown t t.arena (cr + 1) in
    proof_unit t l;
    enqueue ~taint:(t.root_kept > 1) t l no_reason
  end

let rec unknown_upto t a k last = k > last || (lit_unknown t a.(k) && unknown_upto t a (k + 1) last)

(* Whether [strip_root] would leave the clause counted by [count_root] as
   it is: nothing stripped, no kept false literal ahead of an unknown
   one. *)
let root_unchanged t cr =
  t.root_kept = size t.arena cr && unknown_upto t t.arena (cr + 1) (cr + t.root_unknown)

(* Install a clause nobody else refers to while at decision level 0:
   discard if satisfied, strip untainted false literals, then either
   record the conflict, enqueue the root implication, or keep the
   surviving literals, unknown ones in the watched slots.  A kept clause
   is counted and its literals bumped; the caller watches it and puts it
   in its list. *)
let install_clause_root t cr =
  assert (t.lim_n = 0);
  if not (count_root t cr) then `Satisfied
  else if t.root_unknown <= 1 then begin
    root_unit_or_conflict t cr;
    if t.root_unknown = 0 then `Conflict else `Implication
  end
  else begin
    let n = size t.arena cr in
    if not (root_unchanged t cr) then strip_root t cr;
    (* an original clause installed verbatim is already in the checker's
       database; logging it would only bloat transferred proof
       fragments.  A proof step is owed only when the stored clause
       differs from the formula: learned/foreign, or strengthened by
       root-level stripping. *)
    if is_learned t.arena cr || size t.arena cr < n then proof_add t cr;
    count_clause t cr;
    bump_lits t cr;
    `Added
  end

(* Drops deleted clauses, keeping the order of the others. *)
let compact_clause_list t (s : ints) =
  let j = ref 0 in
  for i = 0 to s.len - 1 do
    let cr = s.items.(i) in
    if not (is_deleted t.arena cr) then begin
      s.items.(!j) <- cr;
      incr j
    end
  done;
  s.len <- !j

(* ---------- learned-DB reduction ---------- *)

let clause_locked t cr =
  size t.arena cr > 0
  &&
  let v = var t.arena.(cr + 1) in
  t.reasons.(v) = cr && not (var_unknown t v)

let reduce_db t =
  let sp =
    if t.obs_on then
      Obs.Span.enter (Obs.spans t.obs) ~parent:t.obs_parent ~tid:t.obs_tid ~cat:"solver"
        ~args:[ ("learnts", Obs.Json.Int t.learnts.len) ]
        "reduce_db"
    else Obs.Span.none
  in
  compact_clause_list t t.learnts;
  (* newest first: the order this (unstable) sort has always been given *)
  let n = t.learnts.len in
  let arr = Array.make n 0 in
  for i = 0 to n - 1 do
    arr.(i) <- t.learnts.items.(n - 1 - i)
  done;
  let a = t.arena in
  Array.sort (fun x y -> Float.compare (activity a x) (activity a y)) arr;
  let target = n / 2 in
  let removed = ref 0 in
  Array.iter
    (fun cr ->
      if !removed < target && (not (clause_locked t cr)) && size a cr > 2 then begin
        delete_clause t cr;
        incr removed
      end)
    arr;
  t.stats.deleted <- t.stats.deleted + !removed;
  compact_clause_list t t.learnts;
  maybe_compact t;
  if t.obs_on then
    Obs.Span.exit (Obs.spans t.obs) sp ~args:[ ("deleted", Obs.Json.Int !removed) ]

(* ---------- root-level simplification (the paper's pruning pass) ---------- *)

let rebuild_watches t =
  Array.fill t.watch_n 0 (Array.length t.watch_n) 0;
  maybe_compact t;
  iter (watch_clause t) t.clauses;
  iter (watch_clause t) t.learnts

(* A clause with nothing to strip is left as it is, literal order
   included; a strengthened one is rewritten where it is. *)
let simplify_clause_root t cr =
  if not (is_deleted t.arena cr) then begin
    if not (count_root t cr) then delete_clause t cr
    else if t.root_unknown <= 1 then begin
      root_unit_or_conflict t cr;
      delete_clause t cr
    end
    else if t.root_kept < size t.arena cr then begin
      let before = if t.cfg.emit_proof then lits t.arena cr else [||] in
      let freed = size t.arena cr - t.root_kept in
      t.db_lits <- t.db_lits - freed;
      t.arena_dead <- t.arena_dead + freed;
      strip_root t cr;
      proof_add t cr;
      proof_delete_lits t before
    end
  end

let simplify_db t =
  assert (t.lim_n = 0);
  let sp =
    if t.obs_on then
      Obs.Span.enter (Obs.spans t.obs) ~parent:t.obs_parent ~tid:t.obs_tid ~cat:"solver"
        ~args:[ ("root_lits", Obs.Json.Int t.trail_n) ]
        "simplify_db"
    else Obs.Span.none
  in
  (* Root-assigned variables never participate in conflict analysis, so
     their antecedents may be forgotten before clauses are deleted. *)
  for i = 0 to t.trail_n - 1 do
    t.reasons.(var t.trail.(i)) <- no_reason
  done;
  iter (simplify_clause_root t) t.clauses;
  iter (simplify_clause_root t) t.learnts;
  compact_clause_list t t.clauses;
  compact_clause_list t t.learnts;
  rebuild_watches t;
  t.last_simplify_trail <- t.trail_n;
  t.stats.root_simplifications <- t.stats.root_simplifications + 1;
  if t.obs_on then Obs.Span.exit (Obs.spans t.obs) sp

(* ---------- foreign clause merging (paper Section 3.2, four cases) ---------- *)

let pending_foreign t = Queue.length t.pending_foreign

let queue_foreign_clauses t cs = List.iter (fun c -> Queue.push c t.pending_foreign) cs

let merge_foreign t =
  assert (t.lim_n = 0);
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
    let n = Array.length foreign in
    let cr = alloc t ~learned:true n in
    for k = 0 to n - 1 do
      t.arena.(cr + 1 + k) <- foreign.(k)
    done;
    match install_clause_root t cr with
    | `Satisfied -> t.stats.foreign_discarded <- t.stats.foreign_discarded + 1
    | `Conflict -> () (* all literals false: the subproblem is unsatisfiable *)
    | `Implication -> t.stats.foreign_implications <- t.stats.foreign_implications + 1
    | `Added ->
        set_activity t.arena cr t.cla_inc;
        commit t cr;
        watch_clause t cr;
        push t.learnts cr;
        t.stats.foreign_merged <- t.stats.foreign_merged + 1
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

(* The share of decisions that pick a random unassigned variable instead
   of the highest-scoring one. *)
let random_decision_freq = 0.02

let pick_branch_var t =
  let v =
    if Random.State.float t.rng 1.0 < random_decision_freq then random_unassigned t 8
    else 0
  in
  if v = 0 then heap_unassigned t else v

let new_level t =
  t.trail_lim.(t.lim_n) <- t.trail_n;
  t.lim_n <- t.lim_n + 1

let decide t =
  match pick_branch_var t with
  | 0 -> false
  | v ->
      let l =
        if t.cfg.phase_saving then if t.phase.(v) then pos v else negate (pos v)
        else if t.score.(pos v) >= t.score.(negate (pos v)) then pos v
        else negate (pos v)
      in
      new_level t;
      enqueue t l no_reason;
      t.stats.decisions <- t.stats.decisions + 1;
      if t.lim_n > t.stats.max_decision_level then t.stats.max_decision_level <- t.lim_n;
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
  if t.obs_on then
    ignore
      (Obs.Span.instant (Obs.spans t.obs) ~parent:t.obs_parent ~tid:t.obs_tid ~cat:"solver"
         ~args:[ ("restarts", Obs.Json.Int t.stats.restarts) ]
         "restart")

(* ---------- construction ---------- *)

(* A solver's RNG until its clauses are counted. *)
let unseeded = Random.State.make [||]

(* The solver's arena comes from, and goes back to, this spare slot. *)
let arena_slot = Arena.ints ()

(* What a released solver leaves for the next build over as many
   variables: its per-variable arrays and its stacks, which that build
   fills afresh instead of making its own.  Every watch list keeps its
   room, and every stack its capacity: neither steers search, they only
   save growing. *)
type vars = {
  v_nvars : int;
  v_vals : Bytes.t;
  v_tainted : bool array;
  v_levels : int array;
  v_reasons : int array;
  v_score : float array;
  v_activity : float array;
  v_watches : int array array;
  v_watch_n : int array;
  v_order : Heap.t;
  v_trail : T.lit array;
  v_trail_lim : int array;
  v_clauses : ints;
  v_learnts : ints;
  v_seen : bool array;
  v_phase : bool array;
  v_learnt_buf : ints;
  v_to_clear : ints;
  v_root_buf : ints;
}

let vars_words v =
  let stacks = [ v.v_clauses; v.v_learnts; v.v_learnt_buf; v.v_to_clear; v.v_root_buf ] in
  (14 * (v.v_nvars + 1))
  + Array.fold_left (fun n ws -> n + Array.length ws) 0 v.v_watches
  + List.fold_left (fun n s -> n + Array.length s.items) 0 stacks

let vars_slot = Arena.slot vars_words

let new_vars nvars ~clauses =
  let v_activity = Array.make (nvars + 1) 0. in
  {
    v_nvars = nvars;
    v_vals = Bytes.make (2 * (nvars + 1)) v_unknown;
    v_tainted = Array.make (nvars + 1) false;
    v_levels = Array.make (nvars + 1) 0;
    v_reasons = Array.make (nvars + 1) no_reason;
    v_score = Array.make (2 * (nvars + 1)) 0.;
    v_activity;
    v_watches = Array.make (2 * (nvars + 1)) [||];
    v_watch_n = Array.make (2 * (nvars + 1)) 0;
    v_order = Heap.create ~nvars ~key:v_activity;
    v_trail = Array.make (nvars + 1) 0;
    v_trail_lim = Array.make (nvars + 1) 0;
    v_clauses = ints clauses;
    v_learnts = ints 16;
    v_seen = Array.make (nvars + 1) false;
    v_phase = Array.make (nvars + 1) false;
    v_learnt_buf = ints 16;
    v_to_clear = ints 16;
    v_root_buf = ints 16;
  }

(* A spare's arrays, holding what [new_vars] would put there. *)
let refill v =
  let fill a x = Array.fill a 0 (Array.length a) x in
  Bytes.fill v.v_vals 0 (Bytes.length v.v_vals) v_unknown;
  fill v.v_tainted false;
  fill v.v_levels 0;
  fill v.v_reasons no_reason;
  fill v.v_score 0.;
  fill v.v_activity 0.;
  fill v.v_watch_n 0;
  Heap.clear v.v_order;
  fill v.v_trail 0;
  fill v.v_trail_lim 0;
  fill v.v_seen false;
  fill v.v_phase false;
  List.iter (fun s -> s.len <- 0) [ v.v_clauses; v.v_learnts; v.v_learnt_buf; v.v_to_clear; v.v_root_buf ];
  v

let take_vars nvars ~clauses =
  match Arena.take vars_slot (fun v -> v.v_nvars = nvars) with
  | Some v -> refill v
  | None -> new_vars nvars ~clauses

(* Keeps the installed clause at [arena_top]: listed, its two watches
   counted (the lists are made after the last clause), the top moved
   past it. *)
let keep_installed t cr =
  let a = t.arena in
  t.watch_n.(a.(cr + 1)) <- t.watch_n.(a.(cr + 1)) + 1;
  t.watch_n.(a.(cr + 2)) <- t.watch_n.(a.(cr + 2)) + 1;
  push t.clauses cr;
  commit t cr

(* Installs the clause just written at [arena_top] whose literals are
   canonical (in increasing order, one per variable, all in range) and
   all unknown, with at least two of them: nothing to strip, no proof
   step owed, so it is counted and its literals are bumped in one pass
   over it. *)
let install_fresh t cr =
  let a = t.arena in
  let n = size a cr in
  t.n_active_clauses <- t.n_active_clauses + 1;
  t.db_lits <- t.db_lits + n;
  for k = cr + 1 to cr + n do
    bump_lit t a.(k)
  done;
  keep_installed t cr

(* The one construction path.  Every input clause is copied to the top of
   an arena of the input's size and a quarter more, and checked on the
   way: a clause whose literals increase by more than one code each
   ([Types] encodes [v] as [2v], [-v] as [2v + 1]) and end in range is
   canonical, what {!Arena.normalise_in_place} would leave it; any other
   is normalised there, a tautology dropped.  It is installed where it
   was copied, so the kept clauses end up packed in input order.  The RNG
   is seeded with the number of clauses left after normalising, counted
   after a refutation too, as is the range of every clause.  Each watch
   list is made once, at its size, after the last clause.

   The spare quarter is for learned clauses.  An arena past 256 words is
   made on the major heap, and where the live heap is large each word
   made there costs collector work at once: on the 10,000-job service
   batch, where most searches learn a few clauses, growing an exactly
   sized arena made conflict handling three times as slow.  So the arena
   is taken from the spare slot, where {!release} leaves one; its length
   never steers search (growth only copies, and [maybe_compact] reads
   [arena_top]), so a longer one does as well as a new one. *)
let create_internal cfg ~nvars ~obs ~obs_tid ~facts ~assumptions (clauses : Arena.t) =
  let src = clauses.lits and starts = clauses.starts in
  let nc = Arena.nclauses clauses in
  let slots = nc + Arena.nlits clauses in
  let a = Arena.take_ints arena_slot (slots + (slots / 4)) in
  (* normalising never empties a clause, so an empty one is empty here *)
  let has_empty = ref false in
  for k = 0 to nc - 1 do
    if starts.(k) = starts.(k + 1) then has_empty := true
  done;
  let v = take_vars nvars ~clauses:nc in
  let stats = Stats.create () in
  let t =
    {
      cfg;
      nvars;
      vals = v.v_vals;
      tainted = v.v_tainted;
      levels = v.v_levels;
      reasons = v.v_reasons;
      score = v.v_score;
      var_activity = v.v_activity;
      arena = a;
      arena_top = 0;
      arena_dead = 0;
      watches = v.v_watches;
      watch_n = v.v_watch_n;
      order = v.v_order;
      trail = v.v_trail;
      trail_n = 0;
      trail_lim = v.v_trail_lim;
      lim_n = 0;
      qhead = 0;
      clauses = v.v_clauses;
      learnts = v.v_learnts;
      ok = not !has_empty;
      released = false;
      seen = v.v_seen;
      phase = v.v_phase;
      var_inc = 1.0;
      cla_inc = 1.0;
      stats;
      conflicts_since_restart = 0;
      restart_limit = cfg.restart_base;
      luby_index = 1;
      n_active_clauses = 0;
      db_lits = 0;
      pending_foreign = Queue.create ();
      fresh_shares = Queue.create ();
      last_simplify_trail = 0;
      proof_rev = [];
      rng = unseeded;
      learnt_buf = v.v_learnt_buf;
      to_clear = v.v_to_clear;
      root_buf = v.v_root_buf;
      root_unknown = 0;
      root_kept = 0;
      bcp_ns = 0;
      run_ns = 0;
      obs;
      obs_on = Obs.enabled obs;
      obs_tid;
      obs_parent = Obs.Span.none;
    }
  in
  for v = 1 to nvars do
    Heap.insert t.order v
  done;
  let assert_root taint l =
    match value_of_lit t l with
    | T.Unknown -> enqueue ~taint t l no_reason
    | T.True -> ()
    | T.False -> t.ok <- false
  in
  List.iter (assert_root false) facts;
  List.iter (assert_root true) assumptions;
  let n = ref 0 and last = (2 * nvars) + 1 in
  for k = 0 to nc - 1 do
    let s = starts.(k) and cr = t.arena_top in
    let len = starts.(k + 1) - s in
    let prev = ref 1 and canonical = ref true in
    for i = 0 to len - 1 do
      let l = src.(s + i) in
      a.(cr + 1 + i) <- l;
      if l <= !prev lor 1 then canonical := false;
      prev := l
    done;
    let canonical = !canonical && !prev <= last in
    let e = if canonical then cr + 1 + len else Arena.normalise_in_place ~nvars a (cr + 1) (cr + 1 + len) in
    if e > 0 then begin
      incr n;
      a.(cr) <- (e - cr - 1) lsl 2;
      if t.ok then
        if canonical && len >= 2 && (t.trail_n = 0 || unknown_upto t a (cr + 1) (e - 1)) then
          install_fresh t cr
        else
          match install_clause_root t cr with
          | `Added -> keep_installed t cr
          | `Satisfied | `Conflict | `Implication -> ()
    end
  done;
  t.rng <- Random.State.make [| cfg.seed; nvars; !n |];
  (let m = Obs.metrics obs in
   if Obs.Metrics.is_enabled m then
     let labels = [ ("client", string_of_int obs_tid) ] in
     List.iter
       (fun (name, read) -> Obs.Metrics.view m ~labels name read)
       [
         ("solver.decisions", fun () -> stats.decisions);
         ("solver.conflicts", fun () -> stats.conflicts);
         ("solver.learned", fun () -> stats.learned);
         ("solver.restarts", fun () -> stats.restarts);
       ]);
  for l = 0 to Array.length t.watch_n - 1 do
    if t.watch_n.(l) > 0 then begin
      if 2 * t.watch_n.(l) > Array.length t.watches.(l) then
        t.watches.(l) <- Array.make (2 * t.watch_n.(l)) 0;
      t.watch_n.(l) <- 0
    end
  done;
  iter (watch_clause t) t.clauses;
  if t.ok then (match propagate t with Some _ -> t.ok <- false | None -> ());
  t

let create ?(config = default_config) ?(obs = Obs.disabled) ?(obs_tid = Obs.Span.run_tid) cnf =
  create_internal config ~nvars:(Cnf.nvars cnf) ~obs ~obs_tid ~facts:[] ~assumptions:[]
    (Cnf.clauses cnf)

let create_with_roots ?(config = default_config) ?(obs = Obs.disabled)
    ?(obs_tid = Obs.Span.run_tid) ?(facts = []) ~nvars clauses assumptions =
  if nvars < 0 then invalid_arg "Cnf: negative nvars";
  create_internal config ~nvars ~obs ~obs_tid ~facts ~assumptions clauses

(* The arena goes back to the spare slot, so any later call on [t] must
   fail before it reads the arena. *)
let release t =
  if not t.released then begin
    t.released <- true;
    Arena.give arena_slot t.arena;
    t.arena <- [||];
    Arena.give vars_slot
      {
        v_nvars = t.nvars;
        v_vals = t.vals;
        v_tainted = t.tainted;
        v_levels = t.levels;
        v_reasons = t.reasons;
        v_score = t.score;
        v_activity = t.var_activity;
        v_watches = t.watches;
        v_watch_n = t.watch_n;
        v_order = t.order;
        v_trail = t.trail;
        v_trail_lim = t.trail_lim;
        v_clauses = t.clauses;
        v_learnts = t.learnts;
        v_seen = t.seen;
        v_phase = t.phase;
        v_learnt_buf = t.learnt_buf;
        v_to_clear = t.to_clear;
        v_root_buf = t.root_buf;
      }
  end

(* ---------- model extraction ---------- *)

let extract_model t =
  let a = Array.make (t.nvars + 1) false in
  for v = 1 to t.nvars do
    a.(v) <- lit_true t (pos v)
  done;
  Model.of_array a

(* ---------- conflict-info capture ---------- *)

let capture_graph t =
  List.map
    (fun l ->
      let v = var l in
      (v, t.levels.(v), antecedent_of_var t v))
    (trail_literals t)

(* ---------- main search ---------- *)

let learned_cap t =
  int_of_float (t.cfg.learned_cap_factor *. float_of_int t.clauses.len) + t.cfg.learned_cap_min

(* A conflict at the root refutes the subproblem ([ok] turns false). *)
let handle_conflict t confl =
  t.stats.conflicts <- t.stats.conflicts + 1;
  t.conflicts_since_restart <- t.conflicts_since_restart + 1;
  if t.lim_n = 0 then begin
    proof_refute t;
    t.ok <- false
  end
  else begin
    let c, blevel = analyze t confl in
    backtrack t blevel;
    record_learned t c;
    if t.stats.conflicts mod decay_interval = 0 then decay_scores t;
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
      if t.lim_n = 0 then begin
        merge_foreign t;
        if t.ok && t.trail_n > t.last_simplify_trail && t.qhead = t.trail_n then simplify_db t
      end;
      if not t.ok then result := Some Unsat
      else
        match propagate t with
        | Some confl ->
            handle_conflict t confl;
            if not t.ok then result := Some Unsat
            else begin
              if t.cfg.reduce_db_enabled && t.learnts.len > learned_cap t then reduce_db t;
              if over_mem_limit t then begin
                if t.cfg.reduce_db_enabled then reduce_db t;
                if over_mem_limit t then result := Some Mem_pressure
              end
            end
        | None ->
            if t.stats.propagations - start_props >= budget then result := Some Budget_exhausted
            else if
              t.cfg.restarts_enabled && t.conflicts_since_restart >= t.restart_limit && t.lim_n > 0
            then restart t
            else if t.lim_n = 0 && pending_foreign t > 0 then
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
  if t.lim_n = 0 then None
  else begin
    let level1_start = t.trail_lim.(0) in
    let level1_end = if t.lim_n > 1 then t.trail_lim.(1) else t.trail_n in
    let first_decision = t.trail.(level1_start) in
    let roots_before = root_lits t in
    let facts = List.filter (fun l -> not t.tainted.(var l)) roots_before in
    let path = List.filter (fun l -> t.tainted.(var l)) roots_before in
    let level1 = ref [] in
    for i = level1_end - 1 downto level1_start do
      level1 := t.trail.(i) :: !level1
    done;
    backtrack t 0;
    (* commit this side of the branch: the whole first decision level moves
       into the root as (tainted) guiding-path assumptions ([enqueue] logs
       each as a unit proof step, keeping the fragment checkable after the
       original antecedents are forgotten) *)
    List.iter
      (fun l ->
        match value_of_lit t l with
        | T.Unknown -> enqueue ~taint:true t l no_reason
        | T.True -> ()
        | T.False -> t.ok <- false)
      !level1;
    Some (facts, path @ [ negate first_decision ])
  end

(* ---------- transfer helpers ---------- *)

(* Root-level truth tests: a literal assigned at decision level 0. *)
let root_true t l = lit_true t l && t.levels.(var l) = 0

let root_strippable t l = lit_false t l && t.levels.(var l) = 0 && not t.tainted.(var l)

(* Appends the clause as it travels: none if deleted, satisfied at the
   root or containing [drop], else its literals in order without the
   strippable root-false ones. *)
let push_visible t ~drop b cr =
  let a = t.arena in
  let last = cr + size a cr in
  let k = ref (cr + 1) and hidden = ref 0 in
  while !k <= last && a.(!k) <> drop && not (root_true t a.(!k)) do
    if root_strippable t a.(!k) then incr hidden;
    incr k
  done;
  if not (is_deleted a cr || !k <= last) then begin
    if !hidden = 0 then Arena.push_slice b a (cr + 1) (size a cr)
    else
      for k = cr + 1 to last do
        if not (root_strippable t a.(k)) then Arena.push b a.(k)
      done;
    Arena.close b
  end

(* Room for every clause, which only shrinks on the way. *)
let visible_clauses t ~drop =
  let lits = fold (fun n cr -> n + size t.arena cr) in
  let b =
    Arena.buffer ~clauses:(t.clauses.len + t.learnts.len) ~lits:(lits (lits 0 t.clauses) t.learnts)
  in
  iter (push_visible t ~drop b) t.clauses;
  iter (push_visible t ~drop b) t.learnts;
  Arena.contents b

(* [-1] is no literal. *)
let active_clauses t = visible_clauses t ~drop:(-1)

(* The new branch's root adds only the complement of the first decision
   to the donor's root, so pruning the donor's active clauses against it
   can only drop the clauses that complement satisfies. *)
let split_clauses t =
  if t.lim_n = 0 then invalid_arg "Solver.split_clauses: no decision";
  visible_clauses t ~drop:(negate t.trail.(t.trail_lim.(0)))

let transfer_bytes t =
  let roots = List.length (root_lits t) in
  db_bytes t + (8 * roots) + 64

(* ---------- manual driving (Figure 1 replay) ---------- *)

let decide_manual t l =
  if t.qhead <> t.trail_n then invalid_arg "Solver.decide_manual: propagation pending";
  if not (lit_unknown t l) then invalid_arg "Solver.decide_manual: variable assigned";
  new_level t;
  enqueue t l no_reason;
  t.stats.decisions <- t.stats.decisions + 1

let propagate_manual t =
  match propagate t with
  | None -> `Ok
  | Some confl ->
      let conflicting_clause = lits t.arena confl in
      let conflicting_var = var t.arena.(confl + 1) in
      let implication_graph = capture_graph t in
      if t.lim_n = 0 then begin
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
        let learned = lits t.arena c in
        backtrack t blevel;
        record_learned t c;
        `Conflict
          {
            conflicting_clause;
            conflicting_var;
            implication_graph;
            learned;
            uip_var = var learned.(0);
            backjump_level = blevel;
          }
      end

(* ---------- the calls from outside ---------- *)

(* Each fails on a released solver before it reads anything: {!release}
   gave the arena away. *)
let live t = if t.released then invalid_arg "Solver: released solver"

let run t ~budget = live t; run t ~budget
let solve ?budget t = live t; solve ?budget t
let stats t = live t; stats t
let set_obs_parent t sid = live t; set_obs_parent t sid
let nvars t = live t; nvars t
let decision_level t = live t; decision_level t
let n_learned t = live t; n_learned t
let db_bytes t = live t; db_bytes t
let is_ok t = live t; is_ok t
let drain_shares t ~max_len = live t; drain_shares t ~max_len
let queue_foreign_clauses t cs = live t; queue_foreign_clauses t cs
let pending_foreign t = live t; pending_foreign t
let root_lits t = live t; root_lits t
let root_facts t = live t; root_facts t
let root_path t = live t; root_path t
let split t = live t; split t
let active_clauses t = live t; active_clauses t
let split_clauses t = live t; split_clauses t
let transfer_bytes t = live t; transfer_bytes t
let value_of_var t v = live t; value_of_var t v
let level_of_var t v = live t; level_of_var t v
let antecedent_of_var t v = live t; antecedent_of_var t v
let trail_literals t = live t; trail_literals t
let decide_manual t l = live t; decide_manual t l
let propagate_manual t = live t; propagate_manual t
let proof t = live t; proof t

(* Signals are DIMACS-style ints with 0 reserved: variable v is v, its
   negation -v.  Constants are represented by a dedicated always-true
   variable allocated lazily. *)

type signal = Const of bool | Wire of int

type t = {
  mutable next_var : int;
  mutable clauses : int list list; (* DIMACS ints, reversed *)
}

let tru = Const true

let fls = Const false

let create () = { next_var = 0; clauses = [] }

let fresh t =
  t.next_var <- t.next_var + 1;
  t.next_var

let input t = Wire (fresh t)

let add t clause = t.clauses <- clause :: t.clauses

let snot = function Const b -> Const (not b) | Wire v -> Wire (-v)

(* AND gate via Tseitin: o <-> a & b. *)
let sand t a b =
  match (a, b) with
  | Const false, _ | _, Const false -> Const false
  | Const true, x | x, Const true -> x
  | Wire va, Wire vb ->
      if va = vb then a
      else if va = -vb then Const false
      else begin
        let o = fresh t in
        add t [ -o; va ];
        add t [ -o; vb ];
        add t [ o; -va; -vb ];
        Wire o
      end

let sor t a b = snot (sand t (snot a) (snot b))

(* XOR gate via Tseitin: o <-> a (+) b. *)
let sxor t a b =
  match (a, b) with
  | Const false, x | x, Const false -> x
  | Const true, x | x, Const true -> snot x
  | Wire va, Wire vb ->
      if va = vb then Const false
      else if va = -vb then Const true
      else begin
        let o = fresh t in
        add t [ -o; va; vb ];
        add t [ -o; -va; -vb ];
        add t [ o; -va; vb ];
        add t [ o; va; -vb ];
        Wire o
      end

let eq t a b = snot (sxor t a b)

let mux t ~sel a b = sor t (sand t (snot sel) a) (sand t sel b)

let big_or t = List.fold_left (sor t) (Const false)

let big_xor t = List.fold_left (sxor t) (Const false)

let full_adder t a b cin =
  let sum = sxor t (sxor t a b) cin in
  let carry = sor t (sand t a b) (sand t cin (sxor t a b)) in
  (sum, carry)

let ripple_add t a b =
  let n = max (List.length a) (List.length b) in
  let pad bits = bits @ List.init (n - List.length bits) (fun _ -> Const false) in
  let a = pad a and b = pad b in
  let rec loop a b carry acc =
    match (a, b) with
    | [], [] -> List.rev (carry :: acc)
    | x :: a', y :: b' ->
        let s, c = full_adder t x y carry in
        loop a' b' c (s :: acc)
    | _ -> assert false
  in
  loop a b (Const false) []

let multiplier t a b =
  let width = List.length a + List.length b in
  let pad bits = bits @ List.init (max 0 (width - List.length bits)) (fun _ -> Const false) in
  let shift k bits = List.init k (fun _ -> Const false) @ bits in
  let partials =
    List.mapi (fun i bi -> pad (shift i (List.map (fun aj -> sand t aj bi) a))) b
  in
  let sum =
    List.fold_left
      (fun acc p ->
        let s = ripple_add t acc p in
        (* drop overflow bits beyond the result width *)
        List.filteri (fun i _ -> i < width) s)
      (pad []) partials
  in
  sum

let assert_sig t = function
  | Const true -> ()
  | Const false -> add t [] (* unsatisfiable circuit *)
  | Wire v -> add t [ v ]

let assert_equal_const t bits value =
  if value < 0 then invalid_arg "Circuit.assert_equal_const: negative value";
  List.iteri
    (fun i bit ->
      let want = value land (1 lsl i) <> 0 in
      assert_sig t (if want then bit else snot bit))
    bits;
  if value lsr List.length bits <> 0 then
    invalid_arg "Circuit.assert_equal_const: value does not fit"

let nvars t = t.next_var

let to_cnf t =
  (* empty clause marker: Cnf keeps it and reports trivial unsatisfiability *)
  Sat.Cnf.make ~nvars:t.next_var (List.rev t.clauses)

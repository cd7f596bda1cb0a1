type lit = int

type value = True | False | Unknown

let pos v = v * 2

let neg v = (v * 2) + 1

let lit_of_int i =
  if i = 0 then invalid_arg "Types.lit_of_int: zero"
  else if i > 0 then pos i
  else neg (-i)

let to_int l =
  let v = l lsr 1 in
  if l land 1 = 0 then v else -v

let var l = l lsr 1

let is_pos l = l land 1 = 0

let negate l = l lxor 1

let lit_value v l =
  match v with
  | Unknown -> Unknown
  | True -> if is_pos l then True else False
  | False -> if is_pos l then False else True

let value_not = function
  | True -> False
  | False -> True
  | Unknown -> Unknown

let pp_lit ppf l = Format.fprintf ppf "%d" (to_int l)

let pp_value ppf = function
  | True -> Format.pp_print_string ppf "true"
  | False -> Format.pp_print_string ppf "false"
  | Unknown -> Format.pp_print_string ppf "unknown"

let pp_clause ppf lits =
  Format.pp_print_char ppf '(';
  Array.iteri
    (fun i l ->
      if i > 0 then Format.pp_print_string ppf " | ";
      pp_lit ppf l)
    lits;
  Format.pp_print_char ppf ')'

(* ---------- sorting literal arrays ---------- *)

(* Clauses are mostly short: insertion sort below the cutoff, heap sort
   above it.  Both compare unboxed ints in place and allocate nothing. *)
let insertion_sort (a : lit array) n =
  for i = 1 to n - 1 do
    let x = a.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && a.(!j) > x do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- x
  done

(* Restores max-heap order in [a.(0 .. n - 1)] below slot [i]. *)
let rec sift (a : lit array) n i =
  let l = (2 * i) + 1 in
  if l < n then begin
    let c = if l + 1 < n && a.(l + 1) > a.(l) then l + 1 else l in
    if a.(c) > a.(i) then begin
      let x = a.(i) in
      a.(i) <- a.(c);
      a.(c) <- x;
      sift a n c
    end
  end

let sort_lits (a : lit array) =
  let n = Array.length a in
  if n <= 16 then insertion_sort a n
  else begin
    for i = (n / 2) - 1 downto 0 do
      sift a n i
    done;
    for last = n - 1 downto 1 do
      let x = a.(0) in
      a.(0) <- a.(last);
      a.(last) <- x;
      sift a last 0
    done
  end

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

let pp_lit ppf l = Format.fprintf ppf "%d" (to_int l)

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
let insertion_sort (a : lit array) s e =
  for i = s + 1 to e - 1 do
    let x = a.(i) in
    let j = ref (i - 1) in
    while !j >= s && a.(!j) > x do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- x
  done

(* Restores max-heap order in the heap [a.(s .. s + n - 1)] below its
   slot [i]. *)
let rec sift (a : lit array) s n i =
  let l = (2 * i) + 1 in
  if l < n then begin
    let c = if l + 1 < n && a.(s + l + 1) > a.(s + l) then l + 1 else l in
    if a.(s + c) > a.(s + i) then begin
      let x = a.(s + i) in
      a.(s + i) <- a.(s + c);
      a.(s + c) <- x;
      sift a s n c
    end
  end

let sort_sub (a : lit array) s n =
  if n <= 16 then insertion_sort a s (s + n)
  else begin
    for i = (n / 2) - 1 downto 0 do
      sift a s n i
    done;
    for last = n - 1 downto 1 do
      let x = a.(s) in
      a.(s) <- a.(s + last);
      a.(s + last) <- x;
      sift a s last 0
    done
  end

let sort_lits a = sort_sub a 0 (Array.length a)

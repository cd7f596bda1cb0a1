type t = { lits : Types.lit array; starts : int array }

let empty = { lits = [||]; starts = [| 0 |] }

let nclauses t = Array.length t.starts - 1

let nlits t = t.starts.(nclauses t)

let clause t k = Array.sub t.lits t.starts.(k) (t.starts.(k + 1) - t.starts.(k))

(* Sorts [a.(s .. e - 1)] after checking its range, and compacts its
   distinct literals to the front.  Returns their end, or [-1] if a
   literal and its negation, adjacent once sorted, are both there.  The
   literal encoding is {!Types}': [l lsr 1] is the variable, [l lxor 1]
   the negation. *)
let normalise_in_place ~nvars (a : Types.lit array) s e =
  for i = s to e - 1 do
    let v = a.(i) lsr 1 in
    if v < 1 || v > nvars then
      invalid_arg
        (Printf.sprintf "Cnf: literal %d out of range (nvars = %d)" (Types.to_int a.(i)) nvars)
  done;
  Types.sort_sub a s (e - s);
  let n = ref (min e (s + 1)) and taut = ref false in
  for i = s + 1 to e - 1 do
    if a.(i) <> a.(!n - 1) then begin
      if a.(i) lxor a.(!n - 1) = 1 then taut := true;
      a.(!n) <- a.(i);
      incr n
    end
  done;
  if !taut then -1 else !n

let normalise ~nvars src pos len =
  let a = Array.sub src pos len in
  match normalise_in_place ~nvars a 0 len with
  | -1 -> None
  | n -> Some (if n = len then a else Array.sub a 0 n)

(* ---------- spare storage ---------- *)

(* Each domain keeps, per slot, a few spare values for the next builds
   that take from that slot, newest first.  A slot holds at most
   [keep_count] spares of [keep_words] words in all: the clause sets of
   the benchmark workloads stay under 30,000 literals.  Two spares let
   runs whose solvers overlap each find one; more kept the arenas of
   finished grid solvers alive for nothing. *)
type 'a spares = { mutable items : 'a list; mutable count : int; mutable words : int }

type 'a slot = { key : 'a spares Domain.DLS.key; words : 'a -> int }

let keep_words = 1 lsl 20

let keep_count = 2

let slot words = { key = Domain.DLS.new_key (fun () -> { items = []; count = 0; words = 0 }); words }

let take s fits =
  let sp = Domain.DLS.get s.key in
  let rec pick = function
    | [] -> None
    | x :: rest when fits x -> Some (x, rest)
    | x :: rest -> Option.map (fun (y, rest) -> (y, x :: rest)) (pick rest)
  in
  match pick sp.items with
  | None -> None
  | Some (x, rest) ->
      sp.items <- rest;
      sp.count <- sp.count - 1;
      sp.words <- sp.words - s.words x;
      Some x

let give s x =
  let sp = Domain.DLS.get s.key and w = s.words x in
  if sp.count < keep_count && sp.words + w <= keep_words then begin
    sp.items <- x :: sp.items;
    sp.count <- sp.count + 1;
    sp.words <- sp.words + w
  end

let ints () = slot Array.length

let take_ints s n =
  match take s (fun a -> Array.length a >= n) with Some a -> a | None -> Array.make n 0

(* ---------- building ---------- *)

type buf = {
  mutable data : Types.lit array;
  mutable len : int;
  mutable ends : int array;  (* [ends.(0 .. count)] are the closed clauses' starts *)
  mutable count : int;
  mutable dropped : int;
}

let data_slot = ints ()

let ends_slot = ints ()

(* A buffer's arrays come from the spare slots and go back at
   [contents]; a build that stops half way keeps them, and the next build
   makes new ones. *)
let buffer ~clauses ~lits =
  let ends = take_ints ends_slot (max 64 (clauses + 1)) in
  ends.(0) <- 0;
  { data = take_ints data_slot (max 256 lits); len = 0; ends; count = 0; dropped = 0 }

(* [a], used up to [n], with twice the room. *)
let grow (a : int array) n =
  let bigger = Array.make (2 * Array.length a) 0 in
  Array.blit a 0 bigger 0 n;
  bigger

let storage b = b.data

let grow_storage b e =
  b.data <- grow b.data e;
  b.data

let push b l =
  if b.len = Array.length b.data then b.data <- grow b.data b.len;
  b.data.(b.len) <- l;
  b.len <- b.len + 1

let push_slice b a pos n =
  while b.len + n > Array.length b.data do
    b.data <- grow b.data b.len
  done;
  (* a loop, not [Array.blit]: clauses are short, and a C call costs more *)
  for i = 0 to n - 1 do
    b.data.(b.len + i) <- a.(pos + i)
  done;
  b.len <- b.len + n

let close_at b e =
  if b.count + 1 = Array.length b.ends then b.ends <- grow b.ends (b.count + 1);
  b.count <- b.count + 1;
  b.ends.(b.count) <- e;
  b.len <- e

let close b = close_at b b.len

let close_normalised_at ~nvars b e =
  match normalise_in_place ~nvars b.data b.ends.(b.count) e with
  | -1 ->
      b.len <- b.ends.(b.count);
      b.dropped <- b.dropped + 1;
      b.len
  | e ->
      close_at b e;
      e

let close_normalised ~nvars b = ignore (close_normalised_at ~nvars b b.len)

let dropped b = b.dropped

let contents b =
  let t = { lits = Array.sub b.data 0 b.len; starts = Array.sub b.ends 0 (b.count + 1) } in
  give data_slot b.data;
  give ends_slot b.ends;
  b.data <- [||];
  b.ends <- [||];
  t

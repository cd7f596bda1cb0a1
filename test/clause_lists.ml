(* Clause arenas as lists of arrays, the form the tests build and compare
   them in. *)

let of_list cs =
  let b = Sat.Arena.buffer ~clauses:(List.length cs) ~lits:0 in
  List.iter
    (fun c ->
      Sat.Arena.push_slice b c 0 (Array.length c);
      Sat.Arena.close b)
    cs;
  Sat.Arena.contents b

let to_list a = List.init (Sat.Arena.nclauses a) (Sat.Arena.clause a)

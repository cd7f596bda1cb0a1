(* The decoders and the cache key as they were before formulas became
   one flat clause arena, kept as the reference the differential tests
   compare the arena code with.  Each body is the old code verbatim,
   except where the types changed:
   - [Dimacs.parse_raw] is the old [parse_string] up to its final
     [Cnf.make], so its clause lists can be compared before normalisation;
   - [Subproblem.of_string] returns [(nvars, facts, path, clauses)]
     instead of the old list-of-arrays record;
   - [Drup] is the list-based DRUP decoder from before the byte scanner,
     and [to_string] from before it stopped making a string per literal;
   - [Cache.digest] reads the formula's clauses through [Clause_lists.to_list].
   [Master_counts], at the end, keeps the master's old event-counted result
   fields the same way, for the run-counter ledger's agreement test. *)

module Dimacs = struct
  module Cnf = Sat.Cnf

  exception Parse_error of string

  let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

  (* Tokenise into int tokens, skipping comments and the header; returns
     (nvars, tokens in order). *)
  let parse_tokens lines =
    let nvars = ref (-1) in
    let tokens = ref [] in
    let handle_line line =
      let line = String.trim line in
      if line = "" then ()
      else if line.[0] = 'c' then ()
      else if line.[0] = 'p' then begin
        if !nvars >= 0 then fail "duplicate problem header";
        match String.split_on_char ' ' line |> List.filter (fun s -> s <> "") with
        | [ "p"; "cnf"; nv; _nc ] -> (
            match int_of_string_opt nv with
            | Some n when n >= 0 -> nvars := n
            | _ -> fail "bad variable count in header: %s" nv)
        | _ -> fail "malformed problem line: %S" line
      end
      else begin
        if !nvars < 0 then fail "clause data before 'p cnf' header";
        let words =
          String.split_on_char ' ' line
          |> List.concat_map (String.split_on_char '\t')
          |> List.filter (fun s -> s <> "")
        in
        let parse_word w =
          match int_of_string_opt w with
          | Some i -> tokens := i :: !tokens
          | None -> fail "not an integer: %S" w
        in
        List.iter parse_word words
      end
    in
    List.iter handle_line lines;
    if !nvars < 0 then fail "missing 'p cnf' header";
    (!nvars, List.rev !tokens)

  let clauses_of_tokens nvars tokens =
    let clauses = ref [] and current = ref [] in
    let add_token i =
      if i = 0 then begin
        clauses := List.rev !current :: !clauses;
        current := []
      end
      else begin
        (* not [abs i > nvars]: [abs min_int] is negative *)
        if i > nvars || i < -nvars then fail "literal %d exceeds declared variable count %d" i nvars;
        current := i :: !current
      end
    in
    List.iter add_token tokens;
    if !current <> [] then clauses := List.rev !current :: !clauses;
    List.rev !clauses

  let parse_raw s =
    let lines = String.split_on_char '\n' s in
    let nvars, tokens = parse_tokens lines in
    (nvars, clauses_of_tokens nvars tokens)

  let parse_string s =
    let nvars, clauses = parse_raw s in
    Cnf.make ~nvars clauses
end

module Subproblem = struct
  module T = Sat.Types

  let of_string text =
    let lines = String.split_on_char '\n' text |> List.filter (fun l -> String.trim l <> "") in
    let parse_ints nvars body =
      let ints =
        String.split_on_char ' ' body
        |> List.filter (fun s -> s <> "")
        |> List.map (fun s ->
               match int_of_string_opt s with
               | Some i -> i
               | None -> failwith ("Subproblem.of_string: not an integer: " ^ s))
      in
      match List.rev ints with
      | 0 :: rev ->
          List.rev_map
            (fun i ->
              if i = 0 then failwith "Subproblem.of_string: 0 inside a line";
              if i > nvars || i < -nvars then
                failwith (Printf.sprintf "Subproblem.of_string: literal %d out of range" i);
              T.lit_of_int i)
            rev
      | _ -> failwith "Subproblem.of_string: line not terminated by 0"
    in
    match lines with
    | header :: rest -> (
        match String.split_on_char ' ' header |> List.filter (fun s -> s <> "") with
        | [ "p"; "subproblem"; nv; _nc ] ->
            let nvars =
              match int_of_string_opt nv with
              | Some n when n >= 0 -> n
              | _ -> failwith "Subproblem.of_string: bad variable count"
            in
            let parse_ints = parse_ints nvars in
            let facts = ref [] and path = ref [] and clauses = ref [] in
            List.iter
              (fun line ->
                if String.length line >= 2 && line.[0] = 'f' && line.[1] = ' ' then
                  facts := parse_ints (String.sub line 2 (String.length line - 2))
                else if String.length line >= 2 && line.[0] = 'a' && line.[1] = ' ' then
                  path := parse_ints (String.sub line 2 (String.length line - 2))
                else clauses := Array.of_list (parse_ints line) :: !clauses)
              rest;
            (nvars, !facts, !path, List.rev !clauses)
        | _ -> failwith "Subproblem.of_string: missing header")
    | [] -> failwith "Subproblem.of_string: empty document"
end

module Drup = struct
  module T = Sat.Types
  open Sat.Drup

  let of_string text =
    let parse_line line =
      let line = String.trim line in
      if line = "" then None
      else begin
        let is_delete = String.length line >= 2 && line.[0] = 'd' && line.[1] = ' ' in
        let body = if is_delete then String.sub line 2 (String.length line - 2) else line in
        let ints =
          String.split_on_char ' ' body
          |> List.filter (fun s -> s <> "")
          |> List.map (fun s ->
                 match int_of_string_opt s with
                 | Some i -> i
                 | None -> failwith ("Drup.of_string: not an integer: " ^ s))
        in
        match List.rev ints with
        | 0 :: rev_lits ->
            if List.mem 0 rev_lits then
              failwith "Drup.of_string: 0 inside a clause (truncated or merged lines?)";
            let lits = Array.of_list (List.rev_map T.lit_of_int rev_lits) in
            Some (if is_delete then Delete lits else Add lits)
        | _ -> failwith "Drup.of_string: line not terminated by 0"
      end
    in
    String.split_on_char '\n' text |> List.filter_map parse_line

  (* [Drup.to_string] as it was, a string per literal and a second one
     for its trailing blank. *)
  let to_string proof =
    let buf = Buffer.create 4096 in
    List.iter
      (fun step ->
        let lits, prefix = match step with Add l -> (l, "") | Delete l -> (l, "d ") in
        Buffer.add_string buf prefix;
        Array.iter (fun l -> Buffer.add_string buf (string_of_int (T.to_int l) ^ " ")) lits;
        Buffer.add_string buf "0\n")
      proof;
    Buffer.contents buf
end

module Cache = struct
  module Integrity = Gridsat_core.Integrity

  let remix h =
    let h = (h lxor (h lsr 31)) * 0x1C69B3F74AC4AE35 in
    h lxor (h lsr 29)

  (* The key from lists: each clause as its sorted literal codes, the
     clause list sorted and deduplicated by [List.sort_uniq] (where the
     library finds duplicates with a hash table), then every distinct
     clause's word digest summed into two lanes, the second remixed, and
     each sum sealed with its lane number, the variable count and the number of distinct
     clauses. *)
  let digest cnf =
    let clauses =
      Clause_lists.to_list (Sat.Cnf.clauses cnf)
      |> List.map (fun c -> List.sort compare (Array.to_list c))
      |> List.sort_uniq compare
    in
    let hashes =
      List.map
        (fun c ->
          let a = Array.of_list c in
          Integrity.word_digest a 0 (Array.length a))
        clauses
    in
    let sum f = List.fold_left (fun acc h -> acc + f h) 0 hashes in
    let seal lane s = Integrity.word_digest [| lane; Sat.Cnf.nvars cnf; List.length hashes; s |] 0 4 in
    Printf.sprintf "%016x-%08x" (seal 0 (sum Fun.id)) (seal 1 (sum remix) land 0xFFFF_FFFF)
end

(* [Master.result]'s event-counted fields as they were computed before the
   run-counter ledger: one fold over the whole event list per field, keyed
   here by the field's run-section key.  [t] is the chronological event
   list instead of the master (which kept it newest first); the folds are
   the old code verbatim.  [splits] was not event-counted then. *)
module Master_counts = struct
  module Events = Gridsat_core.Events

  let count_events t f = List.fold_left (fun acc e -> if f e.Events.kind then acc + 1 else acc) 0 t

  let of_events t =
    [
      ("retries", count_events t (function Events.Message_retried _ -> true | _ -> false));
      ("false_suspicions", count_events t (function Events.False_suspicion _ -> true | _ -> false));
      ( "recoveries",
        count_events t (function Events.Recovered_from_checkpoint _ -> true | _ -> false) );
      ( "rederivations",
        count_events t (function Events.Rederived_from_lineage _ -> true | _ -> false) );
      ("master_crashes", count_events t (function Events.Master_crashed -> true | _ -> false));
      ("hedges", count_events t (function Events.Hedge_launched _ -> true | _ -> false));
      ( "hedge_cancellations",
        count_events t (function Events.Hedge_cancelled _ -> true | _ -> false) );
      ( "corrupt_detected",
        count_events t (function Events.Corrupt_message_detected _ -> true | _ -> false) );
      ( "nacks",
        count_events t (function
          | Events.Corrupt_message_detected { nacked = true; _ } -> true
          | _ -> false) );
      ( "certified_fragments",
        count_events t (function Events.Unsat_fragment_certified _ -> true | _ -> false) );
      ("quarantines", count_events t (function Events.Client_quarantined _ -> true | _ -> false));
      ("ships", count_events t (function Events.Journal_shipped _ -> true | _ -> false));
      ("promotions", count_events t (function Events.Standby_promoted _ -> true | _ -> false));
      ( "stale_epoch_rejections",
        count_events t (function Events.Stale_epoch_rejected _ -> true | _ -> false) );
      ( "replication_divergences",
        count_events t (function Events.Replication_diverged _ -> true | _ -> false) );
    ]
end

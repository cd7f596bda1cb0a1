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

let parse_string s =
  let lines = String.split_on_char '\n' s in
  let nvars, tokens = parse_tokens lines in
  Cnf.make ~nvars (clauses_of_tokens nvars tokens)

let parse_channel ic =
  let buf = Buffer.create 4096 in
  (try
     while true do
       Buffer.add_channel buf ic 4096
     done
   with End_of_file -> ());
  parse_string (Buffer.contents buf)

let parse_file path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> parse_channel ic)

let to_string cnf =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf "p cnf %d %d\n" (Cnf.nvars cnf) (Cnf.nclauses cnf));
  let add_clause c =
    Array.iter (fun l -> Buffer.add_string buf (string_of_int (Types.to_int l) ^ " ")) c;
    Buffer.add_string buf "0\n"
  in
  Cnf.iter add_clause cnf;
  Buffer.contents buf

let write_channel oc cnf = output_string oc (to_string cnf)

let write_file path cnf =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> write_channel oc cnf)

(* Checks that a run report's [solver] section counts every client's
   search, the dead ones' included: its [decisions] and [conflicts] must
   equal the sums of the [solver.decisions{client=N}] and
   [solver.conflicts{client=N}] series of its [metrics] section.  Each
   report named must have [master.client.deaths] >= 1, so the check
   cannot pass vacuously on a run where no client died. *)

let counter = function
  | Obs.Json.Obj fields -> (
      match List.assoc_opt "value" fields with Some (Obs.Json.Int n) -> n | _ -> 0)
  | _ -> 0

let () =
  let failed = ref false in
  for i = 1 to Array.length Sys.argv - 1 do
    let file = Sys.argv.(i) in
    let doc =
      match Obs.Json.of_string (In_channel.with_open_bin file In_channel.input_all) with
      | Ok doc -> doc
      | Error e -> failwith (file ^ ": " ^ e)
    in
    let series =
      match Obs.Json.member "metrics" doc with Some (Obs.Json.Obj s) -> s | _ -> []
    in
    let sum name =
      let prefix = name ^ "{client=" in
      List.fold_left
        (fun acc (k, v) -> if String.starts_with ~prefix k then acc + counter v else acc)
        0 series
    in
    let deaths = Option.fold ~none:0 ~some:counter (List.assoc_opt "master.client.deaths" series) in
    let solver field =
      match Option.bind (Obs.Json.member "solver" doc) (Obs.Json.member field) with
      | Some (Obs.Json.Int n) -> n
      | _ -> -1
    in
    if deaths < 1 then begin
      Printf.printf "%s: no client died\n" file;
      failed := true
    end;
    List.iter
      (fun field ->
        let reported = solver field and summed = sum ("solver." ^ field) in
        if reported <> summed then begin
          Printf.printf "%s: solver %s %d, series sum %d\n" file field reported summed;
          failed := true
        end)
      [ "decisions"; "conflicts" ]
  done;
  if !failed then exit 1

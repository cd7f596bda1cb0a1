(* Prints the registry sections ([metrics], and [metrics_merged] where a
   report has one) of each run report named on the command line, one
   series a line, so a change to any series value shows as a one-line
   diff against metrics.expected. *)

let () =
  for i = 1 to Array.length Sys.argv - 1 do
    let file = Sys.argv.(i) in
    let doc =
      match Obs.Json.of_string (In_channel.with_open_bin file In_channel.input_all) with
      | Ok doc -> doc
      | Error e -> failwith (file ^ ": " ^ e)
    in
    List.iter
      (fun section ->
        match Obs.Json.member section doc with
        | Some (Obs.Json.Obj series) ->
            Printf.printf "== %s: %s\n" file section;
            List.iter (fun (k, v) -> Printf.printf "%s %s\n" k (Obs.Json.to_string v)) series
        | _ -> ())
      [ "metrics"; "metrics_merged" ]
  done

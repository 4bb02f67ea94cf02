(* Print the training set [Training.generate] builds at the frozen seed
   for one tool version, in the CSV format [wap train --out] writes. *)

let () =
  let version =
    match Sys.argv with
    | [| _; "wape" |] -> Wap_core.Version.Wape
    | [| _; "v21" |] -> Wap_core.Version.Wap_v21
    | _ ->
        prerr_endline "usage: regen (wape|v21)";
        exit 2
  in
  print_string
    (Wap_mining.Dataset.to_csv
       (Wap_core.Training.generate ~seed:Wap_core.Training.frozen_seed version))

(** Whole-file source reading for {!Parser.parse_file}, the CLI and the
    fleet worker: one binary-mode [really_input_string] pass, and the
    channel is closed even when the read raises.  Plus the one
    directory walk they scan. *)

let read_file path : string =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Each directory is entered at most once, keyed by device and inode:
   a symlink back into an ancestor ends the descent instead of looping
   until the path is too long to resolve, and a symlinked subdirectory
   that is no cycle is still scanned. *)
let php_files dir : string list =
  let entered = Hashtbl.create 16 in
  let rec go rel acc =
    let abs = if rel = "" then dir else Filename.concat dir rel in
    match Unix.stat abs with
    | { Unix.st_kind = Unix.S_DIR; st_dev; st_ino; _ } ->
        if Hashtbl.mem entered (st_dev, st_ino) then acc
        else begin
          Hashtbl.add entered (st_dev, st_ino) ();
          Sys.readdir abs |> Array.to_list |> List.sort String.compare
          |> List.fold_left
               (fun acc entry ->
                 go (if rel = "" then entry else Filename.concat rel entry) acc)
               acc
        end
    | _ | (exception Unix.Unix_error _) ->
        if Filename.check_suffix rel ".php" then rel :: acc else acc
  in
  List.rev (go "" [])

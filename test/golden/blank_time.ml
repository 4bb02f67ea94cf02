(* Print a `wap experiments` report with the cells of Table V's
   "Time (s)" column replaced by spaces of the same width, so the report
   can be compared byte for byte across runs.

   Usage: blank_time.exe REPORT *)

let () =
  let lines =
    In_channel.with_open_bin Sys.argv.(1) In_channel.input_all
    |> String.split_on_char '\n'
  in
  (* inside Table V, and the Time column's index once its header row
     has been read *)
  let in_table_v = ref false and time_col = ref None in
  let blank line =
    if String.starts_with ~prefix:"== " line then begin
      in_table_v := String.starts_with ~prefix:"== Table V:" line;
      time_col := None;
      line
    end
    else if not !in_table_v then line
    else
      let cells = String.split_on_char '|' line in
      match !time_col with
      | None ->
          List.iteri
            (fun i c -> if String.trim c = "Time (s)" then time_col := Some i)
            cells;
          line
      | Some col when List.length cells > col ->
          String.concat "|"
            (List.mapi
               (fun i c -> if i = col then String.make (String.length c) ' ' else c)
               cells)
      | Some _ -> line
  in
  print_string (String.concat "\n" (List.map blank lines))

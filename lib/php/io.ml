(** Whole-file source reading for {!Parser.parse_file}, the CLI and the
    fleet worker: one binary-mode [really_input_string] pass, and the
    channel is closed even when the read raises. *)

let read_file path : string =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(** Whole-file source reading shared by the parser, the CLI and the
    fleet worker. *)

(** [read_file path] reads the whole file in one binary-mode
    [really_input_string] pass.  The channel is closed even on error.

    @raise Sys_error when the file cannot be opened or read. *)
val read_file : string -> string

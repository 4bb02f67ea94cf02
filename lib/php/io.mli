(** Whole-file source reading shared by the parser, the CLI and the
    fleet worker, and the directory walk that feeds them. *)

(** [read_file path] reads the whole file in one binary-mode
    [really_input_string] pass.  The channel is closed even on error.

    @raise Sys_error when the file cannot be opened or read. *)
val read_file : string -> string

(** [php_files dir] — the [.php] files under [dir], recursively, as
    paths relative to [dir], each directory's entries in
    [String.compare] order; [[]] when [dir] is not a directory.
    Symlinks are followed, but no directory is entered twice (same
    device and inode), so the walk ends on a tree that links back into
    itself.  Only regular files are listed: a [.php] entry that is
    anything else (a FIFO, a socket, a dangling link) is skipped with
    one [warn] log line naming it.  Relative paths keep the cache keys
    of identical files in different project roots identical. *)
val php_files : string -> string list

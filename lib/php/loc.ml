(** Source locations for the PHP front-end.

    A location identifies a point in a source file by line (1-based) and
    column (0-based).  Every AST node carries one so that detectors can
    report precise vulnerability positions and the corrector can insert
    fixes at the right line. *)

type t = {
  file : string;
  line : int;
  col : int;
}
[@@deriving show, eq]

let dummy = { file = "<none>"; line = 0; col = 0 }

let make ~file ~line ~col = { file; line; col }

let to_string { file; line; col } = Printf.sprintf "%s:%d:%d" file line col

(** Ordering by file, then line, then column. *)
let compare a b =
  match String.compare a.file b.file with
  | 0 -> ( match Int.compare a.line b.line with 0 -> Int.compare a.col b.col | c -> c)
  | c -> c

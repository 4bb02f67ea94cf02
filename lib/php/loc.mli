(** Source locations for the PHP front-end.

    A location identifies a point in a source file by line (1-based) and
    column (0-based).  Every AST node carries one so that detectors can
    report precise vulnerability positions and the corrector can insert
    fixes at the right line. *)

type t = {
  file : string;
  line : int;  (** 1-based *)
  col : int;  (** 0-based *)
}
[@@deriving show, eq]

(** A placeholder location for synthesized nodes. *)
val dummy : t

val make : file:string -> line:int -> col:int -> t

(** ["file:line:col"]. *)
val to_string : t -> string

(** Ordering by file, then line, then column. *)
val compare : t -> t -> int

(** Plain-text table rendering for the experiment reports. *)

type align = L | R

type t = {
  title : string;
  header : string list;
  aligns : align list;
  rows : string list list;
}

(** Build a table; default alignment is first column left, rest right.
    A row whose cells are all ["---"] renders as a separator line. *)
val make :
  title:string -> header:string list -> ?aligns:align list -> string list list -> t

val render : t -> string

(** Format a fraction as ["94.5%"]. *)
val pctf : float -> string

val intf : int -> string

(** Empty string for 0, used for the sparse table cells of the paper. *)
val blank_if_zero : int -> string

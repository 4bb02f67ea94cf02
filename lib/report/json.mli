(** A minimal JSON emitter (no external dependency), used to export
    findings and experiment data for downstream tooling. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(** Serialize; [indent] (default true) pretty-prints with two-space
    indentation.  Strings are escaped per RFC 8259; non-ASCII bytes pass
    through verbatim (the exporters emit UTF-8). *)
val to_string : ?indent:bool -> t -> string

(** Parse a complete JSON document (full RFC 8259 value syntax; [\uXXXX]
    escapes are decoded to UTF-8, surrogate pairs combined into one code
    point; lone surrogates are rejected).  Used by the tests to check
    that exported documents — including [--trace-out] Chrome traces —
    are well-formed, and handy for downstream consumers. *)
val of_string : string -> (t, string) result

(** [member k (Obj ...)] is the value under key [k], if any; [None] on
    non-objects. *)
val member : string -> t -> t option

(** The payload of a [List], [None] otherwise. *)
val to_list_opt : t -> t list option

(** Textual ep/ss/san specification files.

    The restructured WAP stores each detector's entry points (ep),
    sensitive sinks (ss) and sanitization functions (san) in external
    files so that users can add items without recompiling
    (Section III-A).  The format is line-based:

    {v
    # comment
    entry: _GET
    entry_fn: mysql_fetch_assoc
    sink: mysql_query
    sink: mysqli_query args=1
    sink_method: wpdb query
    sink_echo:
    sink_include:
    sanitizer: esc_sql
    sanitizer_method: wpdb prepare
    v} *)

(** Malformed spec file: message and 1-based line number. *)
exception Parse_error of string * int

(** Parse a spec file body into sources, sinks and sanitizers. *)
val parse :
  string -> Catalog.source list * Catalog.sink list * Catalog.sanitizer list

(** Serialize a spec to the file format (inverse of {!parse}). *)
val to_string : Catalog.spec -> string

(** Build a spec for [vclass] from file contents; an empty entry-point
    section falls back to the default superglobals. *)
val spec_of_string : vclass:Vuln_class.t -> string -> Catalog.spec

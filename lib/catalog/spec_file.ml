(** Textual ep/ss/san specification files.

    The restructured WAP stores each detector's entry points (ep),
    sensitive sinks (ss) and sanitization functions (san) in external
    files so that users can add items without recompiling (Section
    III-A).  The format is line-based:

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

exception Parse_error of string * int  (** message, line number *)

let split_ws s =
  String.split_on_char ' ' s |> List.filter (fun x -> x <> "")

let parse_args_field tok =
  (* "args=0,2" -> [0;2] *)
  match String.index_opt tok '=' with
  | Some i when String.sub tok 0 i = "args" ->
      String.sub tok (i + 1) (String.length tok - i - 1)
      |> String.split_on_char ','
      |> List.filter_map int_of_string_opt
      |> Option.some
  | _ -> None

(** Parse the body of a spec file into sources, sinks and sanitizers. *)
let parse (contents : string) :
    Catalog.source list * Catalog.sink list * Catalog.sanitizer list =
  let sources = ref [] and sinks = ref [] and sans = ref [] in
  let lines = String.split_on_char '\n' contents in
  List.iteri
    (fun i line ->
      let lineno = i + 1 in
      let line = String.trim line in
      if line = "" || line.[0] = '#' then ()
      else
        match String.index_opt line ':' with
        | None -> raise (Parse_error ("missing ':' separator", lineno))
        | Some ci -> (
            let kind = String.sub line 0 ci in
            let rest = String.trim (String.sub line (ci + 1) (String.length line - ci - 1)) in
            let words = split_ws rest in
            match (kind, words) with
            | "entry", [ name ] -> sources := Catalog.Src_superglobal name :: !sources
            | "entry_fn", [ name ] -> sources := Catalog.Src_fn name :: !sources
            | "sink", [ name ] -> sinks := Catalog.Sink_fn (name, []) :: !sinks
            | "sink", [ name; argtok ] -> (
                match parse_args_field argtok with
                | Some args -> sinks := Catalog.Sink_fn (name, args) :: !sinks
                | None -> raise (Parse_error ("bad sink arguments field", lineno)))
            | "sink_method", [ obj; meth ] ->
                sinks := Catalog.Sink_method (obj, meth) :: !sinks
            | "sink_echo", [] -> sinks := Catalog.Sink_echo :: !sinks
            | "sink_include", [] -> sinks := Catalog.Sink_include :: !sinks
            | "sanitizer", [ name ] -> sans := Catalog.San_fn name :: !sans
            | "sanitizer_method", [ obj; meth ] ->
                sans := Catalog.San_method (obj, meth) :: !sans
            | _ -> raise (Parse_error ("unrecognized spec line: " ^ line, lineno))))
    lines;
  (List.rev !sources, List.rev !sinks, List.rev !sans)

let source_to_line = function
  | Catalog.Src_superglobal s -> "entry: " ^ s
  | Catalog.Src_fn f -> "entry_fn: " ^ f

let sink_to_line = function
  | Catalog.Sink_fn (f, []) -> "sink: " ^ f
  | Catalog.Sink_fn (f, args) ->
      Printf.sprintf "sink: %s args=%s" f
        (String.concat "," (List.map string_of_int args))
  | Catalog.Sink_method (o, m) -> Printf.sprintf "sink_method: %s %s" o m
  | Catalog.Sink_echo -> "sink_echo:"
  | Catalog.Sink_include -> "sink_include:"

let sanitizer_to_line = function
  | Catalog.San_fn f -> "sanitizer: " ^ f
  | Catalog.San_method (o, m) -> Printf.sprintf "sanitizer_method: %s %s" o m

(** Serialize a spec to the file format (inverse of {!parse}). *)
let to_string (spec : Catalog.spec) : string =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "# %s detector specification\n"
       (Vuln_class.acronym spec.vclass));
  List.iter (fun s -> Buffer.add_string b (source_to_line s ^ "\n")) spec.sources;
  List.iter (fun s -> Buffer.add_string b (sink_to_line s ^ "\n")) spec.sinks;
  List.iter (fun s -> Buffer.add_string b (sanitizer_to_line s ^ "\n")) spec.sanitizers;
  Buffer.contents b

(** Load a spec for [vclass] from a file's contents, replacing the
    default ep/ss/san sets. *)
let spec_of_string ~(vclass : Vuln_class.t) contents : Catalog.spec =
  let sources, sinks, sanitizers = parse contents in
  {
    Catalog.vclass;
    submodule = Submodule.of_class vclass;
    sources = (if sources = [] then Catalog.default_sources else sources);
    sinks;
    sanitizers;
  }

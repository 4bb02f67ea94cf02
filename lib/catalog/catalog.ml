(** Entry points, sensitive sinks and sanitization functions per
    vulnerability class.

    In the restructured WAP these three sets live in external files (the
    ep/ss/san files of Fig. 2) so users can extend a detector without
    recompiling; {!Spec_file} provides that serialization.  This module
    defines the shipped defaults. *)

type source =
  | Src_superglobal of string  (** e.g. [_GET]: any [$_GET[...]] access *)
  | Src_fn of string
      (** a function whose return value is attacker-controlled, e.g.
          database fetch results for stored XSS *)
[@@deriving show, eq, ord]

type sink =
  | Sink_fn of string * int list
      (** named function; the int list is the set of dangerous argument
          positions (empty = any argument) *)
  | Sink_method of string * string
      (** [obj, method]: method call on a named variable, e.g.
          [$wpdb->query] — obj is matched without the [$] *)
  | Sink_echo  (** [echo] / [print] / [printf] output constructs *)
  | Sink_include  (** [include] / [require] constructs *)
[@@deriving show, eq, ord]

type sanitizer =
  | San_fn of string
  | San_method of string * string  (** e.g. [$wpdb->prepare] *)
[@@deriving show, eq, ord]

type spec = {
  vclass : Vuln_class.t;
  submodule : Submodule.t;
  sources : source list;
  sinks : sink list;
  sanitizers : sanitizer list;
}
[@@deriving show, eq]

(** The superglobal arrays every detector treats as tainted input. *)
let default_superglobals =
  [ "_GET"; "_POST"; "_COOKIE"; "_REQUEST"; "_SERVER"; "_FILES" ]

let default_sources = List.map (fun s -> Src_superglobal s) default_superglobals

let fn ?(args = []) name = Sink_fn (name, args)

(* ------------------------------------------------------------------ *)
(* Per-class defaults.                                                 *)

let sql_write_sinks =
  [ fn "mysql_query"; fn "mysql_unbuffered_query"; fn "mysql_db_query";
    fn "mysqli_query" ~args:[ 1 ]; fn "mysqli_real_query" ~args:[ 1 ];
    fn "mysqli_multi_query" ~args:[ 1 ];
    Sink_method ("mysqli", "query"); Sink_method ("mysqli", "multi_query");
    Sink_method ("db", "query"); Sink_method ("pdo", "query");
    Sink_method ("pdo", "exec");
    fn "pg_query"; fn "pg_send_query"; fn "sqlite_query"; fn "sqlite_exec" ]

let sql_sanitizers =
  [ San_fn "mysql_real_escape_string"; San_fn "mysql_escape_string";
    San_fn "mysqli_real_escape_string"; San_fn "mysqli_escape_string";
    San_method ("mysqli", "real_escape_string");
    San_fn "pg_escape_string"; San_fn "sqlite_escape_string";
    San_fn "addslashes" ]

let xss_sanitizers =
  [ San_fn "htmlspecialchars"; San_fn "htmlentities"; San_fn "strip_tags";
    San_fn "urlencode"; San_fn "rawurlencode" ]

let fetch_sources =
  (* functions whose results carry data previously stored by users: the
     secondary entry points of stored XSS *)
  [ Src_fn "mysql_fetch_array"; Src_fn "mysql_fetch_assoc"; Src_fn "mysql_fetch_row";
    Src_fn "mysql_fetch_object"; Src_fn "mysql_result";
    Src_fn "mysqli_fetch_array"; Src_fn "mysqli_fetch_assoc"; Src_fn "mysqli_fetch_row";
    Src_fn "pg_fetch_array"; Src_fn "pg_fetch_assoc"; Src_fn "pg_fetch_row";
    Src_fn "file_get_contents"; Src_fn "fgets"; Src_fn "fread" ]

(* file_get_contents / file_put_contents are owned by the CS detector
   (Table IV); leaving them out here keeps the "Files" and "CS" report
   groups disjoint. *)
let file_sinks =
  [ fn "fopen"; fn "file"; fn "readfile"; fn "unlink";
    fn "copy"; fn "rename"; fn "mkdir"; fn "rmdir"; fn "opendir"; fn "scandir";
    fn "glob" ]

let path_sanitizers = [ San_fn "basename"; San_fn "realpath"; San_fn "pathinfo" ]

(** The tool's own fix functions count as sanitizers: corrected code
    must not be re-flagged.  Names match {!Wap_fixer.Fix.stock}. *)
let stock_fix_name (vclass : Vuln_class.t) : string =
  match vclass with
  | Sqli -> "san_sqli"
  | Xss_reflected -> "san_out"
  | Xss_stored -> "san_wdata"
  | Osci -> "san_osci"
  | Phpci -> "san_eval"
  | Rfi | Lfi | Dt_pt | Scd -> "san_mix"
  | Ldapi -> "san_ldap"
  | Xpathi -> "san_xpath"
  | Nosqli -> "san_nosqli"
  | Hi | Ei -> "san_hei"
  | Cs -> "san_write"
  | Sf -> "san_sf"
  | Wp_sqli -> "san_wpsqli"
  | Custom name -> "san_" ^ name

let default_spec (vclass : Vuln_class.t) : spec =
  let mk ?(sources = default_sources) ?(sinks = []) ?(sanitizers = []) () =
    { vclass; submodule = Submodule.of_class vclass; sources; sinks;
      sanitizers = San_fn (stock_fix_name vclass) :: sanitizers }
  in
  match vclass with
  | Sqli -> mk ~sinks:sql_write_sinks ~sanitizers:sql_sanitizers ()
  | Xss_reflected ->
      mk
        ~sinks:[ Sink_echo; fn "printf"; fn "vprintf"; fn "print_r"; fn "exit" ]
        ~sanitizers:xss_sanitizers ()
  | Xss_stored ->
      mk
        ~sources:(default_sources @ fetch_sources)
        ~sinks:[ Sink_echo; fn "printf"; fn "print_r" ]
        ~sanitizers:xss_sanitizers ()
  | Rfi | Lfi ->
      mk ~sinks:[ Sink_include ] ~sanitizers:path_sanitizers ()
  | Dt_pt -> mk ~sinks:file_sinks ~sanitizers:path_sanitizers ()
  | Scd ->
      mk
        ~sinks:[ fn "show_source"; fn "highlight_file"; fn "php_strip_whitespace" ]
        ~sanitizers:path_sanitizers ()
  | Osci ->
      mk
        ~sinks:[ fn "exec"; fn "system"; fn "shell_exec"; fn "passthru"; fn "popen";
                 fn "proc_open"; fn "pcntl_exec" ]
        ~sanitizers:[ San_fn "escapeshellarg"; San_fn "escapeshellcmd" ] ()
  | Phpci ->
      mk
        ~sinks:[ fn "eval"; fn "assert"; fn "create_function"; fn "preg_replace" ]
        ~sanitizers:[] ()
  (* --- new classes (Table IV + Section IV-C) --- *)
  | Sf ->
      mk ~sinks:[ fn "setcookie"; fn "setrawcookie"; fn "session_id" ] ~sanitizers:[] ()
  | Cs ->
      mk
        ~sinks:[ fn "file_put_contents"; fn "file_get_contents" ]
        ~sanitizers:[ San_fn "strip_tags" ] ()
  | Ldapi ->
      mk
        ~sinks:[ fn "ldap_add"; fn "ldap_delete"; fn "ldap_list"; fn "ldap_read"; fn "ldap_search" ]
        ~sanitizers:[ San_fn "ldap_escape" ] ()
  | Xpathi ->
      mk
        ~sinks:[ fn "xpath_eval"; fn "xptr_eval"; fn "xpath_eval_expression" ]
        ~sanitizers:[] ()
  | Nosqli ->
      (* the NoSQLI weapon of Section IV-C1 *)
      mk
        ~sinks:[ Sink_method ("collection", "find"); Sink_method ("collection", "findone");
                 Sink_method ("collection", "findandmodify"); Sink_method ("collection", "insert");
                 Sink_method ("collection", "remove"); Sink_method ("collection", "save");
                 Sink_method ("db", "execute");
                 fn "find"; fn "findone"; fn "findandmodify" ]
        ~sanitizers:[ San_fn "mysql_real_escape_string" ] ()
  | Hi -> mk ~sinks:[ fn "header" ] ~sanitizers:[] ()
  | Ei -> mk ~sinks:[ fn "mail" ] ~sanitizers:[] ()
  | Wp_sqli ->
      mk
        ~sinks:[ Sink_method ("wpdb", "query"); Sink_method ("wpdb", "get_results");
                 Sink_method ("wpdb", "get_row"); Sink_method ("wpdb", "get_var");
                 Sink_method ("wpdb", "get_col") ]
        ~sanitizers:[ San_method ("wpdb", "prepare"); San_fn "esc_sql"; San_fn "like_escape" ]
        ()
  | Custom name ->
      { vclass; submodule = Submodule.Generated name; sources = default_sources;
        sinks = []; sanitizers = [] }

(** All default specs for a list of classes. *)
let specs_for classes = List.map default_spec classes

(* ------------------------------------------------------------------ *)
(* Stable spec identity.                                               *)

(** Content-derived identity of one spec, used as cache-key material:
    the digest of its marshalled form.  Without sharing, the bytes
    depend only on the value's structure, so equal specs built apart
    get one id; and a cache entry is itself a marshalled value, so the
    key adds no dependence the cache does not already have.  Every scan
    computes it for every active spec, and [show_spec] would render each
    through [Format]. *)
let spec_id (s : spec) : string =
  Digest.to_hex (Digest.string (Marshal.to_string s [ Marshal.No_sharing ]))

(** Identity of an ordered spec set.  The order is part of the identity:
    it determines the deterministic merge order of scan results. *)
let set_fingerprint (specs : spec list) : string =
  Digest.to_hex (Digest.string (String.concat "\x00" (List.map spec_id specs)))

(** Lookup tables used by the taint analyzer: quick membership tests.

    Every table is indexed by {e spec id} — the position of a spec in
    the list given to {!Lookup.of_specs} — so one fused analysis pass can
    ask "for which of the active specs is [name] a source/sink/
    sanitizer?" in one lookup. *)
module Lookup = struct
  type t = {
    nspecs : int;
    superglobals : (string, int list) Hashtbl.t;  (** name -> spec ids, ascending *)
    source_fns : (string, int list) Hashtbl.t;
    sink_fns : (string, (int * Vuln_class.t * int list) list) Hashtbl.t;
        (** per name: (spec id, class, dangerous positions), ids
            ascending; a spec's own entries keep most-recent-first
            order, matching a single-spec [Hashtbl.find_all] *)
    sink_methods : (string * string, int list) Hashtbl.t;
    echo_specs : int list;
    include_specs : int list;
    san_fns : (string, int list) Hashtbl.t;
    san_methods : (string * string, int list) Hashtbl.t;
  }

  let add_id tbl key id =
    let cur = Option.value ~default:[] (Hashtbl.find_opt tbl key) in
    if not (List.mem id cur) then Hashtbl.replace tbl key (cur @ [ id ])

  let of_specs (specs : spec list) : t =
    let superglobals = Hashtbl.create 16 in
    let source_fns = Hashtbl.create 32 in
    let sink_fns = Hashtbl.create 64 in
    let sink_methods = Hashtbl.create 16 in
    let echo_specs = ref [] in
    let include_specs = ref [] in
    let san_fns = Hashtbl.create 32 in
    let san_methods = Hashtbl.create 16 in
    List.iteri
      (fun id spec ->
        List.iter
          (function
            | Src_superglobal s -> add_id superglobals s id
            | Src_fn f -> add_id source_fns (String.lowercase_ascii f) id)
          spec.sources;
        List.iter
          (function
            | Sink_fn (f, args) ->
                let key = String.lowercase_ascii f in
                Hashtbl.replace sink_fns key
                  ((id, spec.vclass, args)
                  :: Option.value ~default:[] (Hashtbl.find_opt sink_fns key))
            | Sink_method (o, m) ->
                add_id sink_methods
                  (String.lowercase_ascii o, String.lowercase_ascii m)
                  id
            | Sink_echo ->
                if not (List.mem id !echo_specs) then
                  echo_specs := id :: !echo_specs
            | Sink_include ->
                if not (List.mem id !include_specs) then
                  include_specs := id :: !include_specs)
          spec.sinks;
        List.iter
          (function
            | San_fn f -> add_id san_fns (String.lowercase_ascii f) id
            | San_method (o, m) ->
                add_id san_methods
                  (String.lowercase_ascii o, String.lowercase_ascii m)
                  id)
          spec.sanitizers)
      specs;
    (* prepending while walking specs in order left ids descending and
       each spec's own entries reversed; a stable ascending sort restores
       id order while keeping the per-spec reversal (= find_all order) *)
    Hashtbl.filter_map_inplace
      (fun _ entries ->
        Some
          (List.stable_sort
             (fun (a, _, _) (b, _, _) -> compare (a : int) b)
             entries))
      sink_fns;
    {
      nspecs = List.length specs;
      superglobals;
      source_fns;
      sink_fns;
      sink_methods;
      echo_specs = List.rev !echo_specs;
      include_specs = List.rev !include_specs;
      san_fns;
      san_methods;
    }

  let nspecs t = t.nspecs
  let ids tbl key = Option.value ~default:[] (Hashtbl.find_opt tbl key)
  let superglobal_ids t name = ids t.superglobals name
  let source_fn_ids t name = ids t.source_fns (String.lowercase_ascii name)

  let sink_fn_entries t name =
    Option.value ~default:[]
      (Hashtbl.find_opt t.sink_fns (String.lowercase_ascii name))

  let sink_method_ids t obj meth =
    ids t.sink_methods (String.lowercase_ascii obj, String.lowercase_ascii meth)

  let echo_ids t = t.echo_specs
  let include_ids t = t.include_specs
  let sanitizer_fn_ids t name = ids t.san_fns (String.lowercase_ascii name)

  let sanitizer_method_ids t obj meth =
    ids t.san_methods (String.lowercase_ascii obj, String.lowercase_ascii meth)
end

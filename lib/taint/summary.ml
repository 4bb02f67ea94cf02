(** Interprocedural function summaries.

    For each user-defined function the analyzer records, per parameter:
    whether tainted data entering through it reaches the return value
    (and through which manipulation functions), and which sensitive
    sinks inside the body it can reach.  A parameter whose flow is
    killed by a sanitizer simply does not appear — so a user wrapper
    around [mysql_real_escape_string] is automatically treated as a
    sanitizer at call sites.

    Because sanitizers (and sources, and sinks) are per-spec, one
    function has one summary {e per active spec}: a {!fused} summary is
    the array of those per-spec summaries, built in a single body walk
    and indexed by spec id. *)

type param_flow = {
  pf_index : int;
  pf_through : string list;  (** manipulation functions on the way to return *)
  pf_guards : string list;  (** validation guards observed on the way *)
}
[@@deriving show]

type param_sink = {
  ps_index : int;
  ps_sink_name : string;
  ps_sink_loc : Wap_php.Loc.t;
  ps_through : string list;
}
[@@deriving show]

(** One spec's view of one function. *)
type t = {
  fn_name : string;  (** lowercase *)
  arity : int;
  returns_params : param_flow list;  (** params that flow to the return value *)
  param_sinks : param_sink list;  (** params that reach a sink inside *)
  returns_tainted : Trace.origin option;
      (** the function returns attacker data of its own (e.g. reads a
          superglobal and returns it) *)
}
[@@deriving show]

let find_param_flow t i = List.find_opt (fun pf -> pf.pf_index = i) t.returns_params

(** All active specs' views of one function, indexed by spec id. *)
type fused = {
  fs_name : string;  (** lowercase *)
  fs_arity : int;
  fs_specs : t array;
}

let for_spec (f : fused) id = f.fs_specs.(id)

(** Summaries table keyed by lowercase function name.  Methods are
    registered under their bare method name. *)
type table = (string, fused) Hashtbl.t

let create_table () : table = Hashtbl.create 64
let find (tbl : table) name = Hashtbl.find_opt tbl (String.lowercase_ascii name)
let register (tbl : table) (s : fused) = Hashtbl.replace tbl s.fs_name s

(** Candidate vulnerabilities: tainted data-flow paths from an entry
    point to a sensitive sink.

    A candidate is what the code analyzer hands to the false-positive
    predictor.  Besides the path itself it carries the raw evidence the
    symptom collector needs: every function the tainted data passed
    through and every validation guard observed dominating the flow. *)

open Wap_php

type step = {
  step_loc : Loc.t;
  step_desc : string;  (** rendered source of the propagating statement *)
}
[@@deriving show, eq]

(** Literal/dynamic structure of a string the tainted data was spliced
    into, e.g. ["SELECT * FROM t WHERE id = "; <dyn>] — the SQL-symptom
    collector needs it to see FROM clauses and numeric contexts even
    when the query is built in a variable before reaching the sink. *)
type qpart = Qlit of string | Qdyn [@@deriving show, eq]

(** Where the tainted data originally came from. *)
type origin = {
  source : string;  (** e.g. ["$_GET['user']"] or ["mysql_fetch_assoc"] *)
  source_loc : Loc.t;
  rev_steps : step list;
      (** propagation chain, newest first (read it with {!steps}) *)
  through : string list;
      (** names of functions applied to the data on its way (lowercase);
          casts appear as ["(int)"] etc. *)
  guards : string list;
      (** validation predicates observed guarding the flow, e.g.
          ["is_numeric"], ["isset"], ["preg_match"] *)
  rev_parts : qpart list;
      (** structure of the latest string built from the data, last part
          first (read it with {!parts}) *)
}
[@@deriving show, eq]

val origin : source:string -> source_loc:Loc.t -> origin

(** The string structure recorded on the origin, first part first. *)
val parts : origin -> qpart list

(** [flatten_onto e acc] pushes the literal/dynamic parts of the
    string-building expression [e] (concatenations, interpolations,
    ternary branches) onto [acc], last part first.  Linear in the
    operands of [e], however its concatenations nest. *)
val flatten_onto : Ast.expr -> qpart list -> qpart list

(** Append one hop to the chain, in constant time. *)
val add_step : origin -> step -> origin

(** The propagation chain, oldest first. *)
val steps : origin -> step list

(** The step of a tainted argument passed to a user function at [loc]. *)
val call_step : loc:Loc.t -> string -> step

(** Where the flow entered the function holding its sink, when the
    origin reached that sink through a call ({!call_step} is its newest
    step). *)
val call_site : origin -> Loc.t option

val add_through : origin -> string -> origin
val add_guard : origin -> string -> origin

(** [union_names base extra] folds [extra] onto [base], prepending each
    element not already present — the [through]/[guards] accumulation of
    operand joins.  Set-backed above a small size, naive below; output is
    identical either way. *)
val union_names : string list -> string list -> string list

(** [inter_names a b]: elements of [a] also present in [b], in [a]'s
    order — the guard intersection at control-flow merges. *)
val inter_names : string list -> string list -> string list

(** The placeholder source name for parameter [i] during function-summary
    analysis. *)
val param_source : int -> string

(** [Some i] when the source is {!param_source}[ i]. *)
val param_index_of_source : string -> int option

type candidate = {
  vclass : Wap_catalog.Vuln_class.t;
  file : string;
  sink_name : string;
      (** function/construct at the sink, e.g. ["mysql_query"], ["echo"] *)
  sink_loc : Loc.t;
  origins : origin list;  (** one per tainted argument flow *)
  sink_args : Ast.expr list;  (** the sink's argument expressions *)
  tainted_positions : int list;  (** indices of the tainted arguments *)
}
[@@deriving show]

(** Primary origin used for reporting (the first tainted flow). *)
val primary : candidate -> origin

(** One-line rendering: class, sink and source. *)
val summary : candidate -> string

(** Stable identity used to de-duplicate candidates found by several
    detectors for the same flow (e.g. RFI and LFI share the include
    sink, and the paper reports them together as "Files").  The source
    and propagation path are part of the key so distinct flows into one
    shared sink stay distinct. *)
val dedup_key : candidate -> string

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
    collector needs it to see FROM clauses and numeric contexts even when
    the query is built in a variable before reaching the sink. *)
type qpart = Qlit of string | Qdyn [@@deriving show, eq]

(** Where the tainted data originally came from. *)
type origin = {
  source : string;  (** e.g. ["$_GET['user']"] or ["mysql_fetch_assoc"] *)
  source_loc : Loc.t;
  rev_steps : step list;
      (** propagation chain, newest first: {!add_step} conses, so a copy
          chain of n hops costs O(n); read it through {!steps} *)
  through : string list;
      (** names of functions applied to the data on its way (lowercase);
          casts appear as ["(int)"] etc. *)
  guards : string list;
      (** validation predicates observed guarding the flow, e.g.
          ["is_numeric"], ["isset"], ["preg_match"] *)
  rev_parts : qpart list;
      (** structure of the latest string built from the data (see
          {!qpart}), last part first: [.=] conses onto it, so n appends
          cost O(n); read it through {!parts} *)
}
[@@deriving show, eq]

let origin ~source ~source_loc =
  { source; source_loc; rev_steps = []; through = []; guards = []; rev_parts = [] }

let parts o = List.rev o.rev_parts

let rec flatten_onto (e : Ast.expr) acc =
  match e.e with
  | Ast.String s -> Qlit s :: acc
  | Ast.Int n -> Qlit (string_of_int n) :: acc
  | Ast.Interp parts ->
      List.fold_left
        (fun acc -> function
          | Ast.Ip_str s -> Qlit s :: acc
          | Ast.Ip_expr e -> flatten_onto e acc)
        acc parts
  | Ast.Binop (Ast.Concat, l, r) -> flatten_onto r (flatten_onto l acc)
  | Ast.Ternary (_, Some t, f) -> flatten_onto f (flatten_onto t acc)
  | _ -> Qdyn :: acc

let add_step o step = { o with rev_steps = step :: o.rev_steps }
let steps o = List.rev o.rev_steps

let call_prefix = "passed to "

let call_step ~loc callee =
  { step_loc = loc; step_desc = Printf.sprintf "%s%s()" call_prefix callee }

(* Only a flow into a sink inside a called function ends in a call step:
   the analyzer emits it right after adding that step. *)
let call_site o =
  match o.rev_steps with
  | s :: _ when String.starts_with ~prefix:call_prefix s.step_desc ->
      Some s.step_loc
  | _ -> None

let add_through o fname = { o with through = fname :: o.through }
let add_guard o g = if List.mem g o.guards then o else { o with guards = g :: o.guards }

(* ------------------------------------------------------------------ *)
(* Evidence-list merges.                                               *)

(* [through]/[guards] are small most of the time, but deep concatenation
   chains fold thousands of operands into one origin; the naive
   prepend-if-absent accumulation is then quadratic.  Both merges below
   keep the exact output (order included) of the naive versions and
   switch to a set-backed membership test once the lists are big enough
   for it to pay. *)

module SS = Set.Make (String)

let small_merge = 8

(** [union_names base extra]: fold [extra] onto [base], prepending each
    element not already present — the accumulation historically done with
    [if List.mem x l then l else x :: l]. *)
let union_names base extra =
  match extra with
  | [] -> base
  | _ ->
      if List.length base + List.length extra <= small_merge then
        List.fold_left
          (fun l x -> if List.mem x l then l else x :: l)
          base extra
      else
        let seen = ref (SS.of_list base) in
        List.fold_left
          (fun l x ->
            if SS.mem x !seen then l
            else begin
              seen := SS.add x !seen;
              x :: l
            end)
          base extra

(** [inter_names a b]: elements of [a] also present in [b], in [a]'s
    order — guard intersection at control-flow merges. *)
let inter_names a b =
  match (a, b) with
  | [], _ | _, [] -> []
  | _ ->
      if List.length a + List.length b <= small_merge then
        List.filter (fun g -> List.mem g b) a
      else
        let in_b = SS.of_list b in
        List.filter (fun g -> SS.mem g in_b) a

(** Is the origin a function-summary placeholder for parameter [i]? *)
let param_source i = Printf.sprintf "param:%d" i

let param_index_of_source s =
  let n = String.length s in
  let rec digits i acc =
    if i = n then Some acc
    else
      match s.[i] with
      | '0' .. '9' as c -> digits (i + 1) ((10 * acc) + Char.code c - Char.code '0')
      | _ -> None
  in
  if n > 6 && String.starts_with ~prefix:"param:" s then digits 6 0 else None

type candidate = {
  vclass : Wap_catalog.Vuln_class.t;
  file : string;
  sink_name : string;  (** function/construct at the sink, e.g. ["mysql_query"], ["echo"] *)
  sink_loc : Loc.t;
  origins : origin list;  (** one per tainted argument flow *)
  sink_args : Ast.expr list;  (** the sink's argument expressions *)
  tainted_positions : int list;  (** indices of the tainted arguments *)
}
[@@deriving show]

(** Primary origin used for reporting (the first tainted flow). *)
let primary c = match c.origins with o :: _ -> o | [] -> origin ~source:"?" ~source_loc:Loc.dummy

(** One-line rendering: class, sink and source. *)
let summary c =
  let o = primary c in
  Printf.sprintf "%s: %s -> %s at %s"
    (Wap_catalog.Vuln_class.acronym c.vclass)
    o.source c.sink_name
    (Loc.to_string c.sink_loc)

(** Stable identity used to de-duplicate candidates found by several
    detectors for the same flow (e.g. RFI and LFI share the include
    sink, and the paper reports them together as "Files").  The source
    and the propagation path are part of the key so distinct flows into
    one shared sink — e.g. two call sites of a query helper — stay
    distinct. *)
let dedup_key c =
  let o = primary c in
  let path_sig =
    match o.rev_steps with
    | last :: _ -> Printf.sprintf "%s:%d" last.step_loc.Loc.file last.step_loc.Loc.line
    | [] -> ""
  in
  Printf.sprintf "%s|%d:%d|%s|%s|%s" c.file c.sink_loc.Loc.line
    c.sink_loc.Loc.col
    (Wap_catalog.Vuln_class.report_group c.vclass)
    o.source path_sig

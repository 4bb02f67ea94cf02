(** Symptom collection: turning a candidate vulnerability into the set
    of symptoms present in its data flow (the front half of Fig. 3).

    Evidence comes from three places: the validation guards the taint
    analyzer observed dominating the flow, the manipulation functions
    the tainted data passed through, and a syntactic analysis of the SQL
    query built at the sink. *)

open Wap_php
module SS = Set.Make (String)

type t = SS.t

let to_list = SS.elements
let mem = SS.mem

module Tr = Wap_taint.Trace

let literal_text parts =
  String.concat " "
    (List.filter_map (function Tr.Qlit s -> Some s | Tr.Qdyn -> None) parts)

(* ------------------------------------------------------------------ *)
(* SQL query symptoms.                                                 *)

let contains_ci haystack needle =
  let h = String.uppercase_ascii haystack and n = String.uppercase_ascii needle in
  let nh = String.length h and nn = String.length n in
  let rec go i = i + nn <= nh && (String.sub h i nn = n || go (i + 1)) in
  nn > 0 && go 0

let sql_symptoms ?(origin_parts : Tr.qpart list = []) (sink_args : Ast.expr list) :
    string list =
  let rev_args = List.fold_left (fun acc e -> Tr.flatten_onto e acc) [] sink_args in
  let parts = List.rev_append rev_args origin_parts in
  let text = literal_text parts in
  let has = contains_ci text in
  let syms = ref [] in
  let add s = syms := s :: !syms in
  if has "FROM " || has " FROM" then add "from";
  if has "AVG(" || has "AVG (" then add "avg";
  if has "COUNT(" || has "COUNT (" then add "count";
  if has "SUM(" || has "SUM (" then add "sum";
  if has "MAX(" || has "MAX (" then add "max";
  if has "MIN(" || has "MIN (" then add "min";
  (* a complex query combines several clauses or nests a select *)
  let clause_hits =
    List.length
      (List.filter has
         [ "JOIN"; "UNION"; "GROUP BY"; "HAVING"; "ORDER BY"; "LIMIT"; "DISTINCT" ])
  in
  let nested_select =
    (* two SELECTs = sub-query *)
    let rec count_sel i acc =
      if i + 6 > String.length text then acc
      else if String.uppercase_ascii (String.sub text i 6) = "SELECT" then
        count_sel (i + 6) (acc + 1)
      else count_sel (i + 1) acc
    in
    count_sel 0 0 >= 2
  in
  if clause_hits >= 2 || nested_select then add "complex_sql";
  (* numeric entry point: a dynamic part spliced right after '=' or
     'LIMIT' with no quote in between, e.g. "... WHERE id=" . $id *)
  let rec numeric_pos = function
    | Tr.Qlit before :: Tr.Qdyn :: _rest ->
        let trimmed = String.trim before in
        let n = String.length trimmed in
        (n > 0
        && (trimmed.[n - 1] = '='
           || (n >= 5 && String.uppercase_ascii (String.sub trimmed (n - 5) 5) = "LIMIT")))
        || numeric_pos (Tr.Qdyn :: _rest)
    | _ :: rest -> numeric_pos rest
    | [] -> false
  in
  if numeric_pos parts then add "is_num";
  !syms

(* ------------------------------------------------------------------ *)
(* Full evidence extraction.                                           *)

(** [collect ?dynamic ?user_functions candidate] computes the symptom
    set of a candidate.

    [dynamic] maps user function names to the static symptom they behave
    like (dynamic symptoms, Section III-B2).  [user_functions] is the
    set of function names defined by the application itself: a user
    function on the flow that is not otherwise mapped counts as a
    white-list validation only when listed in [dynamic]. *)
let collect ?(dynamic : Symptom.dynamic_map = []) (c : Wap_taint.Trace.candidate) : t =
  let add_name acc name =
    match Symptom.of_function_name name with
    | Some s -> SS.add s acc
    | None -> (
        match Symptom.resolve_dynamic dynamic name with
        | Some s -> SS.add s acc
        | None -> acc)
  in
  let acc =
    List.fold_left
      (fun acc (o : Wap_taint.Trace.origin) ->
        let acc = List.fold_left add_name acc o.Wap_taint.Trace.through in
        List.fold_left add_name acc o.Wap_taint.Trace.guards)
      SS.empty c.Wap_taint.Trace.origins
  in
  let is_query_class =
    match c.Wap_taint.Trace.vclass with
    | Wap_catalog.Vuln_class.Sqli | Ldapi | Xpathi | Nosqli | Wp_sqli -> true
    | _ -> false
  in
  let acc =
    if is_query_class then begin
      let origin_parts = List.concat_map Tr.parts c.Wap_taint.Trace.origins in
      List.fold_left (fun acc s -> SS.add s acc)
        acc
        (sql_symptoms ~origin_parts c.Wap_taint.Trace.sink_args)
    end
    else acc
  in
  acc

let of_names names = SS.of_list (List.map String.lowercase_ascii names)

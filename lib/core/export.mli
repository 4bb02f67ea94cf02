(** Machine-readable export of analysis results (JSON), for integration
    with editors, CI pipelines and issue trackers. *)

val loc_to_json : Wap_php.Loc.t -> Wap_report.Json.t
val origin_to_json : Wap_taint.Trace.origin -> Wap_report.Json.t

(** One finding; [verdict] attaches a dynamic-confirmation result. *)
val finding_to_json :
  ?verdict:Wap_confirm.Confirm.verdict -> Tool.finding -> Wap_report.Json.t

(** The whole result of one analyzed package/file as a JSON document.
    [confirm], when given, yields each finding's dynamic-confirmation
    verdict, attached as ["dynamic_confirmation"].  The export calls it
    once per finding and parses nothing: pass
    {!Wap_confirm.Confirm.replay} over the scan's own units
    ({!Tool.Scan.outcome}). *)
val result_to_json :
  ?confirm:(Wap_taint.Trace.candidate -> Wap_confirm.Confirm.verdict) ->
  Tool.package_result ->
  Wap_report.Json.t

val result_to_string :
  ?confirm:(Wap_taint.Trace.candidate -> Wap_confirm.Confirm.verdict) ->
  Tool.package_result ->
  string

(** One finding as an HTML report row. *)
val html_row :
  ?verdict:Wap_confirm.Confirm.verdict -> Tool.finding -> Wap_report.Html.row

(** The whole result as a standalone HTML report; [confirm], as in
    {!result_to_json}, shows each finding's verdict
    ({!Wap_confirm.Confirm.label}). *)
val result_to_html :
  ?confirm:(Wap_taint.Trace.candidate -> Wap_confirm.Confirm.verdict) ->
  Tool.package_result ->
  string

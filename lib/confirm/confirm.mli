(** Dynamic confirmation of candidate vulnerabilities.

    The paper's authors confirmed every reported vulnerability manually
    (Section V-B: "All were confirmed by us manually").  This module
    mechanizes that step: it replays the program with a class-specific
    attack payload bound to the candidate's entry point, intercepts the
    sink, and checks whether the payload's active characters survived —
    running the {e real} sanitizer/validator semantics through the
    bounded evaluator. *)

type verdict =
  | Confirmed  (** the payload reached the sink with its teeth intact *)
  | Not_confirmed
      (** execution completed but the payload never reached the sink in
          exploitable form (blocked, sanitized, or neutralized) *)
  | Unsupported  (** this class cannot be replayed (e.g. stored XSS) *)
[@@deriving show, eq]

(** The token embedded in every payload. *)
val marker : string

(** The attack payload for a class and the predicate deciding whether a
    sink-argument string is still exploitable. *)
type attack = {
  payload : string;
  exploitable : string -> bool;
}

(** [None] for classes that cannot be replayed (stored XSS, custom). *)
val attack_for : Wap_catalog.Vuln_class.t -> attack option

(** Replay [program] against the candidate with the class payload bound
    to the candidate's entry point; every other input gets a benign
    default.  Execution starts at the flow's entry line so unrelated
    earlier flows cannot mask it, and only sink events at the
    candidate's sink line count. *)
val confirm_candidate :
  program:Wap_php.Ast.program -> Wap_taint.Trace.candidate -> verdict

(** Replay a candidate against its sink file's AST among [units] — pass
    the scan's own units ([Wap_core.Tool.Scan.outcome]), so the replay
    runs the program the detector analyzed, recovered parse errors
    included.  A candidate whose file is not among [units] is
    [Unsupported].  [replay units] indexes the units once; apply it to
    every candidate of the scan. *)
val replay :
  Wap_taint.Analyzer.file_unit list -> Wap_taint.Trace.candidate -> verdict

(** The human-readable verdict the text listing and the HTML report
    show: ["exploit confirmed"], ["exploit not reproduced"] or
    ["not replayable"]. *)
val label : verdict -> string

(** (confirmed, not confirmed, unsupported) counts of {!replay} over the
    candidates. *)
val confirm_batch :
  Wap_taint.Analyzer.file_unit list ->
  Wap_taint.Trace.candidate list ->
  int * int * int

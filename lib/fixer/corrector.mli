(** The code corrector: inserts fixes into vulnerable source (the
    right-hand module of Fig. 1).

    Correction happens on the AST: the tainted argument expressions at
    the sink are wrapped in a call to the fix function, whose definition
    is prepended once per file.  Fixes are applied at the line of the
    sensitive sink, as in the original WAP. *)

open Wap_php

type correction = {
  candidate : Wap_taint.Trace.candidate;
  fix : Fix.t;
}

type report = {
  file : string;
  applied : (Fix.t * Loc.t) list;  (** fix and the sink line it protects *)
}

(** Apply a batch of corrections to a parsed file: wraps every tainted
    sink argument and prepends each needed fix definition once.
    Duplicate corrections for one sink are collapsed; already-wrapped
    arguments and already-defined fix functions are left alone. *)
val correct_program : Ast.program -> correction list -> Ast.program * report

(** End-to-end correction of a parsed file: fix every candidate with its
    class's stock fix and print the corrected PHP.  Pass the AST the
    scan analyzed ([Wap_core.Tool.Scan.outcome]'s [units]), and only
    for a file that parsed without recovered errors: printing a
    partially recovered AST drops the code that did not parse. *)
val correct :
  Ast.program -> Wap_taint.Trace.candidate list -> string * report

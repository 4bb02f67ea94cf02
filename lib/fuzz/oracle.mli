(** Differential oracles over one fuzz input.

    An oracle states an invariant of the pipeline that must hold for
    {e every} input — totality, round-tripping, determinism,
    monotonicity, soundness — so any violation is a bug by construction,
    not a judgement call about detection quality. *)

type case = {
  source : string;  (** the PHP source under test *)
  gen_ast : Wap_php.Ast.program option;
      (** the generated AST when the source was printed from one; [None]
          for replayed seed files and spiced raw sources *)
}

val case_of_source : string -> case

type verdict = Pass | Fail of string

(** Shared scan context.  The tool is created lazily and shared across
    the run. *)
type ctx = { tool : Wap_core.Tool.t Lazy.t }

type t = {
  name : string;  (** stable CLI/seed-file identifier, e.g. ["printer-fixpoint"] *)
  describe : string;
  check : ctx -> case -> verdict;
}

(** The reference of [scan-fused-equiv]: passes 1–3 of the public
    per-file analyzer API over [units], finalized, with pass 2 walking
    every function body again — the pass-1 deltas are computed on a
    scratch state and registered on a fresh one, which holds no pass-1
    walk to reuse.  Candidates are paired with their spec's position in
    [specs], like {!Wap_taint.Analyzer.analyze_project_indexed}. *)
val rewalk_reference :
  specs:Wap_catalog.Catalog.spec list ->
  Wap_taint.Analyzer.file_unit list ->
  (int * Wap_taint.Trace.candidate) list

(** Every oracle, in documentation order; {!names} lists them. *)
val all : t list

val by_name : string -> t option

(** The names of {!all}, in order — the source of every list of oracle
    names shown to users. *)
val names : string list

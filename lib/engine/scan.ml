(* The batch entry point, a thin wrapper over a one-shot {!Session}:
   open the project, export it, drop the state.  All pipeline
   machinery lives in [Session]; the type equations below keep the
   historical [Scan.*] names working. *)

type progress = Session.progress =
  | File_parsed of { path : string; cached : bool }
  | File_analyzed of { path : string; cached : bool }

type request = Session.request = {
  files : (string * string) list;
  specs : Wap_catalog.Catalog.spec list;
  jobs : int;
  cache : Cache.t option;
  fingerprint : string;
  interprocedural : bool;
  summary_store : bool;
  on_progress : (progress -> unit) option;
}

type file_report = Session.file_report = {
  fr_path : string;
  fr_seconds : float;
  fr_cached : bool;
  fr_errors : Wap_php.Parser.recovered_error list;
}

type spec_report = Session.spec_report = {
  sr_spec : string;
  sr_cached : bool;
  sr_candidates : int;
}

type outcome = Session.outcome = {
  units : Wap_taint.Analyzer.file_unit list;
  candidates : Wap_taint.Trace.candidate list;
  file_reports : file_report list;
  spec_reports : spec_report list;
  wall_seconds : float;
  cpu_seconds : float;
  phases : (string * float) list;
  jobs_used : int;
  cache_hits : int;
  cache_misses : int;
}

let cache_format_version = Session.cache_format_version
let request = Session.request
let spec_label = Session.spec_label
let run = Session.run

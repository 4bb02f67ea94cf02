(** The batch scan entry point.

    [run] opens a one-shot {!Session} and exports it: parse fan-out
    over the {!Pool}, fused multi-spec taint analysis, optional
    digest-keyed {!Cache}, deterministic merge — see {!Session} for
    the pipeline's semantics and {!Config} for the environment gates.
    Long-lived callers that want incremental re-analysis after edits
    use {!Session} directly; everything here is a type equation onto
    it, so the two APIs interconvert freely.

    Candidates are merged in a deterministic order — sorted by sink
    file, then sink location, ties broken by spec order and discovery
    order — so the output is byte-identical whatever [jobs] is.

    The run is instrumented with {!Wap_obs}: spans for the whole scan,
    each phase, each parse/analyze work item and every cache lookup
    (visible in a [--trace-out] Chrome trace), plus process-wide
    [engine.*] counters (files parsed, parse-error recoveries,
    candidates per detector spec, cache traffic).  None of it changes
    the scan result: tracing on or off, the merged output is
    byte-identical. *)

open Wap_php

(** Part of every cache key; bumped whenever the marshalled shape of a
    cached value or the layout of a key changes. *)
val cache_format_version : string

type progress = Session.progress =
  | File_parsed of { path : string; cached : bool }
  | File_analyzed of { path : string; cached : bool }
      (** one per file once its analysis (or cache assembly) is done *)

type request = Session.request = {
  files : (string * string) list;  (** [(path, source)], scanned as one app *)
  specs : Wap_catalog.Catalog.spec list;  (** active detectors *)
  jobs : int;  (** worker domains; clamped to at least 1 *)
  cache : Cache.t option;
  fingerprint : string;
      (** tool-level cache-key material: version name plus the full
          active spec set, so changing either invalidates analysis
          entries *)
  interprocedural : bool;
  summary_store : bool;
      (** persist pass-1 summary deltas in the cache under
          content-addressed chained prefix keys, shared across projects
          through a common cache directory; off by default, enabled by
          the fleet workers — see {!Session.request} *)
  on_progress : (progress -> unit) option;
      (** invoked in the calling domain, once per finished work item *)
}

(** [request ~specs files] with defaults: [jobs] resolved through
    {!Config} ([WAP_JOBS]), no cache, empty fingerprint,
    interprocedural on. *)
val request :
  ?jobs:int ->
  ?cache:Cache.t ->
  ?fingerprint:string ->
  ?interprocedural:bool ->
  ?summary_store:bool ->
  ?on_progress:(progress -> unit) ->
  specs:Wap_catalog.Catalog.spec list ->
  (string * string) list ->
  request

type file_report = Session.file_report = {
  fr_path : string;
  fr_seconds : float;  (** wall clock spent parsing this file *)
  fr_cached : bool;
  fr_errors : Parser.recovered_error list;
}

type spec_report = Session.spec_report = {
  sr_spec : string;  (** submodule/class label *)
  sr_cached : bool;
  sr_candidates : int;
}

type outcome = Session.outcome = {
  units : Wap_taint.Analyzer.file_unit list;  (** parsed files, input order *)
  candidates : Wap_taint.Trace.candidate list;
      (** merged (not yet de-duplicated), in the deterministic order
          described above *)
  file_reports : file_report list;  (** input order *)
  spec_reports : spec_report list;  (** spec order *)
  wall_seconds : float;
  cpu_seconds : float;  (** process CPU, all domains aggregated *)
  phases : (string * float) list;
      (** per-phase wall clock, in pipeline order: [parse] (stage-1 pool
          fan-out), [digest] (project cache-key digest), [analyze]
          (stage-2 pool fan-out), [merge] (finalize + deterministic
          sort) *)
  jobs_used : int;
  cache_hits : int;  (** cache lookups served from the cache, this scan *)
  cache_misses : int;
}

(** Human label of a spec, e.g. ["query manipulation/SQLI"]. *)
val spec_label : Wap_catalog.Catalog.spec -> string

val run : request -> outcome

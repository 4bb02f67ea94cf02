(** The scan engine.

    {!open_project} runs the pipeline once — parse fan-out, the fused
    multi-spec taint analysis, digest-keyed caching — and {e retains}
    everything in memory: ASTs, per-file pass results, the analyzer
    state with its summary table and catalog lookup, per-file dead-sink
    sets.  {!export} finalizes and merges deterministically; {!run} is
    exactly [export (open_project req)], the one-shot scan every batch
    caller ([Wap_core.Tool.Scan]) goes through.

    {!update_file}, {!add_file} and {!remove_file} apply {e targeted}
    invalidation instead of cold cache probes:

    - the touched file is re-parsed and its top-level pass (pass 3)
      re-run, together with the files whose top-level sweep can splice
      it (transitive reverse include closure, matched by base name
      like the splice itself);
    - when the file's {e function-summary fingerprint} — the exact
      function list passes 1/2 consume, bodies and locations included —
      changes (or a file that declares functions is added or removed),
      the shared summary table is stale and the whole project
      re-analyzes.

    All three, like {!open_project}, go through one pass runner: passes
    1–2 replay over the whole project only when no analyzer state is
    retained (an all-cache-hit open builds none) or the edit made the
    summary table stale, then pass 3 re-runs over the affected files.

    Every mutation returns the paths whose analysis re-ran, so clients
    (and the invalidation tests) can observe exactly how much work an
    edit caused.  After any sequence of mutations the session exports
    byte-identically to a fresh {!run} over the same sources.

    Candidates are merged in a deterministic order — sorted by sink
    file, then sink location, ties broken by spec order and discovery
    order — so the output is byte-identical whatever [jobs] is.

    The run is instrumented with {!Wap_obs}: spans for the open, each
    phase, each parse/analyze work item and every cache lookup, plus
    process-wide [engine.*] counters.  At debug level it logs one
    ["parsed"] and one ["analyzed"] line per file it parses or
    analyzes, with [file] and [cached] fields, from the calling domain.
    None of it changes the result: tracing on or off, the export is
    byte-identical.

    Sessions are not thread-safe: drive each from one domain (the
    pass-3 fan-out parallelizes internally). *)

open Wap_php

(** Part of every cache key; bumped whenever the marshalled shape of a
    cached value or the layout of a key changes. *)
val cache_format_version : string

type request = {
  files : (string * string) list;  (** [(path, source)], scanned as one app *)
  specs : Wap_catalog.Catalog.spec list;  (** active detectors *)
  jobs : int;  (** worker domains; clamped to at least 1 *)
  cache : Cache.t option;
  fingerprint : string;
      (** tool-level cache-key material: version name plus the full
          active spec set, so changing either invalidates the analysis
          entry *)
}

(** [request ~specs files] with defaults: [jobs] resolved through
    {!Config} (environment gate [WAP_JOBS]), no cache, empty
    fingerprint. *)
val request :
  ?jobs:int ->
  ?cache:Cache.t ->
  ?fingerprint:string ->
  specs:Wap_catalog.Catalog.spec list ->
  (string * string) list ->
  request

type file_report = {
  fr_path : string;
  fr_cached : bool;
  fr_errors : Parser.recovered_error list;
}

type spec_report = {
  sr_spec : string;  (** submodule/class label *)
  sr_candidates : int;
}

type outcome = {
  units : Wap_taint.Analyzer.file_unit list;  (** parsed files, input order *)
  candidates : Wap_taint.Trace.candidate list;
      (** merged (not yet de-duplicated), in the deterministic order
          of the scan engine *)
  file_reports : file_report list;  (** input order *)
  spec_reports : spec_report list;  (** spec order *)
  phases : (string * float) list;
      (** per-phase wall clock, in pipeline order: [parse] (stage-1 pool
          fan-out), [digest] (project cache-key digest; [0.] without a
          cache, where no key is computed and no source digested), [analyze]
          (stage-2 pool fan-out), [merge] (finalize + deterministic
          sort, measured at the latest export) *)
  jobs_used : int;
  cache_hits : int;  (** cache lookups served from the cache, this session *)
  cache_misses : int;
}

(** Human label of a spec, e.g. ["query manipulation/SQLI"]. *)
val spec_label : Wap_catalog.Catalog.spec -> string

(** An open session. *)
type t

(** Open a project: parse every file, run the analysis pipeline, retain
    all state.  The open itself is generation [0]. *)
val open_project : request -> t

(** [export (open_project req)]: the one-shot scan. *)
val run : request -> outcome

(** The number of mutations applied so far ([0] right after
    {!open_project}; each [update]/[add]/[remove] increments it). *)
val generation : t -> int

(** The active detector specs, in the (id-defining) request order. *)
val specs : t -> Wap_catalog.Catalog.spec list

(** Paths of the files currently in the project, project order. *)
val paths : t -> string list

val mem : t -> path:string -> bool

(** The AST of [path] as the session last parsed and analyzed it, with
    the errors that parse recovered ([[]] for a clean parse); [None]
    when [path] is not in the project.  A read-only view: the session
    keeps using the same tree. *)
val parsed : t -> path:string -> (Ast.program * Parser.recovered_error list) option

(** Replace the contents of [path] and re-analyze incrementally (see
    the module docs for the invalidation rules).  Returns the paths
    whose analysis re-ran.  Raises [Invalid_argument] if [path] is not
    in the project, or occurs more than once (duplicate paths are
    legal in batch requests but not addressable for mutation). *)
val update_file : t -> path:string -> string -> string list

(** Add a new file at the end of the project order and re-analyze
    incrementally.  Returns the paths whose analysis re-ran.  Raises
    [Invalid_argument] if [path] is already in the project. *)
val add_file : t -> path:string -> string -> string list

(** Remove [path] from the project and re-analyze the files whose
    top-level sweep spliced it.  Returns the paths whose analysis
    re-ran (never includes the removed path).  Removing an unknown
    path is a no-op returning [[]]. *)
val remove_file : t -> path:string -> string list

(** The deterministic merge order of the engine: [(spec index,
    candidate)] pairs stably sorted by sink file, then sink location,
    then spec index, so each spec's candidates at one sink keep their
    input order.  {!all_diagnostics} is [merge] over the finalized
    pass lists, which are in discovery order; merging one
    [Wap_taint.Analyzer.analyze_project] run per spec, flattened in
    spec order, gives the reference it must equal. *)
val merge :
  (int * Wap_taint.Trace.candidate) list ->
  (int * Wap_taint.Trace.candidate) list

(** Finalized (de-duplicated, dead-sink-filtered) candidates of the
    whole project in the deterministic merge order, each paired with
    the index of the spec that found it (position in {!specs}).  The
    finalized, merged list is memoized until the next mutation, so
    calling it repeatedly between edits is cheap. *)
val all_diagnostics : t -> (int * Wap_taint.Trace.candidate) list

(** {!all_diagnostics} restricted to candidates whose sink file is
    [path]. *)
val diagnostics : t -> path:string -> (int * Wap_taint.Trace.candidate) list

(** The full outcome over the current project state — byte-identical
    to a fresh {!run} over the same sources, whatever mutations led
    here. *)
val export : t -> outcome

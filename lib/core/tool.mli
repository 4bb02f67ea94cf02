(** The WAP tool pipeline (Fig. 1): code analyzer -> false positive
    predictor -> code corrector, assembled for one of the two tool
    versions, optionally equipped with weapons. *)

type t = {
  version : Version.t;
  specs : Wap_catalog.Catalog.spec list;
      (** active detectors: sub-modules + weapons *)
  predictor : Wap_mining.Predictor.t;
  weapons : Wap_weapon.Weapon.t list;
}

(** Create a tool instance.  At the default seed
    ({!Training.frozen_seed}) and without a [dataset], its
    false-positive predictor is the stock ensemble trained when the
    library was built ({!Training.frozen_models}): nothing parses a
    training set or trains, so no [predictor.train] span or
    [mining.train_seconds.*] observation appears.  Otherwise the
    predictor trains, deterministically from the seed, at the first
    classification — inside the [phase.predict] of the first
    {!Scan.run} that has candidates — so a scan without candidates
    never trains it; the training set is [dataset] if given, else
    {!Training.dataset_for}[ ~seed] (generated at a non-default seed).

    [weapons] adds weapon detectors (and their dynamic symptoms);
    [extra_sanitizers] registers user sanitization functions — the §V-A
    "escape" extensibility mechanism ([(None, fn)] applies to every
    detector, [(Some cls, fn)] to one class); [dataset] supplies an
    external training set (the "trained data sets" input of Fig. 1)
    instead of the built-in one. *)
val create :
  ?seed:int ->
  ?weapons:Wap_weapon.Weapon.t list ->
  ?extra_sanitizers:(Wap_catalog.Vuln_class.t option * string) list ->
  ?dataset:Wap_mining.Dataset.t ->
  Version.t ->
  t

type finding = {
  candidate : Wap_taint.Trace.candidate;
  predicted_fp : bool;
  symptoms : string list;  (** justification (Fig. 3) *)
}

type package_result = {
  package : Wap_corpus.Appgen.package;
  files_analyzed : int;
  loc : int;
  analysis_seconds : float;  (** wall clock *)
  analysis_cpu_seconds : float;  (** process CPU, all worker domains *)
  phase_seconds : (string * float) list;
      (** wall clock per pipeline phase, in order: the engine's [parse],
          [digest], [analyze], [merge] plus this layer's [predict]
          (dedup + FP classification); sums to nearly
          [analysis_seconds] *)
  candidates : Wap_taint.Trace.candidate list;  (** de-duplicated *)
  findings : finding list;
  reported : Wap_taint.Trace.candidate list;
      (** predicted real -> reported to the user *)
  predicted_fps : Wap_taint.Trace.candidate list;
}

(** De-duplicate candidates found by several detectors for the same sink
    location and report group (e.g. RFI and LFI both firing on one
    include). *)
val dedup_candidates :
  Wap_taint.Trace.candidate list -> Wap_taint.Trace.candidate list

(** [restrict t r] is [t]'s result on the package of [r], derived from
    [r] without scanning again: [r]'s candidates of [t]'s classes,
    de-duplicated and classified by [t]'s predictor as {!Scan.run}
    would.  Its [phase_seconds] is the one [predict] phase, and its
    times are that phase's.  It equals a scan with [t] when [r] came
    from a tool whose specs start with [t]'s and none of whose other
    classes shares a report group with one of [t]'s — WAPe's result
    restricted to WAP v2.1, say: the fused analysis computes each
    spec's candidates independently and merges them by sink, then
    spec, so the other tool's extra specs only add candidates, which
    the class filter drops and which never displace one of [t]'s in
    {!dedup_candidates}. *)
val restrict : t -> package_result -> package_result

(** The unified scan API.  Every batch entry point — CLI, experiments,
    bench, fleet workers and fuzz oracles — routes through one
    request/outcome pair executed on the parallel engine (a one-shot
    {!Wap_engine.Session}): tolerant parsing fans out over [jobs]
    worker domains, one fused taint pass covers all detector specs
    (per-file fan-out in its top-level stage), candidates merge
    deterministically, and an optional digest-keyed cache skips
    unchanged work.  Long-lived callers (the [wap serve] LSP daemon)
    drive {!Wap_engine.Session} directly for incremental re-analysis
    after edits. *)
module Scan : sig
  type request = {
    files : (string * string) list;  (** [(path, source)], one app *)
    jobs : int;  (** worker domains *)
    cache : Wap_engine.Cache.t option;
    package : Wap_corpus.Appgen.package option;
        (** corpus package the files came from (ground truth, LoC);
            synthesized from [files] when absent *)
  }

  (** Build a request.  [jobs] resolves through {!Wap_engine.Config}
      (environment gate [WAP_JOBS], flag-beats-env); omitting [cache]
      disables caching. *)
  val request :
    ?jobs:int ->
    ?cache:Wap_engine.Cache.t ->
    ?package:Wap_corpus.Appgen.package ->
    (string * string) list ->
    request

  (** A request over a corpus package's files. *)
  val request_of_package :
    ?jobs:int ->
    ?cache:Wap_engine.Cache.t ->
    Wap_corpus.Appgen.package ->
    request

  type outcome = {
    result : package_result;
    units : Wap_taint.Analyzer.file_unit list;
        (** the ASTs the scan analyzed, one per file in input order — the
            tolerant parse, recovered errors included.  Every step after
            the scan reads these instead of parsing again: dynamic
            confirmation ({!Wap_confirm.Confirm.replay}) and correction
            ({!Wap_fixer.Corrector.correct}, on files without
            [parse_errors] only) *)
    parse_errors : (string * Wap_php.Parser.recovered_error list) list;
        (** recovered errors of the files that needed recovery *)
    spec_reports : Wap_engine.Session.spec_report list;  (** spec order *)
    jobs_used : int;
    cache_hits : int;
    cache_misses : int;
  }

  (** Cache-key material identifying this tool configuration: version
      name plus the full active spec set, so equipping weapons or extra
      sanitizers invalidates cached analysis results. *)
  val fingerprint : t -> string

  val run : t -> request -> outcome
end

(** Correct the reported vulnerabilities of a single source file,
    returning the fixed PHP.  The correction runs on the AST the scan
    analyzed.  A source whose parse needed recovery comes back
    unchanged, with no fix applied: printing its partial AST would drop
    the code that did not parse. *)
val correct_source :
  t -> file:string -> string -> string * Wap_fixer.Corrector.report

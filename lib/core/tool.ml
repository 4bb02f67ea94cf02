(** The WAP tool pipeline (Fig. 1): code analyzer -> false positive
    predictor -> code corrector, assembled for one of the two tool
    versions, optionally equipped with weapons. *)

module VC = Wap_catalog.Vuln_class
module Cat = Wap_catalog.Catalog

type t = {
  version : Version.t;
  specs : Cat.spec list;  (** active detectors, sub-modules + weapons *)
  predictor : Wap_mining.Predictor.t;
  weapons : Wap_weapon.Weapon.t list;
}

(** Create a tool instance.  At the frozen seed without a [dataset],
    the predictor is the ensemble trained at build time; otherwise it
    trains at its first classification, not here.

    [weapons] adds weapon detectors (and their dynamic symptoms);
    [extra_sanitizers] registers user sanitization functions for
    specific classes, the §V-A "escape" extensibility mechanism —
    [None] as the class applies to every detector. *)
let create ?(seed = Training.frozen_seed) ?(weapons = []) ?(extra_sanitizers = []) ?dataset
    (version : Version.t) : t =
  let base_specs = Cat.specs_for (Version.classes version) in
  let weapon_specs = List.map (fun w -> w.Wap_weapon.Weapon.spec) weapons in
  let apply_extra (spec : Cat.spec) =
    let extras =
      List.filter_map
        (fun (cls, fn) ->
          match cls with
          | None -> Some (Cat.San_fn fn)
          | Some c when VC.equal c spec.Cat.vclass -> Some (Cat.San_fn fn)
          | Some _ -> None)
        extra_sanitizers
    in
    { spec with Cat.sanitizers = spec.Cat.sanitizers @ extras }
  in
  let specs = List.map apply_extra (base_specs @ weapon_specs) in
  let dynamic =
    List.concat_map (fun w -> w.Wap_weapon.Weapon.dynamic_symptoms) weapons
  in
  let config =
    Wap_mining.Predictor.with_dynamic_symptoms
      (Version.predictor_config version)
      dynamic
  in
  let predictor =
    match dataset with
    | None when seed = Training.frozen_seed ->
        Wap_mining.Predictor.of_models config (Training.frozen_models version)
    | Some d -> Wap_mining.Predictor.train ~seed config d
    | None -> Wap_mining.Predictor.train ~seed config (Training.dataset_for ~seed version)
  in
  { version; specs; predictor; weapons }

(* ------------------------------------------------------------------ *)
(* Analysis results.                                                   *)

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
  reported : Wap_taint.Trace.candidate list;  (** predicted real -> reported *)
  predicted_fps : Wap_taint.Trace.candidate list;
}

(** De-duplicate candidates found by several detectors for the same sink
    location and report group (e.g. RFI and LFI both firing on one
    include). *)
let dedup_candidates (cands : Wap_taint.Trace.candidate list) :
    Wap_taint.Trace.candidate list =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun c ->
      let key = Wap_taint.Trace.dedup_key c in
      if Hashtbl.mem seen key then false
      else begin
        Hashtbl.add seen key ();
        true
      end)
    cands

(* The predict phase and the result around it: de-duplicate the
   candidates, classify each with the tool's predictor and split the
   findings into reported and predicted false positives.  [started] is
   the (wall, cpu) start of the whole analysis, [phases] the phases
   before this one. *)
let predict (t : t) ~package ~loc ~started:(t0_wall, t0_cpu) ~phases raw :
    package_result =
  let t0_predict = Unix.gettimeofday () in
  let candidates, findings =
    Wap_obs.Trace.with_span ~cat:"core" "phase.predict" (fun () ->
        let candidates = dedup_candidates raw in
        let findings =
          List.map
            (fun c ->
              let predicted_fp, symptoms =
                Wap_mining.Predictor.classify t.predictor c
              in
              { candidate = c; predicted_fp; symptoms })
            candidates
        in
        (candidates, findings))
  in
  let t_predict = Unix.gettimeofday () -. t0_predict in
  let predicted_fps, reported =
    List.partition (fun f -> f.predicted_fp) findings
  in
  {
    package;
    files_analyzed = List.length package.Wap_corpus.Appgen.pkg_files;
    loc;
    analysis_seconds = Unix.gettimeofday () -. t0_wall;
    analysis_cpu_seconds = Sys.time () -. t0_cpu;
    phase_seconds = phases @ [ ("predict", t_predict) ];
    candidates;
    findings;
    reported = List.map (fun f -> f.candidate) reported;
    predicted_fps = List.map (fun f -> f.candidate) predicted_fps;
  }

let restrict (t : t) (r : package_result) : package_result =
  let classes = List.map (fun (s : Cat.spec) -> s.Cat.vclass) t.specs in
  predict t ~package:r.package ~loc:r.loc
    ~started:(Unix.gettimeofday (), Sys.time ())
    ~phases:[]
    (List.filter
       (fun (c : Wap_taint.Trace.candidate) ->
         List.exists (VC.equal c.Wap_taint.Trace.vclass) classes)
       r.candidates)

(* ------------------------------------------------------------------ *)
(* The unified Scan API: every batch entry point (CLI, experiments,     *)
(* bench, fleet workers, fuzz oracles) routes through one               *)
(* request/outcome pair executed on a one-shot engine session.          *)

module Session = Wap_engine.Session

module Scan = struct
  type request = {
    files : (string * string) list;  (** [(path, source)], one app *)
    jobs : int;  (** worker domains *)
    cache : Wap_engine.Cache.t option;
    package : Wap_corpus.Appgen.package option;
        (** corpus package the files came from (ground truth, LoC);
            synthesized from [files] when absent *)
  }

  let request ?jobs ?cache ?package files =
    { files; jobs = Wap_engine.Config.jobs jobs; cache; package }

  let request_of_package ?jobs ?cache (pkg : Wap_corpus.Appgen.package) =
    request ?jobs ?cache ~package:pkg
      (List.map
         (fun (f : Wap_corpus.Appgen.file) ->
           (f.Wap_corpus.Appgen.f_name, f.Wap_corpus.Appgen.f_source))
         pkg.Wap_corpus.Appgen.pkg_files)

  type outcome = {
    result : package_result;
    units : Wap_taint.Analyzer.file_unit list;
        (** the ASTs the scan analyzed, input order *)
    parse_errors : (string * Wap_php.Parser.recovered_error list) list;
        (** recovered errors of the files that needed recovery *)
    spec_reports : Session.spec_report list;  (** spec order *)
    jobs_used : int;
    cache_hits : int;
    cache_misses : int;
  }

  (** Cache-key material identifying this tool configuration: the
      version name and the full active spec set (sources, sinks,
      sanitizers — so added weapons or extra sanitizers invalidate). *)
  let fingerprint (t : t) : string =
    Wap_engine.Cache.key
      [ Version.name t.version; Cat.set_fingerprint t.specs ]

  let run (t : t) (req : request) : outcome =
    let t0_wall = Unix.gettimeofday () and t0_cpu = Sys.time () in
    let pkg =
      match req.package with
      | Some pkg -> pkg
      | None ->
          {
            Wap_corpus.Appgen.pkg_name =
              (match req.files with (n, _) :: _ -> n | [] -> "<empty>");
            pkg_version = "";
            pkg_kind = Wap_corpus.Appgen.Webapp;
            pkg_files =
              List.map
                (fun (f_name, f_source) -> { Wap_corpus.Appgen.f_name; f_source })
                req.files;
            pkg_seeded = [];
          }
    in
    let engine =
      Session.run
        (Session.request ~jobs:req.jobs ?cache:req.cache
           ~fingerprint:(fingerprint t) ~specs:t.specs req.files)
    in
    let result =
      predict t ~package:pkg
        ~loc:(Wap_corpus.Appgen.loc_of_package pkg)
        ~started:(t0_wall, t0_cpu) ~phases:engine.Session.phases
        engine.Session.candidates
    in
    {
      result;
      units = engine.Session.units;
      parse_errors =
        List.filter_map
          (fun (r : Session.file_report) ->
            match r.Session.fr_errors with
            | [] -> None
            | errs -> Some (r.Session.fr_path, errs))
          engine.Session.file_reports;
      spec_reports = engine.Session.spec_reports;
      jobs_used = engine.Session.jobs_used;
      cache_hits = engine.Session.cache_hits;
      cache_misses = engine.Session.cache_misses;
    }
end

(** Correct the reported vulnerabilities of a single source file on the
    AST the scan analyzed, returning the fixed PHP; a source whose parse
    needed recovery comes back unchanged, with no fix applied. *)
let correct_source (t : t) ~file (src : string) : string * Wap_fixer.Corrector.report =
  match Scan.run t (Scan.request [ (file, src) ]) with
  | { Scan.units = [ u ]; parse_errors = []; result; _ } ->
      Wap_fixer.Corrector.correct u.Wap_taint.Analyzer.program result.reported
  | _ -> (src, { Wap_fixer.Corrector.file; applied = [] })

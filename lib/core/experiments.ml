(** Reproduction of every table and figure of the paper's evaluation.

    Each [tableN]/[figN] function returns the rendered report; the
    [*_data] functions expose the underlying numbers for tests and
    benchmarks.  EXPERIMENTS.md records paper-vs-measured values. *)

module VC = Wap_catalog.Vuln_class
module T = Wap_report.Table
module D = Wap_mining.Dataset
module M = Wap_mining.Metrics

let default_seed = Training.frozen_seed

(* ------------------------------------------------------------------ *)
(* Table I: symptoms and attributes.                                   *)

let table1 () : string =
  let rows =
    List.map
      (fun (s : Wap_mining.Symptom.t) ->
        [
          (match s.category with
          | Wap_mining.Symptom.Validation -> "validation"
          | String_manipulation -> "string manipulation"
          | Sql_manipulation -> "SQL query manipulation");
          s.group;
          s.name;
          (if s.original then "WAP v2.1" else "new");
        ])
      Wap_mining.Symptom.all
  in
  let t =
    T.make
      ~title:
        (Printf.sprintf
           "Table I: %d symptoms = %d attributes (+1 class attribute = 61); original tool: %d attributes"
           Wap_mining.Symptom.count
           (Wap_mining.Attributes.arity Wap_mining.Attributes.Extended)
           (Wap_mining.Attributes.paper_count Wap_mining.Attributes.Original))
      ~header:[ "category"; "attribute group"; "symptom"; "since" ]
      ~aligns:[ T.L; T.L; T.L; T.L ] rows
  in
  T.render t

(* ------------------------------------------------------------------ *)
(* Tables II and III: classifier evaluation.                           *)

let top3 =
  [ Wap_mining.Svm.algorithm; Wap_mining.Logistic.algorithm;
    Wap_mining.Random_forest.algorithm ]

type model_eval = { me_name : string; me_confusion : M.confusion }

let evaluate_models ?(seed = default_seed) ?(dataset : D.t option) () :
    model_eval list =
  let d =
    match dataset with Some d -> d | None -> Training.dataset_for ~seed Version.Wape
  in
  List.map
    (fun algo ->
      {
        me_name = algo.Wap_mining.Classifier.algo_name;
        me_confusion = Wap_mining.Evaluation.cross_validate ~k:10 ~seed algo d;
      })
    top3

let table2_rows (evals : model_eval list) =
  List.map
    (fun metric ->
      metric
      :: List.map (fun e -> T.pctf (M.get e.me_confusion metric)) evals)
    M.metric_names

let table2 ~(dataset : D.t) (evals : model_eval list) : string =
  let t =
    T.make
      ~title:
        (Printf.sprintf
           "Table II: 10-fold cross-validation of the top-3 classifiers (%d instances, %d attributes)"
           (D.size dataset)
           (Wap_mining.Attributes.paper_count dataset.D.mode))
      ~header:("Metric" :: List.map (fun e -> e.me_name) evals)
      (table2_rows evals)
  in
  T.render t

let table3 (evals : model_eval list) : string =
  let row_of e =
    [ e.me_name;
      string_of_int e.me_confusion.M.tp; string_of_int e.me_confusion.M.fp;
      string_of_int e.me_confusion.M.fn; string_of_int e.me_confusion.M.tn ]
  in
  let t =
    T.make ~title:"Table III: confusion matrices of the top-3 classifiers"
      ~header:[ "Classifier"; "tp (Yes/Yes)"; "fp (No->Yes)"; "fn (Yes->No)"; "tn (No/No)" ]
      (List.map row_of evals)
  in
  T.render t

(* The confusion matrix of [algo] in [evals], else a fresh
   cross-validation on [dataset]. *)
let confusion_of ~seed ~dataset evals (algo : Wap_mining.Classifier.algorithm) =
  match List.find_opt (fun e -> e.me_name = algo.Wap_mining.Classifier.algo_name) evals with
  | Some e -> e.me_confusion
  | None -> Wap_mining.Evaluation.cross_validate ~k:10 ~seed algo dataset

(** The wider model-selection ranking behind the top-3 choice. *)
let classifier_ranking ?(seed = default_seed) ~dataset (evals : model_eval list) : string =
  let ranked =
    Wap_mining.Evaluation.rank
      (List.map
         (fun algo ->
           { Wap_mining.Evaluation.algo; confusion = confusion_of ~seed ~dataset evals algo })
         Wap_mining.Evaluation.default_pool)
  in
  let rows =
    List.map
      (fun (r : Wap_mining.Evaluation.ranked) ->
        [ r.algo.Wap_mining.Classifier.algo_name;
          T.pctf (M.tpp r.confusion); T.pctf (M.pfp r.confusion);
          T.pctf (M.acc r.confusion); T.pctf (M.inform r.confusion) ])
      ranked
  in
  T.render
    (T.make ~title:"Classifier re-evaluation (model selection pool)"
       ~header:[ "Classifier"; "tpp"; "pfp"; "acc"; "inform" ] rows)

(** Ablation: the original 16-attribute encoding vs the new 61-attribute
    encoding, on the same instances (the paper's central data-mining
    claim).  The 61-attribute row is the WAPe data set's SVM
    evaluation. *)
let ablation_attributes ?(seed = default_seed) ~dataset (evals : model_eval list) :
    string =
  let svm = Wap_mining.Svm.algorithm in
  let original =
    Training.build_dataset ~seed ~mode:Wap_mining.Attributes.Original ~classes:VC.wape
      ~target:256 ()
  in
  let row label d conf =
    [ label; string_of_int (D.size d); T.pctf (M.acc conf); T.pctf (M.tpp conf);
      T.pctf (M.pfp conf) ]
  in
  T.render
    (T.make ~title:"Ablation: predictor granularity (SVM, 10-fold CV)"
       ~header:[ "Encoding"; "instances"; "acc"; "tpp"; "pfp" ]
       [ row "16 attributes (original)" original
           (Wap_mining.Evaluation.cross_validate ~k:10 ~seed svm original);
         row "61 attributes (new)" dataset (confusion_of ~seed ~dataset evals svm) ])

(* The two ablations below analyze outside the engine on purpose: each
   corpus file parsed strictly, straight into the analyzer. *)
let parse_package (pkg : Wap_corpus.Appgen.package) =
  List.map
    (fun (f : Wap_corpus.Appgen.file) ->
      let file = f.Wap_corpus.Appgen.f_name in
      { Wap_taint.Analyzer.path = file;
        program = Wap_php.Parser.parse_string ~file f.Wap_corpus.Appgen.f_source })
    pkg.Wap_corpus.Appgen.pkg_files

(** Ablation: interprocedural summaries on/off (DESIGN.md §6).  Counts
    detected real vulnerabilities on a web-application slice — without
    summaries, flows whose sink lives inside a helper function are
    lost. *)
let ablation_interprocedural ?(seed = default_seed) () : string =
  let profiles =
    [ List.nth Wap_corpus.Profiles.vulnerable_webapps 0;
      List.nth Wap_corpus.Profiles.vulnerable_webapps 13;
      List.nth Wap_corpus.Profiles.vulnerable_webapps 16 ]
  in
  let specs = Wap_catalog.Catalog.specs_for VC.wape in
  let detect ~interprocedural =
    List.fold_left
      (fun acc profile ->
        let pkg = Wap_corpus.Appgen.of_webapp_profile ~seed profile in
        let units = parse_package pkg in
        let raw =
          Wap_taint.Analyzer.analyze_with_specs ~interprocedural ~specs units
        in
        acc + List.length (Tool.dedup_candidates raw))
      0 profiles
  in
  let full = detect ~interprocedural:true in
  let intra = detect ~interprocedural:false in
  T.render
    (T.make ~title:"Ablation: interprocedural summaries (3 packages, all detectors)"
       ~header:[ "Configuration"; "candidates detected" ]
       [ [ "interprocedural (summaries)"; string_of_int full ];
         [ "intraprocedural only"; string_of_int intra ] ])

(** Ablation: single classifier vs the top-3 majority vote, measured as
    FPP/FP on the web-application corpus slice. *)
let ablation_vote ?(seed = default_seed) () : string =
  let profiles =
    [ List.nth Wap_corpus.Profiles.vulnerable_webapps 14;
      List.nth Wap_corpus.Profiles.vulnerable_webapps 16 ]
  in
  let dataset = Training.dataset_for ~seed Version.Wape in
  let run label algorithms =
    let config =
      { Wap_mining.Predictor.extended_config with
        Wap_mining.Predictor.algorithms }
    in
    let predictor = Wap_mining.Predictor.train ~seed config dataset in
    let specs = Wap_catalog.Catalog.specs_for VC.wape in
    let fpp = ref 0 and fp = ref 0 and missed = ref 0 in
    List.iter
      (fun profile ->
        let pkg = Wap_corpus.Appgen.of_webapp_profile ~seed profile in
        let units = parse_package pkg in
        let cands =
          Tool.dedup_candidates (Wap_taint.Analyzer.analyze_with_specs ~specs units)
        in
        List.iter
          (fun c ->
            match
              List.find_opt
                (fun (s : Wap_corpus.Appgen.seeded) ->
                  String.equal s.Wap_corpus.Appgen.sd_file c.Wap_taint.Trace.file
                  && c.Wap_taint.Trace.sink_loc.Wap_php.Loc.line
                     >= s.Wap_corpus.Appgen.sd_line_lo
                  && c.Wap_taint.Trace.sink_loc.Wap_php.Loc.line
                     <= s.Wap_corpus.Appgen.sd_line_hi)
                pkg.Wap_corpus.Appgen.pkg_seeded
            with
            | Some seeded ->
                let truly_fp =
                  match seeded.Wap_corpus.Appgen.sd_label with
                  | Wap_corpus.Snippet.Fp_easy | Wap_corpus.Snippet.Fp_hard -> true
                  | _ -> false
                in
                let predicted = Wap_mining.Predictor.is_false_positive predictor c in
                if truly_fp then if predicted then incr fpp else incr fp
                else if predicted then incr missed
            | None -> ())
          cands)
      profiles;
    [ label; string_of_int !fpp; string_of_int !fp; string_of_int !missed ]
  in
  T.render
    (T.make ~title:"Ablation: top-3 majority vote vs single classifiers (2 packages)"
       ~header:[ "Predictor"; "FPP"; "FP"; "vulns dismissed" ]
       [ run "top-3 vote (SVM+LR+RF)" top3;
         run "SVM alone" [ Wap_mining.Svm.algorithm ];
         run "Logistic Regression alone" [ Wap_mining.Logistic.algorithm ];
         run "Random Forest alone" [ Wap_mining.Random_forest.algorithm ] ])

(* ------------------------------------------------------------------ *)
(* Table IV: sinks added to the sub-modules.                           *)

let table4 () : string =
  let interesting = [ VC.Sf; VC.Cs; VC.Ldapi; VC.Xpathi ] in
  let rows =
    List.map
      (fun c ->
        let spec = Wap_catalog.Catalog.default_spec c in
        let sinks =
          List.filter_map
            (function
              | Wap_catalog.Catalog.Sink_fn (f, _) -> Some f
              | Wap_catalog.Catalog.Sink_method (o, m) -> Some (o ^ "->" ^ m)
              | Wap_catalog.Catalog.Sink_echo -> Some "echo"
              | Wap_catalog.Catalog.Sink_include -> Some "include")
            spec.Wap_catalog.Catalog.sinks
        in
        [ Wap_catalog.Submodule.name spec.Wap_catalog.Catalog.submodule;
          VC.acronym c; String.concat ", " sinks ])
      interesting
  in
  T.render
    (T.make ~title:"Table IV: sensitive sinks added to the sub-modules"
       ~header:[ "Sub-module"; "Vuln."; "Sensitive sinks" ]
       ~aligns:[ T.L; T.L; T.L ] rows)

(* ------------------------------------------------------------------ *)
(* Web application runs (Tables V, VI).                                *)

type app_run = {
  ar_profile : Wap_corpus.Profiles.app_profile;
  ar_result : Tool.package_result;
  ar_score : Aggregate.score;
}

(* Dynamic confirmation: the paper's "all were confirmed by us
   manually", mechanized. *)
type confirmation = {
  cf_reported_confirmed : int;  (** reported vulns whose exploit replays *)
  cf_reported_refuted : int;  (** reported but the payload never lands *)
  cf_reported_unsupported : int;  (** not replayable (e.g. stored XSS) *)
  cf_fps_confirmed : int;  (** predicted FPs that are in fact exploitable *)
  cf_fps_refuted : int;
  cf_fps_unsupported : int;
}

(* Replay a scan's findings with attack payloads, on the ASTs the scan
   analyzed: the confirmation rate of reported vulnerabilities, and the
   exploit rate of predicted false positives (ideally 0). *)
let confirm_scan (o : Tool.Scan.outcome) : confirmation =
  let result = o.Tool.Scan.result and units = o.Tool.Scan.units in
  let rc, rr, ru = Wap_confirm.Confirm.confirm_batch units result.Tool.reported in
  let fc, fr, fu = Wap_confirm.Confirm.confirm_batch units result.Tool.predicted_fps in
  { cf_reported_confirmed = rc; cf_reported_refuted = rr; cf_reported_unsupported = ru;
    cf_fps_confirmed = fc; cf_fps_refuted = fr; cf_fps_unsupported = fu }

type webapp_runs = {
  wr_wape : app_run list;  (** all 54 packages under WAPe *)
  wr_v21 : app_run list;  (** the same packages under WAP v2.1 *)
  wr_confirmed : confirmation list;  (** the replayed packages, in order *)
}

let scan_package ?jobs ?cache tool pkg =
  Tool.Scan.run tool (Tool.Scan.request_of_package ?jobs ?cache pkg)

let app_run profile result =
  { ar_profile = profile; ar_result = result; ar_score = Aggregate.score_package result }

(* Each package's units live only through its own iteration: the
   replay runs on them there, so no package's ASTs outlive its scan. *)
let run_webapps ?(seed = default_seed) ?(only_vulnerable = false) ?(confirm = 0)
    ?jobs ?cache () : webapp_runs =
  let packages =
    if only_vulnerable then Wap_corpus.Corpus.vulnerable_webapps ~seed ()
    else Wap_corpus.Corpus.webapps ~seed ()
  in
  let wape = Tool.create ~seed Version.Wape in
  let v21 = Tool.create ~seed Version.Wap_v21 in
  let wr_wape, confirmed =
    List.split
      (List.mapi
         (fun i (profile, pkg) ->
           let o = scan_package ?jobs ?cache wape pkg in
           ( app_run profile o.Tool.Scan.result,
             if i < confirm then Some (confirm_scan o) else None ))
         packages)
  in
  { wr_wape;
    wr_v21 =
      List.map (fun r -> app_run r.ar_profile (Tool.restrict v21 r.ar_result)) wr_wape;
    wr_confirmed = List.filter_map Fun.id confirmed }

let table5 (runs : webapp_runs) : string =
  let vulnerable =
    List.filter (fun r -> r.ar_score.Aggregate.real_reported > 0) runs.wr_wape
  in
  let rows =
    List.map
      (fun r ->
        [ r.ar_profile.Wap_corpus.Profiles.ap_name;
          r.ar_profile.Wap_corpus.Profiles.ap_version;
          string_of_int r.ar_result.Tool.files_analyzed;
          string_of_int r.ar_result.Tool.loc;
          Printf.sprintf "%.2f" r.ar_result.Tool.analysis_seconds;
          string_of_int r.ar_score.Aggregate.vuln_files;
          string_of_int r.ar_score.Aggregate.real_reported ])
      vulnerable
  in
  let total =
    [ "Total"; "";
      string_of_int (List.fold_left (fun a r -> a + r.ar_result.Tool.files_analyzed) 0 vulnerable);
      string_of_int (List.fold_left (fun a r -> a + r.ar_result.Tool.loc) 0 vulnerable);
      Printf.sprintf "%.2f"
        (List.fold_left (fun a r -> a +. r.ar_result.Tool.analysis_seconds) 0.0 vulnerable);
      string_of_int (List.fold_left (fun a r -> a + r.ar_score.Aggregate.vuln_files) 0 vulnerable);
      string_of_int (List.fold_left (fun a r -> a + r.ar_score.Aggregate.real_reported) 0 vulnerable) ]
  in
  T.render
    (T.make
       ~title:"Table V: WAPe summary on web applications (LoC generated at reduced scale)"
       ~header:[ "Web application"; "Version"; "Files"; "LoC"; "Time (s)"; "Vuln files"; "Vulns found" ]
       ~aligns:[ T.L; T.L; T.R; T.R; T.R; T.R; T.R ]
       (rows @ [ List.map (fun _ -> "---") [ 1; 2; 3; 4; 5; 6; 7 ] ] @ [ total ]))

let table6 (runs : webapp_runs) : string =
  let paired = List.combine runs.wr_wape runs.wr_v21 in
  let interesting =
    List.filter
      (fun (w, v) ->
        w.ar_score.Aggregate.real_reported > 0
        || v.ar_score.Aggregate.real_reported > 0
        || w.ar_score.Aggregate.fpp + w.ar_score.Aggregate.fp > 0)
      paired
  in
  let row_of (w, v) =
    let s = w.ar_score in
    [ w.ar_profile.Wap_corpus.Profiles.ap_name;
      w.ar_profile.Wap_corpus.Profiles.ap_version ]
    @ List.map (fun g -> T.blank_if_zero (Aggregate.group_count s g)) Aggregate.webapp_groups
    @ [ string_of_int s.Aggregate.real_reported;
        T.blank_if_zero v.ar_score.Aggregate.fpp;
        T.blank_if_zero v.ar_score.Aggregate.fp;
        T.blank_if_zero s.Aggregate.fpp;
        T.blank_if_zero s.Aggregate.fp ]
  in
  let rows = List.map row_of interesting in
  let total_wape = Aggregate.sum_scores (List.map (fun (w, _) -> w.ar_score) interesting) in
  let total_v21 = Aggregate.sum_scores (List.map (fun (_, v) -> v.ar_score) interesting) in
  let total_row =
    [ "Total"; "" ]
    @ List.map
        (fun g -> string_of_int (Aggregate.group_count total_wape g))
        Aggregate.webapp_groups
    @ [ string_of_int total_wape.Aggregate.real_reported;
        string_of_int total_v21.Aggregate.fpp; string_of_int total_v21.Aggregate.fp;
        string_of_int total_wape.Aggregate.fpp; string_of_int total_wape.Aggregate.fp ]
  in
  let header =
    [ "Web application"; "Version" ] @ Aggregate.webapp_groups
    @ [ "Total"; "WAP FPP"; "WAP FP"; "WAPe FPP"; "WAPe FP" ]
  in
  T.render
    (T.make
       ~title:"Table VI: vulnerabilities and false positives, WAP v2.1 vs WAPe"
       ~header
       ~aligns:(T.L :: T.L :: List.map (fun _ -> T.R) (Aggregate.webapp_groups @ [ ""; ""; ""; ""; "" ]))
       (rows
       @ [ List.map (fun _ -> "---") header ]
       @ [ total_row ]))

(* ------------------------------------------------------------------ *)
(* Plugin runs (Table VII, Fig. 4).                                    *)

type plugin_run = {
  pr_profile : Wap_corpus.Profiles.plugin_profile;
  pr_result : Tool.package_result;
  pr_score : Aggregate.score;
}

let run_plugins ?(seed = default_seed) ?(only_vulnerable = false) ?jobs ?cache
    () : plugin_run list =
  let packages =
    if only_vulnerable then Wap_corpus.Corpus.vulnerable_plugins ~seed ()
    else Wap_corpus.Corpus.plugins ~seed ()
  in
  (* the base WAPe configuration already detects HI/EI and NoSQLI; the
     plugin analysis only needs the WordPress weapon on top *)
  let weapons = [ Wap_weapon.Generator.wpsqli () ] in
  let tool = Tool.create ~seed ~weapons Version.Wape in
  List.map
    (fun (profile, pkg) ->
      let result = (scan_package ?jobs ?cache tool pkg).Tool.Scan.result in
      { pr_profile = profile; pr_result = result; pr_score = Aggregate.score_package result })
    packages

let table7 (runs : plugin_run list) : string =
  let interesting =
    List.filter
      (fun r ->
        r.pr_score.Aggregate.real_reported > 0
        || r.pr_score.Aggregate.fpp + r.pr_score.Aggregate.fp > 0)
      runs
  in
  let row_of r =
    let s = r.pr_score in
    [ r.pr_profile.Wap_corpus.Profiles.pp_name
      ^ (if r.pr_profile.Wap_corpus.Profiles.pp_cve then "**" else "");
      r.pr_profile.Wap_corpus.Profiles.pp_version ]
    @ List.map (fun g -> T.blank_if_zero (Aggregate.group_count s g)) Aggregate.plugin_groups
    @ [ string_of_int s.Aggregate.real_reported;
        T.blank_if_zero s.Aggregate.fpp; T.blank_if_zero s.Aggregate.fp ]
  in
  let total = Aggregate.sum_scores (List.map (fun r -> r.pr_score) interesting) in
  let total_row =
    [ "Total"; "" ]
    @ List.map (fun g -> string_of_int (Aggregate.group_count total g)) Aggregate.plugin_groups
    @ [ string_of_int total.Aggregate.real_reported;
        string_of_int total.Aggregate.fpp; string_of_int total.Aggregate.fp ]
  in
  let header =
    [ "Plugin (** = CVE)"; "Version" ] @ Aggregate.plugin_groups @ [ "Total"; "FPP"; "FP" ]
  in
  T.render
    (T.make ~title:"Table VII: vulnerabilities found in WordPress plugins (WAPe + -wpsqli)"
       ~header
       ~aligns:(T.L :: T.L :: List.map (fun _ -> T.R) (Aggregate.plugin_groups @ [ ""; ""; "" ]))
       (List.map row_of interesting @ [ List.map (fun _ -> "---") header ] @ [ total_row ]))

let bin_label bins value =
  let rec go = function
    | [] -> "?"
    | (label, lo, hi) :: rest -> if value >= lo && value <= hi then label else go rest
  in
  go bins

let fig4 (runs : plugin_run list) : string =
  let count bins pick vulnerable =
    List.map
      (fun (label, _, _) ->
        ( label,
          List.length
            (List.filter
               (fun r ->
                 (not vulnerable || r.pr_score.Aggregate.real_reported > 0)
                 && String.equal (bin_label bins (pick r.pr_profile)) label)
               runs) ))
      bins
  in
  let dl = Wap_corpus.Profiles.download_bins in
  let ai = Wap_corpus.Profiles.active_bins in
  let pick_dl p = p.Wap_corpus.Profiles.pp_downloads in
  let pick_ai p = p.Wap_corpus.Profiles.pp_active_installs in
  Wap_report.Histogram.render ~title:"Fig. 4(a): plugin downloads (analyzed vs vulnerable)"
    [ { Wap_report.Histogram.label = "analyzed"; values = count dl pick_dl false };
      { Wap_report.Histogram.label = "vulnerable"; values = count dl pick_dl true } ]
  ^ "\n"
  ^ Wap_report.Histogram.render
      ~title:"Fig. 4(b): plugin active installs (analyzed vs vulnerable)"
      [ { Wap_report.Histogram.label = "analyzed"; values = count ai pick_ai false };
        { Wap_report.Histogram.label = "vulnerable"; values = count ai pick_ai true } ]

let fig5 (webapps : webapp_runs) (plugins : plugin_run list) : string =
  let total_web = Aggregate.sum_scores (List.map (fun r -> r.ar_score) webapps.wr_wape) in
  let total_plug = Aggregate.sum_scores (List.map (fun r -> r.pr_score) plugins) in
  let groups = [ "SQLI"; "XSS"; "Files"; "SCD"; "LDAPI"; "SF"; "HI"; "CS" ] in
  Wap_report.Histogram.render
    ~title:"Fig. 5: vulnerabilities by class, web applications vs plugins"
    [ { Wap_report.Histogram.label = "webapps";
        values = List.map (fun g -> (g, Aggregate.group_count total_web g)) groups };
      { Wap_report.Histogram.label = "plugins";
        values = List.map (fun g -> (g, Aggregate.group_count total_plug g)) groups } ]

let confirmation_table (runs : webapp_runs) : string =
  let sum f = string_of_int (List.fold_left (fun n c -> n + f c) 0 runs.wr_confirmed) in
  T.render
    (T.make
       ~title:
         (Printf.sprintf
            "Dynamic confirmation (%d packages): replaying findings with attack payloads"
            (List.length runs.wr_confirmed))
       ~header:[ "Findings"; "confirmed exploitable"; "not exploitable"; "not replayable" ]
       [ [ "reported vulnerabilities";
           sum (fun c -> c.cf_reported_confirmed);
           sum (fun c -> c.cf_reported_refuted);
           sum (fun c -> c.cf_reported_unsupported) ];
         [ "predicted false positives";
           sum (fun c -> c.cf_fps_confirmed);
           sum (fun c -> c.cf_fps_refuted);
           sum (fun c -> c.cf_fps_unsupported) ] ])

(* ------------------------------------------------------------------ *)
(* The §V-A extensibility experiment: feeding a user sanitization        *)
(* function removes the hard false reports.                              *)

let escape_experiment ?(seed = default_seed) () : int * int =
  (* a vfront-like package: hard FPs protected by the custom escape() *)
  let pkg =
    Wap_corpus.Appgen.generate ~seed ~kind:Wap_corpus.Appgen.Webapp
      ~name:"vfront-slice" ~version:"0.99.3" ~files:8 ~vuln_files:2
      ~vulns:[ (VC.Sqli, 2) ] ~fp_easy:0 ~fp_hard:6 ~sanitized:1 ()
  in
  let before =
    let tool = Tool.create ~seed Version.Wape in
    (Tool.Scan.run tool (Tool.Scan.request_of_package pkg)).Tool.Scan.result.Tool.reported
  in
  let after =
    let tool =
      Tool.create ~seed ~extra_sanitizers:[ (None, "escape") ] Version.Wape
    in
    (Tool.Scan.run tool (Tool.Scan.request_of_package pkg)).Tool.Scan.result.Tool.reported
  in
  (List.length before, List.length after)

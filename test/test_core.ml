(** Integration tests: tool versions, training, the full pipeline over
    corpus packages, scoring, and the experiment drivers. *)

module VC = Wap_catalog.Vuln_class
module V = Wap_core.Version
module T = Wap_core.Tool
module A = Wap_core.Aggregate
module DS = Wap_mining.Dataset

let seed = 2016

(* Shared fixtures: training and tool creation are the expensive parts,
   so build them once. *)
let wape = lazy (T.create ~seed V.Wape)
let v21 = lazy (T.create ~seed V.Wap_v21)

(* ------------------------------------------------------------------ *)
(* Versions and training.                                              *)

let test_version_configs () =
  Alcotest.(check int) "v2.1 classes" 9 (List.length (V.classes V.Wap_v21));
  Alcotest.(check int) "WAPe classes" 16 (List.length (V.classes V.Wape));
  Alcotest.(check bool) "v2.1 uses original attributes" true
    (V.attribute_mode V.Wap_v21 = Wap_mining.Attributes.Original);
  Alcotest.(check int) "v2.1 instances" 76 (V.training_instances V.Wap_v21);
  Alcotest.(check int) "WAPe instances" 256 (V.training_instances V.Wape)

let test_wape_dataset () =
  let d = Wap_core.Training.dataset_for ~seed V.Wape in
  Alcotest.(check int) "256 instances" 256 (DS.size d);
  Alcotest.(check int) "balanced" 128 (DS.positives d);
  (* no ambiguous vectors survive: every vector has one label *)
  let dd = DS.deduplicate d in
  Alcotest.(check int) "already deduplicated" (DS.size d) (DS.size dd)

let test_v21_dataset () =
  let d = Wap_core.Training.dataset_for ~seed V.Wap_v21 in
  (* the paper's split is 32 FP / 44 RV; the coarse 15-attribute space
     saturates below 44 distinct real-vulnerability vectors *)
  Alcotest.(check int) "32 false positives" 32 (DS.positives d);
  Alcotest.(check bool) "a good number of reals" true (DS.negatives d >= 15);
  match d.DS.instances with
  | i :: _ -> Alcotest.(check int) "15 attributes" 15 (Array.length i.DS.features)
  | [] -> Alcotest.fail "empty dataset"

(* the frozen seed reads a checked-in CSV, so generate at another one *)
let test_training_deterministic () =
  let a = Wap_core.Training.dataset_for ~seed:(seed + 1) V.Wape in
  let b = Wap_core.Training.dataset_for ~seed:(seed + 1) V.Wape in
  Alcotest.(check bool) "same dataset" true
    (List.for_all2
       (fun (x : DS.instance) (y : DS.instance) ->
         x.DS.label = y.DS.label && x.DS.features = y.DS.features)
       a.DS.instances b.DS.instances)

(* The frozen CSVs parse losslessly: printing the parsed sets gives the
   embedded text back byte for byte.  (The dune diff rule in
   lib/core/frozen_sets checks the text against [Training.generate].) *)
let test_frozen_sets_round_trip () =
  List.iter
    (fun (v, csv) ->
      Alcotest.(check string)
        (V.name v ^ " round trip")
        csv
        (DS.to_csv (Wap_core.Training.dataset_for ~seed v)))
    [ (V.Wape, Wap_core.Frozen_sets.wape); (V.Wap_v21, Wap_core.Frozen_sets.v21) ]

(* The stock tool's ensemble, trained when the library was built, gives
   every candidate of the fuzz seeds (one app per file) and the fixture
   apps the verdict of the ensemble a tool trains on the frozen set. *)
let test_frozen_models_match_training () =
  let apps =
    (Sys.readdir "fuzz_seeds" |> Array.to_list |> List.sort compare
    |> List.map (fun f ->
           [ (f, In_channel.with_open_bin (Filename.concat "fuzz_seeds" f) In_channel.input_all) ]))
    @ [ Fixtures.blog; Fixtures.store; Fixtures.wp_plugin ]
  in
  let verdicts tool =
    List.concat_map
      (fun files ->
        (T.Scan.run tool (T.Scan.request ~jobs:1 files)).T.Scan.result.T.findings
        |> List.map (fun (f : T.finding) -> f.T.predicted_fp))
      apps
  in
  List.iter
    (fun (name, create) ->
      let stock = verdicts (create None) in
      Alcotest.(check (list bool)) name
        (verdicts (create (Some (Wap_core.Training.dataset_for V.Wape))))
        stock;
      Alcotest.(check bool) (name ^ ": both verdicts occur") true
        (List.mem true stock && List.mem false stock))
    [ ("WAPe", fun dataset -> T.create ?dataset V.Wape);
      ( "WAPe -wpsqli",
        fun dataset ->
          T.create ?dataset ~weapons:[ Wap_weapon.Generator.wpsqli () ] V.Wape ) ]

(* Run the CLI, built as a dependency of this suite, on no stdin:
   (exit code, stdout, stderr).  The child runs without WAP_TRACE_OUT:
   under it the suite's trace is test_engine's, which a CLI child
   writing the same file at its exit would replace. *)
let wap args =
  let out = Filename.temp_file "wap_cli" ".out" and err = Filename.temp_file "wap_cli" ".err" in
  let code =
    Sys.command
      (Filename.quote_command "env"
         ("-u" :: "WAP_TRACE_OUT" :: "../bin/wap_cli.exe" :: args)
         ~stdin:Filename.null ~stdout:out ~stderr:err)
  in
  let read f =
    let s = In_channel.with_open_bin f In_channel.input_all in
    Sys.remove f;
    s
  in
  let stdout = read out in
  (code, stdout, read err)

(* A directory holding [files]; [f dir] runs in it, and the directory
   goes afterwards with whatever [f] left in it. *)
let with_files files f =
  let dir = Filename.temp_dir "wap_cli" "" in
  List.iter
    (fun (name, text) ->
      Out_channel.with_open_bin (Filename.concat dir name) (fun oc -> output_string oc text))
    files;
  Fun.protect (fun () -> f dir) ~finally:(fun () ->
      Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
      Sys.rmdir dir)

(* [wap analyze --training-set] rejects a CSV the WAPe predictor cannot
   train on before analyzing anything: a command-line error (exit 124)
   naming the line, where it used to crash at the first classification
   with an uncaught exception (exit 125). *)
let test_cli_rejects_malformed_training_set () =
  with_files [ ("q.php", "<?php\nmysql_query($_GET['q']);\n") ] @@ fun dir ->
  List.iter
    (fun (name, csv, line) ->
      let path = Filename.concat dir "set.csv" in
      Out_channel.with_open_bin path (fun oc -> output_string oc csv);
      let code, _, stderr =
        wap [ "analyze"; "--training-set"; path; Filename.concat dir "q.php" ]
      in
      Alcotest.(check int) (name ^ ": exit code") 124 code;
      let expected = Printf.sprintf "wap: option '--training-set': %s: %s" path line in
      Alcotest.(check bool)
        (name ^ ": stderr names the line")
        true
        (String.starts_with ~prefix:expected stderr))
    [ ("v2.1 set for WAPe", Wap_core.Frozen_sets.v21, "line 1: header has 16 columns");
      ( "header only",
        List.hd (String.split_on_char '\n' Wap_core.Frozen_sets.wape),
        "line 1: no instance rows after the header" ) ]

(* [--weapon] resolves before anything runs, in both commands that equip
   the tool: a weapon that is neither stock nor stored under
   [--weapon-dir] is a command-line error (exit 124) naming the option,
   not an uncaught [Failure] or [Sys_error] (exit 125). *)
let test_cli_rejects_unknown_weapon () =
  with_files [ ("q.php", "<?php\nmysql_query($_GET['q']);\n") ] @@ fun dir ->
  let php = Filename.concat dir "q.php" in
  List.iter
    (fun (name, args) ->
      let code, _, stderr = wap args in
      Alcotest.(check int) (name ^ ": exit code") 124 code;
      Alcotest.(check bool)
        (name ^ ": stderr names the option")
        true
        (String.starts_with ~prefix:"wap: option '--weapon': " stderr))
    [ ("analyze, no --weapon-dir", [ "analyze"; "--weapon"; "nope"; php ]);
      ( "analyze, not in --weapon-dir",
        [ "analyze"; "--weapon"; "nope"; "--weapon-dir"; dir; php ] );
      ("serve, no --weapon-dir", [ "serve"; "--weapon"; "nope" ]);
      ("serve, not in --weapon-dir", [ "serve"; "--weapon"; "nope"; "--weapon-dir"; dir ]) ]

(* A [--cache-dir] that cannot be made a directory (a file, or a path
   under a missing directory) is a command-line error in every command
   that caches, not a silent in-memory cache; [--no-cache] still wins. *)
let test_cli_rejects_unusable_cache_dir () =
  with_files [ ("q.php", "<?php\nmysql_query($_GET['q']);\n") ] @@ fun dir ->
  let php = Filename.concat dir "q.php" in
  List.iter
    (fun (what, cache_dir) ->
      List.iter
        (fun (cmd, args) ->
          let code, _, stderr = wap ((cmd :: args) @ [ "--cache-dir"; cache_dir ]) in
          let name = Printf.sprintf "%s, %s" cmd what in
          Alcotest.(check int) (name ^ ": exit code") 124 code;
          Alcotest.(check bool)
            (name ^ ": stderr names the option")
            true
            (String.starts_with ~prefix:"wap: option '--cache-dir': " stderr))
        [ ("analyze", [ php ]); ("lint", [ php ]); ("experiments", [ "--quick" ]);
          ("fleet", [ dir ]) ])
    [ ("a file", php); ("under a missing directory", Filename.concat php "sub") ];
  let code, _, _ = wap [ "analyze"; "--no-cache"; "--cache-dir"; php; php ] in
  Alcotest.(check int) "--no-cache wins" 0 code

(* Two flows around a statement that does not parse: the scan recovers
   it, and every step after the scan works on that recovered AST. *)
let bad_php =
  "<?php\n$x = $_GET[\"a\"];\nmysql_query(\"SELECT \" . $x);\n$y = ;\necho $_GET[\"b\"];\n"

let good_php = "<?php\n$u = $_GET['u'];\nmysql_query(\"SELECT * FROM t WHERE u = \" . $u);\n"

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* [--json --confirm] replays the findings on the scan's own AST, so a
   recovered parse confirms in the export as in the text listing. *)
let test_cli_confirm_recovered_parse () =
  with_files [ ("bad.php", bad_php) ] @@ fun dir ->
  let bad = Filename.concat dir "bad.php" in
  let code, text, _ = wap [ "analyze"; "--confirm"; bad ] in
  Alcotest.(check int) "text: exit code" 0 code;
  Alcotest.(check int) "text: both findings confirmed" 2
    (List.length
       (List.filter
          (fun l -> String.ends_with ~suffix:"(exploit confirmed)" l)
          (String.split_on_char '\n' text)));
  let code, json, _ = wap [ "analyze"; "--json"; "--confirm"; bad ] in
  Alcotest.(check int) "json: exit code" 0 code;
  let module J = Wap_report.Json in
  let findings =
    match J.of_string json with
    | Ok doc -> Option.get (Option.bind (J.member "findings" doc) J.to_list_opt)
    | Error e -> Alcotest.failf "export does not parse: %s" e
  in
  Alcotest.(check (list (option string)))
    "json: both findings confirmed"
    [ Some "confirmed"; Some "confirmed" ]
    (List.map
       (fun f ->
         match J.member "dynamic_confirmation" f with
         | Some (J.Str v) -> Some v
         | _ -> None)
       findings)

(* [--fix] corrects the scan's own ASTs and never rewrites a file whose
   parse recovered errors: printing its partial AST would drop
   [$y = ;]. *)
let test_cli_fix_skips_recovered_parse () =
  with_files [ ("bad.php", bad_php); ("good.php", good_php) ] @@ fun dir ->
  let path n = Filename.concat dir n in
  let code, _, stderr = wap [ "analyze"; "--fix"; path "bad.php"; path "good.php" ] in
  Alcotest.(check int) "exit code" 0 code;
  Alcotest.(check bool) "warns that bad.php is not corrected" true
    (List.exists
       (fun l -> contains l "not corrected" && contains l "bad.php")
       (String.split_on_char '\n' stderr));
  Alcotest.(check bool) "good.php corrected" true (Sys.file_exists (path "good.php.fixed.php"));
  Alcotest.(check bool) "bad.php not rewritten" false
    (Sys.file_exists (path "bad.php.fixed.php"))

(* [--fix] applies whatever the output format. *)
let test_cli_json_fix () =
  with_files [ ("good.php", good_php) ] @@ fun dir ->
  let good = Filename.concat dir "good.php" in
  let code, _, _ = wap [ "analyze"; "--json"; "--fix"; good ] in
  Alcotest.(check int) "exit code" 0 code;
  Alcotest.(check bool) "good.php corrected" true (Sys.file_exists (good ^ ".fixed.php"))

(* [--log-level debug] logs one "parsed" and one "analyzed" line per
   file, with [cached=true] on a rescan over a warm [--cache-dir]. *)
let test_cli_debug_progress () =
  with_files [ ("a.php", good_php); ("b.php", "<?php\necho 1;\n") ] @@ fun dir ->
  let cache = Filename.temp_dir "wap_cli" "cache" in
  Fun.protect
    ~finally:(fun () -> ignore (Sys.command (Filename.quote_command "rm" [ "-rf"; cache ])))
  @@ fun () ->
  let files = [ Filename.concat dir "a.php"; Filename.concat dir "b.php" ] in
  List.iter
    (fun (run, cached) ->
      let code, _, stderr =
        wap ([ "analyze"; "--log-level"; "debug"; "--cache-dir"; cache ] @ files)
      in
      Alcotest.(check int) (run ^ ": exit code") 0 code;
      let lines = String.split_on_char '\n' stderr in
      List.iter
        (fun msg ->
          List.iter
            (fun file ->
              let line = Printf.sprintf "] %s (file=%s cached=%b)" msg file cached in
              Alcotest.(check int)
                (Printf.sprintf "%s: one %S line for %s" run msg file)
                1
                (List.length (List.filter (fun l -> contains l line) lines)))
            files)
        [ "parsed"; "analyzed" ])
    [ ("cold cache", false); ("warm cache", true) ]

(* [wap lint --cache-dir] keys its entries on the engine's cache format
   version, as every cache key must, so an entry written under another
   build's key layout is never read back at today's [Rule.diag] type:
   an empty diagnostics list planted under the version-less key does not
   hide the undefined variable. *)
let test_cli_lint_cache_key_versioned () =
  with_files [ ("u.php", "<?php\necho $undefined;\n") ] @@ fun dir ->
  let cache = Filename.temp_dir "wap_cli" "cache" in
  Fun.protect
    ~finally:(fun () -> ignore (Sys.command (Filename.quote_command "rm" [ "-rf"; cache ])))
  @@ fun () ->
  let php = Filename.concat dir "u.php" in
  let src = In_channel.with_open_bin php In_channel.input_all in
  let rule_ids =
    List.sort String.compare
      (List.map (fun (r : Wap_lint.Rule.t) -> r.Wap_lint.Rule.id) (Wap_lint.Lint.all_rules ()))
  in
  let versionless =
    Wap_engine.Cache.key ("lint" :: php :: Digest.to_hex (Digest.string src) :: rule_ids)
  in
  Wap_engine.Cache.store
    (Wap_engine.Cache.create ~dir:cache ())
    ~key:versionless ([] : Wap_lint.Rule.diag list);
  let code, stdout, _ = wap [ "lint"; "--cache-dir"; cache; php ] in
  Alcotest.(check int) "exit code" 0 code;
  Alcotest.(check bool) "no-undef-var still reported" true (contains stdout "[no-undef-var]")

(* ------------------------------------------------------------------ *)
(* Pipeline on corpus packages.                                        *)

let acp () =
  Wap_corpus.Appgen.of_webapp_profile ~seed
    (List.nth Wap_corpus.Profiles.vulnerable_webapps 0)

(* the retired [analyze_package]/[analyze_source] wrappers, spelled as
   [Scan] requests *)
let scan_package tool pkg =
  (T.Scan.run tool (T.Scan.request_of_package pkg)).T.Scan.result

let scan_source tool ~file src =
  (T.Scan.run tool (T.Scan.request [ (file, src) ])).T.Scan.result

let test_pipeline_acp () =
  (* Admin Control Panel Lite 2: 9 SQLI + 72 XSS, 8 easy FPs *)
  let tool = Lazy.force wape in
  let result = scan_package tool (acp ()) in
  let score = A.score_package result in
  Alcotest.(check int) "all reals found" 81
    (score.A.real_reported + score.A.real_missed);
  Alcotest.(check int) "none undetected" 0 score.A.real_undetected;
  Alcotest.(check int) "every candidate matched to truth" 0 score.A.unmatched;
  Alcotest.(check int) "9 vulnerable files" 9 score.A.vuln_files;
  Alcotest.(check (option int)) "SQLI group" (Some 9)
    (List.assoc_opt "SQLI" score.A.by_group);
  Alcotest.(check (option int)) "XSS group" (Some 72)
    (List.assoc_opt "XSS" score.A.by_group);
  Alcotest.(check bool) "most FPs predicted" true (score.A.fpp >= 5)

let test_pipeline_v21_misses_new_classes () =
  (* a package with only new-class vulnerabilities is invisible to v2.1 *)
  let pkg =
    Wap_corpus.Appgen.generate ~seed ~kind:Wap_corpus.Appgen.Webapp ~name:"newonly"
      ~version:"1" ~files:3 ~vuln_files:2
      ~vulns:[ (VC.Hi, 2); (VC.Ldapi, 1); (VC.Sf, 1) ]
      ~fp_easy:0 ~fp_hard:0 ~sanitized:0 ()
  in
  let r21 = scan_package (Lazy.force v21) pkg in
  Alcotest.(check int) "v2.1 sees nothing" 0 (List.length r21.T.candidates);
  let re = scan_package (Lazy.force wape) pkg in
  Alcotest.(check int) "WAPe sees all four" 4 (List.length re.T.reported)

let test_pipeline_wpsqli_weapon_needed () =
  let pkg =
    Wap_corpus.Appgen.of_plugin_profile ~seed
      (List.find
         (fun (p : Wap_corpus.Profiles.plugin_profile) ->
           p.Wap_corpus.Profiles.pp_name = "Simple support ticket system")
         Wap_corpus.Profiles.vulnerable_plugins)
  in
  (* without the weapon, $wpdb flows are invisible *)
  let without = scan_package (Lazy.force wape) pkg in
  Alcotest.(check int) "no weapon, no findings" 0 (List.length without.T.reported);
  let armed = T.create ~seed ~weapons:[ Wap_weapon.Generator.wpsqli () ] V.Wape in
  let with_w = scan_package armed pkg in
  Alcotest.(check int) "18 with the weapon" 18 (List.length with_w.T.reported)

let test_analysis_time_measured () =
  let result = scan_package (Lazy.force wape) (acp ()) in
  Alcotest.(check bool) "time recorded" true (result.T.analysis_seconds >= 0.0);
  Alcotest.(check bool) "loc counted" true (result.T.loc > 500)

let test_escape_experiment () =
  let before, after = Wap_core.Experiments.escape_experiment ~seed () in
  Alcotest.(check bool) "feeding escape() removes reports" true (after < before)

let test_analyze_source_and_correct () =
  let tool = Lazy.force wape in
  let src = "<?php\nmysql_query('SELECT * FROM t WHERE c = ' . $_GET['c']);\n" in
  let fixed, report = T.correct_source tool ~file:"one.php" src in
  Alcotest.(check int) "one fix" 1 (List.length report.Wap_fixer.Corrector.applied);
  (* the corrected file no longer alarms *)
  let result = scan_source tool ~file:"one.php" fixed in
  Alcotest.(check int) "fixed is clean" 0 (List.length result.T.reported)

let test_dedup_across_specs () =
  (* an include sink is flagged by both RFI and LFI detectors but must be
     reported once *)
  let tool = Lazy.force wape in
  let result = scan_source tool ~file:"i.php" "<?php\ninclude($_GET['p']);\n" in
  Alcotest.(check int) "deduplicated" 1 (List.length result.T.candidates)

(* The analysis cache key of a tool: equal for equal spec sets however
   they were built, different for any change to the set or its order. *)
let test_fingerprints () =
  let fp = T.Scan.fingerprint in
  let tool = T.create ~seed V.Wape in
  Alcotest.(check string) "two WAPe tools" (fp tool) (fp (T.create ~seed V.Wape));
  let dir = Filename.temp_dir "wap_core" "weapons" in
  Fun.protect
    ~finally:(fun () -> ignore (Sys.command (Filename.quote_command "rm" [ "-rf"; dir ])))
  @@ fun () ->
  List.iter
    (fun (w : Wap_weapon.Weapon.t) ->
      Wap_weapon.Store.save ~dir w;
      let back = Wap_weapon.Store.load ~dir ~name:w.Wap_weapon.Weapon.name in
      Alcotest.(check string)
        (w.Wap_weapon.Weapon.name ^ " saved and reloaded")
        (fp (T.create ~seed ~weapons:[ w ] V.Wape))
        (fp (T.create ~seed ~weapons:[ back ] V.Wape)))
    Wap_weapon.Generator.[ nosqli (); hei (); wpsqli () ];
  let differs what other =
    Alcotest.(check bool) what false (String.equal (fp tool) (fp other))
  in
  differs "one extra sanitizer"
    (T.create ~seed ~extra_sanitizers:[ (Some VC.Sqli, "escape") ] V.Wape);
  differs "two specs swapped"
    { tool with
      T.specs = (match tool.T.specs with a :: b :: rest -> b :: a :: rest | l -> l) }

(* [Experiments.run_webapps] derives WAP v2.1's results from WAPe's
   scans ([Tool.restrict]); that is exact only while v2.1's specs open
   WAPe's and no WAPe-only class reports in a v2.1 group, where
   [dedup_candidates] could let it displace a v2.1 candidate. *)
let test_v21_restriction_precondition () =
  let wape_specs = (Lazy.force wape).T.specs and v21_specs = (Lazy.force v21).T.specs in
  Alcotest.(check bool) "v2.1's specs are the first of WAPe's" true
    (List.equal Wap_catalog.Catalog.equal_spec v21_specs
       (List.filteri (fun i _ -> i < List.length v21_specs) wape_specs));
  let v21_groups = List.map VC.report_group VC.wap_v21 in
  List.iter
    (fun c ->
      Alcotest.(check bool)
        (VC.acronym c ^ " reports apart from v2.1's classes")
        false
        (List.mem (VC.report_group c) v21_groups))
    VC.new_in_wape

(* what a v2.1 result must agree on with a v2.1 scan: every candidate,
   with its verdict and symptoms *)
let verdicts (r : T.package_result) =
  List.map
    (fun (f : T.finding) ->
      (Wap_taint.Trace.show_candidate f.T.candidate, f.T.predicted_fp, f.T.symptoms))
    r.T.findings

let check_v21 name ~derived ~direct =
  Alcotest.(check (list (triple string bool (list string)))) name (verdicts direct)
    (verdicts derived)

let test_restrict_equals_v21_scan () =
  let runs = Wap_core.Experiments.run_webapps ~seed ~only_vulnerable:true () in
  Alcotest.(check bool) "a WAPe scan reports a WAPe-only class" true
    (List.exists
       (fun (r : Wap_core.Experiments.app_run) ->
         List.exists
           (fun (c : Wap_taint.Trace.candidate) ->
             List.mem c.Wap_taint.Trace.vclass VC.new_in_wape)
           r.Wap_core.Experiments.ar_result.T.candidates)
       runs.Wap_core.Experiments.wr_wape);
  List.iter
    (fun (r : Wap_core.Experiments.app_run) ->
      let derived = r.Wap_core.Experiments.ar_result in
      check_v21 derived.T.package.Wap_corpus.Appgen.pkg_name ~derived
        ~direct:(scan_package (Lazy.force v21) derived.T.package))
    runs.Wap_core.Experiments.wr_v21;
  List.iter
    (fun (name, files) ->
      let scan tool = (T.Scan.run tool (T.Scan.request files)).T.Scan.result in
      check_v21 name
        ~derived:(T.restrict (Lazy.force v21) (scan (Lazy.force wape)))
        ~direct:(scan (Lazy.force v21)))
    [ ("blog", Fixtures.blog); ("store", Fixtures.store); ("wp plugin", Fixtures.wp_plugin) ]

(* ------------------------------------------------------------------ *)
(* Experiments (quick versions).                                       *)

let test_table1_content () =
  let t = Wap_core.Experiments.table1 () in
  Alcotest.(check bool) "mentions is_int" true
    (String.length t > 0 &&
     (let rec contains i =
        i + 6 <= String.length t && (String.sub t i 6 = "is_int" || contains (i + 1))
      in
      contains 0))

let test_table2_and_3 () =
  let d = Wap_core.Training.dataset_for ~seed V.Wape in
  let evals = Wap_core.Experiments.evaluate_models ~seed ~dataset:d () in
  Alcotest.(check int) "three classifiers" 3 (List.length evals);
  List.iter
    (fun (e : Wap_core.Experiments.model_eval) ->
      let c = e.Wap_core.Experiments.me_confusion in
      Alcotest.(check int)
        (e.Wap_core.Experiments.me_name ^ " covers the data set")
        (DS.size d) (Wap_mining.Metrics.total c);
      (* the paper's shape: high accuracy, low fallout *)
      Alcotest.(check bool)
        (e.Wap_core.Experiments.me_name ^ " accuracy > 90%")
        true
        (Wap_mining.Metrics.acc c > 0.90);
      Alcotest.(check bool)
        (e.Wap_core.Experiments.me_name ^ " fallout < 10%")
        true
        (Wap_mining.Metrics.pfp c < 0.10))
    evals

let test_table4_lists_paper_sinks () =
  let t = Wap_core.Experiments.table4 () in
  List.iter
    (fun needle ->
      let rec contains i =
        i + String.length needle <= String.length t
        && (String.sub t i (String.length needle) = needle || contains (i + 1))
      in
      Alcotest.(check bool) needle true (contains 0))
    [ "setcookie"; "ldap_search"; "xpath_eval"; "file_put_contents" ]

let test_quick_plugin_run () =
  let runs = Wap_core.Experiments.run_plugins ~seed ~only_vulnerable:true () in
  Alcotest.(check int) "23 plugins" 23 (List.length runs);
  let total =
    List.fold_left
      (fun acc (r : Wap_core.Experiments.plugin_run) ->
        acc + r.Wap_core.Experiments.pr_score.A.real_reported)
      0 runs
  in
  Alcotest.(check int) "169 vulnerabilities (Table VII)" 169 total

(* one WAPe scan serves both versions, so each file is parsed once *)
let test_run_webapps_parses_once () =
  let files =
    List.fold_left
      (fun n (_, pkg) -> n + List.length pkg.Wap_corpus.Appgen.pkg_files)
      0
      (Wap_corpus.Corpus.vulnerable_webapps ~seed ())
  in
  Wap_obs.Metrics.reset Wap_obs.Metrics.global;
  ignore (Wap_core.Experiments.run_webapps ~seed ~only_vulnerable:true ());
  Alcotest.(check int) "engine.files_parsed" files
    (Wap_obs.Metrics.value (Wap_obs.Metrics.counter "engine.files_parsed"))

let test_score_sum () =
  let s1 =
    { A.real_reported = 1; real_missed = 2; real_undetected = 0; fpp = 3; fp = 4;
      unmatched = 0; by_group = [ ("XSS", 1) ]; vuln_files = 1 }
  in
  let s2 =
    { A.real_reported = 10; real_missed = 0; real_undetected = 1; fpp = 1; fp = 0;
      unmatched = 1; by_group = [ ("XSS", 5); ("SQLI", 5) ]; vuln_files = 2 }
  in
  let t = A.sum_scores [ s1; s2 ] in
  Alcotest.(check int) "real" 11 t.A.real_reported;
  Alcotest.(check int) "fpp" 4 t.A.fpp;
  Alcotest.(check (option int)) "xss merged" (Some 6) (List.assoc_opt "XSS" t.A.by_group);
  Alcotest.(check (option int)) "sqli" (Some 5) (List.assoc_opt "SQLI" t.A.by_group)

let () =
  Alcotest.run "wap_core"
    [
      ( "versions & training",
        [
          Alcotest.test_case "version configs" `Quick test_version_configs;
          Alcotest.test_case "WAPe dataset" `Slow test_wape_dataset;
          Alcotest.test_case "v2.1 dataset" `Slow test_v21_dataset;
          Alcotest.test_case "training deterministic" `Slow test_training_deterministic;
          Alcotest.test_case "frozen sets round trip" `Quick
            test_frozen_sets_round_trip;
          Alcotest.test_case "stock ensemble = trained ensemble" `Quick
            test_frozen_models_match_training;
          Alcotest.test_case "malformed --training-set exits 124" `Quick
            test_cli_rejects_malformed_training_set;
          Alcotest.test_case "unknown --weapon exits 124" `Quick
            test_cli_rejects_unknown_weapon;
          Alcotest.test_case "unusable --cache-dir exits 124" `Quick
            test_cli_rejects_unusable_cache_dir;
          Alcotest.test_case "--json --confirm on a recovered parse" `Quick
            test_cli_confirm_recovered_parse;
          Alcotest.test_case "--fix skips a recovered parse" `Quick
            test_cli_fix_skips_recovered_parse;
          Alcotest.test_case "--json --fix writes corrected source" `Quick
            test_cli_json_fix;
          Alcotest.test_case "--log-level debug logs per-file progress" `Quick
            test_cli_debug_progress;
          Alcotest.test_case "lint cache key carries the format version" `Quick
            test_cli_lint_cache_key_versioned;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "ACP package end-to-end" `Slow test_pipeline_acp;
          Alcotest.test_case "v2.1 misses new classes" `Slow
            test_pipeline_v21_misses_new_classes;
          Alcotest.test_case "wpsqli weapon needed for $wpdb" `Slow
            test_pipeline_wpsqli_weapon_needed;
          Alcotest.test_case "timing measured" `Slow test_analysis_time_measured;
          Alcotest.test_case "escape experiment (V-A)" `Slow test_escape_experiment;
          Alcotest.test_case "analyze + correct source" `Slow
            test_analyze_source_and_correct;
          Alcotest.test_case "dedup across detectors" `Slow test_dedup_across_specs;
          Alcotest.test_case "spec-set fingerprints" `Quick test_fingerprints;
          Alcotest.test_case "v2.1 restriction precondition" `Quick
            test_v21_restriction_precondition;
          Alcotest.test_case "restricted WAPe = v2.1 scan" `Slow
            test_restrict_equals_v21_scan;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "Table I content" `Quick test_table1_content;
          Alcotest.test_case "Tables II/III shape" `Slow test_table2_and_3;
          Alcotest.test_case "Table IV sinks" `Quick test_table4_lists_paper_sinks;
          Alcotest.test_case "Table VII quick run" `Slow test_quick_plugin_run;
          Alcotest.test_case "webapps parsed once" `Slow test_run_webapps_parses_once;
          Alcotest.test_case "score summation" `Quick test_score_sum;
        ] );
    ]

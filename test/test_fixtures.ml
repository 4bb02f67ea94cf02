(** Golden integration tests on the handwritten fixture applications:
    exact findings, false-positive triage, dynamic confirmation and
    correction, over realistic multi-file PHP. *)

module VC = Wap_catalog.Vuln_class

let seed = 2016

let tools =
  lazy
    (let wape = Wap_core.Tool.create ~seed Wap_core.Version.Wape in
     let wp =
       Wap_core.Tool.create ~seed
         ~weapons:[ Wap_weapon.Generator.wpsqli () ]
         Wap_core.Version.Wape
     in
     (wape, wp))

let package name files =
  {
    Wap_corpus.Appgen.pkg_name = name;
    pkg_version = "1.0";
    pkg_kind = Wap_corpus.Appgen.Webapp;
    pkg_files =
      List.map
        (fun (f_name, f_source) -> { Wap_corpus.Appgen.f_name; f_source })
        files;
    pkg_seeded = [];
  }

let groups_of findings =
  List.sort compare
    (List.map
       (fun (f : Wap_core.Tool.finding) ->
         ( VC.report_group f.Wap_core.Tool.candidate.Wap_taint.Trace.vclass,
           f.Wap_core.Tool.candidate.Wap_taint.Trace.file ))
       findings)

let pair_list = Alcotest.(list (pair string string))

let scan ?(wp = false) name files =
  let wape, wp_tool = Lazy.force tools in
  let tool = if wp then wp_tool else wape in
  Wap_core.Tool.Scan.run tool
    (Wap_core.Tool.Scan.request_of_package (package name files))

let analyze ?wp name files = (scan ?wp name files).Wap_core.Tool.Scan.result

let check_findings name files ~expected_vulns ~expected_fps ?(wp = false) () =
  let result = analyze ~wp name files in
  let vulns =
    List.filter (fun (f : Wap_core.Tool.finding) -> not f.Wap_core.Tool.predicted_fp)
      result.Wap_core.Tool.findings
  in
  let fps =
    List.filter (fun (f : Wap_core.Tool.finding) -> f.Wap_core.Tool.predicted_fp)
      result.Wap_core.Tool.findings
  in
  Alcotest.check pair_list (name ^ " vulnerabilities")
    (List.sort compare expected_vulns) (groups_of vulns);
  Alcotest.check pair_list (name ^ " false positives")
    (List.sort compare expected_fps) (groups_of fps);
  result

(* ------------------------------------------------------------------ *)

let test_blog_findings () =
  ignore
    (check_findings "blog" Fixtures.blog
       ~expected_vulns:Fixtures.blog_expected_vulns
       ~expected_fps:Fixtures.blog_expected_fps ())

let test_blog_cross_file_flow () =
  (* the theme is tainted in config.php and echoed in index.php: the
     finding must land on index.php through include splicing *)
  let result = analyze "blog" Fixtures.blog in
  let xss_on_index =
    List.filter
      (fun (f : Wap_core.Tool.finding) ->
        let c = f.Wap_core.Tool.candidate in
        VC.report_group c.Wap_taint.Trace.vclass = "XSS"
        && c.Wap_taint.Trace.file = "index.php"
        && (Wap_taint.Trace.primary c).Wap_taint.Trace.source = "$_COOKIE['theme']")
      result.Wap_core.Tool.findings
  in
  Alcotest.(check int) "cross-file XSS found" 1 (List.length xss_on_index)

let test_blog_confirmation () =
  let o = scan "blog" Fixtures.blog in
  let result = o.Wap_core.Tool.Scan.result and units = o.Wap_core.Tool.Scan.units in
  (* the cross-file flow cannot be replayed per-file (taint comes from
     another unit), so restrict to single-file findings; stored XSS is
     not replayable by design *)
  let single_file =
    List.filter
      (fun (c : Wap_taint.Trace.candidate) ->
        (Wap_taint.Trace.primary c).Wap_taint.Trace.source_loc.Wap_php.Loc.file
        = c.Wap_taint.Trace.file)
      result.Wap_core.Tool.reported
  in
  let stored =
    List.length
      (List.filter
         (fun (c : Wap_taint.Trace.candidate) ->
           VC.equal c.Wap_taint.Trace.vclass VC.Xss_stored)
         single_file)
  in
  let confirmed, refuted, unsupported =
    Wap_confirm.Confirm.confirm_batch units single_file
  in
  Alcotest.(check int) "all replayable single-file vulns confirmed"
    (List.length single_file - stored)
    confirmed;
  Alcotest.(check int) "none refuted" 0 refuted;
  Alcotest.(check int) "stored XSS not replayable" stored unsupported;
  (* ... and the predicted FPs do not replay *)
  let fc, _, _ =
    Wap_confirm.Confirm.confirm_batch units result.Wap_core.Tool.predicted_fps
  in
  Alcotest.(check int) "no FP is exploitable" 0 fc

let test_blog_correction () =
  let o = scan "blog" Fixtures.blog in
  let post_vulns =
    List.filter
      (fun (c : Wap_taint.Trace.candidate) -> c.Wap_taint.Trace.file = "post.php")
      o.Wap_core.Tool.Scan.result.Wap_core.Tool.reported
  in
  let post =
    List.find
      (fun (u : Wap_taint.Analyzer.file_unit) -> u.Wap_taint.Analyzer.path = "post.php")
      o.Wap_core.Tool.Scan.units
  in
  let fixed, report =
    Wap_fixer.Corrector.correct post.Wap_taint.Analyzer.program post_vulns
  in
  (* the SQLI sink lives in lib.php's q() helper, so post.php only gets
     the header-injection fix *)
  Alcotest.(check int) "one fix in post.php" 1
    (List.length report.Wap_fixer.Corrector.applied);
  (* the corrected file, analyzed back in its package context, no longer
     alarms in post.php *)
  let wape, _ = Lazy.force tools in
  let fixed_blog =
    List.map
      (fun (n, src) -> if n = "post.php" then (n, fixed) else (n, src))
      Fixtures.blog
  in
  let again =
    (Wap_core.Tool.Scan.run wape
       (Wap_core.Tool.Scan.request_of_package (package "blog" fixed_blog)))
      .Wap_core.Tool.Scan.result
  in
  let in_post =
    List.filter
      (fun (c : Wap_taint.Trace.candidate) -> c.Wap_taint.Trace.file = "post.php")
      again.Wap_core.Tool.reported
  in
  Alcotest.(check int) "corrected post.php is clean" 0 (List.length in_post)

let test_store_findings () =
  ignore
    (check_findings "store" Fixtures.store
       ~expected_vulns:Fixtures.store_expected_vulns
       ~expected_fps:Fixtures.store_expected_fps ())

let test_store_method_flow () =
  (* the XSS flows through Cart::receipt_row and render() *)
  let result = analyze "store" Fixtures.store in
  let xss =
    List.find
      (fun (f : Wap_core.Tool.finding) ->
        VC.report_group f.Wap_core.Tool.candidate.Wap_taint.Trace.vclass = "XSS")
      result.Wap_core.Tool.findings
  in
  let o = Wap_taint.Trace.primary xss.Wap_core.Tool.candidate in
  Alcotest.(check bool) "through receipt_row" true
    (List.mem "receipt_row" o.Wap_taint.Trace.through)

let test_store_basename_silent () =
  (* download.php: the basename()d flow must not even be a candidate *)
  let result = analyze "store" Fixtures.store in
  let download_candidates =
    List.filter
      (fun (c : Wap_taint.Trace.candidate) ->
        c.Wap_taint.Trace.file = "download.php")
      result.Wap_core.Tool.candidates
  in
  Alcotest.(check int) "only the raw readfile is flagged" 1
    (List.length download_candidates)

let test_wp_plugin_findings () =
  let result =
    check_findings ~wp:true "metrics" Fixtures.wp_plugin
      ~expected_vulns:Fixtures.wp_expected_vulns
      ~expected_fps:Fixtures.wp_expected_fps ()
  in
  (* the prepared statement must not be flagged at all *)
  Alcotest.(check int) "two candidates only" 2
    (List.length result.Wap_core.Tool.candidates)

let test_wp_needs_weapon () =
  (* without -wpsqli the plugin is invisible *)
  let result = analyze ~wp:false "metrics" Fixtures.wp_plugin in
  Alcotest.(check int) "no weapon, no findings" 0
    (List.length result.Wap_core.Tool.candidates)

let test_fixtures_parse_and_print () =
  (* every fixture file round-trips through the printer *)
  List.iter
    (fun (name, src) ->
      let prog = Wap_php.Parser.parse_string ~file:name src in
      let printed = Wap_php.Printer.program_to_string prog in
      let reparsed = Wap_php.Parser.parse_string ~file:name printed in
      Alcotest.(check string)
        (name ^ " printer stable")
        printed
        (Wap_php.Printer.program_to_string reparsed))
    (Fixtures.blog @ Fixtures.store @ Fixtures.wp_plugin)

let () =
  Alcotest.run "wap_fixtures"
    [
      ( "blog (nightingale)",
        [
          Alcotest.test_case "findings" `Slow test_blog_findings;
          Alcotest.test_case "cross-file include flow" `Slow test_blog_cross_file_flow;
          Alcotest.test_case "dynamic confirmation" `Slow test_blog_confirmation;
          Alcotest.test_case "correction" `Slow test_blog_correction;
        ] );
      ( "store (tinystore)",
        [
          Alcotest.test_case "findings" `Slow test_store_findings;
          Alcotest.test_case "method flow" `Slow test_store_method_flow;
          Alcotest.test_case "basename stays silent" `Slow test_store_basename_silent;
        ] );
      ( "wordpress plugin (metrics)",
        [
          Alcotest.test_case "findings" `Slow test_wp_plugin_findings;
          Alcotest.test_case "weapon required" `Slow test_wp_needs_weapon;
        ] );
      ( "front-end",
        [ Alcotest.test_case "fixtures round-trip" `Quick test_fixtures_parse_and_print ] );
    ]

(** Tests for the code corrector and the fix templates. *)

module VC = Wap_catalog.Vuln_class
module Fix = Wap_fixer.Fix
module Cor = Wap_fixer.Corrector

let analyze ?(vclass = VC.Sqli) src =
  let program = Wap_php.Parser.parse_string ~file:"t.php" src in
  Wap_taint.Analyzer.analyze_program
    ~spec:(Wap_catalog.Catalog.default_spec vclass) ~file:"t.php" program

(* the corrector over a fresh parse of [src]: the candidates of
   [analyze] find their targets by location and structure *)
let correct_source src cands =
  Cor.correct (Wap_php.Parser.parse_string ~file:"t.php" src) cands

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn > 0 && go 0

(* ------------------------------------------------------------------ *)
(* Fix templates.                                                      *)

let test_stock_fixes_parse () =
  (* every stock fix's runtime code is valid PHP *)
  List.iter
    (fun c ->
      let fix = Fix.stock c in
      let src = "<?php\n" ^ Fix.runtime_code fix in
      match Wap_php.Parser.parse_string ~file:"fix.php" src with
      | [ { Wap_php.Ast.s = Wap_php.Ast.Func_def f; _ } ] ->
          Alcotest.(check string)
            (VC.acronym c ^ " fix name")
            fix.Fix.fix_name f.Wap_php.Ast.f_name
      | _ -> Alcotest.failf "%s fix is not a single function" (VC.acronym c))
    VC.all_builtin

let test_fix_names_are_sanitizers () =
  (* the catalog registers every stock fix as a sanitizer of its class,
     so corrected code is never re-flagged; names must agree *)
  List.iter
    (fun c ->
      Alcotest.(check string)
        (VC.acronym c ^ " fix/sanitizer name")
        (Wap_catalog.Catalog.stock_fix_name c)
        (Fix.stock c).Fix.fix_name;
      let spec = Wap_catalog.Catalog.default_spec c in
      Alcotest.(check bool)
        (VC.acronym c ^ " registered")
        true
        (List.mem
           (Wap_catalog.Catalog.San_fn (Wap_catalog.Catalog.stock_fix_name c))
           spec.Wap_catalog.Catalog.sanitizers))
    VC.all_builtin

let test_template_names () =
  (* the names the paper gives to its fixes *)
  Alcotest.(check string) "nosqli" "san_nosqli" (Fix.stock VC.Nosqli).Fix.fix_name;
  Alcotest.(check string) "hei" "san_hei" (Fix.stock VC.Hi).Fix.fix_name;
  Alcotest.(check string) "wpsqli" "san_wpsqli" (Fix.stock VC.Wp_sqli).Fix.fix_name;
  Alcotest.(check string) "cs is san_write" "san_write" (Fix.stock VC.Cs).Fix.fix_name

let test_php_sanitization_template () =
  let fix =
    { Fix.fix_name = "san_x"; vclass = VC.Sqli;
      template = Fix.Php_sanitization { sanitizer = "some_escape" } }
  in
  Alcotest.(check bool) "calls the sanitizer" true
    (contains (Fix.runtime_code fix) "some_escape($v)")

let test_user_sanitization_template () =
  let fix = Fix.stock VC.Hi in
  let code = Fix.runtime_code fix in
  Alcotest.(check bool) "replaces CR" true (contains code "\\r");
  Alcotest.(check bool) "replaces LF" true (contains code "\\n");
  Alcotest.(check bool) "uses str_replace" true (contains code "str_replace")

let test_user_validation_template () =
  let fix = Fix.stock VC.Ldapi in
  let code = Fix.runtime_code fix in
  Alcotest.(check bool) "raises a warning" true (contains code "trigger_error");
  Alcotest.(check bool) "checks characters" true (contains code "strpos")

let test_content_validation_template () =
  let code = Fix.runtime_code (Fix.stock VC.Cs) in
  Alcotest.(check bool) "checks hyperlinks" true (contains code "https?");
  Alcotest.(check bool) "uses preg_match" true (contains code "preg_match")

let test_session_reset_template () =
  let code = Fix.runtime_code (Fix.stock VC.Sf) in
  Alcotest.(check bool) "regenerates the id" true (contains code "session_regenerate_id")

(* ------------------------------------------------------------------ *)
(* Correction.                                                         *)

let vulnerable = "<?php\n$u = $_GET['u'];\nmysql_query(\"SELECT * FROM t WHERE u = '$u'\");\necho $_GET['m'];\n"

let test_correct_wraps_sink_arg () =
  let cands = analyze vulnerable in
  let fixed, report = correct_source vulnerable cands in
  Alcotest.(check int) "one fix applied" 1 (List.length report.Cor.applied);
  Alcotest.(check bool) "wrapped" true (contains fixed "mysql_query(san_sqli(");
  Alcotest.(check bool) "definition emitted" true
    (contains fixed "function san_sqli($v)");
  (* the fixed file still parses *)
  ignore (Wap_php.Parser.parse_string ~file:"fixed.php" fixed)

let test_correct_multiple_classes () =
  let sqli = analyze vulnerable in
  let xss = analyze ~vclass:VC.Xss_reflected vulnerable in
  let fixed, report = correct_source vulnerable (sqli @ xss) in
  Alcotest.(check int) "two fixes" 2 (List.length report.Cor.applied);
  Alcotest.(check bool) "san_sqli applied" true (contains fixed "san_sqli(");
  Alcotest.(check bool) "san_out applied" true (contains fixed "echo san_out(")

let test_correct_idempotent () =
  let cands = analyze vulnerable in
  let once, _ = correct_source vulnerable cands in
  (* analyzing the fixed source again finds nothing: san_sqli wraps the
     flow and its body uses the class sanitizer *)
  let again = analyze once in
  Alcotest.(check int) "fixed source is clean" 0 (List.length again)

let test_no_double_wrap () =
  let cands = analyze vulnerable in
  (* the same candidate passed twice must not wrap twice *)
  let fixed, _ = correct_source vulnerable (cands @ cands) in
  Alcotest.(check bool) "no nested wrap" false (contains fixed "san_sqli(san_sqli(")

let test_existing_definition_not_duplicated () =
  let src =
    "<?php\nfunction san_sqli($v) { return mysql_real_escape_string($v); }\n\
     $u = $_GET['u'];\nmysql_query(\"SELECT * FROM t WHERE u = '$u'\");\n"
  in
  let cands = analyze src in
  let fixed, _ = correct_source src cands in
  let count_defs =
    List.length
      (List.filter
         (fun (f : Wap_php.Ast.func) -> f.Wap_php.Ast.f_name = "san_sqli")
         (Wap_php.Visitor.collect_functions
            (Wap_php.Parser.parse_string ~file:"f.php" fixed)))
  in
  Alcotest.(check int) "single definition" 1 count_defs

let test_echo_sink_correction () =
  let src = "<?php\necho '<b>' . $_GET['m'] . '</b>';\n" in
  let cands = analyze ~vclass:VC.Xss_reflected src in
  let fixed, _ = correct_source src cands in
  Alcotest.(check bool) "echo wrapped" true (contains fixed "echo san_out(")

let test_report_locations () =
  let cands = analyze vulnerable in
  let _, report = correct_source vulnerable cands in
  match report.Cor.applied with
  | [ (fix, loc) ] ->
      Alcotest.(check string) "fix" "san_sqli" fix.Fix.fix_name;
      Alcotest.(check int) "sink line" 3 loc.Wap_php.Loc.line
  | _ -> Alcotest.fail "expected one applied fix"

let qcheck_correction_parses =
  QCheck.Test.make ~name:"corrected corpus snippets always parse" ~count:60
    QCheck.(int_bound 10_000)
    (fun seed ->
      let classes = VC.wape in
      let vclass = List.nth classes (seed mod List.length classes) in
      let g = Wap_corpus.Snippet.make_gen ~seed in
      let snip = Wap_corpus.Snippet.generate g vclass Wap_corpus.Snippet.Real in
      let src = "<?php\n" ^ snip.Wap_corpus.Snippet.code in
      let cands = analyze ~vclass src in
      let fixed, _ = correct_source src cands in
      match Wap_php.Parser.parse_string ~file:"q.php" fixed with
      | _ -> true
      | exception _ -> false)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "wap_fixer"
    [
      ( "templates",
        [
          Alcotest.test_case "stock fixes parse" `Quick test_stock_fixes_parse;
          Alcotest.test_case "fix names are sanitizers" `Quick
            test_fix_names_are_sanitizers;
          Alcotest.test_case "paper fix names" `Quick test_template_names;
          Alcotest.test_case "php sanitization" `Quick test_php_sanitization_template;
          Alcotest.test_case "user sanitization" `Quick test_user_sanitization_template;
          Alcotest.test_case "user validation" `Quick test_user_validation_template;
          Alcotest.test_case "content validation" `Quick test_content_validation_template;
          Alcotest.test_case "session reset" `Quick test_session_reset_template;
        ] );
      ( "correction",
        [
          Alcotest.test_case "wraps sink argument" `Quick test_correct_wraps_sink_arg;
          Alcotest.test_case "multiple classes" `Quick test_correct_multiple_classes;
          Alcotest.test_case "fixed source is clean" `Quick test_correct_idempotent;
          Alcotest.test_case "no double wrap" `Quick test_no_double_wrap;
          Alcotest.test_case "existing definition kept" `Quick
            test_existing_definition_not_duplicated;
          Alcotest.test_case "echo sink" `Quick test_echo_sink_correction;
          Alcotest.test_case "report locations" `Quick test_report_locations;
        ] );
      ("properties", [ qt qcheck_correction_parses ]);
    ]

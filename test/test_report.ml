(** Tests for the report renderers: tables, histograms, JSON. *)

module T = Wap_report.Table
module H = Wap_report.Histogram
module J = Wap_report.Json

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn > 0 && go 0

(* ------------------------------------------------------------------ *)
(* Tables.                                                             *)

let test_table_basic () =
  let t =
    T.make ~title:"demo" ~header:[ "name"; "count" ]
      [ [ "alpha"; "1" ]; [ "beta"; "22" ] ]
  in
  let s = T.render t in
  Alcotest.(check bool) "title" true (contains s "== demo ==");
  Alcotest.(check bool) "header" true (contains s "name");
  Alcotest.(check bool) "rows" true (contains s "alpha" && contains s "22")

let test_table_alignment () =
  let t =
    T.make ~title:"x" ~header:[ "l"; "r" ] ~aligns:[ T.L; T.R ]
      [ [ "a"; "1" ]; [ "bbbb"; "1234" ] ]
  in
  let lines = String.split_on_char '\n' (T.render t) in
  (* the left column pads right, the right column pads left *)
  Alcotest.(check bool) "left aligned" true
    (List.exists (fun l -> contains l "a    |") lines);
  Alcotest.(check bool) "right aligned" true
    (List.exists (fun l -> contains l "|    1") lines)

let test_table_separator_row () =
  let t =
    T.make ~title:"x" ~header:[ "a"; "b" ]
      [ [ "1"; "2" ]; [ "---"; "---" ]; [ "3"; "4" ] ]
  in
  let s = T.render t in
  (* the all-dashes row becomes a rule, not cells *)
  Alcotest.(check bool) "rule" true (contains s "--+-")

let test_table_helpers () =
  Alcotest.(check string) "pct" "94.5%" (T.pctf 0.945);
  Alcotest.(check string) "blank zero" "" (T.blank_if_zero 0);
  Alcotest.(check string) "nonzero" "7" (T.blank_if_zero 7);
  Alcotest.(check string) "intf" "42" (T.intf 42)

let test_table_ragged_rows () =
  (* missing trailing cells render as empty, no exception *)
  let t = T.make ~title:"x" ~header:[ "a"; "b"; "c" ] [ [ "1" ]; [ "1"; "2"; "3" ] ] in
  Alcotest.(check bool) "renders" true (String.length (T.render t) > 0)

(* ------------------------------------------------------------------ *)
(* Histograms.                                                         *)

let test_histogram () =
  let s =
    H.render ~title:"demo"
      [ { H.label = "one"; values = [ ("a", 10); ("b", 0) ] };
        { H.label = "two"; values = [ ("a", 5); ("b", 2) ] } ]
  in
  Alcotest.(check bool) "title" true (contains s "== demo ==");
  Alcotest.(check bool) "legend" true (contains s "# = one" && contains s "* = two");
  Alcotest.(check bool) "values shown" true (contains s "10" && contains s "2");
  (* the zero bar is empty *)
  let lines = String.split_on_char '\n' s in
  Alcotest.(check bool) "zero row" true
    (List.exists (fun l -> contains l "one" && contains l " 0") lines)

let test_histogram_scaling () =
  let s =
    H.render ~title:"x" [ { H.label = "s"; values = [ ("big", 1000); ("small", 1) ] } ]
  in
  (* the big bar is capped at ~40 chars *)
  let max_hashes =
    List.fold_left
      (fun acc line ->
        max acc (String.fold_left (fun n c -> if c = '#' then n + 1 else n) 0 line))
      0
      (String.split_on_char '\n' s)
  in
  Alcotest.(check bool) "bounded bars" true (max_hashes <= 41 && max_hashes >= 30)

(* ------------------------------------------------------------------ *)
(* JSON.                                                               *)

let test_json_scalars () =
  Alcotest.(check string) "null" "null" (J.to_string ~indent:false J.Null);
  Alcotest.(check string) "bool" "true" (J.to_string ~indent:false (J.Bool true));
  Alcotest.(check string) "int" "-3" (J.to_string ~indent:false (J.Int (-3)));
  Alcotest.(check string) "str" "\"hi\"" (J.to_string ~indent:false (J.Str "hi"))

let test_json_escaping () =
  Alcotest.(check string) "escapes" "\"a\\\"b\\\\c\\nd\\te\""
    (J.to_string ~indent:false (J.Str "a\"b\\c\nd\te"));
  Alcotest.(check string) "control chars" "\"\\u0001\""
    (J.to_string ~indent:false (J.Str "\001"))

let test_json_structures () =
  let v =
    J.Obj [ ("xs", J.List [ J.Int 1; J.Int 2 ]); ("o", J.Obj [ ("k", J.Null) ]) ]
  in
  Alcotest.(check string) "compact" "{\"xs\":[1,2],\"o\":{\"k\":null}}"
    (J.to_string ~indent:false v);
  let pretty = J.to_string ~indent:true v in
  Alcotest.(check bool) "pretty has newlines" true (contains pretty "\n");
  Alcotest.(check string) "empty obj" "{}" (J.to_string ~indent:false (J.Obj []));
  Alcotest.(check string) "empty list" "[]" (J.to_string ~indent:false (J.List []))

let test_json_floats () =
  Alcotest.(check string) "integral float" "2.0" (J.to_string ~indent:false (J.Float 2.0));
  Alcotest.(check bool) "fractional" true
    (contains (J.to_string ~indent:false (J.Float 0.25)) "0.25")

let test_json_unicode_escapes () =
  (* an astral code point escaped as a UTF-16 surrogate pair decodes
     to its UTF-8 *)
  (match J.of_string "\"\\ud83d\\ude00\"" with
  | Ok (J.Str s) ->
      Alcotest.(check string) "pair decodes to UTF-8" "\xf0\x9f\x98\x80" s
  | Ok _ -> Alcotest.fail "expected a string"
  | Error e -> Alcotest.failf "parse error: %s" e);
  (match J.of_string "\"\\uD83D\"" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "lone high surrogate must be rejected");
  match J.of_string "\"\\uDE00x\"" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "lone low surrogate must be rejected"

(* ------------------------------------------------------------------ *)
(* Export (findings to JSON).                                          *)

let test_html_render () =
  let page =
    Wap_report.Html.render
      {
        Wap_report.Html.title = "demo <&>";
        generated_by = "tests";
        rows =
          [ { Wap_report.Html.r_kind = `Vulnerability; r_class = "SQLI";
              r_file = "a.php"; r_line = 7; r_sink = "mysql_query";
              r_source = "$_GET['id']"; r_symptoms = [ "concat_op" ];
              r_steps = [ ("a.php", 3, "$q = \"<x>\"") ];
              r_confirmation = Some "exploit confirmed" };
            { Wap_report.Html.r_kind = `False_positive; r_class = "XSS-R";
              r_file = "b.php"; r_line = 2; r_sink = "echo"; r_source = "$_GET['m']";
              r_symptoms = []; r_steps = []; r_confirmation = None } ];
      }
  in
  List.iter
    (fun needle -> Alcotest.(check bool) needle true (contains page needle))
    [ "<!DOCTYPE html>"; "demo &lt;&amp;&gt;"; "a.php:7"; "mysql_query";
      "exploit confirmed"; "&lt;x&gt;"; "1 vulnerability(ies)" ];
  Alcotest.(check bool) "raw angle brackets escaped" false (contains page "$q = \"<x>\"")

let test_html_escape () =
  Alcotest.(check string) "escape" "&lt;a href=&quot;x&amp;y&quot;&gt;"
    (Wap_report.Html.escape "<a href=\"x&y\">")

let test_tolerant_analysis () =
  (* a broken file does not abort the scan and still yields its findings *)
  let tool = Wap_core.Tool.create ~seed:2016 Wap_core.Version.Wape in
  let o =
    Wap_core.Tool.Scan.run tool
      (Wap_core.Tool.Scan.request
         [ ("ok.php", "<?php\necho $_GET['m'];\n");
           ("broken.php", "<?php\n$x = ;\nmysql_query('SELECT * FROM t WHERE c = ' . $_GET['c']);\n") ])
  in
  let result = o.Wap_core.Tool.Scan.result
  and errors = o.Wap_core.Tool.Scan.parse_errors in
  Alcotest.(check int) "errors from one file" 1 (List.length errors);
  Alcotest.(check int) "both findings present" 2
    (List.length result.Wap_core.Tool.candidates)

let test_export_shape () =
  let tool = Wap_core.Tool.create ~seed:2016 Wap_core.Version.Wape in
  let src = "<?php\nmysql_query('SELECT * FROM t WHERE c = ' . $_GET['c']);\n" in
  let o = Wap_core.Tool.Scan.run tool (Wap_core.Tool.Scan.request [ ("x.php", src) ]) in
  let result = o.Wap_core.Tool.Scan.result in
  let s = Wap_core.Export.result_to_string result in
  List.iter
    (fun needle -> Alcotest.(check bool) needle true (contains s needle))
    [ "\"findings\""; "\"class\": \"SQLI\""; "\"sink\": \"mysql_query\"";
      "\"vulnerabilities\": 1"; "\"symptoms\"" ];
  let s2 =
    Wap_core.Export.result_to_string
      ~confirm:(Wap_confirm.Confirm.replay o.Wap_core.Tool.Scan.units)
      result
  in
  Alcotest.(check bool) "confirmation attached" true
    (contains s2 "\"dynamic_confirmation\": \"confirmed\"")

let qcheck_json_never_raises =
  QCheck.Test.make ~name:"json escaping total" ~count:200
    QCheck.(string_gen_of_size (Gen.int_range 0 50) Gen.char)
    (fun s ->
      let out = J.to_string (J.Str s) in
      String.length out >= String.length s)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "wap_report"
    [
      ( "tables",
        [
          Alcotest.test_case "basic" `Quick test_table_basic;
          Alcotest.test_case "alignment" `Quick test_table_alignment;
          Alcotest.test_case "separator row" `Quick test_table_separator_row;
          Alcotest.test_case "helpers" `Quick test_table_helpers;
          Alcotest.test_case "ragged rows" `Quick test_table_ragged_rows;
        ] );
      ( "histograms",
        [
          Alcotest.test_case "render" `Quick test_histogram;
          Alcotest.test_case "scaling" `Quick test_histogram_scaling;
        ] );
      ( "json",
        [
          Alcotest.test_case "scalars" `Quick test_json_scalars;
          Alcotest.test_case "escaping" `Quick test_json_escaping;
          Alcotest.test_case "structures" `Quick test_json_structures;
          Alcotest.test_case "floats" `Quick test_json_floats;
          Alcotest.test_case "unicode escapes" `Quick test_json_unicode_escapes;
        ] );
      ( "html",
        [
          Alcotest.test_case "render" `Quick test_html_render;
          Alcotest.test_case "escape" `Quick test_html_escape;
        ] );
      ( "export",
        [
          Alcotest.test_case "findings shape" `Slow test_export_shape;
          Alcotest.test_case "tolerant multi-file analysis" `Slow
            test_tolerant_analysis;
        ] );
      ("properties", [ qt qcheck_json_never_raises ]);
    ]

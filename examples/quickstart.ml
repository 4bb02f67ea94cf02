(** Quickstart: analyze a vulnerable PHP login page, triage the
    candidates with the false-positive predictor, and print the
    corrected source.

    Run with: [dune exec examples/quickstart.exe] *)

let vulnerable_login =
  {php|<?php
// A small login handler with classic mistakes.
$user = $_POST['user'];
$style = $_GET['style'];

// this one is guarded: the predictor should call it a false positive
$page = $_GET['page'];
if (!is_numeric($page)) {
    die('page must be a number');
}

$q = "SELECT id, name FROM users WHERE login = '$user' LIMIT 1";
$result = mysql_query($q);

mysql_query("SELECT * FROM stats WHERE page = " . $page);

echo "<body class='" . $style . "'>";

header("X-Back: " . $_SERVER['HTTP_REFERER']);
|php}

let () =
  print_endline "=== WAP quickstart ===\n";
  (* 1. create the extended tool (15 vulnerability classes); training of
     the false-positive predictor happens here, deterministically *)
  let tool = Wap_core.Tool.create ~seed:2016 Wap_core.Version.Wape in

  (* 2. run the code analyzer + predictor *)
  let o =
    Wap_core.Tool.Scan.run tool
      (Wap_core.Tool.Scan.request [ ("login.php", vulnerable_login) ])
  in
  let result = o.Wap_core.Tool.Scan.result in
  Printf.printf "candidates found by the taint analyzer: %d\n\n"
    (List.length result.Wap_core.Tool.candidates);
  List.iter
    (fun (f : Wap_core.Tool.finding) ->
      Printf.printf "%-5s %s\n      symptoms: [%s]\n"
        (if f.Wap_core.Tool.predicted_fp then "FP" else "VULN")
        (Wap_taint.Trace.summary f.Wap_core.Tool.candidate)
        (String.concat "; " f.Wap_core.Tool.symptoms))
    result.Wap_core.Tool.findings;

  (* 3. let the code corrector fix what remains, on the AST the scan
     analyzed *)
  let fixed, report =
    Wap_fixer.Corrector.correct
      (List.hd o.Wap_core.Tool.Scan.units).Wap_taint.Analyzer.program
      result.Wap_core.Tool.reported
  in
  Printf.printf "\nfixes applied: %d\n" (List.length report.Wap_fixer.Corrector.applied);
  List.iter
    (fun ((fix : Wap_fixer.Fix.t), loc) ->
      Printf.printf "  %s at line %d\n" fix.Wap_fixer.Fix.fix_name loc.Wap_php.Loc.line)
    report.Wap_fixer.Corrector.applied;
  print_endline "\n--- corrected source ---";
  print_string fixed

(** Dynamic confirmation: replay each finding with an attack payload
    (the mechanized version of the paper's "all were confirmed by us
    manually", Section V-B).

    The replay runs the real sanitizer/validator semantics through a
    bounded PHP evaluator: a confirmed finding means the payload's
    active characters reached the sink; a refuted one means the flow
    neutralized them.

    Run with: [dune exec examples/confirm_findings.exe] *)

let app =
  {php|<?php
// 1. plainly exploitable
$q = $_GET['q'];
mysql_query("SELECT * FROM posts WHERE title = '$q'");

// 2. the tool flags it (escape() is unknown), but the replay refutes it
function escape($value) {
    $out = '';
    for ($i = 0; $i < strlen($value); $i++) {
        $c = $value[$i];
        if ($c != "'" && $c != '"' && $c != '\\') {
            $out = $out . $c;
        }
    }
    return $out;
}
$name = escape($_POST['name']);
mysql_query("SELECT * FROM people WHERE name = '$name'");

// 3. guarded: predicted FP and indeed not reproducible
$id = $_GET['id'];
if (!ctype_digit($id)) {
    die('bad id');
}
mysql_query('SELECT * FROM items WHERE id = ' . $id);

// 4. header injection, exploitable
header('Location: ' . $_GET['back']);
|php}

let () =
  print_endline "=== dynamic confirmation of findings ===\n";
  let tool = Wap_core.Tool.create ~seed:2016 Wap_core.Version.Wape in
  let o = Wap_core.Tool.Scan.run tool (Wap_core.Tool.Scan.request [ ("app.php", app) ]) in
  (* the replay runs on the AST the scan analyzed *)
  let replay = Wap_confirm.Confirm.replay o.Wap_core.Tool.Scan.units in
  List.iter
    (fun (f : Wap_core.Tool.finding) ->
      let c = f.Wap_core.Tool.candidate in
      Printf.printf "%-5s %-55s -> %s\n"
        (if f.Wap_core.Tool.predicted_fp then "FP" else "VULN")
        (Wap_taint.Trace.summary c)
        (Wap_confirm.Confirm.label (replay c)))
    o.Wap_core.Tool.Scan.result.Wap_core.Tool.findings;
  print_newline ();
  (* the same machinery at corpus scale *)
  print_endline "--- corpus-scale confirmation (3 packages) ---";
  print_string
    (Wap_core.Experiments.confirmation_table
       (Wap_core.Experiments.run_webapps ~seed:2016 ~only_vulnerable:true
          ~confirm:3 ()))

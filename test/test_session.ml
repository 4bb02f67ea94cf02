(** The session-oriented engine: targeted invalidation on
    edit/add/remove (observed through the paths each mutation returns),
    and equivalence of the incremental session with a fresh batch scan
    over the same sources. *)

module S = Wap_engine.Session
module T = Wap_core.Tool
module Trace = Wap_taint.Trace

let seed = 2016
let wape = lazy (T.create ~seed Wap_core.Version.Wape)
let specs () = (Lazy.force wape).T.specs

(* A small project exercising every invalidation rule: an
   interprocedural flow through [lib.php]'s function summary, a
   function-free vulnerable file, and an include pair. *)
let lib_php =
  "<?php function fetch($id) { return mysql_query(\"SELECT * FROM t WHERE id \
   = \" . $id); } ?>"

let vuln_php = "<?php $r = fetch($_GET['id']); echo $_GET['name']; ?>"
let inc_php = "<?php $x = $_GET['x']; ?>"
let main_php = "<?php include 'inc.php'; echo $x; ?>"

let project () =
  [
    ("lib.php", lib_php);
    ("vuln.php", vuln_php);
    ("inc.php", inc_php);
    ("main.php", main_php);
  ]

let request ?(jobs = 1) ?cache files =
  S.request ~jobs ?cache ~specs:(specs ()) files

let sorted = List.sort compare

(* ------------------------------------------------------------------ *)

let test_open_analyzes_everything () =
  let s = S.open_project (request (project ())) in
  Alcotest.(check int) "generation 0 after open" 0 (S.generation s);
  Alcotest.(check (list string))
    "paths in project order"
    (List.map fst (project ()))
    (S.paths s);
  Alcotest.(check bool) "mem known" true (S.mem s ~path:"vuln.php");
  Alcotest.(check bool) "mem unknown" false (S.mem s ~path:"nope.php")

let test_summary_preserving_edit_is_local () =
  let s = S.open_project (request (project ())) in
  (* vuln.php defines no functions: its function-summary fingerprint
     cannot change, so only its own top-level pass re-runs *)
  let reran =
    S.update_file s ~path:"vuln.php"
      "<?php $r = fetch($_GET['id2']); echo $_GET['name']; ?>"
  in
  Alcotest.(check (list string)) "only the edited file" [ "vuln.php" ] reran;
  Alcotest.(check int) "generation bumped" 1 (S.generation s)

let test_code_after_functions_is_local () =
  let s = S.open_project (request (project ())) in
  (* appending top-level code after the function leaves every declared
     function (bodies and locations) intact: the fingerprint is
     unchanged and the edit stays local despite the file defining a
     function *)
  let reran =
    S.update_file s ~path:"lib.php"
      "<?php function fetch($id) { return mysql_query(\"SELECT * FROM t \
       WHERE id = \" . $id); } $unused = 1; ?>"
  in
  Alcotest.(check (list string)) "only the edited file" [ "lib.php" ] reran

let test_summary_changing_edit_reanalyzes_project () =
  let s = S.open_project (request (project ())) in
  (* changing [fetch]'s body changes its summary; every caller may be
     affected -> full re-analysis *)
  let reran =
    S.update_file s ~path:"lib.php"
      "<?php function fetch($id) { return mysql_query(\"DELETE FROM t WHERE \
       id = \" . $id); } ?>"
  in
  Alcotest.(check (list string))
    "every file re-analyzed"
    (sorted (List.map fst (project ())))
    (sorted reran)

let test_include_dependents_rerun () =
  let s = S.open_project (request (project ())) in
  (* main.php splices inc.php at top level: editing the includee
     re-runs the includer too (inc.php has no functions, so nothing
     else), and the includer splices the edited program *)
  let edited = "<?php $x = $_GET['y']; ?>" in
  let reran = S.update_file s ~path:"inc.php" edited in
  Alcotest.(check (list string))
    "includee + includer"
    [ "inc.php"; "main.php" ]
    (sorted reran);
  let final_sources =
    List.map
      (fun (p, src) -> if p = "inc.php" then (p, edited) else (p, src))
      (project ())
  in
  let candidates (o : S.outcome) =
    List.map Trace.show_candidate o.S.candidates
  in
  Alcotest.(check (list string))
    "session export = fresh scan"
    (candidates (S.run (request final_sources)))
    (candidates (S.export s))

let test_add_and_remove () =
  let s = S.open_project (request (project ())) in
  let reran = S.add_file s ~path:"extra.php" "<?php echo $_GET['e']; ?>" in
  Alcotest.(check (list string)) "added file analyzed" [ "extra.php" ] reran;
  Alcotest.(check bool) "now a member" true (S.mem s ~path:"extra.php");
  Alcotest.check_raises "duplicate add rejected"
    (Invalid_argument "Session.add_file: file \"extra.php\" already in project")
    (fun () -> ignore (S.add_file s ~path:"extra.php" "<?php ?>"));
  (* removing the includee re-runs only the includer *)
  let reran = S.remove_file s ~path:"inc.php" in
  Alcotest.(check (list string)) "includer re-ran" [ "main.php" ] reran;
  Alcotest.(check bool) "gone" false (S.mem s ~path:"inc.php");
  Alcotest.(check (list string)) "unknown remove is a no-op" []
    (S.remove_file s ~path:"inc.php");
  Alcotest.(check int) "no-op does not bump the generation" 2 (S.generation s)

let test_update_unknown_raises () =
  let s = S.open_project (request (project ())) in
  Alcotest.check_raises "unknown update rejected"
    (Invalid_argument "Session.update_file: no file \"nope.php\" in project")
    (fun () -> ignore (S.update_file s ~path:"nope.php" "<?php ?>"))

let test_warm_cache_edit_replays_state () =
  let cache = Wap_engine.Cache.create () in
  ignore (S.run (request ~cache (project ())));
  let s = S.open_project (request ~cache (project ())) in
  (* one parse entry per file and the project's analysis entry *)
  Alcotest.(check int) "open served every entry from the cache"
    (List.length (project ()) + 1)
    (S.export s).S.cache_hits;
  (* the all-hit open built no analyzer state: this edit replays passes
     1–2 (the new inc.php calls lib.php's [fetch], so pass 3 needs its
     summary) before re-running pass 3 on the includee and includer *)
  let edited = "<?php $x = $_GET['y']; $r = fetch($_GET['z']); ?>" in
  let reran = S.update_file s ~path:"inc.php" edited in
  Alcotest.(check (list string))
    "includee + includer" [ "inc.php"; "main.php" ] (sorted reran);
  let final_sources =
    List.map
      (fun (p, src) -> if p = "inc.php" then (p, edited) else (p, src))
      (project ())
  in
  let candidates (o : S.outcome) =
    List.map Trace.show_candidate o.S.candidates
  in
  Alcotest.(check (list string))
    "session export = fresh scan"
    (candidates (S.run (request final_sources)))
    (candidates (S.export s))

(* ------------------------------------------------------------------ *)
(* Session export = fresh batch scan over the final sources.           *)

(* The deterministic surface of an engine outcome: everything except
   wall-clock (timings differ run to run by construction). *)
let render (o : S.outcome) : string =
  String.concat "\n"
    (List.map Trace.show_candidate o.S.candidates
    @ List.map
        (fun (fr : S.file_report) ->
          Printf.sprintf "file %s cached=%b errors=%d" fr.S.fr_path
            fr.S.fr_cached
            (List.length fr.S.fr_errors))
        o.S.file_reports
    @ List.map
        (fun (sr : S.spec_report) ->
          Printf.sprintf "spec %s candidates=%d" sr.S.sr_spec
            sr.S.sr_candidates)
        o.S.spec_reports
    @ [ Printf.sprintf "jobs=%d" o.S.jobs_used ])

let test_export_matches_fresh_scan () =
  List.iter
    (fun jobs ->
      let s = S.open_project (request ~jobs (project ())) in
      ignore
        (S.update_file s ~path:"vuln.php"
           "<?php $r = fetch($_GET['id']); echo $_POST['name']; ?>");
      ignore (S.add_file s ~path:"extra.php" "<?php echo $_GET['e']; ?>");
      ignore (S.remove_file s ~path:"inc.php");
      ignore
        (S.update_file s ~path:"lib.php"
           "<?php function fetch($id) { return mysql_query(\"DELETE FROM t \
            WHERE id = \" . $id); } ?>");
      let final_sources =
        [
          ( "lib.php",
            "<?php function fetch($id) { return mysql_query(\"DELETE FROM t \
             WHERE id = \" . $id); } ?>" );
          ("vuln.php", "<?php $r = fetch($_GET['id']); echo $_POST['name']; ?>");
          ("main.php", main_php);
          ("extra.php", "<?php echo $_GET['e']; ?>");
        ]
      in
      Alcotest.(check (list string))
        (Printf.sprintf "project order after mutations (jobs=%d)" jobs)
        (List.map fst final_sources) (S.paths s);
      Alcotest.(check string)
        (Printf.sprintf "session export = fresh scan (jobs=%d)" jobs)
        (render (S.run (request ~jobs final_sources)))
        (render (S.export s)))
    [ 1; 4 ]

(* A file that declares a function changes the summary table every
   file reads, so adding or removing one re-analyzes the whole project.
   [page.php] calls [show] before any file declares it: only the summary
   that [show.php] brings turns that call into a finding. *)
let test_add_and_remove_function_file () =
  let show_php = "<?php function show($v) { echo $v; } ?>" in
  let opened = project () @ [ ("page.php", "<?php show($_GET['p']); ?>") ] in
  let with_show = opened @ [ ("show.php", show_php) ] in
  let s = S.open_project (request opened) in
  let before = List.length (S.all_diagnostics s) in
  let reran = S.add_file s ~path:"show.php" show_php in
  let every sources = sorted (List.map fst sources) in
  Alcotest.(check (list string)) "add re-ran every file" (every with_show)
    (sorted reran);
  Alcotest.(check bool) "the declaration adds a finding" true
    (List.length (S.all_diagnostics s) > before);
  Alcotest.(check string) "export after add = fresh scan"
    (render (S.run (request with_show)))
    (render (S.export s));
  let reran = S.remove_file s ~path:"show.php" in
  Alcotest.(check (list string)) "remove re-ran every file" (every opened)
    (sorted reran);
  Alcotest.(check int) "the finding is gone" before
    (List.length (S.all_diagnostics s));
  Alcotest.(check string) "export after remove = fresh scan"
    (render (S.run (request opened)))
    (render (S.export s))

let test_diagnostics_partition_export () =
  let s = S.open_project (request (project ())) in
  let all = S.all_diagnostics s in
  Alcotest.(check bool) "project has findings" true (List.length all > 0);
  (* per-file views partition the full view *)
  let by_path =
    List.concat_map (fun p -> S.diagnostics s ~path:p) (S.paths s)
  in
  Alcotest.(check (list string))
    "per-file diagnostics partition the project view"
    (sorted (List.map (fun (_, c) -> Trace.summary c) all))
    (sorted (List.map (fun (_, c) -> Trace.summary c) by_path));
  List.iter
    (fun p ->
      List.iter
        (fun ((_, c) : int * Trace.candidate) ->
          Alcotest.(check string) "sink file matches the queried path" p
            c.Trace.file)
        (S.diagnostics s ~path:p))
    (S.paths s);
  (* the finalized view is memoized between mutations: repeated calls are
     consistent *)
  Alcotest.(check int) "stable across calls" (List.length all)
    (List.length (S.all_diagnostics s));
  (* export's candidates line up with the diagnostics view *)
  let o = S.export s in
  Alcotest.(check (list string))
    "diagnostics = export candidates"
    (List.map Trace.summary o.S.candidates)
    (List.map (fun (_, c) -> Trace.summary c) all)

let () =
  Alcotest.run "session"
    [
      ( "invalidation",
        [
          Alcotest.test_case "open analyzes everything" `Quick
            test_open_analyzes_everything;
          Alcotest.test_case "summary-preserving edit is local" `Quick
            test_summary_preserving_edit_is_local;
          Alcotest.test_case "top-level code after functions stays local"
            `Quick test_code_after_functions_is_local;
          Alcotest.test_case "summary-changing edit re-analyzes project"
            `Quick test_summary_changing_edit_reanalyzes_project;
          Alcotest.test_case "include dependents re-run" `Quick
            test_include_dependents_rerun;
          Alcotest.test_case "add/remove" `Quick test_add_and_remove;
          Alcotest.test_case "unknown update raises" `Quick
            test_update_unknown_raises;
          Alcotest.test_case "warm-cache open, then a local edit" `Quick
            test_warm_cache_edit_replays_state;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "export matches fresh scan, jobs 1/4" `Slow
            test_export_matches_fresh_scan;
          Alcotest.test_case "add, then remove, a function-declaring file"
            `Quick test_add_and_remove_function_file;
          Alcotest.test_case "diagnostics partition the export" `Quick
            test_diagnostics_partition_export;
        ] );
    ]

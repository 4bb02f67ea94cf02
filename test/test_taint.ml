(** Tests for the taint analyzer: detection, sanitization, guards,
    interprocedural summaries, loops and de-duplication. *)

module VC = Wap_catalog.Vuln_class
module Cat = Wap_catalog.Catalog
module An = Wap_taint.Analyzer
module Tr = Wap_taint.Trace

let analyze ?(vclass = VC.Sqli) src : Tr.candidate list =
  let program = Wap_php.Parser.parse_string ~file:"t.php" ("<?php\n" ^ src) in
  An.analyze_program ~spec:(Cat.default_spec vclass) ~file:"t.php" program

let count ?vclass src = List.length (analyze ?vclass src)

let first ?vclass src =
  match analyze ?vclass src with
  | c :: _ -> c
  | [] -> Alcotest.fail "expected at least one candidate"

let primary ?vclass src = Tr.primary (first ?vclass src)

(* ------------------------------------------------------------------ *)
(* Basic detection.                                                    *)

let test_direct_flow () =
  Alcotest.(check int) "direct superglobal to sink" 1
    (count "mysql_query($_GET['q']);")

let test_variable_chain () =
  let c = first "$a = $_POST['x'];\n$b = $a;\n$c = $b;\nmysql_query($c);" in
  Alcotest.(check string) "source" "$_POST['x']" (Tr.primary c).Tr.source;
  Alcotest.(check int) "steps recorded" 3 (List.length (Tr.steps (Tr.primary c)))

let test_interpolation_flow () =
  Alcotest.(check int) "interp taints query" 1
    (count "$u = $_GET['u'];\n$q = \"SELECT * FROM t WHERE u = '$u'\";\nmysql_query($q);")

let test_concat_flow () =
  Alcotest.(check int) "concat taints" 1
    (count "mysql_query('SELECT * FROM t WHERE id = ' . $_GET['id']);")

let test_compound_concat () =
  Alcotest.(check int) ".= accumulates taint" 1
    (count "$q = 'SELECT * FROM t WHERE c = ';\n$q .= $_GET['c'];\nmysql_query($q);")

let test_clean_code_silent () =
  Alcotest.(check int) "literals are clean" 0
    (count "$q = 'SELECT 1';\nmysql_query($q);\necho 'hello';");
  Alcotest.(check int) "local vars are clean" 0
    (count "$a = 5;\n$b = $a + 1;\nmysql_query('SELECT ' . $b);")

let test_per_class_sinks () =
  let cases =
    [ (VC.Xss_reflected, "echo $_GET['m'];");
      (VC.Xss_reflected, "print($_GET['m']);");
      (VC.Hi, "header('X: ' . $_COOKIE['h']);");
      (VC.Ei, "mail($_POST['to'], 's', 'b');");
      (VC.Osci, "system('ls ' . $_GET['d']);");
      (VC.Phpci, "eval($_REQUEST['code']);");
      (VC.Ldapi, "ldap_search($c, 'dc=x', \"(uid={$_GET['u']})\");");
      (VC.Xpathi, "xpath_eval($x, $_GET['p']);");
      (VC.Sf, "session_id($_GET['sid']);");
      (VC.Sf, "setcookie('s', $_COOKIE['t']);");
      (VC.Cs, "file_put_contents('c.txt', $_POST['comment']);");
      (VC.Rfi, "include($_GET['page']);");
      (VC.Lfi, "require('./p/' . $_GET['page']);");
      (VC.Dt_pt, "readfile('./d/' . $_GET['f']);");
      (VC.Scd, "show_source($_GET['f']);") ]
  in
  List.iter
    (fun (vclass, src) ->
      Alcotest.(check int) (VC.acronym vclass ^ ": " ^ src) 1 (count ~vclass src))
    cases

let test_method_sink () =
  Alcotest.(check int) "wpdb->query" 1
    (count ~vclass:VC.Wp_sqli
       "$id = $_GET['id'];\n$wpdb->query(\"DELETE FROM t WHERE id = $id\");");
  Alcotest.(check int) "collection->find" 1
    (count ~vclass:VC.Nosqli
       "$collection->find(array('u' => $_POST['u']));")

let test_exit_sink () =
  Alcotest.(check int) "exit() as XSS sink" 1
    (count ~vclass:VC.Xss_reflected "exit('bye ' . $_GET['n']);")

let test_backtick_sink () =
  (* the shell-execution operator is an OSCI sink *)
  Alcotest.(check int) "backtick" 1
    (count ~vclass:VC.Osci "$d = $_GET['dir'];\n$out = `ls -l $d`;");
  Alcotest.(check int) "clean backtick" 0 (count ~vclass:VC.Osci "$out = `uptime`;")

let test_sprintf_flow () =
  (* sprintf propagates taint and records the query structure *)
  let c =
    first
      "$id = $_GET['id'];\n$q = sprintf('SELECT name FROM users WHERE id = %d', $id);\nmysql_query($q);"
  in
  let o = Tr.primary c in
  Alcotest.(check bool) "through sprintf" true (List.mem "sprintf" o.Tr.through);
  let lits =
    List.filter_map (function Tr.Qlit s -> Some s | Tr.Qdyn -> None) (Tr.parts o)
  in
  Alcotest.(check bool) "format captured" true
    (List.exists (fun s -> s = "SELECT name FROM users WHERE id = ") lits);
  (* ... so the SQL symptoms see FROM and the numeric position *)
  let ev = Wap_mining.Evidence.collect c in
  Alcotest.(check bool) "from" true (Wap_mining.Evidence.mem "from" ev);
  Alcotest.(check bool) "is_num" true (Wap_mining.Evidence.mem "is_num" ev)

let test_sprintf_clean () =
  Alcotest.(check int) "sprintf of literals is clean" 0
    (count "$q = sprintf('SELECT %d', 7);\nmysql_query($q);")

(* ------------------------------------------------------------------ *)
(* Sanitization.                                                       *)

let test_sanitizer_kills () =
  Alcotest.(check int) "sqli sanitizer" 0
    (count "$u = mysql_real_escape_string($_GET['u']);\nmysql_query(\"SELECT * FROM t WHERE u = '$u'\");");
  Alcotest.(check int) "xss sanitizer" 0
    (count ~vclass:VC.Xss_reflected "echo htmlspecialchars($_GET['m']);");
  Alcotest.(check int) "path sanitizer" 0
    (count ~vclass:VC.Dt_pt "readfile('./d/' . basename($_GET['f']));")

let test_sanitizer_is_class_specific () =
  (* htmlspecialchars does not protect against SQLI *)
  Alcotest.(check int) "xss sanitizer does not stop sqli" 1
    (count "$u = htmlspecialchars($_GET['u']);\nmysql_query(\"SELECT * FROM t WHERE u = '$u'\");")

let test_sanitizer_method () =
  Alcotest.(check int) "wpdb->prepare" 0
    (count ~vclass:VC.Wp_sqli
       "$wpdb->query($wpdb->prepare('SELECT * FROM t WHERE id = %d', $_GET['id']));")

let test_extra_sanitizer_via_spec () =
  let src =
    "$u = escape($_GET['u']);\nmysql_query(\"SELECT * FROM t WHERE u = '$u'\");"
  in
  Alcotest.(check int) "unknown user function keeps taint" 1 (count src);
  let spec = Cat.default_spec VC.Sqli in
  let spec = { spec with Cat.sanitizers = Cat.San_fn "escape" :: spec.Cat.sanitizers } in
  let program = Wap_php.Parser.parse_string ~file:"t.php" ("<?php\n" ^ src) in
  Alcotest.(check int) "registered user sanitizer kills" 0
    (List.length (An.analyze_program ~spec ~file:"t.php" program))

(* ------------------------------------------------------------------ *)
(* Guards and evidence.                                                *)

let test_guard_recorded () =
  let o =
    primary
      "$id = $_GET['id'];\nif (is_numeric($id)) {\n  mysql_query('SELECT * FROM t WHERE id = ' . $id);\n}"
  in
  Alcotest.(check bool) "is_numeric guard" true (List.mem "is_numeric" o.Tr.guards)

let test_guard_die_pattern () =
  let o =
    primary
      "$n = $_GET['n'];\nif (!preg_match('/^[a-z]+$/', $n)) { die('x'); }\nmysql_query(\"SELECT * FROM t WHERE n = '$n'\");"
  in
  Alcotest.(check bool) "preg_match guard" true (List.mem "preg_match" o.Tr.guards);
  Alcotest.(check bool) "exit evidence" true (List.mem "exit" o.Tr.guards)

let test_guard_not_applied_in_other_branch () =
  (* the candidate inside the else branch is NOT guarded by is_int *)
  let o =
    primary
      "$v = $_GET['v'];\nif (is_int($v)) {\n  $x = 1;\n} else {\n  mysql_query(\"SELECT * FROM t WHERE v = '$v'\");\n}"
  in
  Alcotest.(check bool) "no is_int guard in else" false (List.mem "is_int" o.Tr.guards)

let test_guard_isset_negative_branch () =
  (* `if (empty($v)) {} else { sink }` : else means non-empty *)
  let o =
    primary
      "$v = $_GET['v'];\nif (empty($v)) {\n  $x = 1;\n} else {\n  mysql_query(\"SELECT * FROM t WHERE v = '$v'\");\n}"
  in
  Alcotest.(check bool) "empty guard in else" true (List.mem "empty" o.Tr.guards)

let test_guard_conjunction () =
  let o =
    primary
      "$v = $_GET['v'];\nif (isset($v) && ctype_alnum($v)) {\n  mysql_query(\"SELECT * FROM t WHERE v = '$v'\");\n}"
  in
  Alcotest.(check bool) "isset" true (List.mem "isset" o.Tr.guards);
  Alcotest.(check bool) "ctype_alnum" true (List.mem "ctype_alnum" o.Tr.guards)

let test_guard_comparison () =
  let o =
    primary
      "$v = $_GET['v'];\nif (strcmp($v, 'ok') == 0) {\n  mysql_query(\"SELECT * FROM t WHERE v = '$v'\");\n}"
  in
  Alcotest.(check bool) "strcmp" true (List.mem "strcmp" o.Tr.guards)

let test_through_records_manipulations () =
  let o =
    primary
      "$v = trim($_GET['v']);\n$v = substr($v, 0, 9);\nmysql_query('SELECT * FROM t WHERE v = ' . $v);"
  in
  Alcotest.(check bool) "trim" true (List.mem "trim" o.Tr.through);
  Alcotest.(check bool) "substr" true (List.mem "substr" o.Tr.through);
  Alcotest.(check bool) "concat" true (List.mem "concat_op" o.Tr.through)

let test_cast_evidence () =
  let o =
    primary "$v = (int) $_GET['v'];\nmysql_query('SELECT * FROM t WHERE v = ' . $v);"
  in
  Alcotest.(check bool) "(int) recorded" true (List.mem "(int)" o.Tr.through)

let test_query_parts_recorded () =
  let o =
    primary
      "$v = $_GET['v'];\n$q = \"SELECT name FROM users WHERE id = \" . $v;\nmysql_query($q);"
  in
  let lits =
    List.filter_map (function Tr.Qlit s -> Some s | Tr.Qdyn -> None) (Tr.parts o)
  in
  Alcotest.(check bool) "query text captured" true
    (List.exists (fun s -> s = "SELECT name FROM users WHERE id = ") lits)

(* ------------------------------------------------------------------ *)
(* Interprocedural analysis.                                           *)

let test_param_to_sink () =
  let cands =
    analyze ~vclass:VC.Hi
      "function redirect($to) {\n  header('Location: ' . $to);\n}\nredirect($_GET['next']);"
  in
  Alcotest.(check int) "sink inside callee" 1 (List.length cands);
  let c = List.hd cands in
  (* line 1 is the <?php marker, line 2 the function header, line 3 the sink *)
  Alcotest.(check int) "sink line inside function" 3 c.Tr.sink_loc.Wap_php.Loc.line

let test_param_to_return () =
  let o =
    primary ~vclass:VC.Xss_reflected
      "function deco($x) { return '[' . trim($x) . ']'; }\necho deco($_GET['m']);"
  in
  Alcotest.(check bool) "through callee" true (List.mem "deco" o.Tr.through);
  Alcotest.(check bool) "through trim inside callee" true (List.mem "trim" o.Tr.through)

let test_sanitizing_wrapper () =
  Alcotest.(check int) "wrapper around sanitizer is a sanitizer" 0
    (count
       "function clean($x) { return mysql_real_escape_string($x); }\n\
        $u = clean($_GET['u']);\nmysql_query(\"SELECT * FROM t WHERE u = '$u'\");")

let test_source_function () =
  Alcotest.(check int) "function returning superglobal is a source" 1
    (count
       "function param($k) { return $_GET[$k]; }\n\
        mysql_query('SELECT * FROM t WHERE c = ' . param('c'));")

let test_two_level_call_chain () =
  Alcotest.(check int) "summary through two levels" 1
    (count
       "function inner($x) { return $x; }\n\
        function outer($y) { return inner($y); }\n\
        mysql_query('SELECT * FROM t WHERE c = ' . outer($_GET['c']));")

let test_superglobal_inside_function () =
  let cands =
    analyze "function run() {\n  mysql_query('SELECT * FROM t WHERE c = ' . $_GET['c']);\n}"
  in
  Alcotest.(check int) "flow local to a function body" 1 (List.length cands)

let test_method_summary () =
  Alcotest.(check int) "method body analyzed" 1
    (count ~vclass:VC.Xss_reflected
       "class V { public function show() { echo $_GET['m']; } }")

let test_closure_body () =
  Alcotest.(check int) "flow inside closure" 1
    (count ~vclass:VC.Xss_reflected
       "$f = function () { echo $_GET['m']; };")

(* ------------------------------------------------------------------ *)
(* Control flow.                                                       *)

let test_loop_taint () =
  Alcotest.(check int) "taint built inside loop" 1
    (count
       "$q = 'SELECT * FROM t WHERE c IN (';\n\
        foreach ($_POST['ids'] as $id) {\n  $q = $q . $id . ',';\n}\n\
        mysql_query($q . '0)');")

let test_foreach_binding () =
  Alcotest.(check int) "foreach over tainted subject" 1
    (count ~vclass:VC.Xss_reflected
       "foreach ($_GET as $k => $v) {\n  echo $v;\n}")

let test_unset_clears () =
  Alcotest.(check int) "unset kills taint" 0
    (count "$v = $_GET['v'];\nunset($v);\n$v = 'safe';\nmysql_query('SELECT ' . $v);")

let test_branch_merge () =
  (* taint from either branch survives the merge *)
  Alcotest.(check int) "tainted in one branch" 1
    (count
       "if ($_GET['mode'] == 'a') {\n  $v = $_GET['a'];\n} else {\n  $v = 'default';\n}\n\
        mysql_query(\"SELECT * FROM t WHERE v = '$v'\");")

let test_switch_flow () =
  Alcotest.(check int) "taint through switch case" 1
    (count
       "switch ($_GET['m']) {\n\
        case 'x': $v = $_GET['x']; break;\n\
        default: $v = '0';\n}\n\
        mysql_query('SELECT * FROM t WHERE v = ' . $v);")

let test_stored_xss_source () =
  Alcotest.(check int) "fetch result is a stored-XSS source" 1
    (count ~vclass:VC.Xss_stored
       "$r = mysql_query('SELECT body FROM c');\n\
        while ($row = mysql_fetch_assoc($r)) {\n  echo $row['body'];\n}");
  (* but not a reflected-XSS source *)
  Alcotest.(check int) "not a reflected-XSS source" 0
    (count ~vclass:VC.Xss_reflected
       "$r = mysql_query('SELECT body FROM c');\n\
        while ($row = mysql_fetch_assoc($r)) {\n  echo $row['body'];\n}")

let test_preg_replace_eval_modifier () =
  (* only the /e modifier makes preg_replace a PHPCI sink *)
  Alcotest.(check int) "with /e" 1
    (count ~vclass:VC.Phpci "preg_replace('/x/e', $_GET['r'], 'subject');");
  Alcotest.(check int) "without /e" 0
    (count ~vclass:VC.Phpci "preg_replace('/x/', $_GET['r'], 'subject');")

(* ------------------------------------------------------------------ *)
(* Cross-file include splicing.                                        *)

let project files =
  List.map
    (fun (path, src) ->
      { An.path; program = Wap_php.Parser.parse_string ~file:path src })
    files

let test_include_splicing () =
  let units =
    project
      [ ("config.php", "<?php\n$prefix = $_GET['p'];\n");
        ("index.php",
         "<?php\ninclude 'config.php';\nmysql_query('SELECT * FROM t WHERE c = ' . $prefix);\n") ]
  in
  let cands = An.analyze_project ~spec:(Cat.default_spec VC.Sqli) units in
  Alcotest.(check int) "cross-file flow found" 1 (List.length cands);
  let c = List.hd cands in
  Alcotest.(check string) "sink attributed to the includer" "index.php" c.Tr.file;
  (* a base name two files share resolves to the first of them *)
  let tainted = ("a/config.php", "<?php\n$prefix = $_GET['p'];\n")
  and clean = ("b/config.php", "<?php\n$prefix = 'c';\n")
  and index = ("index.php", "<?php\ninclude 'config.php';\nmysql_query($prefix);\n") in
  let count files =
    List.length (An.analyze_project ~spec:(Cat.default_spec VC.Sqli) (project files))
  in
  Alcotest.(check (pair int int)) "first file of a base name wins" (1, 0)
    (count [ tainted; clean; index ], count [ clean; tainted; index ])

let test_include_cycle_terminates () =
  let units =
    project
      [ ("a.php", "<?php\ninclude 'b.php';\n$x = $_GET['x'];\n");
        ("b.php", "<?php\ninclude 'a.php';\nmysql_query('SELECT ' . $x);\n") ]
  in
  (* must terminate; the mutual include is cut by the cycle guard *)
  let _ = An.analyze_project ~spec:(Cat.default_spec VC.Sqli) units in
  ()

let test_include_literal_concat () =
  let units =
    project
      [ ("inc.php", "<?php\n$v = $_POST['v'];\n");
        ("main.php", "<?php\ninclude './lib/' . 'inc.php';\necho $v;\n") ]
  in
  let cands =
    An.analyze_project ~spec:(Cat.default_spec VC.Xss_reflected) units
  in
  Alcotest.(check int) "concatenated literal path resolved" 1 (List.length cands)

let test_query_handle_barrier () =
  (* a tainted query string must not taint the result handle: rendering
     query results is not reflected XSS *)
  Alcotest.(check int) "result handle is clean" 0
    (count ~vclass:VC.Xss_reflected
       "$q = 'SELECT * FROM t WHERE c = ' . $_GET['c'];\n\
        $res = mysql_query($q);\n\
        $row = mysql_fetch_assoc($res);\n\
        echo $row['name'];")

let test_shared_helper_distinct_flows () =
  (* two call sites of one query helper are two findings *)
  let cands =
    analyze
      "function q($sql) { return mysql_query($sql); }\n\
       q('SELECT a FROM t WHERE x = ' . $_GET['x']);\n\
       q('SELECT b FROM u WHERE y = ' . $_POST['y']);"
  in
  Alcotest.(check int) "both flows kept" 2
    (List.length
       (List.sort_uniq compare (List.map Tr.dedup_key cands)))

let test_fix_function_recognized () =
  (* code already corrected by the tool is not re-flagged *)
  Alcotest.(check int) "san_sqli recognized" 0
    (count
       "function san_sqli($v) { return mysql_real_escape_string($v); }\n\
        $u = $_GET['u'];\nmysql_query(san_sqli(\"SELECT * FROM t WHERE u = '$u'\"));");
  Alcotest.(check int) "san_hei recognized" 0
    (count ~vclass:VC.Hi
       "function san_hei($v) { return str_replace(array(\"\\r\", \"\\n\"), ' ', $v); }\n\
        header(san_hei('Location: ' . $_GET['n']));")

(* ------------------------------------------------------------------ *)
(* Dead code: a sink control flow never reaches is not a candidate.    *)

let test_sink_after_exit_pruned () =
  Alcotest.(check int) "sink after unconditional exit" 0
    (count "exit;\nmysql_query($_GET['q']);")

let test_sink_after_return_in_function_pruned () =
  Alcotest.(check int) "sink after return inside function" 0
    (count "function f() {\n  return 1;\n  mysql_query($_GET['q']);\n}\nf();")

let test_sink_after_conditional_die_kept () =
  (* the guarded-die pattern leaves the sink reachable *)
  Alcotest.(check int) "sink after guarded die" 1
    (count "if (!$_GET['q']) { die(1); }\nmysql_query($_GET['q']);")

let test_sink_in_hoisted_function_kept () =
  (* declarations are hoisted: defining the function after exit does not
     make its body dead *)
  Alcotest.(check int) "sink in function declared after exit" 1
    (count "f($_GET['q']);\nexit;\nfunction f($x) {\n  mysql_query($x);\n}")

(* ------------------------------------------------------------------ *)
(* De-duplication and determinism.                                     *)

(* A loop whose body runs twice, at the top level and in a function. *)
let loop_twice_src =
  "<?php\n$x = $_GET['a'];\nwhile ($c) { echo $x; $y = $x; }\n\
   function f($p) { $q = $_POST['b']; while ($p) { echo $q; $z = $q; } }\n"

let test_candidate_dedup_same_sink () =
  (* one loop analyzed several times must yield one candidate *)
  let cands =
    analyze
      "for ($i = 0; $i < 3; $i++) {\n  mysql_query('SELECT * FROM t WHERE c = ' . $_GET['c']);\n}"
  in
  Alcotest.(check int) "single candidate" 1 (List.length cands);
  (* every walk returns each emission, one per loop iteration here;
     finalize keeps the first *)
  let file = "loop.php" and spec = Cat.default_spec VC.Xss_reflected in
  let program = Wap_php.Parser.parse_string ~file loop_twice_src in
  let u = { An.path = file; program } in
  let st = An.project_state ~specs:[ spec ] () in
  An.summarize_file st u;
  let pass2 = An.analyze_file_functions st u in
  let pass3 = An.analyze_file_toplevel st ~units:[ u ] u in
  let lines = List.map (fun (_, (c : Tr.candidate)) -> c.Tr.sink_loc.Wap_php.Loc.line) in
  Alcotest.(check (list int)) "pass 2: the function's echo per iteration" [ 4; 4 ]
    (lines pass2);
  Alcotest.(check (list int)) "pass 2 without a pass-1 walk: the same" [ 4; 4 ]
    (lines (An.analyze_file_functions (An.project_state ~specs:[ spec ] ()) u));
  Alcotest.(check (list int)) "pass 3: the top-level echo per iteration" [ 3; 3 ]
    (lines pass3);
  Alcotest.(check (list int)) "finalize: one per echo" [ 4; 3 ]
    (lines (An.finalize ~units:[ u ] (pass2 @ pass3)));
  Alcotest.(check int) "analyze_program: one per echo" 2
    (List.length (An.analyze_program ~spec ~file program))

let test_dedup_key_groups () =
  let rfi = first ~vclass:VC.Rfi "include($_GET['p']);" in
  let lfi = first ~vclass:VC.Lfi "include($_GET['p']);" in
  Alcotest.(check bool) "same dedup key across Files classes" true
    (Tr.dedup_key rfi = Tr.dedup_key lfi)

let test_determinism () =
  let src =
    "$a = $_GET['a'];\nif (!is_numeric($a)) { die(1); }\n\
     mysql_query('SELECT * FROM t WHERE a = ' . $a);\necho $_GET['b'];"
  in
  let run () =
    List.map Tr.summary (analyze src)
  in
  Alcotest.(check (list string)) "same results twice" (run ()) (run ())

(* ------------------------------------------------------------------ *)
(* Hostile shapes.                                                     *)

(* A shape of n repetitions must cost O(n): the minor words [run ()]
   allocates, for [run = prepare n], must stay within 2.5x at n = 4,000
   of those at n = 2,000.  Minor words are deterministic, unlike time. *)
let allocates_linearly prepare =
  let minor_words n =
    let run = prepare n in
    let w0 = Gc.minor_words () in
    run ();
    Gc.minor_words () -. w0
  in
  let w2k = minor_words 2000 and w4k = minor_words 4000 in
  Alcotest.(check bool)
    (Printf.sprintf "n = 4,000 allocates <= 2.5x n = 2,000 (%.2fx)" (w4k /. w2k))
    true
    (w4k <= 2.5 *. w2k)

(* One file: [first], then [each i] for i = 1..n, then [last n];
   [check n] sees its candidates, inside the measurement. *)
let shape_allocates_linearly ~first ~each ~last check =
  allocates_linearly (fun n ->
      let src = "<?php\n" ^ first ^ String.concat "" (List.init n (fun i -> each (i + 1))) in
      let program = Wap_php.Parser.parse_string ~file:"shape.php" (src ^ last n) in
      fun () ->
        check n (An.analyze_program ~spec:(Cat.default_spec VC.Sqli) ~file:"shape.php" program))

let one_candidate = function
  | [ c ] -> c
  | cs -> Alcotest.failf "expected one candidate, got %d" (List.length cs)

(* Each hop of a copy chain adds one step to the origin: the chain must
   grow in constant time per hop, not copy the whole chain again. *)
let test_copy_chain_linear () =
  shape_allocates_linearly ~first:"$v0 = $_GET['x'];\n"
    ~each:(fun i -> Printf.sprintf "$v%d = $v%d;\n" i (i - 1))
    ~last:(Printf.sprintf "mysql_query($v%d);\n")
    (fun n cands ->
      let steps = Tr.steps (Tr.primary (one_candidate cands)) in
      Alcotest.(check int) "one step per hop" (n + 1) (List.length steps);
      Alcotest.(check int) "oldest step first" 2
        (List.hd steps).Tr.step_loc.Wap_php.Loc.line)

(* A string built from n pieces records n + 1 parts, the tainted one
   first. *)
let check_parts n cands =
  match Tr.parts (Tr.primary (one_candidate cands)) with
  | Tr.Qdyn :: lits -> Alcotest.(check int) "one part per piece" n (List.length lits)
  | _ -> Alcotest.fail "expected the tainted part first"

(* [$x = $_GET[1] . "a" . ...]: a left-nested concatenation is flattened
   in one pass, not by appending down its spine. *)
let test_concat_operands_linear () =
  shape_allocates_linearly ~first:"$x = $_GET[1]" ~each:(fun _ -> " . 'a'")
    ~last:(fun _ -> ";\nmysql_query($x);\n") check_parts

(* [$x .= "a";] repeated: each append conses onto the recorded parts. *)
let test_concat_assign_linear () =
  shape_allocates_linearly ~first:"$x = $_GET[1];\n" ~each:(fun _ -> "$x .= 'a';\n")
    ~last:(fun _ -> "mysql_query($x);\n") check_parts

(* [mysql_query($_GET[1] . "a" . ...)]: the symptom collector flattens
   the sink argument in one pass too. *)
let test_sink_concat_linear () =
  shape_allocates_linearly ~first:"mysql_query($_GET[1]" ~each:(fun _ -> " . 'a'")
    ~last:(fun _ -> ");\n")
    (fun _ cands -> ignore (Wap_mining.Evidence.collect (one_candidate cands)))

(* The rest of the shape zoo: shapes that were already linear.  The
   branch join ([if ($aI) { $x = $x . 'a'; } else { $yI = $x; }]) joins
   the zoo together with the [Env.merge] fix; it reads 3.92x today. *)

let flows_once _ cands = ignore (one_candidate cands)

(* [$x = ((((... $_GET[1] ...))));] *)
let test_deep_parentheses_linear () =
  shape_allocates_linearly ~first:"$x = " ~each:(fun _ -> "(")
    ~last:(fun n -> "$_GET[1]" ^ String.make n ')' ^ ";\nmysql_query($x);\n")
    flows_once

(* [if ($a1) { if ($a2) { ... mysql_query($_GET[1]); } ... }] *)
let test_nested_ifs_linear () =
  shape_allocates_linearly ~first:"" ~each:(Printf.sprintf "if ($a%d) {\n")
    ~last:(fun n -> "mysql_query($_GET[1]);\n" ^ String.make n '}')
    flows_once

(* [while ($a1) { while ($a2) { ... } ... }] around one flow *)
let test_nested_loops_linear () =
  shape_allocates_linearly ~first:"" ~each:(Printf.sprintf "while ($a%d) {\n")
    ~last:(fun n -> "mysql_query($_GET[1]);\n" ^ String.make n '}')
    flows_once

(* n functions, the last one called with tainted input *)
let test_many_functions_linear () =
  shape_allocates_linearly ~first:""
    ~each:(Printf.sprintf "function f%d($p) { return $p . 'a'; }\n")
    ~last:(Printf.sprintf "mysql_query(f%d($_GET[1]));\n")
    flows_once

(* [mysql_query(f(f(f(... $_GET[1] ...))));] *)
let test_deep_call_chain_linear () =
  shape_allocates_linearly ~first:"function f($p) { return $p; }\nmysql_query("
    ~each:(fun _ -> "f(")
    ~last:(fun n -> "$_GET[1]" ^ String.make n ')' ^ ");\n")
    flows_once

(* n variables in scope at the sink *)
let test_many_variables_linear () =
  shape_allocates_linearly ~first:"" ~each:(fun i -> Printf.sprintf "$v%d = $_GET[%d];\n" i i)
    ~last:(fun _ -> "mysql_query($v1);\n")
    flows_once

(* [$a = array($_GET[1], 'a', 'a', ...);] *)
let test_wide_array_linear () =
  shape_allocates_linearly ~first:"$a = array($_GET[1]" ~each:(fun _ -> ", 'a'")
    ~last:(fun _ -> ");\nmysql_query($a);\n")
    flows_once

(* n files, file i including file i + 1 and the last echoing [$_GET]:
   each include resolves by base name in constant time, not by a scan
   of every file. *)
let test_include_chain_linear () =
  allocates_linearly (fun n ->
      let units =
        project
          (List.init n (fun i ->
               ( Printf.sprintf "f%d.php" i,
                 if i < n - 1 then Printf.sprintf "<?php\ninclude 'f%d.php';\n" (i + 1)
                 else "<?php\necho $_GET['x'];\n" )))
      in
      fun () ->
        flows_once n (An.analyze_project ~spec:(Cat.default_spec VC.Xss_reflected) units))

(* ------------------------------------------------------------------ *)
(* Pass 2 reuses pass 1's walks exactly.                               *)

let wape_specs = Cat.specs_for VC.wape

let counter name = Wap_obs.Metrics.value (Wap_obs.Metrics.counter name)

(* [analyze_project_indexed] against the reference that walks every
   body again in pass 2; returns the (reused, re-analyzed) counter
   deltas of the indexed run. *)
let check_reuse_exact name units =
  let render = List.map (fun (i, c) -> (i, Tr.show_candidate c)) in
  let r0 = counter "taint.functions_reused"
  and a0 = counter "taint.functions_reanalyzed" in
  let got = An.analyze_project_indexed ~specs:wape_specs units in
  let counts =
    (counter "taint.functions_reused" - r0,
     counter "taint.functions_reanalyzed" - a0)
  in
  Alcotest.(check (list (pair int string)))
    (name ^ ": reuse = re-analysis")
    (render (Wap_fuzz.Oracle.rewalk_reference ~specs:wape_specs units))
    (render got);
  counts

let test_reuse_corpus_inputs () =
  let seeds =
    Sys.readdir "fuzz_seeds" |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".php")
    |> List.sort compare
  in
  Alcotest.(check bool) "fuzz seeds present" true (seeds <> []);
  List.iter
    (fun f ->
      let src = In_channel.with_open_bin (Filename.concat "fuzz_seeds" f) In_channel.input_all in
      let program = fst (Wap_php.Parser.parse_string_tolerant ~file:f src) in
      ignore (check_reuse_exact f [ { An.path = f; program } ]))
    seeds;
  List.iter
    (fun (name, app) -> ignore (check_reuse_exact name (project app)))
    [ ("blog", Fixtures.blog); ("store", Fixtures.store);
      ("wp plugin", Fixtures.wp_plugin);
      ("loop twice", [ ("loop.php", loop_twice_src) ]) ]

let test_reuse_forward_call () =
  (* [show] and [page] call [wrap] before pass 1 has seen it: pass 1
     lets their taint through, pass 2 must sanitize it *)
  let units =
    project
      [ ("a.php",
         "<?php\n\
          function show() { echo wrap($_GET['x']); }\n\
          function grab() { return $_GET['q']; }\n\
          function page() { echo wrap(grab()); }\n\
          show();\npage();\n");
        ("b.php",
         "<?php\n\
          function wrap($s) { return htmlspecialchars($s); }\n\
          function raw() { echo wrap($_POST['p']); echo $_POST['r']; }\n") ]
  in
  Alcotest.(check (pair int int)) "grab, wrap, raw reused; show, page walked"
    (3, 2) (check_reuse_exact "forward call" units)

let test_reuse_later_method () =
  let units =
    project
      [ ("repo.php",
         "<?php\n\
          class Repo {\n\
          \  function find() { mysql_query($this->clean($_GET['id'])); }\n\
          \  function clean($v) { return mysql_real_escape_string($v); }\n\
          }\n\
          $r = new Repo();\n$r->find();\n") ]
  in
  Alcotest.(check (pair int int)) "clean reused; find walked" (1, 1)
    (check_reuse_exact "later method" units)

let test_reuse_redeclared () =
  (* the table keeps the last registration: [render] runs against the
     sanitizing [fmt] of b.php in pass 2 *)
  let units =
    project
      [ ("a.php",
         "<?php\n\
          function render() { echo fmt($_GET['n']); }\n\
          function fmt($s) { return $s; }\n\
          echo fmt($_GET['m']);\n");
        ("b.php",
         "<?php\n\
          function fmt($s) { return htmlspecialchars($s); }\n\
          function other() { echo fmt($_COOKIE['c']); }\n") ]
  in
  Alcotest.(check (pair int int)) "only render walked" (3, 1)
    (check_reuse_exact "re-declared name" units)

let test_reuse_recursion () =
  let units =
    project
      [ ("r.php",
         "<?php\n\
          function fact($n, $q) {\n\
          \  if ($n) { return fact($n - 1, $q); }\n\
          \  mysql_query($q);\n\
          \  return $q;\n\
          }\n\
          function ping($x) { return pong($x); }\n\
          function pong($y) { if ($y) { return ping($y); } echo $y; return $_GET['z']; }\n\
          echo ping($_GET['a']);\n\
          fact(3, $_POST['q']);\n") ]
  in
  Alcotest.(check (pair int int)) "every recursive body walked" (0, 3)
    (check_reuse_exact "recursion" units)

let test_reuse_chain_leaf_last () =
  let units =
    project
      [ ("chain.php",
         "<?php\n\
          function top($a) { echo mid($_GET['e']); return mid($a); }\n\
          function mid($b) { return leaf($b); }\n\
          function leaf($c) { return htmlspecialchars($c); }\n\
          echo top($_GET['t']);\n") ]
  in
  Alcotest.(check (pair int int)) "both callers of the leaf walked" (1, 2)
    (check_reuse_exact "leaf declared last" units)

(* ------------------------------------------------------------------ *)
(* Taint vectors keep their per-id meaning.                            *)

module Env = Wap_taint.Env

let nids = 7

(* Origins shared physically by every id that draws them, so consecutive
   ids group into one entry, and origins made for one id alone. *)
let shared_origins =
  Array.init 3 (fun i ->
      { (Tr.origin ~source:(Printf.sprintf "$_GET['%d']" i) ~source_loc:Wap_php.Loc.dummy)
        with
        Tr.through = [ Printf.sprintf "f%d" i ];
        guards = List.filteri (fun j _ -> j <= i) [ "isset"; "is_numeric"; "preg_match" ] })

(* A per-id reference vector: one component per id. *)
let random_components rs =
  Array.init nids (fun id ->
      match Random.State.int rs 6 with
      | 0 | 1 -> None
      | 2 | 3 -> Some shared_origins.(0)
      | 4 -> Some shared_origins.(1 + Random.State.int rs 2)
      | _ ->
          Some
            { shared_origins.(Random.State.int rs 3) with
              Tr.source = Printf.sprintf "own %d" id;
              guards = [ "is_int" ] })

(* Two ways in: one id at a time, or one [of_origin] per shared origin
   overlaid. *)
let vector_of ~grouped (r : Tr.origin option array) =
  if not grouped then
    Env.of_list
      (List.filter_map (fun id -> Option.map (fun o -> (id, o)) r.(id)) (List.init nids Fun.id))
  else
    Array.fold_left
      (fun (acc, seen) o ->
        match o with
        | Some o when not (List.memq o seen) ->
            let ids =
              List.filter
                (fun id -> match r.(id) with Some o' -> o' == o | None -> false)
                (List.init nids Fun.id)
            in
            (Env.overlay acc (Env.of_origin ~ids o), o :: seen)
        | _ -> (acc, seen))
      (Env.clean, []) r
    |> fst

let random_ids rs = List.filter (fun _ -> Random.State.bool rs) (List.init nids Fun.id)

let show_component = function None -> "-" | Some o -> Tr.show_origin o

let check_vector name (expected : Tr.origin option array) t =
  Array.iteri
    (fun id o ->
      Alcotest.(check string) (Printf.sprintf "%s, id %d" name id) (show_component o)
        (show_component (Env.find t id)))
    expected;
  let seen = Array.make nids None in
  Env.iter (fun lo hi o -> for id = lo to hi do seen.(id) <- Some o done) t;
  Array.iteri
    (fun id o ->
      Alcotest.(check string) (Printf.sprintf "%s, iter at id %d" name id) (show_component o)
        (show_component seen.(id)))
    expected

let pointwise f a b = Array.init nids (fun id -> f a.(id) b.(id))

let join_ref o1 o2 =
  if o1 == o2 then o1 else { o1 with Tr.guards = Tr.inter_names o1.Tr.guards o2.Tr.guards }

let join_operands_ref o1 o2 =
  if o1 == o2 then o1
  else
    { o1 with
      Tr.through = Tr.union_names o1.Tr.through o2.Tr.through;
      guards = Tr.union_names o1.Tr.guards o2.Tr.guards }

let either both a b =
  match (a, b) with
  | Some x, Some y -> Some (both x y)
  | Some x, None | None, Some x -> Some x
  | None, None -> None

let test_env_vector_ops () =
  let rs = Random.State.make [| 2016 |] in
  for round = 1 to 300 do
    let ra = random_components rs and rb = random_components rs in
    let a = vector_of ~grouped:(round land 1 = 0) ra in
    let b = vector_of ~grouped:(round land 2 = 0) rb in
    let name op = Printf.sprintf "round %d: %s" round op in
    check_vector (name "build") ra a;
    let ids = random_ids rs in
    let within id = List.mem id ids in
    check_vector (name "restrict")
      (Array.mapi (fun id o -> if within id then o else None) ra)
      (Env.restrict a ids);
    check_vector (name "without")
      (Array.mapi (fun id o -> if within id then None else o) ra)
      (Env.without a ids);
    let o = shared_origins.(round mod 3) in
    check_vector (name "of_origin")
      (Array.init nids (fun id -> if within id then Some o else None))
      (Env.of_origin ~ids o);
    let calls = ref 0 and entries = ref 0 in
    Env.iter (fun _ _ _ -> incr entries) a;
    let f o =
      incr calls;
      Tr.add_through o "m"
    in
    check_vector (name "map_origins")
      (Array.map (Option.map (fun o -> Tr.add_through o "m")) ra)
      (Env.map_origins f a);
    Alcotest.(check bool) (name "map_origins: f at most once per entry") true
      (!calls <= !entries);
    check_vector (name "overlay")
      (pointwise (fun x y -> if x = None then y else x) ra rb)
      (Env.overlay a b);
    check_vector (name "join") (pointwise (either join_ref) ra rb) (Env.join a b);
    check_vector (name "join_operands")
      (pointwise (either join_operands_ref) ra rb)
      (Env.join_operands a b)
  done

(* Environments over three variables: a variable may be unbound, bound
   clean, or bound to a vector. *)
let env_keys = [ "a"; "b"; "c" ]

let random_env rs =
  List.map
    (fun k ->
      ( k,
        match Random.State.int rs 4 with
        | 0 -> None
        | 1 -> Some (Array.make nids None)
        | _ -> Some (random_components rs) ))
    env_keys

let env_of rs (r : (string * Tr.origin option array option) list) =
  List.fold_left
    (fun env (k, v) ->
      match v with
      | None -> env
      | Some c -> Env.set env k (vector_of ~grouped:(Random.State.bool rs) c))
    Env.empty r

let component (r : (string * Tr.origin option array option) list) k id =
  match List.assoc k r with None -> None | Some c -> c.(id)

let test_env_environment_ops () =
  let rs = Random.State.make [| 2016 |] in
  for round = 1 to 300 do
    let ra = random_env rs and rb = random_env rs in
    (* a later iteration usually keeps some bindings of the earlier one *)
    let rb =
      List.map2 (fun (k, x) (_, y) -> (k, if Random.State.bool rs then x else y)) ra rb
    in
    let a = env_of rs ra and b = env_of rs rb in
    let name op k = Printf.sprintf "round %d: %s $%s" round op k in
    let ids = random_ids rs in
    let merged = Env.merge a b and blended = Env.blend a ~from:b ids in
    List.iter
      (fun k ->
        check_vector (name "merge" k)
          (Array.init nids (fun id -> either join_ref (component ra k id) (component rb k id)))
          (Env.get merged k);
        check_vector (name "blend" k)
          (Array.init nids (fun id -> component (if List.mem id ids then rb else ra) k id))
          (Env.get blended k))
      env_keys;
    let keys r id = List.filter (fun k -> component r k id <> None) env_keys in
    Alcotest.(check (list int))
      (Printf.sprintf "round %d: changed" round)
      (List.filter (fun id -> keys ra id <> keys rb id) ids)
      (Env.changed ids a b)
  done

(* A loop where the specs settle after different numbers of
   iterations: SQLI's variables stop changing after one (its [$d] is
   sanitized), XSS-R's after three ([$d], then [$e], become tainted).
   The iterations SQLI sits out still move [$a]'s guards ([$a = $b]
   after [$b = $c]), so the fused run is right only if SQLI's settled
   environment is blended back. *)
let staggered_src =
  "<?php
$a = $_GET['a'];
$b = $_GET['b'];
   if (!is_numeric($a)) { die(); }
if (!is_numeric($b)) { die(); }
   $c = $_GET['c'];
   while ($i) {
  $e = $d;
  $d = mysql_real_escape_string($a);
  $a = $b;
  $b = $c;
}
   mysql_query($a);
echo $a;
echo $e;
"

let test_staggered_retirement () =
  let units = project [ ("loop.php", staggered_src) ] in
  let specs = [ Cat.default_spec VC.Sqli; Cat.default_spec VC.Xss_reflected ] in
  let r0 = counter "taint.loop_specs_retired" in
  let fused = An.analyze_project_indexed ~specs units in
  Alcotest.(check int) "SQLI retired while XSS-R iterated" 1
    (counter "taint.loop_specs_retired" - r0);
  List.iteri
    (fun id spec ->
      let single = An.analyze_project ~spec units in
      Alcotest.(check (list string))
        (Printf.sprintf "spec %d: fused = single-spec run" id)
        (List.map Tr.show_candidate single)
        (List.filter_map (fun (i, c) -> if i = id then Some (Tr.show_candidate c) else None) fused))
    specs;
  let sqli = Tr.primary (one_candidate (An.analyze_project ~spec:(List.hd specs) units)) in
  Alcotest.(check bool) "SQLI keeps the guard of its settled iteration" true
    (List.mem "is_numeric" sqli.Tr.guards)

(* Pass 1 must cost what differs between specs, not once per spec: on a
   function-heavy tree (two generated Table V packages), the full WAPe
   set may allocate at most 2.5x the minor words of one spec. *)
let test_pass1_allocation_per_spec () =
  let units =
    List.concat_map
      (fun profile ->
        let pkg = Wap_corpus.Appgen.of_webapp_profile ~seed:1 profile in
        project
          (List.map
             (fun (f : Wap_corpus.Appgen.file) ->
               (f.Wap_corpus.Appgen.f_name, f.Wap_corpus.Appgen.f_source))
             pkg.Wap_corpus.Appgen.pkg_files))
      (List.filteri (fun i _ -> i < 2) Wap_corpus.Profiles.vulnerable_webapps)
  in
  let pass1_words specs =
    let st = An.project_state ~specs () in
    let w0 = Gc.minor_words () in
    List.iter (An.summarize_file st) units;
    Gc.minor_words () -. w0
  in
  let one = pass1_words [ Cat.default_spec VC.Sqli ] and all = pass1_words wape_specs in
  Alcotest.(check bool)
    (Printf.sprintf "%d specs allocate <= 2.5x one spec (%.2fx)" (List.length wape_specs)
       (all /. one))
    true
    (all <= 2.5 *. one)

let qcheck_sanitizer_monotone =
  (* registering an extra sanitizer never increases the candidate count *)
  QCheck.Test.make ~name:"extra sanitizer is monotone" ~count:50
    QCheck.(int_bound 5_000)
    (fun seed ->
      let g = Wap_corpus.Snippet.make_gen ~seed in
      let snip = Wap_corpus.Snippet.generate g VC.Sqli Wap_corpus.Snippet.Real in
      let src = "<?php\n" ^ snip.Wap_corpus.Snippet.code in
      let program = Wap_php.Parser.parse_string ~file:"q.php" src in
      let spec = Cat.default_spec VC.Sqli in
      let more =
        { spec with Cat.sanitizers = Cat.San_fn "trim" :: spec.Cat.sanitizers }
      in
      let n1 = List.length (An.analyze_program ~spec ~file:"q.php" program) in
      let n2 = List.length (An.analyze_program ~spec:more ~file:"q.php" program) in
      n2 <= n1)

let qcheck_seeded_real_detected =
  (* every generated Real snippet is detected by its class's detector *)
  QCheck.Test.make ~name:"generated real vulns are detected" ~count:80
    QCheck.(int_bound 10_000)
    (fun seed ->
      let classes = VC.wape in
      let vclass = List.nth classes (seed mod List.length classes) in
      let g = Wap_corpus.Snippet.make_gen ~seed in
      let snip = Wap_corpus.Snippet.generate g vclass Wap_corpus.Snippet.Real in
      let src = "<?php\n" ^ snip.Wap_corpus.Snippet.code in
      let program = Wap_php.Parser.parse_string ~file:"q.php" src in
      let spec = Cat.default_spec vclass in
      An.analyze_program ~spec ~file:"q.php" program <> [])

let qcheck_sanitized_silent =
  QCheck.Test.make ~name:"generated sanitized flows are silent" ~count:80
    QCheck.(int_bound 10_000)
    (fun seed ->
      let classes =
        (* classes whose sanitized snippets use a genuine class sanitizer *)
        VC.[ Sqli; Xss_reflected; Rfi; Lfi; Dt_pt; Scd; Osci; Ldapi; Nosqli; Cs; Wp_sqli ]
      in
      let vclass = List.nth classes (seed mod List.length classes) in
      let g = Wap_corpus.Snippet.make_gen ~seed in
      let snip = Wap_corpus.Snippet.generate g vclass Wap_corpus.Snippet.Sanitized in
      let src = "<?php\n" ^ snip.Wap_corpus.Snippet.code in
      let program = Wap_php.Parser.parse_string ~file:"q.php" src in
      let spec = Cat.default_spec vclass in
      An.analyze_program ~spec ~file:"q.php" program = [])

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "wap_taint"
    [
      ( "dead code",
        [
          Alcotest.test_case "after exit" `Quick test_sink_after_exit_pruned;
          Alcotest.test_case "after return in function" `Quick
            test_sink_after_return_in_function_pruned;
          Alcotest.test_case "guarded die kept" `Quick
            test_sink_after_conditional_die_kept;
          Alcotest.test_case "hoisted function kept" `Quick
            test_sink_in_hoisted_function_kept;
        ] );
      ( "detection",
        [
          Alcotest.test_case "direct flow" `Quick test_direct_flow;
          Alcotest.test_case "variable chain" `Quick test_variable_chain;
          Alcotest.test_case "interpolation" `Quick test_interpolation_flow;
          Alcotest.test_case "concatenation" `Quick test_concat_flow;
          Alcotest.test_case ".= accumulation" `Quick test_compound_concat;
          Alcotest.test_case "clean code silent" `Quick test_clean_code_silent;
          Alcotest.test_case "all class sinks" `Quick test_per_class_sinks;
          Alcotest.test_case "method sinks" `Quick test_method_sink;
          Alcotest.test_case "exit sink" `Quick test_exit_sink;
          Alcotest.test_case "backtick sink" `Quick test_backtick_sink;
          Alcotest.test_case "sprintf flow" `Quick test_sprintf_flow;
          Alcotest.test_case "sprintf clean" `Quick test_sprintf_clean;
        ] );
      ( "sanitization",
        [
          Alcotest.test_case "sanitizer kills flow" `Quick test_sanitizer_kills;
          Alcotest.test_case "sanitizers are class-specific" `Quick
            test_sanitizer_is_class_specific;
          Alcotest.test_case "method sanitizer" `Quick test_sanitizer_method;
          Alcotest.test_case "user sanitizer via spec (V-A)" `Quick
            test_extra_sanitizer_via_spec;
        ] );
      ( "guards",
        [
          Alcotest.test_case "guard recorded" `Quick test_guard_recorded;
          Alcotest.test_case "die pattern" `Quick test_guard_die_pattern;
          Alcotest.test_case "polarity: else unguarded" `Quick
            test_guard_not_applied_in_other_branch;
          Alcotest.test_case "polarity: empty in else" `Quick
            test_guard_isset_negative_branch;
          Alcotest.test_case "conjunction" `Quick test_guard_conjunction;
          Alcotest.test_case "comparison guard" `Quick test_guard_comparison;
          Alcotest.test_case "manipulations recorded" `Quick
            test_through_records_manipulations;
          Alcotest.test_case "casts recorded" `Quick test_cast_evidence;
          Alcotest.test_case "query parts recorded" `Quick test_query_parts_recorded;
        ] );
      ( "interprocedural",
        [
          Alcotest.test_case "param to sink" `Quick test_param_to_sink;
          Alcotest.test_case "param to return" `Quick test_param_to_return;
          Alcotest.test_case "sanitizing wrapper" `Quick test_sanitizing_wrapper;
          Alcotest.test_case "source function" `Quick test_source_function;
          Alcotest.test_case "two-level chain" `Quick test_two_level_call_chain;
          Alcotest.test_case "superglobal inside function" `Quick
            test_superglobal_inside_function;
          Alcotest.test_case "method bodies" `Quick test_method_summary;
          Alcotest.test_case "closure bodies" `Quick test_closure_body;
        ] );
      ( "control flow",
        [
          Alcotest.test_case "loop fixpoint" `Quick test_loop_taint;
          Alcotest.test_case "foreach binding" `Quick test_foreach_binding;
          Alcotest.test_case "unset clears" `Quick test_unset_clears;
          Alcotest.test_case "branch merge" `Quick test_branch_merge;
          Alcotest.test_case "switch" `Quick test_switch_flow;
          Alcotest.test_case "stored XSS source" `Quick test_stored_xss_source;
          Alcotest.test_case "preg_replace /e" `Quick test_preg_replace_eval_modifier;
        ] );
      ( "cross-file & barriers",
        [
          Alcotest.test_case "include splicing" `Quick test_include_splicing;
          Alcotest.test_case "include cycle terminates" `Quick
            test_include_cycle_terminates;
          Alcotest.test_case "literal concat path" `Quick test_include_literal_concat;
          Alcotest.test_case "query handle barrier" `Quick test_query_handle_barrier;
          Alcotest.test_case "shared helper distinct flows" `Quick
            test_shared_helper_distinct_flows;
          Alcotest.test_case "fix functions recognized" `Quick
            test_fix_function_recognized;
        ] );
      ( "dedup & determinism",
        [
          Alcotest.test_case "loop dedup" `Quick test_candidate_dedup_same_sink;
          Alcotest.test_case "dedup key groups" `Quick test_dedup_key_groups;
          Alcotest.test_case "deterministic" `Quick test_determinism;
        ] );
      ( "hostile shapes",
        [ Alcotest.test_case "copy chain allocates linearly" `Quick
            test_copy_chain_linear;
          Alcotest.test_case "concat operands allocate linearly" `Quick
            test_concat_operands_linear;
          Alcotest.test_case "concat-assign chain allocates linearly" `Quick
            test_concat_assign_linear;
          Alcotest.test_case "sink concat argument allocates linearly" `Quick
            test_sink_concat_linear;
          Alcotest.test_case "deep parentheses allocate linearly" `Quick
            test_deep_parentheses_linear;
          Alcotest.test_case "nested ifs allocate linearly" `Quick
            test_nested_ifs_linear;
          Alcotest.test_case "nested loops allocate linearly" `Quick
            test_nested_loops_linear;
          Alcotest.test_case "many functions allocate linearly" `Quick
            test_many_functions_linear;
          Alcotest.test_case "deep call chain allocates linearly" `Quick
            test_deep_call_chain_linear;
          Alcotest.test_case "many variables allocate linearly" `Quick
            test_many_variables_linear;
          Alcotest.test_case "wide array literal allocates linearly" `Quick
            test_wide_array_linear;
          Alcotest.test_case "include chain allocates linearly" `Quick
            test_include_chain_linear ] );
      ( "pass-2 reuse",
        [
          Alcotest.test_case "fuzz seeds and fixture apps" `Quick
            test_reuse_corpus_inputs;
          Alcotest.test_case "call to a later file" `Quick test_reuse_forward_call;
          Alcotest.test_case "$this call to a later method" `Quick
            test_reuse_later_method;
          Alcotest.test_case "re-declared name" `Quick test_reuse_redeclared;
          Alcotest.test_case "self and mutual recursion" `Quick
            test_reuse_recursion;
          Alcotest.test_case "chain with the leaf last" `Quick
            test_reuse_chain_leaf_last;
        ] );
      ( "taint vectors",
        [
          Alcotest.test_case "vector operations per id" `Quick test_env_vector_ops;
          Alcotest.test_case "environment operations per id" `Quick
            test_env_environment_ops;
          Alcotest.test_case "staggered loop retirement" `Quick
            test_staggered_retirement;
          Alcotest.test_case "pass 1 allocation per spec" `Quick
            test_pass1_allocation_per_spec;
        ] );
      ( "properties",
        [ qt qcheck_sanitizer_monotone; qt qcheck_seeded_real_detected;
          qt qcheck_sanitized_silent ] );
    ]

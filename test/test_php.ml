(** Tests for the PHP front-end: lexer, parser, printer, visitor. *)

open Wap_php

let parse src = Parser.parse_string ~file:"test.php" ("<?php\n" ^ src)
let parse_raw src = Parser.parse_string ~file:"test.php" src

let tokens src =
  Lexer.tokenize ~file:"test.php" ("<?php " ^ src)
  |> List.map fst
  |> List.filter (fun t -> not (Token.equal t Token.EOF))

(* ------------------------------------------------------------------ *)
(* Lexer.                                                              *)

let test_lex_integers () =
  (match tokens "42 0x1F 007" with
  | [ Token.INT 42; Token.INT 31; Token.INT 7 ] -> ()
  | ts -> Alcotest.failf "unexpected: %s" (String.concat "," (List.map Token.show ts)))

let test_lex_floats () =
  match tokens "3.14 1e3 2.5e-2" with
  | [ Token.FLOAT a; Token.FLOAT b; Token.FLOAT c ] ->
      Alcotest.(check (float 1e-9)) "pi" 3.14 a;
      Alcotest.(check (float 1e-9)) "1e3" 1000.0 b;
      Alcotest.(check (float 1e-9)) "2.5e-2" 0.025 c
  | ts -> Alcotest.failf "unexpected: %s" (String.concat "," (List.map Token.show ts))

let test_lex_single_quoted () =
  match tokens {|'a\'b' 'c\\d' 'e\nf'|} with
  | [ Token.CONST_STRING a; Token.CONST_STRING b; Token.CONST_STRING c ] ->
      Alcotest.(check string) "escaped quote" "a'b" a;
      Alcotest.(check string) "escaped backslash" {|c\d|} b;
      (* \n is literal in single quotes *)
      Alcotest.(check string) "no newline escape" {|e\nf|} c
  | _ -> Alcotest.fail "expected three strings"

let test_lex_double_quoted_escapes () =
  match tokens {|"a\nb\tc\x41\\"|} with
  | [ Token.CONST_STRING s ] -> Alcotest.(check string) "escapes" "a\nb\tcA\\" s
  | ts -> Alcotest.failf "unexpected: %s" (String.concat "," (List.map Token.show ts))

let test_lex_interpolation_simple () =
  match tokens {|"hello $name!"|} with
  | [ Token.INTERP_STRING [ Token.Part_str "hello "; Token.Part_var "name"; Token.Part_str "!" ] ] ->
      ()
  | ts -> Alcotest.failf "unexpected: %s" (String.concat "," (List.map Token.show ts))

let test_lex_interpolation_index () =
  match tokens {|"v=$_GET[id]" "w=$a[0]" "x=$a[$k]"|} with
  | [ Token.INTERP_STRING [ _; Token.Part_index ("_GET", Token.Sub_name "id") ];
      Token.INTERP_STRING [ _; Token.Part_index ("a", Token.Sub_int 0) ];
      Token.INTERP_STRING [ _; Token.Part_index ("a", Token.Sub_var "k") ] ] ->
      ()
  | ts -> Alcotest.failf "unexpected: %s" (String.concat "," (List.map Token.show ts))

let test_lex_interpolation_prop_and_complex () =
  match tokens {|"p=$obj->name q={$a['x']}"|} with
  | [ Token.INTERP_STRING
        [ _; Token.Part_prop ("obj", "name"); _; Token.Part_complex "$a['x']" ] ] ->
      ()
  | ts -> Alcotest.failf "unexpected: %s" (String.concat "," (List.map Token.show ts))

let test_lex_heredoc () =
  let src = "<?php $x = <<<EOT\nhello $name\nEOT;\n" in
  let ts = Lexer.tokenize ~file:"t" src |> List.map fst in
  let has_interp =
    List.exists (function Token.INTERP_STRING _ -> true | _ -> false) ts
  in
  Alcotest.(check bool) "heredoc interpolates" true has_interp

let test_lex_nowdoc () =
  let src = "<?php $x = <<<'EOT'\nhello $name\nEOT;\n" in
  let ts = Lexer.tokenize ~file:"t" src |> List.map fst in
  let has_const =
    List.exists
      (function Token.CONST_STRING s -> s = "hello $name" | _ -> false)
      ts
  in
  Alcotest.(check bool) "nowdoc literal" true has_const

let test_lex_comments () =
  match tokens "1 // c\n + /* block\nmore */ 2 # hash\n" with
  | [ Token.INT 1; Token.PLUS; Token.INT 2 ] -> ()
  | ts -> Alcotest.failf "unexpected: %s" (String.concat "," (List.map Token.show ts))

let test_lex_keywords_case_insensitive () =
  match tokens "IF Else WHILE foreach" with
  | [ Token.K_IF; Token.K_ELSE; Token.K_WHILE; Token.K_FOREACH ] -> ()
  | ts -> Alcotest.failf "unexpected: %s" (String.concat "," (List.map Token.show ts))

let test_lex_operators_longest_match () =
  match tokens "<=> === !== **= <<= >>= ??= ... == <= && ?? ++ ->" with
  | [ Token.SPACESHIP; Token.IDENTICAL; Token.NOT_IDENTICAL; Token.POW_EQ;
      Token.SHL_EQ; Token.SHR_EQ; Token.QQ_EQ; Token.ELLIPSIS; Token.EQ_EQ;
      Token.LE; Token.AMP_AMP; Token.QQ; Token.INC; Token.ARROW ] ->
      ()
  | ts -> Alcotest.failf "unexpected: %s" (String.concat "," (List.map Token.show ts))

let test_lex_inline_html () =
  let ts = Lexer.tokenize ~file:"t" "<h1>Hi</h1><?php $x = 1; ?><p>bye</p>" in
  match List.map fst ts with
  | [ Token.INLINE_HTML "<h1>Hi</h1>"; Token.VARIABLE "x"; Token.EQ; Token.INT 1;
      Token.SEMI; Token.INLINE_HTML "<p>bye</p>"; Token.EOF ] ->
      ()
  | l -> Alcotest.failf "unexpected: %s" (String.concat "," (List.map Token.show l))

let test_lex_close_tag_no_double_semi () =
  (* `$x = 1; ?>` must not produce two semicolons *)
  let ts = Lexer.tokenize ~file:"t" "<?php $x = 1; ?>html" |> List.map fst in
  let semis = List.length (List.filter (Token.equal Token.SEMI) ts) in
  Alcotest.(check int) "one semi" 1 semis

let test_lex_error_unterminated_string () =
  try
    ignore (Lexer.tokenize ~file:"t" "<?php $x = 'oops");
    Alcotest.fail "expected lex error"
  with Lexer.Error (msg, _) ->
    Alcotest.(check string) "message" "unterminated single-quoted string" msg

let test_lex_error_bad_char () =
  (try
     ignore (Lexer.tokenize ~file:"t" "<?php $x = \x01;");
     Alcotest.fail "expected lex error"
   with Lexer.Error _ -> ())

let test_loc_tracking () =
  let ts = Lexer.tokenize ~file:"t" "<?php\n$x = 1;\n$y = 2;\n" in
  let var_locs =
    List.filter_map
      (fun (t, l) -> match t with Token.VARIABLE v -> Some (v, l.Loc.line) | _ -> None)
      ts
  in
  Alcotest.(check (list (pair string int))) "lines" [ ("x", 2); ("y", 3) ] var_locs

(* ------------------------------------------------------------------ *)
(* Parser.                                                             *)

let first_expr prog =
  match prog with
  | { Ast.s = Ast.Expr_stmt e; _ } :: _ -> e
  | _ -> Alcotest.fail "expected an expression statement"

let expr_of src = first_expr (parse src)

let test_parse_precedence_arith () =
  (* 1 + 2 * 3 parses as 1 + (2 * 3) *)
  match (expr_of "1 + 2 * 3;").Ast.e with
  | Ast.Binop (Ast.Plus, { e = Ast.Int 1; _ }, { e = Ast.Binop (Ast.Mul, _, _); _ }) -> ()
  | e -> Alcotest.failf "unexpected: %s" (Ast.show_expr_kind e)

let test_parse_concat_assoc () =
  (* 'a' . 'b' . 'c' is left-associative *)
  match (expr_of "'a' . 'b' . 'c';").Ast.e with
  | Ast.Binop (Ast.Concat, { e = Ast.Binop (Ast.Concat, _, _); _ }, { e = Ast.String "c"; _ }) ->
      ()
  | e -> Alcotest.failf "unexpected: %s" (Ast.show_expr_kind e)

let test_parse_pow_right_assoc () =
  match (expr_of "2 ** 3 ** 2;").Ast.e with
  | Ast.Binop (Ast.Pow, { e = Ast.Int 2; _ }, { e = Ast.Binop (Ast.Pow, _, _); _ }) -> ()
  | e -> Alcotest.failf "unexpected: %s" (Ast.show_expr_kind e)

let test_parse_assignment_chain () =
  match (expr_of "$a = $b = 1;").Ast.e with
  | Ast.Assign (Ast.A_eq, { e = Ast.Var "a"; _ }, { e = Ast.Assign (Ast.A_eq, _, _); _ }) -> ()
  | e -> Alcotest.failf "unexpected: %s" (Ast.show_expr_kind e)

let test_parse_assign_ref () =
  match (expr_of "$a = &$b;").Ast.e with
  | Ast.Assign_ref ({ e = Ast.Var "a"; _ }, { e = Ast.Var "b"; _ }) -> ()
  | e -> Alcotest.failf "unexpected: %s" (Ast.show_expr_kind e)

let test_parse_compound_assign () =
  match (expr_of "$s .= 'x';").Ast.e with
  | Ast.Assign (Ast.A_concat, _, _) -> ()
  | e -> Alcotest.failf "unexpected: %s" (Ast.show_expr_kind e)

let test_parse_ternary_and_elvis () =
  (match (expr_of "$a ? 1 : 2;").Ast.e with
  | Ast.Ternary (_, Some _, _) -> ()
  | e -> Alcotest.failf "unexpected: %s" (Ast.show_expr_kind e));
  match (expr_of "$a ?: 2;").Ast.e with
  | Ast.Ternary (_, None, _) -> ()
  | e -> Alcotest.failf "unexpected: %s" (Ast.show_expr_kind e)

let test_parse_coalesce () =
  match (expr_of "$a ?? $b ?? 0;").Ast.e with
  | Ast.Binop (Ast.Coalesce, _, { e = Ast.Binop (Ast.Coalesce, _, _); _ }) -> ()
  | e -> Alcotest.failf "unexpected: %s" (Ast.show_expr_kind e)

let test_parse_cast_vs_paren () =
  (match (expr_of "(int) $x;").Ast.e with
  | Ast.Cast (Ast.C_int, _) -> ()
  | e -> Alcotest.failf "cast expected: %s" (Ast.show_expr_kind e));
  (* ($x) is just a parenthesized variable *)
  match (expr_of "($x);").Ast.e with
  | Ast.Var "x" -> ()
  | e -> Alcotest.failf "paren expected: %s" (Ast.show_expr_kind e)

let test_parse_call_chains () =
  match (expr_of "$db->table('users')->where('id', 1)->first();").Ast.e with
  | Ast.Call (Ast.F_method ({ e = Ast.Call (Ast.F_method _, _); _ }, Ast.Mem_ident "first"), [])
    -> ()
  | e -> Alcotest.failf "unexpected: %s" (Ast.show_expr_kind e)

let test_parse_static_access () =
  (match (expr_of "Config::get('k');").Ast.e with
  | Ast.Call (Ast.F_static ("Config", "get"), _) -> ()
  | e -> Alcotest.failf "unexpected: %s" (Ast.show_expr_kind e));
  (match (expr_of "C::$prop;").Ast.e with
  | Ast.Static_prop ("C", "prop") -> ()
  | e -> Alcotest.failf "unexpected: %s" (Ast.show_expr_kind e));
  match (expr_of "C::K;").Ast.e with
  | Ast.Class_const ("C", "K") -> ()
  | e -> Alcotest.failf "unexpected: %s" (Ast.show_expr_kind e)

let test_parse_arrays () =
  (match (expr_of "array(1, 'k' => 2);").Ast.e with
  | Ast.Array_lit [ { ai_key = None; _ }; { ai_key = Some { e = Ast.String "k"; _ }; _ } ] -> ()
  | e -> Alcotest.failf "unexpected: %s" (Ast.show_expr_kind e));
  match (expr_of "[1, 2][0];").Ast.e with
  | Ast.Index ({ e = Ast.Array_lit _; _ }, Some _) -> ()
  | e -> Alcotest.failf "unexpected: %s" (Ast.show_expr_kind e)

let test_parse_variable_variable () =
  match (expr_of "$$name;").Ast.e with
  | Ast.Var_var { e = Ast.Var "name"; _ } -> ()
  | e -> Alcotest.failf "unexpected: %s" (Ast.show_expr_kind e)

let test_parse_closure () =
  match (expr_of "function ($x) use (&$acc, $cfg) { return $x; };").Ast.e with
  | Ast.Closure { cl_params = [ { p_name = "x"; _ } ];
                  cl_uses = [ (true, "acc"); (false, "cfg") ]; _ } ->
      ()
  | e -> Alcotest.failf "unexpected: %s" (Ast.show_expr_kind e)

let test_parse_if_chain () =
  match (parse "if ($a) { } elseif ($b) { } else if ($c) { } else { }" : Ast.program) with
  | [ { Ast.s = Ast.If (branches, Some _); _ } ] ->
      Alcotest.(check int) "branches" 3 (List.length branches)
  | _ -> Alcotest.fail "expected if"

let test_parse_alt_syntax () =
  let prog =
    parse_raw
      "<?php if ($a): ?>html<?php elseif ($b): ?>other<?php else: ?>none<?php endif; ?>"
  in
  match prog with
  | [ { Ast.s = Ast.If (branches, Some _); _ } ] ->
      Alcotest.(check int) "branches" 2 (List.length branches)
  | _ -> Alcotest.fail "expected alternative-syntax if"

let test_parse_loops () =
  let prog =
    parse
      "while ($a) { $a--; } do { $b++; } while ($b < 3); for ($i = 0; $i < 9; $i++) { } foreach ($xs as $k => &$v) { }"
  in
  match List.map (fun s -> s.Ast.s) prog with
  | [ Ast.While _; Ast.Do_while _; Ast.For _;
      Ast.Foreach (_, { fe_key = Some _; fe_by_ref = true; _ }, _) ] ->
      ()
  | _ -> Alcotest.fail "expected 4 loop statements"

let test_parse_switch () =
  let prog = parse "switch ($x) { case 1: $a = 1; break; case 2: default: $a = 3; }" in
  match prog with
  | [ { Ast.s = Ast.Switch (_, [ Ast.Case _; Ast.Case (_, []); Ast.Default _ ]); _ } ] -> ()
  | _ -> Alcotest.fail "expected switch with fallthrough case"

let test_parse_try_catch () =
  let prog =
    parse "try { risky(); } catch (A | B $e) { } catch (C) { } finally { done(); }"
  in
  match prog with
  | [ { Ast.s = Ast.Try (_, [ c1; c2 ], Some _); _ } ] ->
      Alcotest.(check (list string)) "types" [ "A"; "B" ] c1.Ast.c_types;
      Alcotest.(check (option string)) "var" (Some "e") c1.Ast.c_var;
      Alcotest.(check (option string)) "no var" None c2.Ast.c_var
  | _ -> Alcotest.fail "expected try/catch/finally"

let test_parse_function_def () =
  let prog = parse "function f(int $a, &$b, $c = 1, ...$rest): ?string { return 'x'; }" in
  match prog with
  | [ { Ast.s = Ast.Func_def f; _ } ] ->
      Alcotest.(check string) "name" "f" f.Ast.f_name;
      Alcotest.(check int) "params" 4 (List.length f.Ast.f_params);
      let b = List.nth f.Ast.f_params 1 in
      Alcotest.(check bool) "by ref" true b.Ast.p_by_ref;
      let rest = List.nth f.Ast.f_params 3 in
      Alcotest.(check bool) "variadic" true rest.Ast.p_variadic
  | _ -> Alcotest.fail "expected function"

let test_parse_class () =
  let prog =
    parse
      "abstract class Shop extends Base implements A, B {\n\
       const LIMIT = 10;\n\
       public static $count = 0;\n\
       private $items;\n\
       public function add($i) { $this->items[] = $i; }\n\
       abstract protected function render();\n\
       }"
  in
  match prog with
  | [ { Ast.s = Ast.Class_def k; _ } ] ->
      Alcotest.(check bool) "abstract" true k.Ast.k_abstract;
      Alcotest.(check (option string)) "parent" (Some "Base") k.Ast.k_parent;
      Alcotest.(check (list string)) "ifaces" [ "A"; "B" ] k.Ast.k_implements;
      Alcotest.(check int) "consts" 1 (List.length k.Ast.k_consts);
      Alcotest.(check int) "props" 2 (List.length k.Ast.k_props);
      Alcotest.(check int) "methods" 2 (List.length k.Ast.k_methods)
  | _ -> Alcotest.fail "expected class"

let test_parse_echo_multi () =
  match parse "echo 'a', $b, 1;" with
  | [ { Ast.s = Ast.Echo [ _; _; _ ]; _ } ] -> ()
  | _ -> Alcotest.fail "expected echo with three operands"

let test_parse_interp_becomes_ast () =
  match (expr_of "\"x {$a['k']} $b->c\";").Ast.e with
  | Ast.Interp parts ->
      let exprs =
        List.filter_map (function Ast.Ip_expr e -> Some e.Ast.e | _ -> None) parts
      in
      (match exprs with
      | [ Ast.Index _; Ast.Prop _ ] -> ()
      | _ -> Alcotest.fail "expected index + prop interpolations")
  | e -> Alcotest.failf "unexpected: %s" (Ast.show_expr_kind e)

let test_parse_word_ops_precedence () =
  (* $a = 1 and f() : `and` binds looser than `=` *)
  match (expr_of "$a = 1 and f();").Ast.e with
  | Ast.Binop (Ast.Bool_and, { e = Ast.Assign _; _ }, { e = Ast.Call _; _ }) -> ()
  | e -> Alcotest.failf "unexpected: %s" (Ast.show_expr_kind e)

let test_parse_heredoc_complex () =
  (* heredoc body with complex interpolation becomes an Interp expr *)
  let prog = parse_raw "<?php $msg = <<<EOT\nDear {$u['name']}, balance {$a->total}\nEOT;\n" in
  match prog with
  | [ { Ast.s = Ast.Expr_stmt { e = Ast.Assign (_, _, { e = Ast.Interp parts; _ }); _ }; _ } ] ->
      let dyn =
        List.length (List.filter (function Ast.Ip_expr _ -> true | _ -> false) parts)
      in
      Alcotest.(check int) "two interpolations" 2 dyn
  | _ -> Alcotest.fail "expected assignment of interpolated heredoc"

let test_parse_nested_closures () =
  match (expr_of "function ($x) { return function ($y) use ($x) { return $x + $y; }; };").Ast.e with
  | Ast.Closure { cl_body = [ { s = Ast.Return (Some { e = Ast.Closure inner; _ }); _ } ]; _ }
    ->
      Alcotest.(check int) "inner use" 1 (List.length inner.Ast.cl_uses)
  | e -> Alcotest.failf "unexpected: %s" (Ast.show_expr_kind e)

let test_parse_static_closure () =
  match (expr_of "static function () { return 1; };").Ast.e with
  | Ast.Closure { cl_static = true; _ } -> ()
  | e -> Alcotest.failf "unexpected: %s" (Ast.show_expr_kind e)

let test_parse_list_in_foreach () =
  let prog = parse "foreach ($pairs as list($k, $v)) { echo $k; }" in
  match prog with
  | [ { Ast.s = Ast.Foreach (_, { fe_value = { e = Ast.List [ Some _; Some _ ]; _ }; _ }, _); _ } ]
    -> ()
  | _ -> Alcotest.fail "expected list() destructuring in foreach"

let test_parse_backtick () =
  match (expr_of "`ls -l $dir`;").Ast.e with
  | Ast.Backtick parts ->
      Alcotest.(check bool) "interpolates" true
        (List.exists (function Ast.Ip_expr _ -> true | _ -> false) parts)
  | e -> Alcotest.failf "unexpected: %s" (Ast.show_expr_kind e)

let test_parse_short_echo () =
  let prog = parse_raw "before <?= $x ?> after" in
  match List.map (fun s -> s.Ast.s) prog with
  | [ Ast.Inline_html _; Ast.Echo [ { e = Ast.Var "x"; _ } ]; Ast.Inline_html _ ] -> ()
  | _ -> Alcotest.fail "expected inline-html / echo / inline-html"

let test_parse_new_with_dynamic_class () =
  match (expr_of "new $cls(1);").Ast.e with
  | Ast.New ("$cls", [ _ ]) -> ()
  | e -> Alcotest.failf "unexpected: %s" (Ast.show_expr_kind e)

let test_parse_error_reports_location () =
  try
    ignore (parse "if ($a { }");
    Alcotest.fail "expected parse error"
  with Parser.Error (_, loc) -> Alcotest.(check string) "file" "test.php" loc.Loc.file

let test_parse_include_exit () =
  let prog = parse "include 'a.php'; require_once($p); exit(1); die();" in
  match List.map (fun s -> s.Ast.s) prog with
  | [ Ast.Expr_stmt { e = Ast.Include (Ast.Inc, _); _ };
      Ast.Expr_stmt { e = Ast.Include (Ast.Req_once, _); _ };
      Ast.Expr_stmt { e = Ast.Exit (Some _); _ };
      Ast.Expr_stmt { e = Ast.Exit None; _ } ] ->
      ()
  | _ -> Alcotest.fail "expected include/require/exit statements"

let test_tolerant_parsing () =
  let prog, errs =
    Parser.parse_string_tolerant ~file:"t.php"
      "<?php\n$ok1 = 1;\nif ($broken { }\n$ok2 = 2;\nfunction f() { return 3; }\n"
  in
  Alcotest.(check bool) "errors recovered" true (List.length errs >= 1);
  let assigns =
    List.filter
      (fun (s : Ast.stmt) ->
        match s.Ast.s with Ast.Expr_stmt { e = Ast.Assign _; _ } -> true | _ -> false)
      prog
  in
  Alcotest.(check int) "statements around the error survive" 2 (List.length assigns);
  Alcotest.(check bool) "function survives" true
    (List.exists
       (fun (s : Ast.stmt) -> match s.Ast.s with Ast.Func_def _ -> true | _ -> false)
       prog)

let test_tolerant_parsing_clean_input () =
  let prog, errs = Parser.parse_string_tolerant ~file:"t.php" "<?php\n$a = 1;\necho $a;\n" in
  Alcotest.(check int) "no errors" 0 (List.length errs);
  Alcotest.(check int) "all statements" 2 (List.length prog)

let test_tolerant_parsing_lex_error () =
  let _, errs = Parser.parse_string_tolerant ~file:"t.php" "<?php $x = 'unterminated" in
  Alcotest.(check bool) "lex error recovered" true (List.length errs >= 1)

(* ------------------------------------------------------------------ *)
(* Printer.                                                            *)

let normalize src = Printer.program_to_string (parse_raw src)

let test_print_parse_stable src () =
  let once = normalize src in
  let twice = Printer.program_to_string (parse_raw once) in
  Alcotest.(check string) "printer stable" once twice

let sample_sources =
  [
    "<?php $q = \"SELECT * FROM t WHERE a = '$x' AND b = {$y['k']}\"; mysql_query($q);";
    "<?php function f($a = array(1, 2), &$b = null) { return $a ?: $b; }";
    "<?php class C extends D { public function m() { return parent::m() + 1; } }";
    "<?php foreach ($rows as $k => $v): ?>\n<li><?= $v ?></li>\n<?php endforeach; ?>";
    "<?php $f = function ($x) use (&$s) { $s .= $x; return strlen($s); };";
    "<?php switch ($c) { case 'a': f(); break; default: g(); } ?>tail";
    "<?php try { f(); } catch (E $e) { log_it($e); } finally { done(); }";
    "<?php $a[$i]{0} = $b ? -1 : +2; @unlink('/tmp/x'); print $a <=> $b;";
    "<?php echo <<<EOT\nDear $name,\nbye\nEOT; echo 'done';";
    "<?php list($a, , $b) = explode(',', $line); $x = isset($a) ? (int) $a : 0;";
  ]

let test_escape_round_trip () =
  (* strings with every nasty character survive print -> parse *)
  let nasty = "a'b\"c\\d\ne\tf$g{h}" in
  let e = Ast.str nasty in
  let printed = Printer.expr_to_string e in
  let back = Parser.parse_expression printed in
  match back.Ast.e with
  | Ast.String s -> Alcotest.(check string) "round trip" nasty s
  | _ -> Alcotest.fail "expected string literal"

let test_lex_int_overflow () =
  (* literals beyond 2^63-1 lex as floats, PHP-style, instead of
     raising Failure from int_of_string *)
  (match tokens "0xFFFFFFFFFFFFFFFF 9223372036854775808 0x10000000000000000" with
  | [ Token.FLOAT a; Token.FLOAT b; Token.FLOAT c ] ->
      Alcotest.(check (float 1e6)) "0xFFFF... ~ 2^64" 1.8446744073709552e19 a;
      Alcotest.(check (float 1e6)) "2^63" 9.223372036854776e18 b;
      Alcotest.(check (float 1e6)) "0x1_0000... ~ 2^64" 1.8446744073709552e19 c
  | ts ->
      Alcotest.failf "unexpected: %s"
        (String.concat "," (List.map Token.show ts)));
  (* a too-large subscript inside interpolation degrades to a bareword
     key rather than crashing the lexer *)
  match tokens {|"$a[99999999999999999999]"|} with
  | [ Token.INTERP_STRING
        [ Token.Part_index ("a", Token.Sub_name "99999999999999999999") ] ] ->
      ()
  | ts ->
      Alcotest.failf "unexpected: %s" (String.concat "," (List.map Token.show ts))

let test_print_right_assoc_parens () =
  (* ?? and ** parse right-associatively, so a left-nested tree must
     keep its parentheses when printed *)
  Alcotest.(check string) "left-nested coalesce"
    "<?php\n($_POST ?? 0) ?? 0;\n" (normalize "<?php ($_POST ?? 0) ?? 0;");
  Alcotest.(check string) "right-nested coalesce needs none"
    "<?php\n$_POST ?? 0 ?? 0;\n" (normalize "<?php $_POST ?? 0 ?? 0;");
  Alcotest.(check string) "left-nested pow"
    "<?php\n(2 ** 3) ** 2;\n" (normalize "<?php (2 ** 3) ** 2;")

let test_print_nested_unary () =
  (* -(-$x) must not print as --$x, which re-lexes as pre-decrement *)
  Alcotest.(check string) "double minus"
    "<?php\n-(-$x);\n" (normalize "<?php - -$x;");
  Alcotest.(check string) "double plus"
    "<?php\n+(+$x);\n" (normalize "<?php + +$x;")

let test_print_float_spelling () =
  (* overflowing literals become infinite floats; the printer must emit
     a PHP-lexable spelling, and finite floats must round-trip exactly *)
  Alcotest.(check string) "infinity prints as an overflowing literal"
    "<?php\n$f = 1.0e400;\n" (normalize "<?php $f = 1e309;");
  Alcotest.(check string) "17 significant digits survive"
    "<?php\n$g = 0.30000000000000004;\n"
    (normalize "<?php $g = 0.30000000000000004;");
  Alcotest.(check string) "negative infinity"
    "-1.0e400" (Printer.expr_to_string (Ast.mk_e (Ast.Float neg_infinity)));
  match (Parser.parse_expression (Printer.expr_to_string (Ast.mk_e (Ast.Float nan)))).Ast.e with
  | Ast.Binop (Ast.Div, _, _) -> ()
  | _ -> Alcotest.fail "NaN must print as a parseable expression"

let test_print_backtick_escape () =
  (* a literal backtick inside the backtick operator is re-escaped *)
  Alcotest.(check string) "escaped backtick survives"
    "<?php\n$out = `ls \\`pwd\\``;\n"
    (normalize "<?php $out = `ls \\`pwd\\``;");
  let once = normalize "<?php $out = `ls \\`pwd\\``;" in
  Alcotest.(check string) "and is a fixpoint" once (normalize once)

(* ------------------------------------------------------------------ *)
(* Visitor.                                                            *)

let test_visitor_named_calls () =
  let prog = parse "f(1); $o->g(2); H::i(3); $fn(4);" in
  let names = List.map (fun (n, _, _) -> n) (Visitor.named_calls prog) in
  Alcotest.(check (list string)) "calls" [ "f"; "g"; "h::i" ] names

let test_visitor_collect_functions () =
  let prog =
    parse
      "function top() { function nested() { } }\n\
       class K { public function m() { } }\n\
       if (true) { function conditional() { } }"
  in
  let names = List.map (fun f -> f.Ast.f_name) (Visitor.collect_functions prog) in
  Alcotest.(check (list string)) "functions"
    [ "top"; "nested"; "m"; "conditional" ] names

let test_visitor_map_expr_identity () =
  let prog = parse_raw (List.nth sample_sources 0) in
  let mapped = Visitor.map_stmts (fun e -> e) prog in
  Alcotest.(check bool) "identity map" true (Ast.equal_program prog mapped)

let test_visitor_map_expr_rewrites () =
  let prog = parse "echo $x;" in
  let mapped =
    Visitor.map_stmts
      (fun e ->
        match e.Ast.e with
        | Ast.Var "x" -> Ast.call "wrap" [ e ]
        | _ -> e)
      prog
  in
  match mapped with
  | [ { Ast.s = Ast.Echo [ { e = Ast.Call (Ast.F_ident "wrap", _); _ } ]; _ } ] -> ()
  | _ -> Alcotest.fail "expected wrapped echo argument"

let test_visitor_stmt_count () =
  let prog = parse "$a = 1; if ($a) { $b = 2; } while ($a) { $a--; }" in
  Alcotest.(check int) "stmt count" 5 (Visitor.stmt_count prog)

(* ------------------------------------------------------------------ *)
(* Property tests.                                                     *)

let qcheck_lexer_totality =
  QCheck.Test.make ~name:"lexer raises only Lexer.Error" ~count:300
    QCheck.(string_gen_of_size (Gen.int_range 0 80) Gen.printable)
    (fun s ->
      match Lexer.tokenize ~file:"q" ("<?php " ^ s) with
      | _ -> true
      | exception Lexer.Error _ -> true)

let qcheck_printer_idempotent =
  (* corpus snippets are arbitrary-ish PHP programs: printing is a
     fixpoint after one normalization *)
  QCheck.Test.make ~name:"printer idempotent on generated PHP" ~count:60
    QCheck.(int_bound 10_000)
    (fun seed ->
      let g = Wap_corpus.Snippet.make_gen ~seed in
      let classes = Wap_catalog.Vuln_class.wape in
      let vclass = List.nth classes (seed mod List.length classes) in
      let labels = Wap_corpus.Snippet.[ Real; Fp_easy; Fp_hard; Sanitized ] in
      let label = List.nth labels (seed mod 4) in
      let snip = Wap_corpus.Snippet.generate g vclass label in
      let src = "<?php\n" ^ snip.Wap_corpus.Snippet.code in
      let once = Printer.program_to_string (parse_raw src) in
      let twice = Printer.program_to_string (parse_raw once) in
      String.equal once twice)

let qcheck_int_literal_roundtrip =
  QCheck.Test.make ~name:"integer literal round trip" ~count:200 QCheck.int
    (fun n ->
      let printed = Printer.expr_to_string (Ast.int_ n) in
      match (Parser.parse_expression printed).Ast.e with
      | Ast.Int m -> m = n
      | Ast.Unop (Ast.Neg, { e = Ast.Int m; _ }) -> -m = n
      | _ -> false)

let qcheck_string_literal_roundtrip =
  QCheck.Test.make ~name:"string literal round trip" ~count:200
    QCheck.(string_gen_of_size (Gen.int_range 0 30) Gen.char)
    (fun s ->
      let printed = Printer.expr_to_string (Ast.str s) in
      match (Parser.parse_expression printed).Ast.e with
      | Ast.String s' -> String.equal s s'
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Token buffer and the zero-allocation scanner.                       *)

let test_token_buf_roundtrip () =
  let keywords = List.map snd Token.keyword_table in
  let punct =
    Token.
      [ LPAREN; RPAREN; LBRACE; RBRACE; LBRACKET; RBRACKET; SEMI; COMMA;
        COLON; DOUBLE_COLON; ARROW; DOUBLE_ARROW; QUESTION; QQ; QQ_EQ; AT;
        DOLLAR; ELLIPSIS; PLUS; MINUS; STAR; SLASH; PERCENT; POW; DOT; EQ;
        PLUS_EQ; MINUS_EQ; STAR_EQ; SLASH_EQ; PERCENT_EQ; DOT_EQ; POW_EQ;
        AMP_EQ; PIPE_EQ; CARET_EQ; SHL_EQ; SHR_EQ; EQ_EQ; NEQ; IDENTICAL;
        NOT_IDENTICAL; LT; GT; LE; GE; SPACESHIP; AMP_AMP; PIPE_PIPE; BANG;
        AMP; PIPE; CARET; TILDE; SHL; SHR; INC; DEC; EOF ]
  in
  let boxed =
    Token.
      [ INT 42; INT min_int; FLOAT 3.14; CONST_STRING "s'\n";
        INTERP_STRING [ Part_str "a"; Part_var "v"; Part_complex "$x+1" ];
        VARIABLE "x"; IDENT "strlen"; INLINE_HTML "<b>&amp;</b>";
        BACKTICK_STRING [ Part_str "ls "; Part_var "dir" ] ]
  in
  let toks = keywords @ punct @ boxed in
  let buf = Token_buf.create ~capacity:1 ~file:"t.php" () in
  List.iteri (fun i t -> Token_buf.push buf t ~line:(i + 1) ~col:(2 * i)) toks;
  Alcotest.(check int) "length" (List.length toks) (Token_buf.length buf);
  Alcotest.(check string) "file" "t.php" (Token_buf.file buf);
  List.iteri
    (fun i t ->
      if not (Token.equal (Token_buf.tok buf i) t) then
        Alcotest.failf "token %d: pushed %s, read back %s" i (Token.show t)
          (Token.show (Token_buf.tok buf i));
      Alcotest.(check int) "line" (i + 1) (Token_buf.line buf i);
      Alcotest.(check int) "col" (2 * i) (Token_buf.col buf i))
    toks;
  match Token_buf.last_tok buf with
  | Some t when Token.equal t (List.nth toks (List.length toks - 1)) -> ()
  | t ->
      Alcotest.failf "last_tok: %s"
        (match t with Some t -> Token.show t | None -> "None")

(* line/col pack into one immediate int; extreme values must survive. *)
let test_token_buf_loc_packing () =
  let buf = Token_buf.create ~file:"big.php" () in
  let cases =
    [ (1, 0); (1, 1); (123_456, 789); (1 lsl 30, (1 lsl 31) - 1) ]
  in
  List.iter (fun (line, col) -> Token_buf.push buf Token.SEMI ~line ~col) cases;
  List.iteri
    (fun i (line, col) ->
      Alcotest.(check int) "line" line (Token_buf.line buf i);
      Alcotest.(check int) "col" col (Token_buf.col buf i);
      let l = Token_buf.loc buf i in
      if not (Loc.equal l (Loc.make ~file:"big.php" ~line ~col)) then
        Alcotest.failf "loc %d: %s" i (Loc.to_string l))
    cases

(* Repeated identifiers, variables and plain strings come back as the
   same physical token: the scanner hashconses per tokenize call. *)
let test_lexer_interning_identity () =
  let toks =
    Lexer.tokenize ~file:"i.php"
      "<?php $foo = $foo + $foo; bar(); bar(); $s = 'dup'; $t = 'dup';"
    |> List.map fst
  in
  let physical_pair name pick =
    match List.filter pick toks with
    | a :: b :: _ ->
        if not (a == b) then Alcotest.failf "%s tokens not shared" name
    | _ -> Alcotest.failf "expected %s at least twice" name
  in
  physical_pair "VARIABLE foo"
    (function Token.VARIABLE "foo" -> true | _ -> false);
  physical_pair "IDENT bar" (function Token.IDENT "bar" -> true | _ -> false);
  physical_pair "CONST_STRING dup"
    (function Token.CONST_STRING "dup" -> true | _ -> false)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "wap_php"
    [
      ( "lexer",
        [
          Alcotest.test_case "integers" `Quick test_lex_integers;
          Alcotest.test_case "floats" `Quick test_lex_floats;
          Alcotest.test_case "single quoted" `Quick test_lex_single_quoted;
          Alcotest.test_case "double quoted escapes" `Quick test_lex_double_quoted_escapes;
          Alcotest.test_case "interpolation: simple" `Quick test_lex_interpolation_simple;
          Alcotest.test_case "interpolation: index" `Quick test_lex_interpolation_index;
          Alcotest.test_case "interpolation: prop/complex" `Quick
            test_lex_interpolation_prop_and_complex;
          Alcotest.test_case "heredoc" `Quick test_lex_heredoc;
          Alcotest.test_case "nowdoc" `Quick test_lex_nowdoc;
          Alcotest.test_case "comments" `Quick test_lex_comments;
          Alcotest.test_case "keywords case-insensitive" `Quick
            test_lex_keywords_case_insensitive;
          Alcotest.test_case "operators longest match" `Quick
            test_lex_operators_longest_match;
          Alcotest.test_case "inline html" `Quick test_lex_inline_html;
          Alcotest.test_case "close tag semicolon" `Quick test_lex_close_tag_no_double_semi;
          Alcotest.test_case "error: unterminated string" `Quick
            test_lex_error_unterminated_string;
          Alcotest.test_case "error: bad char" `Quick test_lex_error_bad_char;
          Alcotest.test_case "location tracking" `Quick test_loc_tracking;
        ] );
      ( "parser",
        [
          Alcotest.test_case "arithmetic precedence" `Quick test_parse_precedence_arith;
          Alcotest.test_case "concat associativity" `Quick test_parse_concat_assoc;
          Alcotest.test_case "pow right assoc" `Quick test_parse_pow_right_assoc;
          Alcotest.test_case "assignment chain" `Quick test_parse_assignment_chain;
          Alcotest.test_case "assign by reference" `Quick test_parse_assign_ref;
          Alcotest.test_case "compound assign" `Quick test_parse_compound_assign;
          Alcotest.test_case "ternary / elvis" `Quick test_parse_ternary_and_elvis;
          Alcotest.test_case "null coalesce" `Quick test_parse_coalesce;
          Alcotest.test_case "cast vs paren" `Quick test_parse_cast_vs_paren;
          Alcotest.test_case "method call chain" `Quick test_parse_call_chains;
          Alcotest.test_case "static access" `Quick test_parse_static_access;
          Alcotest.test_case "arrays" `Quick test_parse_arrays;
          Alcotest.test_case "variable variable" `Quick test_parse_variable_variable;
          Alcotest.test_case "closure" `Quick test_parse_closure;
          Alcotest.test_case "if chain" `Quick test_parse_if_chain;
          Alcotest.test_case "alternative syntax" `Quick test_parse_alt_syntax;
          Alcotest.test_case "loops" `Quick test_parse_loops;
          Alcotest.test_case "switch" `Quick test_parse_switch;
          Alcotest.test_case "try/catch/finally" `Quick test_parse_try_catch;
          Alcotest.test_case "function definition" `Quick test_parse_function_def;
          Alcotest.test_case "class definition" `Quick test_parse_class;
          Alcotest.test_case "echo with commas" `Quick test_parse_echo_multi;
          Alcotest.test_case "interpolation to AST" `Quick test_parse_interp_becomes_ast;
          Alcotest.test_case "word operators" `Quick test_parse_word_ops_precedence;
          Alcotest.test_case "heredoc complex interpolation" `Quick
            test_parse_heredoc_complex;
          Alcotest.test_case "nested closures" `Quick test_parse_nested_closures;
          Alcotest.test_case "static closure" `Quick test_parse_static_closure;
          Alcotest.test_case "list() in foreach" `Quick test_parse_list_in_foreach;
          Alcotest.test_case "backtick" `Quick test_parse_backtick;
          Alcotest.test_case "short echo tag" `Quick test_parse_short_echo;
          Alcotest.test_case "new with dynamic class" `Quick
            test_parse_new_with_dynamic_class;
          Alcotest.test_case "error location" `Quick test_parse_error_reports_location;
          Alcotest.test_case "include / exit" `Quick test_parse_include_exit;
          Alcotest.test_case "tolerant: recovery" `Quick test_tolerant_parsing;
          Alcotest.test_case "tolerant: clean input" `Quick
            test_tolerant_parsing_clean_input;
          Alcotest.test_case "tolerant: lex error" `Quick test_tolerant_parsing_lex_error;
        ] );
      ( "printer",
        List.mapi
          (fun i src ->
            Alcotest.test_case (Printf.sprintf "stability sample %d" i) `Quick
              (test_print_parse_stable src))
          sample_sources
        @ [
            Alcotest.test_case "escape round trip" `Quick test_escape_round_trip;
            Alcotest.test_case "lexer: int overflow to float" `Quick
              test_lex_int_overflow;
            Alcotest.test_case "right-assoc ops keep parens" `Quick
              test_print_right_assoc_parens;
            Alcotest.test_case "nested unary sign" `Quick test_print_nested_unary;
            Alcotest.test_case "float spelling" `Quick test_print_float_spelling;
            Alcotest.test_case "backtick escape" `Quick test_print_backtick_escape;
          ] );
      ( "visitor",
        [
          Alcotest.test_case "named calls" `Quick test_visitor_named_calls;
          Alcotest.test_case "collect functions" `Quick test_visitor_collect_functions;
          Alcotest.test_case "map identity" `Quick test_visitor_map_expr_identity;
          Alcotest.test_case "map rewrites" `Quick test_visitor_map_expr_rewrites;
          Alcotest.test_case "stmt count" `Quick test_visitor_stmt_count;
        ] );
      ( "token buffer",
        [
          Alcotest.test_case "round trip" `Quick test_token_buf_roundtrip;
          Alcotest.test_case "loc packing" `Quick test_token_buf_loc_packing;
          Alcotest.test_case "interning identity" `Quick
            test_lexer_interning_identity;
        ] );
      ( "properties",
        [
          qt qcheck_lexer_totality;
          qt qcheck_printer_idempotent;
          qt qcheck_int_literal_roundtrip;
          qt qcheck_string_literal_roundtrip;
        ] );
    ]

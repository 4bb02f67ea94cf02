(** Conformance dump of the PHP front-end.  For each input: the
    {!Lexer.tokenize_buf} stream, one token per line with its line:col
    (or the lexical error), then the {!Parser.parse_string_tolerant}
    result, each statement as an S-expression whose located nodes carry
    [@line:col], then the recovered errors.  The inputs are the PHP
    files named on the command line (in sorted order), the fuzz
    generator's raw fragment pool and the fixture apps. *)

open Wap_php

let float f = Printf.sprintf "%.17g" f

(* [Token.pp] on one line, with floats at full precision. *)
let token = function
  | Token.FLOAT f -> "(Token.FLOAT " ^ float f ^ ")"
  | t ->
      Format.asprintf "%t" (fun fmt ->
          Format.pp_set_margin fmt 1_000_000;
          Format.pp_set_max_indent fmt 999_999;
          Token.pp fmt t)

(* ------------------------------------------------------------------ *)
(* The AST as S-expressions.                                           *)

type sx = Atom of string | Node of string * sx list

let a s = Atom s
let nd head xs = Node (head, xs)
let at name (l : Loc.t) xs = Node (Printf.sprintf "%s@%d:%d" name l.line l.col, xs)
let str s = Atom (Printf.sprintf "%S" s)
let int i = Atom (string_of_int i)
let opt f = function None -> Atom "_" | Some x -> f x
let field name f = function None -> [] | Some x -> [ nd name [ f x ] ]
let flag name b = if b then [ Atom name ] else []

(* A derived [show] without its module prefix: ["Ast.Concat"] -> ["Concat"]. *)
let tag show x =
  let s = show x in
  a (String.sub s 4 (String.length s - 4))

let rec expr (x : Ast.expr) =
  let n name xs = at name x.eloc xs in
  match x.e with
  | Ast.Int i -> n "Int" [ int i ]
  | Ast.Float f -> n "Float" [ a (float f) ]
  | Ast.String s -> n "String" [ str s ]
  | Ast.Interp ps -> n "Interp" (List.map interp ps)
  | Ast.Var v -> n "Var" [ a v ]
  | Ast.Var_var e -> n "Var_var" [ expr e ]
  | Ast.Constant c -> n "Constant" [ a c ]
  | Ast.Array_lit items ->
      let item (i : Ast.array_item) =
        nd (if i.ai_by_ref then "item&" else "item")
          (Option.to_list (Option.map expr i.ai_key) @ [ expr i.ai_value ])
      in
      n "Array_lit" (List.map item items)
  | Ast.Index (e, i) -> n "Index" [ expr e; opt expr i ]
  | Ast.Prop (e, m) -> n "Prop" [ expr e; member m ]
  | Ast.Static_prop (c, p) -> n "Static_prop" [ a c; a p ]
  | Ast.Class_const (c, k) -> n "Class_const" [ a c; a k ]
  | Ast.Call (f, args) -> n "Call" (callee f :: List.map arg args)
  | Ast.New (c, args) -> n "New" (a c :: List.map arg args)
  | Ast.Clone e -> n "Clone" [ expr e ]
  | Ast.Binop (op, l, r) -> n "Binop" [ tag Ast.show_binop op; expr l; expr r ]
  | Ast.Unop (op, e) -> n "Unop" [ tag Ast.show_unop op; expr e ]
  | Ast.Incdec (op, e) -> n "Incdec" [ tag Ast.show_incdec op; expr e ]
  | Ast.Assign (op, l, r) -> n "Assign" [ tag Ast.show_assign_op op; expr l; expr r ]
  | Ast.Assign_ref (l, r) -> n "Assign_ref" [ expr l; expr r ]
  | Ast.Ternary (c, t, f) -> n "Ternary" [ expr c; opt expr t; expr f ]
  | Ast.Cast (c, e) -> n "Cast" [ tag Ast.show_cast c; expr e ]
  | Ast.Isset es -> n "Isset" (List.map expr es)
  | Ast.Empty e -> n "Empty" [ expr e ]
  | Ast.Exit e -> n "Exit" [ opt expr e ]
  | Ast.Print e -> n "Print" [ expr e ]
  | Ast.Include (k, e) -> n "Include" [ tag Ast.show_include_kind k; expr e ]
  | Ast.List es -> n "List" (List.map (opt expr) es)
  | Ast.Closure c ->
      let use (r, v) = a ((if r then "&$" else "$") ^ v) in
      n "Closure"
        (flag "static" c.cl_static
        @ [ params c.cl_params; nd "use" (List.map use c.cl_uses); body c.cl_body ])
  | Ast.Backtick ps -> n "Backtick" (List.map interp ps)

and interp = function Ast.Ip_str s -> str s | Ast.Ip_expr e -> expr e
and member = function Ast.Mem_ident m -> a m | Ast.Mem_expr e -> nd "dyn" [ expr e ]

and callee = function
  | Ast.F_ident f -> a f
  | Ast.F_var e -> nd "F_var" [ expr e ]
  | Ast.F_method (o, m) -> nd "F_method" [ expr o; member m ]
  | Ast.F_static (c, m) -> nd "F_static" [ a c; a m ]

and arg (x : Ast.arg) = if x.a_spread then nd "..." [ expr x.a_expr ] else expr x.a_expr

and params ps =
  let param (p : Ast.param) =
    nd ("$" ^ p.p_name)
      (field "hint" a p.p_hint @ flag "&" p.p_by_ref @ flag "..." p.p_variadic
      @ field "default" expr p.p_default)
  in
  nd "params" (List.map param ps)

and body stmts = nd "body" (List.map stmt stmts)

and func (f : Ast.func) =
  at "function" f.f_loc
    ((a f.f_name :: flag "&" f.f_by_ref) @ [ params f.f_params; body f.f_body ])

and stmt (s : Ast.stmt) =
  let n name xs = at name s.sloc xs in
  match s.s with
  | Ast.Expr_stmt e -> n "Expr_stmt" [ expr e ]
  | Ast.Echo es -> n "Echo" (List.map expr es)
  | Ast.If (branches, els) ->
      let branch (c, b) = nd "branch" [ expr c; body b ] in
      n "If" (List.map branch branches @ field "else" body els)
  | Ast.While (c, b) -> n "While" [ expr c; body b ]
  | Ast.Do_while (b, c) -> n "Do_while" [ body b; expr c ]
  | Ast.For (i, c, u, b) ->
      let exprs name es = nd name (List.map expr es) in
      n "For" [ exprs "init" i; exprs "cond" c; exprs "step" u; body b ]
  | Ast.Foreach (e, fb, b) ->
      let v = expr fb.fe_value in
      n "Foreach"
        [ expr e; opt expr fb.fe_key; (if fb.fe_by_ref then nd "&" [ v ] else v); body b ]
  | Ast.Switch (e, cases) ->
      let case = function
        | Ast.Case (c, b) -> nd "case" [ expr c; body b ]
        | Ast.Default b -> nd "default" [ body b ]
      in
      n "Switch" (expr e :: List.map case cases)
  | Ast.Break i -> n "Break" [ opt int i ]
  | Ast.Continue i -> n "Continue" [ opt int i ]
  | Ast.Return e -> n "Return" [ opt expr e ]
  | Ast.Global vs -> n "Global" (List.map a vs)
  | Ast.Static_vars vs ->
      n "Static_vars" (List.map (fun (v, e) -> nd ("$" ^ v) [ opt expr e ]) vs)
  | Ast.Unset es -> n "Unset" (List.map expr es)
  | Ast.Throw e -> n "Throw" [ expr e ]
  | Ast.Try (b, catches, fin) ->
      let catch (c : Ast.catch) =
        nd "catch" [ nd "types" (List.map a c.c_types); opt a c.c_var; body c.c_body ]
      in
      n "Try" ((body b :: List.map catch catches) @ field "finally" body fin)
  | Ast.Func_def f -> n "Func_def" [ func f ]
  | Ast.Class_def k ->
      let vis = tag Ast.show_visibility in
      let prop (p : Ast.prop) =
        nd "prop"
          ([ a ("$" ^ p.pr_name); vis p.pr_visibility ]
          @ flag "static" p.pr_static @ field "default" expr p.pr_default)
      in
      let meth (m : Ast.meth) =
        nd "method"
          ((vis m.m_visibility :: flag "static" m.m_static)
          @ flag "abstract" m.m_abstract @ flag "final" m.m_final @ [ func m.m_func ])
      in
      let implements =
        if k.k_implements = [] then [] else [ nd "implements" (List.map a k.k_implements) ]
      in
      n "Class_def"
        ((at "class" k.k_loc [ a k.k_name ] :: field "extends" a k.k_parent)
        @ implements
        @ flag "abstract" k.k_abstract @ flag "final" k.k_final
        @ flag "interface" k.k_interface
        @ List.map (fun (c, e) -> nd "const" [ a c; expr e ]) k.k_consts
        @ List.map prop k.k_props @ List.map meth k.k_methods)
  | Ast.Block b -> n "Block" [ body b ]
  | Ast.Inline_html h -> n "Inline_html" [ str h ]
  | Ast.Const_def cs -> n "Const_def" (List.map (fun (c, e) -> nd c [ expr e ]) cs)
  | Ast.Nop -> n "Nop" []

(* One line when it fits in 100 columns, else the head and one indented
   child per line. *)
let rec flat = function
  | Atom s -> s
  | Node (h, xs) -> "(" ^ String.concat " " (h :: List.map flat xs) ^ ")"

let rec print indent x =
  match x with
  | Node (h, xs) when indent + String.length (flat x) > 100 ->
      print_string ("(" ^ h);
      List.iter
        (fun x ->
          print_string ("\n" ^ String.make (indent + 2) ' ');
          print (indent + 2) x)
        xs;
      print_string ")"
  | _ -> print_string (flat x)

(* ------------------------------------------------------------------ *)

let dump (file, src) =
  Printf.printf "=== %s ===\n--- tokens ---\n" file;
  (match Lexer.tokenize_buf ~file src with
  | buf ->
      for i = 0 to Token_buf.length buf - 1 do
        Printf.printf "%d:%d %s\n" (Token_buf.line buf i) (Token_buf.col buf i)
          (token (Token_buf.tok buf i))
      done
  | exception Lexer.Error (msg, l) ->
      Printf.printf "lexical error at %d:%d: %s\n" l.line l.col msg);
  print_string "--- parse ---\n";
  let program, errors = Parser.parse_string_tolerant ~file src in
  List.iter (fun s -> print 0 (stmt s); print_newline ()) program;
  List.iter
    (fun { Parser.err_msg; err_loc = l } ->
      Printf.printf "recovered error at %d:%d: %s\n" l.line l.col err_msg)
    errors;
  print_newline ()

let () =
  let file path = (path, Io.read_file path) in
  let spice i src = (Printf.sprintf "spice/%02d" i, "<?php\n" ^ src ^ "\n") in
  let app (name, files) = List.map (fun (f, src) -> (name ^ "/" ^ f, src)) files in
  List.iter dump
    (List.map file (List.sort compare (List.tl (Array.to_list Sys.argv)))
    @ List.mapi spice Wap_fuzz.Gen.spice_pool
    @ List.concat_map app
        [ ("blog", Fixtures.blog); ("store", Fixtures.store); ("wp", Fixtures.wp_plugin) ])

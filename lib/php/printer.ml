(** Pretty-printer that turns the AST back into parseable PHP.

    Used by the code corrector to emit fixed source files, and by the
    round-trip property tests ([print] is idempotent modulo one
    normalizing pass through the parser).  Output favours correctness
    over beauty: operands are parenthesized whenever precedence could be
    ambiguous. *)

open Ast

let buf_add = Buffer.add_string

(* Precedence levels mirror Parser.binop_info. *)
let binop_prec = function
  | Bool_or -> 10
  | Bool_and -> 11
  | Bit_or -> 12
  | Bit_xor -> 13
  | Bit_and -> 14
  | Eq_eq | Neq | Identical | Not_identical -> 15
  | Lt | Gt | Le | Ge | Spaceship -> 16
  | Shl | Shr -> 17
  | Plus | Minus | Concat -> 18
  | Mul | Div | Mod -> 19
  | Instanceof -> 20
  | Pow -> 22
  | Coalesce -> 9
  | Bool_xor -> 10

let binop_sym = function
  | Concat -> "."
  | Plus -> "+"
  | Minus -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Mod -> "%"
  | Pow -> "**"
  | Eq_eq -> "=="
  | Neq -> "!="
  | Identical -> "==="
  | Not_identical -> "!=="
  | Lt -> "<"
  | Gt -> ">"
  | Le -> "<="
  | Ge -> ">="
  | Spaceship -> "<=>"
  | Bool_and -> "&&"
  | Bool_or -> "||"
  | Bool_xor -> "xor"
  | Bit_and -> "&"
  | Bit_or -> "|"
  | Bit_xor -> "^"
  | Shl -> "<<"
  | Shr -> ">>"
  | Coalesce -> "??"
  | Instanceof -> "instanceof"

let assign_sym = function
  | A_eq -> "="
  | A_concat -> ".="
  | A_plus -> "+="
  | A_minus -> "-="
  | A_mul -> "*="
  | A_div -> "/="
  | A_mod -> "%="
  | A_pow -> "**="
  | A_bit_and -> "&="
  | A_bit_or -> "|="
  | A_bit_xor -> "^="
  | A_shl -> "<<="
  | A_shr -> ">>="
  | A_coalesce -> "??="

let cast_sym = function
  | C_int -> "(int)"
  | C_float -> "(float)"
  | C_string -> "(string)"
  | C_bool -> "(bool)"
  | C_array -> "(array)"
  | C_object -> "(object)"

let include_sym = function
  | Inc -> "include"
  | Inc_once -> "include_once"
  | Req -> "require"
  | Req_once -> "require_once"

let escape_single s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '\'' -> buf_add b "\\'"
      | '\\' -> buf_add b "\\\\"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* Escaping for interpolated contexts.  [quote] is the active delimiter
   ('"' for double-quoted strings, '`' for backticks): only the active
   delimiter is escaped, so a backtick inside a double-quoted string (or
   a double quote inside a command) stays literal. *)
let escape_interp ~quote s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      if c = quote then begin
        Buffer.add_char b '\\';
        Buffer.add_char b quote
      end
      else
        match c with
        | '\\' -> buf_add b "\\\\"
        | '$' -> buf_add b "\\$"
        | '\n' -> buf_add b "\\n"
        | '\t' -> buf_add b "\\t"
        | '\r' -> buf_add b "\\r"
        | c when Char.code c < 32 -> buf_add b (Printf.sprintf "\\x%02x" (Char.code c))
        | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let escape_double = escape_interp ~quote:'"'
let escape_backtick = escape_interp ~quote:'`'

(* Is the literal printable with single quotes without escape surprises? *)
let string_needs_double s =
  String.exists (fun c -> Char.code c < 32) s

let rec expr_to_buf b (e : expr) = expr_prec b e 0

(* [ctx] is the minimum precedence required by the surrounding context; we
   parenthesize when the node binds looser. Assignments/ternaries are
   level ~2. *)
and expr_prec b (e : expr) ctx =
  let paren need body =
    if need then begin
      buf_add b "(";
      body ();
      buf_add b ")"
    end
    else body ()
  in
  match e.e with
  | Int n -> buf_add b (string_of_int n)
  | Float f ->
      (* Shortest representation that parses back to the same double:
         %.12g is enough for the values real code writes, but e.g.
         0.30000000000000004 needs 17 digits, and an overflowed literal
         (1e309, 0xFFFFFFFFFFFFFFFF) is infinite — "%g" would print
         "inf", which is not PHP. *)
      let s =
        if f = infinity then "1.0e400"
        else if f = neg_infinity then "-1.0e400"
        else if f <> f then "(0.0/0.0)" (* unreachable from parsed source *)
        else
          let rec shortest = function
            | [] -> Printf.sprintf "%.17g" f
            | p :: rest ->
                let s = Printf.sprintf "%.*g" p f in
                if float_of_string s = f then s else shortest rest
          in
          let s = shortest [ 12; 15; 16 ] in
          if String.contains s '.' || String.contains s 'e' then s else s ^ ".0"
      in
      buf_add b s
  | String s ->
      if string_needs_double s then buf_add b ("\"" ^ escape_double s ^ "\"")
      else buf_add b ("'" ^ escape_single s ^ "'")
  | Interp parts ->
      buf_add b "\"";
      List.iter
        (function
          | Ip_str s -> buf_add b (escape_double s)
          | Ip_expr e ->
              buf_add b "{";
              expr_prec b e 0;
              buf_add b "}")
        parts;
      buf_add b "\""
  | Backtick parts ->
      buf_add b "`";
      List.iter
        (function
          | Ip_str s -> buf_add b (escape_backtick s)
          | Ip_expr e ->
              buf_add b "{";
              expr_prec b e 0;
              buf_add b "}")
        parts;
      buf_add b "`"
  | Var v -> buf_add b ("$" ^ v)
  | Var_var e2 ->
      buf_add b "$";
      expr_prec b e2 30
  | Constant c -> buf_add b c
  | Array_lit items ->
      buf_add b "array(";
      List.iteri
        (fun i it ->
          if i > 0 then buf_add b ", ";
          (match it.ai_key with
          | Some k ->
              expr_prec b k 3;
              buf_add b " => "
          | None -> ());
          if it.ai_by_ref then buf_add b "&";
          expr_prec b it.ai_value 3)
        items;
      buf_add b ")"
  | Index (e2, idx) ->
      expr_prec b e2 30;
      buf_add b "[";
      (match idx with Some i -> expr_prec b i 0 | None -> ());
      buf_add b "]"
  | Prop (e2, m) ->
      expr_prec b e2 30;
      buf_add b "->";
      member_to_buf b m
  | Static_prop (c, v) -> buf_add b (c ^ "::$" ^ v)
  | Class_const (c, k) -> buf_add b (c ^ "::" ^ k)
  | Call (callee, args) ->
      callee_to_buf b callee;
      buf_add b "(";
      List.iteri
        (fun i a ->
          if i > 0 then buf_add b ", ";
          if a.a_spread then buf_add b "...";
          expr_prec b a.a_expr 3)
        args;
      buf_add b ")"
  | New (c, args) ->
      paren (ctx > 21) (fun () ->
          buf_add b ("new " ^ c);
          buf_add b "(";
          List.iteri
            (fun i a ->
              if i > 0 then buf_add b ", ";
              expr_prec b a.a_expr 3)
            args;
          buf_add b ")")
  | Clone e2 ->
      paren (ctx > 21) (fun () ->
          buf_add b "clone ";
          expr_prec b e2 21)
  | Binop (op, l, r) ->
      let prec = binop_prec op in
      (* ?? and ** associate to the right in PHP (and in Parser), so a
         left-nested tree needs parentheses on the left, not the right *)
      let right_assoc = match op with Coalesce | Pow -> true | _ -> false in
      paren (ctx > prec) (fun () ->
          expr_prec b l (if right_assoc then prec + 1 else prec);
          buf_add b (" " ^ binop_sym op ^ " ");
          expr_prec b r (if right_assoc then prec else prec + 1))
  | Unop (op, e2) ->
      paren (ctx > 21) (fun () ->
          let sym =
            match op with
            | Neg -> "-"
            | Uplus -> "+"
            | Not -> "!"
            | Bit_not -> "~"
            | Silence -> "@"
          in
          buf_add b sym;
          let ob = Buffer.create 16 in
          expr_prec ob e2 21;
          let rendered = Buffer.contents ob in
          (* "-" followed by "-$x" would re-lex as the "--" decrement
             token; keep the sign and the operand apart *)
          let clash =
            (op = Neg || op = Uplus)
            && rendered <> ""
            && rendered.[0] = sym.[0]
          in
          if clash then begin
            buf_add b "(";
            buf_add b rendered;
            buf_add b ")"
          end
          else buf_add b rendered)
  | Incdec (k, e2) ->
      paren (ctx > 21) (fun () ->
          match k with
          | Pre_inc ->
              buf_add b "++";
              expr_prec b e2 21
          | Pre_dec ->
              buf_add b "--";
              expr_prec b e2 21
          | Post_inc ->
              expr_prec b e2 21;
              buf_add b "++"
          | Post_dec ->
              expr_prec b e2 21;
              buf_add b "--")
  | Assign (op, l, r) ->
      paren (ctx > 2) (fun () ->
          expr_prec b l 3;
          buf_add b (" " ^ assign_sym op ^ " ");
          expr_prec b r 2)
  | Assign_ref (l, r) ->
      paren (ctx > 2) (fun () ->
          expr_prec b l 3;
          buf_add b " = &";
          expr_prec b r 2)
  | Ternary (c, t, f) ->
      paren (ctx > 3) (fun () ->
          expr_prec b c 4;
          (match t with
          | Some t ->
              buf_add b " ? ";
              expr_prec b t 4
          | None -> buf_add b " ?");
          buf_add b " : ";
          expr_prec b f 3)
  | Cast (c, e2) ->
      paren (ctx > 21) (fun () ->
          buf_add b (cast_sym c);
          buf_add b " ";
          expr_prec b e2 21)
  | Isset es ->
      buf_add b "isset(";
      List.iteri
        (fun i e2 ->
          if i > 0 then buf_add b ", ";
          expr_prec b e2 0)
        es;
      buf_add b ")"
  | Empty e2 ->
      buf_add b "empty(";
      expr_prec b e2 0;
      buf_add b ")"
  | Exit None -> buf_add b "exit"
  | Exit (Some e2) ->
      buf_add b "exit(";
      expr_prec b e2 0;
      buf_add b ")"
  | Print e2 ->
      paren (ctx > 2) (fun () ->
          buf_add b "print ";
          expr_prec b e2 2)
  | Include (k, e2) ->
      paren (ctx > 2) (fun () ->
          buf_add b (include_sym k ^ " ");
          expr_prec b e2 2)
  | List es ->
      buf_add b "list(";
      List.iteri
        (fun i e2 ->
          if i > 0 then buf_add b ", ";
          match e2 with Some e2 -> expr_prec b e2 0 | None -> ())
        es;
      buf_add b ")"
  | Closure c ->
      paren (ctx > 2) (fun () ->
          if c.cl_static then buf_add b "static ";
          buf_add b "function ";
          params_to_buf b c.cl_params;
          if c.cl_uses <> [] then begin
            buf_add b " use (";
            List.iteri
              (fun i (by_ref, v) ->
                if i > 0 then buf_add b ", ";
                if by_ref then buf_add b "&";
                buf_add b ("$" ^ v))
              c.cl_uses;
            buf_add b ")"
          end;
          buf_add b " {\n";
          stmts_to_buf b ~indent:1 c.cl_body;
          buf_add b "}")

and member_to_buf b = function
  | Mem_ident m -> buf_add b m
  | Mem_expr e -> (
      match e.e with
      | Var v -> buf_add b ("$" ^ v)
      | _ ->
          buf_add b "{";
          expr_prec b e 0;
          buf_add b "}")

and callee_to_buf b = function
  | F_ident f -> buf_add b f
  | F_var e -> expr_prec b e 30
  | F_method (e, m) ->
      expr_prec b e 30;
      buf_add b "->";
      member_to_buf b m
  | F_static (c, m) -> buf_add b (c ^ "::" ^ m)

and params_to_buf b params =
  buf_add b "(";
  List.iteri
    (fun i p ->
      if i > 0 then buf_add b ", ";
      (match p.p_hint with
      | Some h ->
          buf_add b h;
          buf_add b " "
      | None -> ());
      if p.p_by_ref then buf_add b "&";
      if p.p_variadic then buf_add b "...";
      buf_add b ("$" ^ p.p_name);
      match p.p_default with
      | Some d ->
          buf_add b " = ";
          expr_prec b d 3
      | None -> ())
    params;
  buf_add b ")"

and indent_to_buf b n = buf_add b (String.make (n * 4) ' ')

and stmt_to_buf b ~indent (s : stmt) =
  let ind () = indent_to_buf b indent in
  match s.s with
  | Expr_stmt e ->
      ind ();
      expr_to_buf b e;
      buf_add b ";\n"
  | Echo es ->
      ind ();
      buf_add b "echo ";
      List.iteri
        (fun i e ->
          if i > 0 then buf_add b ", ";
          expr_prec b e 2)
        es;
      buf_add b ";\n"
  | If (branches, els) ->
      List.iteri
        (fun i (cond, body) ->
          ind ();
          buf_add b (if i = 0 then "if (" else "elseif (");
          expr_to_buf b cond;
          buf_add b ") {\n";
          stmts_to_buf b ~indent:(indent + 1) body;
          ind ();
          buf_add b "}\n")
        branches;
      (match els with
      | Some body ->
          ind ();
          buf_add b "else {\n";
          stmts_to_buf b ~indent:(indent + 1) body;
          ind ();
          buf_add b "}\n"
      | None -> ())
  | While (cond, body) ->
      ind ();
      buf_add b "while (";
      expr_to_buf b cond;
      buf_add b ") {\n";
      stmts_to_buf b ~indent:(indent + 1) body;
      ind ();
      buf_add b "}\n"
  | Do_while (body, cond) ->
      ind ();
      buf_add b "do {\n";
      stmts_to_buf b ~indent:(indent + 1) body;
      ind ();
      buf_add b "} while (";
      expr_to_buf b cond;
      buf_add b ");\n"
  | For (init, cond, step, body) ->
      ind ();
      buf_add b "for (";
      comma_exprs b init;
      buf_add b "; ";
      comma_exprs b cond;
      buf_add b "; ";
      comma_exprs b step;
      buf_add b ") {\n";
      stmts_to_buf b ~indent:(indent + 1) body;
      ind ();
      buf_add b "}\n"
  | Foreach (subject, binding, body) ->
      ind ();
      buf_add b "foreach (";
      expr_to_buf b subject;
      buf_add b " as ";
      (match binding.fe_key with
      | Some k ->
          expr_to_buf b k;
          buf_add b " => "
      | None -> ());
      if binding.fe_by_ref then buf_add b "&";
      expr_to_buf b binding.fe_value;
      buf_add b ") {\n";
      stmts_to_buf b ~indent:(indent + 1) body;
      ind ();
      buf_add b "}\n"
  | Switch (subject, cases) ->
      ind ();
      buf_add b "switch (";
      expr_to_buf b subject;
      buf_add b ") {\n";
      List.iter
        (fun case ->
          indent_to_buf b (indent + 1);
          (match case with
          | Case (e, body) ->
              buf_add b "case ";
              expr_to_buf b e;
              buf_add b ":\n";
              stmts_to_buf b ~indent:(indent + 2) body
          | Default body ->
              buf_add b "default:\n";
              stmts_to_buf b ~indent:(indent + 2) body))
        cases;
      ind ();
      buf_add b "}\n"
  | Break n ->
      ind ();
      buf_add b "break";
      (match n with Some n -> buf_add b (" " ^ string_of_int n) | None -> ());
      buf_add b ";\n"
  | Continue n ->
      ind ();
      buf_add b "continue";
      (match n with Some n -> buf_add b (" " ^ string_of_int n) | None -> ());
      buf_add b ";\n"
  | Return e ->
      ind ();
      buf_add b "return";
      (match e with
      | Some e ->
          buf_add b " ";
          expr_to_buf b e
      | None -> ());
      buf_add b ";\n"
  | Global vs ->
      ind ();
      buf_add b "global ";
      buf_add b (String.concat ", " (List.map (fun v -> "$" ^ v) vs));
      buf_add b ";\n"
  | Static_vars vs ->
      ind ();
      buf_add b "static ";
      List.iteri
        (fun i (v, init) ->
          if i > 0 then buf_add b ", ";
          buf_add b ("$" ^ v);
          match init with
          | Some e ->
              buf_add b " = ";
              expr_prec b e 3
          | None -> ())
        vs;
      buf_add b ";\n"
  | Unset es ->
      ind ();
      buf_add b "unset(";
      comma_exprs b es;
      buf_add b ");\n"
  | Throw e ->
      ind ();
      buf_add b "throw ";
      expr_to_buf b e;
      buf_add b ";\n"
  | Try (body, catches, fin) ->
      ind ();
      buf_add b "try {\n";
      stmts_to_buf b ~indent:(indent + 1) body;
      ind ();
      buf_add b "}";
      List.iter
        (fun c ->
          buf_add b (" catch (" ^ String.concat " | " c.c_types);
          (match c.c_var with Some v -> buf_add b (" $" ^ v) | None -> ());
          buf_add b ") {\n";
          stmts_to_buf b ~indent:(indent + 1) c.c_body;
          ind ();
          buf_add b "}")
        catches;
      (match fin with
      | Some body ->
          buf_add b " finally {\n";
          stmts_to_buf b ~indent:(indent + 1) body;
          ind ();
          buf_add b "}"
      | None -> ());
      buf_add b "\n"
  | Func_def f ->
      ind ();
      func_to_buf b ~indent f
  | Class_def k ->
      ind ();
      if k.k_abstract then buf_add b "abstract ";
      if k.k_final then buf_add b "final ";
      buf_add b (if k.k_interface then "interface " else "class ");
      buf_add b k.k_name;
      (match k.k_parent with Some par -> buf_add b (" extends " ^ par) | None -> ());
      if k.k_implements <> [] then
        buf_add b (" implements " ^ String.concat ", " k.k_implements);
      buf_add b " {\n";
      List.iter
        (fun (n, e) ->
          indent_to_buf b (indent + 1);
          buf_add b ("const " ^ n ^ " = ");
          expr_to_buf b e;
          buf_add b ";\n")
        k.k_consts;
      List.iter
        (fun pr ->
          indent_to_buf b (indent + 1);
          buf_add b
            (match pr.pr_visibility with
            | Public -> "public "
            | Private -> "private "
            | Protected -> "protected ");
          if pr.pr_static then buf_add b "static ";
          buf_add b ("$" ^ pr.pr_name);
          (match pr.pr_default with
          | Some d ->
              buf_add b " = ";
              expr_prec b d 3
          | None -> ());
          buf_add b ";\n")
        k.k_props;
      List.iter
        (fun m ->
          indent_to_buf b (indent + 1);
          buf_add b
            (match m.m_visibility with
            | Public -> "public "
            | Private -> "private "
            | Protected -> "protected ");
          if m.m_static then buf_add b "static ";
          if m.m_abstract then buf_add b "abstract ";
          if m.m_final then buf_add b "final ";
          if m.m_abstract then begin
            buf_add b ("function " ^ m.m_func.f_name);
            params_to_buf b m.m_func.f_params;
            buf_add b ";\n"
          end
          else func_to_buf b ~indent:(indent + 1) m.m_func)
        k.k_methods;
      ind ();
      buf_add b "}\n"
  | Block body ->
      ind ();
      buf_add b "{\n";
      stmts_to_buf b ~indent:(indent + 1) body;
      ind ();
      buf_add b "}\n"
  | Inline_html h ->
      buf_add b "?>";
      buf_add b h;
      buf_add b "<?php\n"
  | Const_def cs ->
      ind ();
      buf_add b "const ";
      List.iteri
        (fun i (n, e) ->
          if i > 0 then buf_add b ", ";
          buf_add b (n ^ " = ");
          expr_prec b e 3)
        cs;
      buf_add b ";\n"
  | Nop -> ()

and func_to_buf b ~indent f =
  buf_add b "function ";
  if f.f_by_ref then buf_add b "&";
  buf_add b f.f_name;
  params_to_buf b f.f_params;
  buf_add b " {\n";
  stmts_to_buf b ~indent:(indent + 1) f.f_body;
  indent_to_buf b indent;
  buf_add b "}\n"

and comma_exprs b es =
  List.iteri
    (fun i e ->
      if i > 0 then buf_add b ", ";
      expr_to_buf b e)
    es

and stmts_to_buf b ~indent stmts = List.iter (stmt_to_buf b ~indent) stmts

(** Render an expression as PHP source. *)
let expr_to_string e =
  let b = Buffer.create 64 in
  expr_to_buf b e;
  Buffer.contents b

(** Render a whole program as a PHP file, including the [<?php] header. *)
let program_to_string (prog : program) =
  let b = Buffer.create 1024 in
  buf_add b "<?php\n";
  stmts_to_buf b ~indent:0 prog;
  Buffer.contents b

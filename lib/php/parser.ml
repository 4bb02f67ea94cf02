(** Recursive-descent parser for the PHP subset.

    Expressions are parsed with precedence climbing following PHP's
    operator table.  Both brace-delimited and alternative
    ([if: ... endif;]) statement syntaxes are supported, since real-world
    PHP templates (the kind WAP analyzes) mix the two freely. *)

exception Error of string * Loc.t

(* The parser is an index cursor over the lexer's flat {!Token_buf.t}:
   no boxed [(Token.t * Loc.t)] array is ever built.  Locations live as
   packed ints in the buffer; [cur_loc] materializes the current one at
   most once per cursor position (rules routinely ask for the same
   token's loc several times). *)
type t = {
  toks : Token_buf.t;
  mutable i : int;
  mutable loc_i : int;
  mutable loc_v : Loc.t;
}

let make_buf buf = { toks = buf; i = 0; loc_i = -1; loc_v = Loc.dummy }

let peek p = Token_buf.tok p.toks p.i

let peek_at p n =
  let j = p.i + n in
  if j < Token_buf.length p.toks then Token_buf.tok p.toks j else Token.EOF

let cur_loc p =
  if p.loc_i = p.i then p.loc_v
  else begin
    let l = Token_buf.loc p.toks p.i in
    p.loc_i <- p.i;
    p.loc_v <- l;
    l
  end

let advance p = if p.i < Token_buf.length p.toks - 1 then p.i <- p.i + 1

let fail p msg =
  raise (Error (Printf.sprintf "%s (got %s)" msg (Token.describe (peek p)), cur_loc p))

let eat p tok =
  if Token.equal (peek p) tok then advance p
  else fail p (Printf.sprintf "expected %s" (Token.describe tok))

let eat_semi p =
  (* A close-tag already emitted SEMI; EOF also terminates a statement. *)
  match peek p with
  | Token.SEMI -> advance p
  | Token.EOF -> ()
  | _ -> fail p "expected ';'"

let ident p =
  match peek p with
  | Token.IDENT s ->
      advance p;
      s
  | _ -> fail p "expected identifier"

let variable p =
  match peek p with
  | Token.VARIABLE v ->
      advance p;
      v
  | _ -> fail p "expected variable"

(* ------------------------------------------------------------------ *)
(* Casts.                                                              *)

let cast_of_ident s =
  match String.lowercase_ascii s with
  | "int" | "integer" -> Some Ast.C_int
  | "float" | "double" | "real" -> Some Ast.C_float
  | "string" -> Some Ast.C_string
  | "bool" | "boolean" -> Some Ast.C_bool
  | "object" -> Some Ast.C_object
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Binary operator table for precedence climbing.                      *)

(* (token, ast op, precedence, right-assoc) — higher binds tighter. *)
let binop_info : Token.t -> (Ast.binop * int * bool) option = function
  | Token.PIPE_PIPE -> Some (Ast.Bool_or, 10, false)
  | Token.AMP_AMP -> Some (Ast.Bool_and, 11, false)
  | Token.PIPE -> Some (Ast.Bit_or, 12, false)
  | Token.CARET -> Some (Ast.Bit_xor, 13, false)
  | Token.AMP -> Some (Ast.Bit_and, 14, false)
  | Token.EQ_EQ -> Some (Ast.Eq_eq, 15, false)
  | Token.NEQ -> Some (Ast.Neq, 15, false)
  | Token.IDENTICAL -> Some (Ast.Identical, 15, false)
  | Token.NOT_IDENTICAL -> Some (Ast.Not_identical, 15, false)
  | Token.LT -> Some (Ast.Lt, 16, false)
  | Token.GT -> Some (Ast.Gt, 16, false)
  | Token.LE -> Some (Ast.Le, 16, false)
  | Token.GE -> Some (Ast.Ge, 16, false)
  | Token.SPACESHIP -> Some (Ast.Spaceship, 16, false)
  | Token.SHL -> Some (Ast.Shl, 17, false)
  | Token.SHR -> Some (Ast.Shr, 17, false)
  | Token.PLUS -> Some (Ast.Plus, 18, false)
  | Token.MINUS -> Some (Ast.Minus, 18, false)
  | Token.DOT -> Some (Ast.Concat, 18, false)
  | Token.STAR -> Some (Ast.Mul, 19, false)
  | Token.SLASH -> Some (Ast.Div, 19, false)
  | Token.PERCENT -> Some (Ast.Mod, 19, false)
  | Token.K_INSTANCEOF -> Some (Ast.Instanceof, 20, false)
  | Token.POW -> Some (Ast.Pow, 22, true)
  | _ -> None

let assign_op_of_token : Token.t -> Ast.assign_op option = function
  | Token.EQ -> Some Ast.A_eq
  | Token.DOT_EQ -> Some Ast.A_concat
  | Token.PLUS_EQ -> Some Ast.A_plus
  | Token.MINUS_EQ -> Some Ast.A_minus
  | Token.STAR_EQ -> Some Ast.A_mul
  | Token.SLASH_EQ -> Some Ast.A_div
  | Token.PERCENT_EQ -> Some Ast.A_mod
  | Token.POW_EQ -> Some Ast.A_pow
  | Token.AMP_EQ -> Some Ast.A_bit_and
  | Token.PIPE_EQ -> Some Ast.A_bit_or
  | Token.CARET_EQ -> Some Ast.A_bit_xor
  | Token.SHL_EQ -> Some Ast.A_shl
  | Token.SHR_EQ -> Some Ast.A_shr
  | Token.QQ_EQ -> Some Ast.A_coalesce
  | _ -> None

let is_lvalue (e : Ast.expr) =
  match e.e with
  | Ast.Var _ | Ast.Var_var _ | Ast.Index _ | Ast.Prop _ | Ast.Static_prop _
  | Ast.List _ ->
      true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Expressions.                                                        *)

let rec parse_expr p : Ast.expr = parse_word_or p

and parse_word_or p =
  let l = parse_word_xor p in
  if Token.equal (peek p) Token.K_OR then begin
    let loc = cur_loc p in
    advance p;
    let r = parse_word_or p in
    Ast.mk_e ~loc (Ast.Binop (Ast.Bool_or, l, r))
  end
  else l

and parse_word_xor p =
  let l = parse_word_and p in
  if Token.equal (peek p) Token.K_XOR then begin
    let loc = cur_loc p in
    advance p;
    let r = parse_word_xor p in
    Ast.mk_e ~loc (Ast.Binop (Ast.Bool_xor, l, r))
  end
  else l

and parse_word_and p =
  let l = parse_assignment p in
  if Token.equal (peek p) Token.K_AND then begin
    let loc = cur_loc p in
    advance p;
    let r = parse_word_and p in
    Ast.mk_e ~loc (Ast.Binop (Ast.Bool_and, l, r))
  end
  else l

and parse_assignment p =
  let lhs = parse_ternary p in
  match assign_op_of_token (peek p) with
  | Some op when is_lvalue lhs ->
      let loc = cur_loc p in
      advance p;
      if op = Ast.A_eq && Token.equal (peek p) Token.AMP then begin
        advance p;
        let rhs = parse_assignment p in
        Ast.mk_e ~loc (Ast.Assign_ref (lhs, rhs))
      end
      else
        let rhs = parse_assignment p in
        Ast.mk_e ~loc (Ast.Assign (op, lhs, rhs))
  | _ -> lhs

and parse_ternary p =
  let c = parse_coalesce p in
  if Token.equal (peek p) Token.QUESTION then begin
    let loc = cur_loc p in
    advance p;
    if Token.equal (peek p) Token.COLON then begin
      advance p;
      let e2 = parse_assignment p in
      Ast.mk_e ~loc (Ast.Ternary (c, None, e2))
    end
    else
      let e1 = parse_assignment p in
      eat p Token.COLON;
      let e2 = parse_assignment p in
      Ast.mk_e ~loc (Ast.Ternary (c, Some e1, e2))
  end
  else c

and parse_coalesce p =
  let l = parse_binop p 10 in
  if Token.equal (peek p) Token.QQ then begin
    let loc = cur_loc p in
    advance p;
    let r = parse_coalesce p in
    Ast.mk_e ~loc (Ast.Binop (Ast.Coalesce, l, r))
  end
  else l

and parse_binop p min_prec =
  let rec climb lhs min_p =
    match binop_info (peek p) with
    | Some (op, prec, right_assoc) when prec >= min_p ->
        let loc = cur_loc p in
        advance p;
        let next_min = if right_assoc then prec else prec + 1 in
        let rhs = climb (parse_unary p) next_min in
        climb (Ast.mk_e ~loc (Ast.Binop (op, lhs, rhs))) min_p
    | _ -> lhs
  in
  climb (parse_unary p) min_prec

and parse_unary p : Ast.expr =
  let loc = cur_loc p in
  match peek p with
  | Token.BANG ->
      advance p;
      Ast.mk_e ~loc (Ast.Unop (Ast.Not, parse_unary p))
  | Token.MINUS ->
      advance p;
      Ast.mk_e ~loc (Ast.Unop (Ast.Neg, parse_unary p))
  | Token.PLUS ->
      advance p;
      Ast.mk_e ~loc (Ast.Unop (Ast.Uplus, parse_unary p))
  | Token.TILDE ->
      advance p;
      Ast.mk_e ~loc (Ast.Unop (Ast.Bit_not, parse_unary p))
  | Token.AT ->
      advance p;
      Ast.mk_e ~loc (Ast.Unop (Ast.Silence, parse_unary p))
  | Token.INC ->
      advance p;
      Ast.mk_e ~loc (Ast.Incdec (Ast.Pre_inc, parse_unary p))
  | Token.DEC ->
      advance p;
      Ast.mk_e ~loc (Ast.Incdec (Ast.Pre_dec, parse_unary p))
  | Token.K_PRINT ->
      advance p;
      Ast.mk_e ~loc (Ast.Print (parse_assignment p))
  | Token.K_CLONE ->
      advance p;
      Ast.mk_e ~loc (Ast.Clone (parse_unary p))
  | Token.K_INCLUDE ->
      advance p;
      Ast.mk_e ~loc (Ast.Include (Ast.Inc, parse_assignment p))
  | Token.K_INCLUDE_ONCE ->
      advance p;
      Ast.mk_e ~loc (Ast.Include (Ast.Inc_once, parse_assignment p))
  | Token.K_REQUIRE ->
      advance p;
      Ast.mk_e ~loc (Ast.Include (Ast.Req, parse_assignment p))
  | Token.K_REQUIRE_ONCE ->
      advance p;
      Ast.mk_e ~loc (Ast.Include (Ast.Req_once, parse_assignment p))
  | Token.K_NEW ->
      advance p;
      let cls =
        match peek p with
        | Token.IDENT c ->
            advance p;
            c
        | Token.VARIABLE v ->
            advance p;
            (* dynamic class name; record as "$v" *)
            "$" ^ v
        | _ -> fail p "expected class name after new"
      in
      let args =
        if Token.equal (peek p) Token.LPAREN then parse_args p else []
      in
      parse_postfix p (Ast.mk_e ~loc (Ast.New (cls, args)))
  | Token.LPAREN -> (
      (* possible cast *)
      match (peek_at p 1, peek_at p 2) with
      | Token.IDENT id, Token.RPAREN when cast_of_ident id <> None && starts_expr (peek_at p 3) ->
          advance p;
          advance p;
          advance p;
          let c = match cast_of_ident id with Some c -> c | None -> assert false in
          Ast.mk_e ~loc (Ast.Cast (c, parse_unary p))
      | Token.K_ARRAY, Token.RPAREN when starts_expr (peek_at p 3) ->
          advance p;
          advance p;
          advance p;
          Ast.mk_e ~loc (Ast.Cast (Ast.C_array, parse_unary p))
      | _ ->
          advance p;
          let e = parse_expr p in
          eat p Token.RPAREN;
          parse_postfix p e)
  | _ -> parse_postfix p (parse_primary p)

and starts_expr = function
  | Token.INT _ | Token.FLOAT _ | Token.CONST_STRING _ | Token.INTERP_STRING _
  | Token.BACKTICK_STRING _
  | Token.VARIABLE _ | Token.IDENT _ | Token.LPAREN | Token.LBRACKET
  | Token.MINUS | Token.PLUS | Token.BANG | Token.TILDE | Token.AT
  | Token.K_ARRAY | Token.K_NEW | Token.K_LIST | Token.K_ISSET | Token.K_EMPTY
  | Token.K_EXIT | Token.K_PRINT | Token.K_FUNCTION | Token.K_STATIC
  | Token.INC | Token.DEC | Token.DOLLAR ->
      true
  | _ -> false

and parse_primary p : Ast.expr =
  let loc = cur_loc p in
  match peek p with
  | Token.INT n ->
      advance p;
      Ast.mk_e ~loc (Ast.Int n)
  | Token.FLOAT f ->
      advance p;
      Ast.mk_e ~loc (Ast.Float f)
  | Token.CONST_STRING s ->
      advance p;
      Ast.mk_e ~loc (Ast.String s)
  | Token.INTERP_STRING parts ->
      advance p;
      Ast.mk_e ~loc (Ast.Interp (List.map (interp_part_to_ast ~loc) parts))
  | Token.BACKTICK_STRING parts ->
      advance p;
      Ast.mk_e ~loc (Ast.Backtick (List.map (interp_part_to_ast ~loc) parts))
  | Token.VARIABLE v ->
      advance p;
      Ast.mk_e ~loc (Ast.Var v)
  | Token.DOLLAR ->
      advance p;
      let inner =
        match peek p with
        | Token.VARIABLE v ->
            advance p;
            Ast.mk_e ~loc (Ast.Var v)
        | Token.DOLLAR -> parse_primary p
        | _ -> fail p "expected variable after $"
      in
      Ast.mk_e ~loc (Ast.Var_var inner)
  | Token.IDENT id ->
      advance p;
      Ast.mk_e ~loc (Ast.Constant id)
  | Token.K_ARRAY ->
      advance p;
      eat p Token.LPAREN;
      let items = parse_array_items p Token.RPAREN in
      eat p Token.RPAREN;
      Ast.mk_e ~loc (Ast.Array_lit items)
  | Token.LBRACKET ->
      advance p;
      let items = parse_array_items p Token.RBRACKET in
      eat p Token.RBRACKET;
      Ast.mk_e ~loc (Ast.Array_lit items)
  | Token.K_LIST ->
      advance p;
      eat p Token.LPAREN;
      let rec items acc =
        match peek p with
        | Token.RPAREN -> List.rev acc
        | Token.COMMA ->
            advance p;
            items (None :: acc)
        | _ ->
            let e = parse_expr p in
            if Token.equal (peek p) Token.COMMA then begin
              advance p;
              items (Some e :: acc)
            end
            else List.rev (Some e :: acc)
      in
      let l = items [] in
      eat p Token.RPAREN;
      Ast.mk_e ~loc (Ast.List l)
  | Token.K_ISSET ->
      advance p;
      eat p Token.LPAREN;
      let rec args acc =
        let e = parse_expr p in
        if Token.equal (peek p) Token.COMMA then begin
          advance p;
          args (e :: acc)
        end
        else List.rev (e :: acc)
      in
      let l = args [] in
      eat p Token.RPAREN;
      Ast.mk_e ~loc (Ast.Isset l)
  | Token.K_EMPTY ->
      advance p;
      eat p Token.LPAREN;
      let e = parse_expr p in
      eat p Token.RPAREN;
      Ast.mk_e ~loc (Ast.Empty e)
  | Token.K_EXIT ->
      advance p;
      let arg =
        if Token.equal (peek p) Token.LPAREN then begin
          advance p;
          if Token.equal (peek p) Token.RPAREN then begin
            advance p;
            None
          end
          else begin
            let e = parse_expr p in
            eat p Token.RPAREN;
            Some e
          end
        end
        else None
      in
      Ast.mk_e ~loc (Ast.Exit arg)
  | Token.K_FUNCTION -> parse_closure p ~static:false
  | Token.K_STATIC when Token.equal (peek_at p 1) Token.K_FUNCTION ->
      advance p;
      parse_closure p ~static:true
  | Token.K_STATIC when Token.equal (peek_at p 1) Token.DOUBLE_COLON ->
      advance p;
      (* late static binding: treat class name as "static" *)
      Ast.mk_e ~loc (Ast.Constant "static")
  | _ -> fail p "expected expression"

and interp_part_to_ast ~loc (part : Token.interp_part) : Ast.interp_part =
  match part with
  | Token.Part_str s -> Ast.Ip_str s
  | Token.Part_var v -> Ast.Ip_expr (Ast.mk_e ~loc (Ast.Var v))
  | Token.Part_index (v, sub) ->
      let idx =
        match sub with
        | Token.Sub_name s -> Ast.mk_e ~loc (Ast.String s)
        | Token.Sub_int n -> Ast.mk_e ~loc (Ast.Int n)
        | Token.Sub_var x -> Ast.mk_e ~loc (Ast.Var x)
      in
      Ast.Ip_expr (Ast.mk_e ~loc (Ast.Index (Ast.mk_e ~loc (Ast.Var v), Some idx)))
  | Token.Part_prop (v, prop) ->
      Ast.Ip_expr
        (Ast.mk_e ~loc (Ast.Prop (Ast.mk_e ~loc (Ast.Var v), Ast.Mem_ident prop)))
  | Token.Part_complex src -> Ast.Ip_expr (expr_of_string ~loc src)

(* Parse an isolated expression, used for the {$...} interpolation syntax. *)
and expr_of_string ~loc src : Ast.expr =
  let buf = Lexer.tokenize_buf ~file:loc.Loc.file ("<?php " ^ src ^ ";") in
  let sub = make_buf buf in
  let e = parse_expr sub in
  e

and parse_closure p ~static =
  let loc = cur_loc p in
  eat p Token.K_FUNCTION;
  if Token.equal (peek p) Token.AMP then advance p;
  let params = parse_params p in
  let uses =
    if Token.equal (peek p) Token.K_USE then begin
      advance p;
      eat p Token.LPAREN;
      let rec loop acc =
        let by_ref =
          if Token.equal (peek p) Token.AMP then begin
            advance p;
            true
          end
          else false
        in
        let v = variable p in
        let acc = (by_ref, v) :: acc in
        if Token.equal (peek p) Token.COMMA then begin
          advance p;
          loop acc
        end
        else List.rev acc
      in
      let l = loop [] in
      eat p Token.RPAREN;
      l
    end
    else []
  in
  (* optional return type *)
  if Token.equal (peek p) Token.COLON then begin
    advance p;
    if Token.equal (peek p) Token.QUESTION then advance p;
    ignore (ident p)
  end;
  eat p Token.LBRACE;
  let body = parse_stmts_until p [ Token.RBRACE ] in
  eat p Token.RBRACE;
  Ast.mk_e ~loc
    (Ast.Closure { cl_params = params; cl_uses = uses; cl_body = body; cl_static = static })

and parse_array_items p close =
  let rec loop acc =
    if Token.equal (peek p) close then List.rev acc
    else begin
      let by_ref =
        if Token.equal (peek p) Token.AMP then begin
          advance p;
          true
        end
        else false
      in
      let first = parse_expr p in
      let item =
        if Token.equal (peek p) Token.DOUBLE_ARROW then begin
          advance p;
          let vref =
            if Token.equal (peek p) Token.AMP then begin
              advance p;
              true
            end
            else false
          in
          let v = parse_expr p in
          { Ast.ai_key = Some first; ai_value = v; ai_by_ref = vref }
        end
        else { Ast.ai_key = None; ai_value = first; ai_by_ref = by_ref }
      in
      let acc = item :: acc in
      if Token.equal (peek p) Token.COMMA then begin
        advance p;
        loop acc
      end
      else List.rev acc
    end
  in
  loop []

and parse_args p : Ast.arg list =
  eat p Token.LPAREN;
  let rec loop acc =
    if Token.equal (peek p) Token.RPAREN then List.rev acc
    else begin
      let spread =
        if Token.equal (peek p) Token.ELLIPSIS then begin
          advance p;
          true
        end
        else false
      in
      (* legacy call-time by-ref &$x: skip the & *)
      if Token.equal (peek p) Token.AMP then advance p;
      let e = parse_expr p in
      let acc = { Ast.a_expr = e; a_spread = spread } :: acc in
      if Token.equal (peek p) Token.COMMA then begin
        advance p;
        loop acc
      end
      else List.rev acc
    end
  in
  let args = loop [] in
  eat p Token.RPAREN;
  args

and parse_postfix p (e : Ast.expr) : Ast.expr =
  let loc = cur_loc p in
  match peek p with
  | Token.LBRACKET ->
      advance p;
      if Token.equal (peek p) Token.RBRACKET then begin
        advance p;
        parse_postfix p (Ast.mk_e ~loc (Ast.Index (e, None)))
      end
      else begin
        let idx = parse_expr p in
        eat p Token.RBRACKET;
        parse_postfix p (Ast.mk_e ~loc (Ast.Index (e, Some idx)))
      end
  | Token.LBRACE when is_string_offset e ->
      (* legacy string offset $s{0} — parse and treat as Index *)
      advance p;
      let idx = parse_expr p in
      eat p Token.RBRACE;
      parse_postfix p (Ast.mk_e ~loc (Ast.Index (e, Some idx)))
  | Token.ARROW ->
      advance p;
      let mem =
        match peek p with
        | Token.IDENT m ->
            advance p;
            Ast.Mem_ident m
        | Token.VARIABLE v ->
            advance p;
            Ast.Mem_expr (Ast.mk_e ~loc (Ast.Var v))
        | Token.LBRACE ->
            advance p;
            let e2 = parse_expr p in
            eat p Token.RBRACE;
            Ast.Mem_expr e2
        | _ -> fail p "expected member name after ->"
      in
      if Token.equal (peek p) Token.LPAREN then begin
        let args = parse_args p in
        parse_postfix p (Ast.mk_e ~loc (Ast.Call (Ast.F_method (e, mem), args)))
      end
      else parse_postfix p (Ast.mk_e ~loc (Ast.Prop (e, mem)))
  | Token.DOUBLE_COLON -> (
      let cls =
        match e.e with
        | Ast.Constant c -> c
        | _ -> fail p "expected class name before ::"
      in
      advance p;
      match peek p with
      | Token.VARIABLE v ->
          advance p;
          parse_postfix p (Ast.mk_e ~loc (Ast.Static_prop (cls, v)))
      | Token.IDENT m ->
          advance p;
          if Token.equal (peek p) Token.LPAREN then begin
            let args = parse_args p in
            parse_postfix p (Ast.mk_e ~loc (Ast.Call (Ast.F_static (cls, m), args)))
          end
          else parse_postfix p (Ast.mk_e ~loc (Ast.Class_const (cls, m)))
      | Token.K_CLASS ->
          advance p;
          parse_postfix p (Ast.mk_e ~loc (Ast.Class_const (cls, "class")))
      | _ -> fail p "expected member after ::")
  | Token.LPAREN -> (
      match e.e with
      | Ast.Constant f ->
          let args = parse_args p in
          parse_postfix p (Ast.mk_e ~loc:e.eloc (Ast.Call (Ast.F_ident f, args)))
      | Ast.Var _ | Ast.Index _ | Ast.Prop _ | Ast.Closure _ | Ast.Call _ ->
          let args = parse_args p in
          parse_postfix p (Ast.mk_e ~loc (Ast.Call (Ast.F_var e, args)))
      | _ -> e)
  | Token.INC ->
      advance p;
      parse_postfix p (Ast.mk_e ~loc (Ast.Incdec (Ast.Post_inc, e)))
  | Token.DEC ->
      advance p;
      parse_postfix p (Ast.mk_e ~loc (Ast.Incdec (Ast.Post_dec, e)))
  | _ -> e

and is_string_offset (e : Ast.expr) =
  match e.e with Ast.Var _ | Ast.Index _ | Ast.Prop _ -> true | _ -> false

(* ------------------------------------------------------------------ *)
(* Statements.                                                         *)

and parse_params p : Ast.param list =
  eat p Token.LPAREN;
  let rec loop acc =
    if Token.equal (peek p) Token.RPAREN then List.rev acc
    else begin
      (* optional type hint: identifier or ?identifier or array keyword *)
      let hint =
        match peek p with
        | Token.QUESTION -> (
            advance p;
            match peek p with
            | Token.IDENT h ->
                advance p;
                Some h
            | Token.K_ARRAY ->
                advance p;
                Some "array"
            | _ -> fail p "expected type after ?")
        | Token.IDENT h when not (Token.equal (peek_at p 1) Token.LPAREN) ->
            advance p;
            Some h
        | Token.K_ARRAY ->
            advance p;
            Some "array"
        | _ -> None
      in
      let by_ref =
        if Token.equal (peek p) Token.AMP then begin
          advance p;
          true
        end
        else false
      in
      let variadic =
        if Token.equal (peek p) Token.ELLIPSIS then begin
          advance p;
          true
        end
        else false
      in
      let name = variable p in
      let default =
        if Token.equal (peek p) Token.EQ then begin
          advance p;
          Some (parse_expr p)
        end
        else None
      in
      let param =
        { Ast.p_name = name; p_default = default; p_by_ref = by_ref;
          p_hint = hint; p_variadic = variadic }
      in
      let acc = param :: acc in
      if Token.equal (peek p) Token.COMMA then begin
        advance p;
        loop acc
      end
      else List.rev acc
    end
  in
  let params = loop [] in
  eat p Token.RPAREN;
  params

and parse_stmts_until p closers : Ast.stmt list =
  let rec loop acc =
    let t = peek p in
    if Token.equal t Token.EOF || List.exists (Token.equal t) closers then List.rev acc
    else loop (parse_stmt p :: acc)
  in
  loop []

(* A statement body: either a brace block, a single statement, or (when
   [alt_end] is given) the alternative syntax [: ... end___;]. *)
and parse_body p ~alt_end : Ast.stmt list =
  match peek p with
  | Token.LBRACE ->
      advance p;
      let body = parse_stmts_until p [ Token.RBRACE ] in
      eat p Token.RBRACE;
      body
  | Token.COLON ->
      advance p;
      let closers = alt_end in
      let body = parse_stmts_until p closers in
      (* the caller consumes the end keyword *)
      body
  | _ -> [ parse_stmt p ]

and parse_stmt p : Ast.stmt =
  let loc = cur_loc p in
  match peek p with
  | Token.INLINE_HTML h ->
      advance p;
      Ast.mk_s ~loc (Ast.Inline_html h)
  | Token.SEMI ->
      advance p;
      Ast.mk_s ~loc Ast.Nop
  | Token.LBRACE ->
      advance p;
      let body = parse_stmts_until p [ Token.RBRACE ] in
      eat p Token.RBRACE;
      Ast.mk_s ~loc (Ast.Block body)
  | Token.K_IF -> parse_if p loc
  | Token.K_WHILE ->
      advance p;
      eat p Token.LPAREN;
      let cond = parse_expr p in
      eat p Token.RPAREN;
      let body = parse_body p ~alt_end:[ Token.K_ENDWHILE ] in
      if Token.equal (peek p) Token.K_ENDWHILE then begin
        advance p;
        eat_semi p
      end;
      Ast.mk_s ~loc (Ast.While (cond, body))
  | Token.K_DO ->
      advance p;
      let body = parse_body p ~alt_end:[] in
      eat p Token.K_WHILE;
      eat p Token.LPAREN;
      let cond = parse_expr p in
      eat p Token.RPAREN;
      eat_semi p;
      Ast.mk_s ~loc (Ast.Do_while (body, cond))
  | Token.K_FOR ->
      advance p;
      eat p Token.LPAREN;
      let init = parse_expr_list p Token.SEMI in
      eat p Token.SEMI;
      let cond = parse_expr_list p Token.SEMI in
      eat p Token.SEMI;
      let step = parse_expr_list p Token.RPAREN in
      eat p Token.RPAREN;
      let body = parse_body p ~alt_end:[ Token.K_ENDFOR ] in
      if Token.equal (peek p) Token.K_ENDFOR then begin
        advance p;
        eat_semi p
      end;
      Ast.mk_s ~loc (Ast.For (init, cond, step, body))
  | Token.K_FOREACH ->
      advance p;
      eat p Token.LPAREN;
      let subject = parse_expr p in
      eat p Token.K_AS;
      let first_ref =
        if Token.equal (peek p) Token.AMP then begin
          advance p;
          true
        end
        else false
      in
      let first = parse_expr p in
      let binding =
        if Token.equal (peek p) Token.DOUBLE_ARROW then begin
          advance p;
          let by_ref =
            if Token.equal (peek p) Token.AMP then begin
              advance p;
              true
            end
            else false
          in
          let v = parse_expr p in
          { Ast.fe_key = Some first; fe_by_ref = by_ref; fe_value = v }
        end
        else { Ast.fe_key = None; fe_by_ref = first_ref; fe_value = first }
      in
      eat p Token.RPAREN;
      let body = parse_body p ~alt_end:[ Token.K_ENDFOREACH ] in
      if Token.equal (peek p) Token.K_ENDFOREACH then begin
        advance p;
        eat_semi p
      end;
      Ast.mk_s ~loc (Ast.Foreach (subject, binding, body))
  | Token.K_SWITCH ->
      advance p;
      eat p Token.LPAREN;
      let subject = parse_expr p in
      eat p Token.RPAREN;
      let alt = Token.equal (peek p) Token.COLON in
      if alt then advance p else eat p Token.LBRACE;
      let closer = if alt then Token.K_ENDSWITCH else Token.RBRACE in
      let rec cases acc =
        match peek p with
        | t when Token.equal t closer ->
            advance p;
            if alt then eat_semi p;
            List.rev acc
        | Token.K_CASE ->
            advance p;
            let e = parse_expr p in
            (match peek p with
            | Token.COLON | Token.SEMI -> advance p
            | _ -> fail p "expected : after case");
            let body =
              parse_stmts_until p [ Token.K_CASE; Token.K_DEFAULT; closer ]
            in
            cases (Ast.Case (e, body) :: acc)
        | Token.K_DEFAULT ->
            advance p;
            (match peek p with
            | Token.COLON | Token.SEMI -> advance p
            | _ -> fail p "expected : after default");
            let body =
              parse_stmts_until p [ Token.K_CASE; Token.K_DEFAULT; closer ]
            in
            cases (Ast.Default body :: acc)
        | _ -> fail p "expected case, default or end of switch"
      in
      Ast.mk_s ~loc (Ast.Switch (subject, cases []))
  | Token.K_BREAK ->
      advance p;
      let n =
        match peek p with
        | Token.INT n ->
            advance p;
            Some n
        | _ -> None
      in
      eat_semi p;
      Ast.mk_s ~loc (Ast.Break n)
  | Token.K_CONTINUE ->
      advance p;
      let n =
        match peek p with
        | Token.INT n ->
            advance p;
            Some n
        | _ -> None
      in
      eat_semi p;
      Ast.mk_s ~loc (Ast.Continue n)
  | Token.K_RETURN ->
      advance p;
      let e =
        match peek p with
        | Token.SEMI | Token.EOF -> None
        | _ -> Some (parse_expr p)
      in
      eat_semi p;
      Ast.mk_s ~loc (Ast.Return e)
  | Token.K_GLOBAL ->
      advance p;
      let rec vars acc =
        let v = variable p in
        if Token.equal (peek p) Token.COMMA then begin
          advance p;
          vars (v :: acc)
        end
        else List.rev (v :: acc)
      in
      let l = vars [] in
      eat_semi p;
      Ast.mk_s ~loc (Ast.Global l)
  | Token.K_STATIC when is_static_var_decl p ->
      advance p;
      let rec vars acc =
        let v = variable p in
        let init =
          if Token.equal (peek p) Token.EQ then begin
            advance p;
            Some (parse_expr p)
          end
          else None
        in
        let acc = (v, init) :: acc in
        if Token.equal (peek p) Token.COMMA then begin
          advance p;
          vars acc
        end
        else List.rev acc
      in
      let l = vars [] in
      eat_semi p;
      Ast.mk_s ~loc (Ast.Static_vars l)
  | Token.K_UNSET ->
      advance p;
      eat p Token.LPAREN;
      let rec exprs acc =
        let e = parse_expr p in
        if Token.equal (peek p) Token.COMMA then begin
          advance p;
          exprs (e :: acc)
        end
        else List.rev (e :: acc)
      in
      let l = exprs [] in
      eat p Token.RPAREN;
      eat_semi p;
      Ast.mk_s ~loc (Ast.Unset l)
  | Token.K_THROW ->
      advance p;
      let e = parse_expr p in
      eat_semi p;
      Ast.mk_s ~loc (Ast.Throw e)
  | Token.K_TRY ->
      advance p;
      eat p Token.LBRACE;
      let body = parse_stmts_until p [ Token.RBRACE ] in
      eat p Token.RBRACE;
      let rec catches acc =
        if Token.equal (peek p) Token.K_CATCH then begin
          advance p;
          eat p Token.LPAREN;
          let rec types acc =
            let t = ident p in
            if Token.equal (peek p) Token.PIPE then begin
              advance p;
              types (t :: acc)
            end
            else List.rev (t :: acc)
          in
          let tys = types [] in
          let v =
            match peek p with
            | Token.VARIABLE v ->
                advance p;
                Some v
            | _ -> None
          in
          eat p Token.RPAREN;
          eat p Token.LBRACE;
          let cb = parse_stmts_until p [ Token.RBRACE ] in
          eat p Token.RBRACE;
          catches ({ Ast.c_types = tys; c_var = v; c_body = cb } :: acc)
        end
        else List.rev acc
      in
      let cs = catches [] in
      let fin =
        if Token.equal (peek p) Token.K_FINALLY then begin
          advance p;
          eat p Token.LBRACE;
          let fb = parse_stmts_until p [ Token.RBRACE ] in
          eat p Token.RBRACE;
          Some fb
        end
        else None
      in
      Ast.mk_s ~loc (Ast.Try (body, cs, fin))
  | Token.K_FUNCTION when is_function_decl p -> Ast.mk_s ~loc (Ast.Func_def (parse_func p))
  | Token.K_ABSTRACT | Token.K_FINAL | Token.K_CLASS | Token.K_INTERFACE ->
      parse_class p loc
  | Token.K_ECHO ->
      advance p;
      let rec exprs acc =
        let e = parse_expr p in
        if Token.equal (peek p) Token.COMMA then begin
          advance p;
          exprs (e :: acc)
        end
        else List.rev (e :: acc)
      in
      let l = exprs [] in
      eat_semi p;
      Ast.mk_s ~loc (Ast.Echo l)
  | Token.K_CONST ->
      advance p;
      let rec consts acc =
        let n = ident p in
        eat p Token.EQ;
        let e = parse_expr p in
        let acc = (n, e) :: acc in
        if Token.equal (peek p) Token.COMMA then begin
          advance p;
          consts acc
        end
        else List.rev acc
      in
      let l = consts [] in
      eat_semi p;
      Ast.mk_s ~loc (Ast.Const_def l)
  | Token.K_USE ->
      (* file-level `use Foo\Bar;` import: parse and ignore (namespaces are
         out of scope for the analysis) *)
      advance p;
      let rec skip () =
        match peek p with
        | Token.SEMI | Token.EOF -> ()
        | _ ->
            advance p;
            skip ()
      in
      skip ();
      eat_semi p;
      Ast.mk_s ~loc Ast.Nop
  | _ ->
      let e = parse_expr p in
      eat_semi p;
      Ast.mk_s ~loc (Ast.Expr_stmt e)

and is_static_var_decl p =
  match peek_at p 1 with Token.VARIABLE _ -> true | _ -> false

and is_function_decl p =
  match peek_at p 1 with
  | Token.IDENT _ -> true
  | Token.AMP -> ( match peek_at p 2 with Token.IDENT _ -> true | _ -> false)
  | _ -> false

and parse_if p loc : Ast.stmt =
  eat p Token.K_IF;
  eat p Token.LPAREN;
  let cond = parse_expr p in
  eat p Token.RPAREN;
  (* Alternative syntax handled uniformly: a branch body stops at
     elseif/else/endif when using colons. *)
  let alt = Token.equal (peek p) Token.COLON in
  let branch_body () =
    if alt then begin
      eat p Token.COLON;
      parse_stmts_until p [ Token.K_ELSEIF; Token.K_ELSE; Token.K_ENDIF ]
    end
    else parse_body p ~alt_end:[]
  in
  let first = (cond, branch_body ()) in
  let rec elifs acc =
    match peek p with
    | Token.K_ELSEIF ->
        advance p;
        eat p Token.LPAREN;
        let c = parse_expr p in
        eat p Token.RPAREN;
        let b = branch_body () in
        elifs ((c, b) :: acc)
    | Token.K_ELSE when Token.equal (peek_at p 1) Token.K_IF ->
        advance p;
        advance p;
        eat p Token.LPAREN;
        let c = parse_expr p in
        eat p Token.RPAREN;
        let b = branch_body () in
        elifs ((c, b) :: acc)
    | _ -> List.rev acc
  in
  let rest = elifs [] in
  let els =
    if Token.equal (peek p) Token.K_ELSE then begin
      advance p;
      Some (branch_body ())
    end
    else None
  in
  if alt then begin
    eat p Token.K_ENDIF;
    eat_semi p
  end;
  Ast.mk_s ~loc (Ast.If (first :: rest, els))

and parse_expr_list p stop =
  if Token.equal (peek p) stop then []
  else
    let rec loop acc =
      let e = parse_expr p in
      if Token.equal (peek p) Token.COMMA then begin
        advance p;
        loop (e :: acc)
      end
      else List.rev (e :: acc)
    in
    loop []

and parse_func p : Ast.func =
  let loc = cur_loc p in
  eat p Token.K_FUNCTION;
  let by_ref =
    if Token.equal (peek p) Token.AMP then begin
      advance p;
      true
    end
    else false
  in
  let name = ident p in
  let params = parse_params p in
  (* optional return type *)
  if Token.equal (peek p) Token.COLON then begin
    advance p;
    if Token.equal (peek p) Token.QUESTION then advance p;
    (match peek p with
    | Token.IDENT _ -> ignore (ident p)
    | Token.K_ARRAY -> advance p
    | _ -> fail p "expected return type")
  end;
  if Token.equal (peek p) Token.SEMI then begin
    (* abstract / interface method: empty body *)
    advance p;
    { Ast.f_name = name; f_params = params; f_body = []; f_by_ref = by_ref; f_loc = loc }
  end
  else begin
    eat p Token.LBRACE;
    let body = parse_stmts_until p [ Token.RBRACE ] in
    eat p Token.RBRACE;
    { Ast.f_name = name; f_params = params; f_body = body; f_by_ref = by_ref; f_loc = loc }
  end

and parse_class p loc : Ast.stmt =
  let abstract = ref false and final = ref false in
  let rec modifiers () =
    match peek p with
    | Token.K_ABSTRACT ->
        abstract := true;
        advance p;
        modifiers ()
    | Token.K_FINAL ->
        final := true;
        advance p;
        modifiers ()
    | _ -> ()
  in
  modifiers ();
  let interface =
    match peek p with
    | Token.K_CLASS ->
        advance p;
        false
    | Token.K_INTERFACE ->
        advance p;
        true
    | _ -> fail p "expected class or interface"
  in
  let name = ident p in
  let parent =
    if Token.equal (peek p) Token.K_EXTENDS then begin
      advance p;
      Some (ident p)
    end
    else None
  in
  let implements =
    if Token.equal (peek p) Token.K_IMPLEMENTS then begin
      advance p;
      let rec loop acc =
        let i = ident p in
        if Token.equal (peek p) Token.COMMA then begin
          advance p;
          loop (i :: acc)
        end
        else List.rev (i :: acc)
      in
      loop []
    end
    else []
  in
  eat p Token.LBRACE;
  let consts = ref [] and props = ref [] and methods = ref [] in
  let rec members () =
    if Token.equal (peek p) Token.RBRACE then ()
    else begin
      let vis = ref Ast.Public
      and static = ref false
      and m_abstract = ref false
      and m_final = ref false in
      let rec mods () =
        match peek p with
        | Token.K_PUBLIC ->
            vis := Ast.Public;
            advance p;
            mods ()
        | Token.K_PRIVATE ->
            vis := Ast.Private;
            advance p;
            mods ()
        | Token.K_PROTECTED ->
            vis := Ast.Protected;
            advance p;
            mods ()
        | Token.K_STATIC ->
            static := true;
            advance p;
            mods ()
        | Token.K_ABSTRACT ->
            m_abstract := true;
            advance p;
            mods ()
        | Token.K_FINAL ->
            m_final := true;
            advance p;
            mods ()
        | Token.K_VAR ->
            vis := Ast.Public;
            advance p;
            mods ()
        | _ -> ()
      in
      mods ();
      (match peek p with
      | Token.K_CONST ->
          advance p;
          let rec loop () =
            let n = ident p in
            eat p Token.EQ;
            let e = parse_expr p in
            consts := (n, e) :: !consts;
            if Token.equal (peek p) Token.COMMA then begin
              advance p;
              loop ()
            end
          in
          loop ();
          eat_semi p
      | Token.K_FUNCTION ->
          let f = parse_func p in
          methods :=
            { Ast.m_visibility = !vis; m_static = !static; m_abstract = !m_abstract;
              m_final = !m_final; m_func = f }
            :: !methods
      | Token.VARIABLE _ ->
          let rec loop () =
            let v = variable p in
            let d =
              if Token.equal (peek p) Token.EQ then begin
                advance p;
                Some (parse_expr p)
              end
              else None
            in
            props :=
              { Ast.pr_name = v; pr_static = !static; pr_visibility = !vis; pr_default = d }
              :: !props;
            if Token.equal (peek p) Token.COMMA then begin
              advance p;
              loop ()
            end
          in
          loop ();
          eat_semi p
      | _ -> fail p "expected class member");
      members ()
    end
  in
  members ();
  eat p Token.RBRACE;
  Ast.mk_s ~loc
    (Ast.Class_def
       {
         Ast.k_name = name;
         k_parent = parent;
         k_implements = implements;
         k_abstract = !abstract;
         k_final = !final;
         k_interface = interface;
         k_consts = List.rev !consts;
         k_props = List.rev !props;
         k_methods = List.rev !methods;
         k_loc = loc;
       })

(* ------------------------------------------------------------------ *)
(* Entry points.                                                       *)

(** Parse an already-tokenized buffer.  This is the raw parse kernel —
    no lexing, no tracing — used by the perfbench probe to time the
    parse layer apart from lexing and by callers that already hold a
    buffer. *)
let parse_buf buf : Ast.program =
  let p = make_buf buf in
  let prog = parse_stmts_until p [] in
  (match peek p with
  | Token.EOF -> ()
  | _ -> fail p "trailing tokens after program");
  prog

(** Parse a full PHP source string (HTML + [<?php ... ?>] segments). *)
let parse_string ~file src : Ast.program =
  let buf = Lexer.tokenize_buf ~file src in
  Wap_obs.Trace.with_span ~cat:"php" "parse" ~args:[ ("file", file) ]
  @@ fun () -> parse_buf buf

(** Parse a file from disk. *)
let parse_file path : Ast.program = parse_string ~file:path (Io.read_file path)

(** Parse a standalone expression, e.g. from a weapon spec file. *)
let parse_expression ?(file = "<expr>") src : Ast.expr =
  let buf = Lexer.tokenize_buf ~file ("<?php " ^ src ^ ";") in
  let p = make_buf buf in
  let e = parse_expr p in
  e

(* ------------------------------------------------------------------ *)
(* Error-tolerant parsing.                                             *)

type recovered_error = { err_msg : string; err_loc : Loc.t }

(* Skip forward to a statement boundary: just past the next ';' at
   depth zero, just past one balanced brace group (a broken construct's
   body), or to a closing brace / EOF. *)
let rec skip_to_boundary p depth =
  match peek p with
  | Token.EOF -> ()
  | Token.SEMI when depth = 0 -> advance p
  | Token.LBRACE ->
      advance p;
      skip_to_boundary p (depth + 1)
  | Token.RBRACE ->
      (* at depth zero this is a stray closer left over from the broken
         construct: consume it *)
      advance p;
      if depth > 1 then skip_to_boundary p (depth - 1)
  | _ ->
      advance p;
      skip_to_boundary p depth

(** Parse a full source text, recovering from syntax errors by skipping
    to the next statement boundary.  Returns the statements that parsed
    plus the list of recovered errors — a scanner must not die on the
    one malformed file of an 8,000-file application. *)
let parse_string_tolerant ~file src : Ast.program * recovered_error list =
  match Lexer.tokenize_buf ~file src with
  | exception Lexer.Error (msg, loc) -> ([], [ { err_msg = msg; err_loc = loc } ])
  | buf ->
      Wap_obs.Trace.with_span ~cat:"php" "parse" ~args:[ ("file", file) ]
      @@ fun () ->
      let p = make_buf buf in
      let stmts = ref [] in
      let errors = ref [] in
      let rec loop () =
        match peek p with
        | Token.EOF -> ()
        | _ -> (
            let before = p.i in
            match parse_stmt p with
            | s ->
                stmts := s :: !stmts;
                loop ()
            | exception Error (msg, loc) ->
                errors := { err_msg = msg; err_loc = loc } :: !errors;
                if p.i = before then advance p;
                skip_to_boundary p 0;
                loop ()
            | exception Lexer.Error (msg, loc) ->
                errors := { err_msg = msg; err_loc = loc } :: !errors;
                if p.i = before then advance p;
                skip_to_boundary p 0;
                loop ())
      in
      loop ();
      (List.rev !stmts, List.rev !errors)

(* Grammar-driven random PHP programs.

   Two constraints shape everything here.  First, the output is weighted
   toward what WAP's pipeline actually exercises: superglobal reads,
   sensitive sinks, sanitizer wraps, string interpolation — a uniformly
   random AST almost never builds a tainted flow.  Second, generated
   ASTs must be *canonical*: the printer/parser fixpoint oracle demands
   [parse (print ast) = ast] modulo locations, so the generator only
   emits shapes the parser normalizes to themselves (e.g. non-negative
   integer literals, since [-5] parses as [Unop (Neg, Int 5)];
   interpolation parts that alternate and start with [$], since the
   printed [{e}] only re-lexes as an expression part when [e] does). *)

open Wap_php
open Ast

type t = {
  rng : Rng.t;
  mutable vars : string list;
  mutable fns : (string * int) list;
      (** the program's own functions (name, arity), callable from every
          body and from the top level *)
}

let create rng = { rng; vars = []; fns = [] }

(* ------------------------------------------------------------------ *)
(* Pools.                                                              *)

let superglobal_pool = [ "_GET"; "_POST"; "_COOKIE"; "_REQUEST" ]

let key_pool =
  [ "id"; "name"; "q"; "page"; "user"; "file"; "cmd"; "x"; "emo\xf0\x9f\x98\x80ji" ]

(* Deliberately nasty: quotes, backslashes, braces, backticks, dollar
   signs, control characters, astral UTF-8.  The printer must escape all
   of these correctly in whichever quoting style it picks. *)
let string_pool =
  [ "a"; "hello"; " "; "x'y"; "a\\b"; "nl\nend"; "tab\tend"; "do$lar";
    "cur{ly}"; "ba`ck"; "qu\"ote"; "emo\xf0\x9f\x98\x80ji"; "acc\xc3\xa9nt";
    "%s"; "SELECT * FROM t WHERE id = "; "0"; "{$not_interp}"; "\\" ]

let float_pool = [ 0.0; 0.5; 1.25; 3.14; 10.0; 0.1; 1e10; 1.5e-3; 0.30000000000000004 ]

let constant_pool = [ "true"; "false"; "null"; "PHP_EOL" ]

let benign_fns =
  [ "strlen"; "substr"; "trim"; "strtolower"; "strtoupper"; "implode";
    "sprintf"; "md5"; "count"; "intval"; "str_replace"; "is_numeric" ]

let sanitizer_pool =
  [ "htmlspecialchars"; "htmlentities"; "mysql_real_escape_string";
    "addslashes"; "escapeshellarg"; "basename"; "strip_tags" ]

let source_fn_pool = [ "mysql_fetch_assoc"; "mysqli_fetch_array"; "file_get_contents" ]

let prop_pool = [ "name"; "value"; "row"; "data" ]

(* ------------------------------------------------------------------ *)
(* Variables.                                                          *)

let fresh t =
  let v = Printf.sprintf "v%d" (List.length t.vars) in
  t.vars <- v :: t.vars;
  v

let any_var t = if t.vars = [] || Rng.chance t.rng 1 4 then fresh t else Rng.pick t.rng t.vars

(* ------------------------------------------------------------------ *)
(* Expressions.                                                        *)

let superglobal_read t =
  mk_e
    (Index
       ( var (Rng.pick t.rng superglobal_pool),
         Some (str (Rng.pick t.rng key_pool)) ))

(* Expressions allowed inside [{...}] interpolation: must start with [$]
   so the printed [{$...}] re-lexes as a complex part. *)
let interp_expr t =
  match Rng.int t.rng 4 with
  | 0 -> var (any_var t)
  | 1 -> mk_e (Index (var (any_var t), Some (str (Rng.pick t.rng key_pool))))
  | 2 -> mk_e (Index (var (any_var t), Some (int_ (Rng.int t.rng 100))))
  | _ -> mk_e (Prop (var (any_var t), Mem_ident (Rng.pick t.rng prop_pool)))

(* Alternating parts, at least one expression, no empty string part:
   anything else is normalized away by the lexer. *)
let interp_parts t =
  let n = Rng.range t.rng 1 3 in
  let parts = ref [] in
  for _ = 1 to n do
    if Rng.chance t.rng 2 3 then
      parts := Ip_str (Rng.pick t.rng string_pool) :: !parts;
    parts := Ip_expr (interp_expr t) :: !parts
  done;
  if Rng.chance t.rng 1 2 then
    parts := Ip_str (Rng.pick t.rng string_pool) :: !parts;
  List.rev !parts

(* A call to one of the program's own functions — declared before the
   caller, after it, or the caller itself — with tainted and clean
   arguments: summaries applied at call sites, and calls whose callee
   pass 1 has not summarized yet. *)
let user_call t =
  let name, arity = Rng.pick t.rng t.fns in
  let arg _ =
    match Rng.int t.rng 3 with
    | 0 -> superglobal_read t
    | 1 -> str (Rng.pick t.rng string_pool)
    | _ -> var (any_var t)
  in
  call name (List.init arity arg)

(* [choices] plus [extra] when the program declares functions. *)
let with_user_calls t extra choices = if t.fns = [] then choices else extra :: choices

let atom t =
  match Rng.weighted t.rng [ (3, `Int); (2, `Str); (1, `Float); (3, `Var); (1, `Const); (2, `Sg) ] with
  | `Int -> int_ (Rng.int t.rng 1000)
  | `Str -> str (Rng.pick t.rng string_pool)
  | `Float -> mk_e (Float (Rng.pick t.rng float_pool))
  | `Var -> var (any_var t)
  | `Const -> mk_e (Constant (Rng.pick t.rng constant_pool))
  | `Sg -> superglobal_read t

let rec expr t depth =
  if depth <= 0 then atom t
  else
    match
      Rng.weighted t.rng
        (with_user_calls t (2, `User)
           [ (6, `Atom); (4, `Binop); (3, `Interp); (3, `Call); (2, `Index);
             (1, `Ternary); (1, `Unop); (1, `Cast); (1, `Array); (1, `Prop);
             (1, `Isset); (1, `Backtick) ])
    with
    | `Atom -> atom t
    | `User -> user_call t
    | `Binop ->
        let op =
          Rng.weighted t.rng
            [ (5, Concat); (2, Plus); (1, Minus); (1, Mul); (1, Eq_eq);
              (1, Lt); (1, Bool_and); (1, Coalesce) ]
        in
        mk_e (Binop (op, expr t (depth - 1), expr t (depth - 1)))
    | `Interp -> mk_e (Interp (interp_parts t))
    | `Call -> call (Rng.pick t.rng benign_fns) [ expr t (depth - 1) ]
    | `Index -> mk_e (Index (var (any_var t), Some (expr t (depth - 1))))
    | `Ternary ->
        let c = expr t (depth - 1) in
        if Rng.chance t.rng 1 4 then mk_e (Ternary (c, None, expr t (depth - 1)))
        else mk_e (Ternary (c, Some (expr t (depth - 1)), expr t (depth - 1)))
    | `Unop -> mk_e (Unop (Rng.pick t.rng [ Neg; Not ], expr t (depth - 1)))
    | `Cast -> mk_e (Cast (Rng.pick t.rng [ C_int; C_string ], expr t (depth - 1)))
    | `Array ->
        let n = Rng.range t.rng 0 3 in
        let item _ =
          let key =
            if Rng.chance t.rng 1 2 then None
            else if Rng.bool t.rng then Some (str (Rng.pick t.rng key_pool))
            else Some (int_ (Rng.int t.rng 10))
          in
          { ai_key = key; ai_value = expr t (depth - 1); ai_by_ref = false }
        in
        mk_e (Array_lit (List.init n item))
    | `Prop -> mk_e (Prop (var (any_var t), Mem_ident (Rng.pick t.rng prop_pool)))
    | `Isset -> mk_e (Isset [ var (any_var t) ])
    | `Backtick -> mk_e (Backtick (interp_parts t))

(* A possibly-tainted expression: a source, sometimes propagated through
   concatenation / interpolation / a function, sometimes sanitized. *)
let tainted_expr t =
  let base =
    if Rng.chance t.rng 3 4 then superglobal_read t
    else call (Rng.pick t.rng source_fn_pool) [ var (any_var t) ]
  in
  let e =
    match Rng.int t.rng 4 with
    | 0 -> base
    | 1 -> mk_e (Binop (Concat, str (Rng.pick t.rng string_pool), base))
    | 2 -> call (Rng.pick t.rng benign_fns) [ base ]
    | _ -> base
  in
  if Rng.chance t.rng 1 4 then call (Rng.pick t.rng sanitizer_pool) [ e ] else e

(* ------------------------------------------------------------------ *)
(* Statements.                                                         *)

let assign_lvalue t =
  match Rng.int t.rng 5 with
  | 0 | 1 -> var (fresh t)
  | 2 -> var (any_var t)
  | 3 -> mk_e (Index (var (any_var t), Some (str (Rng.pick t.rng key_pool))))
  | _ -> mk_e (Index (var (any_var t), None))

let sink_stmt t arg =
  match
    Rng.weighted t.rng
      [ (3, `Mysql); (1, `Mysqli); (2, `Exec); (1, `System); (3, `Echo);
        (1, `Print); (1, `Include); (1, `Fopen); (1, `Header); (1, `Wpdb);
        (1, `Readfile) ]
  with
  | `Mysql -> mk_s (Expr_stmt (call "mysql_query" [ arg ]))
  | `Mysqli -> mk_s (Expr_stmt (call "mysqli_query" [ var "conn"; arg ]))
  | `Exec -> mk_s (Expr_stmt (call "exec" [ arg ]))
  | `System -> mk_s (Expr_stmt (call "system" [ arg ]))
  | `Echo ->
      if Rng.chance t.rng 1 3 then mk_s (Echo [ str (Rng.pick t.rng string_pool); arg ])
      else mk_s (Echo [ arg ])
  | `Print -> mk_s (Expr_stmt (mk_e (Print arg)))
  | `Include -> mk_s (Expr_stmt (mk_e (Include (Inc, arg))))
  | `Fopen -> mk_s (Expr_stmt (call "fopen" [ arg; str "r" ]))
  | `Header -> mk_s (Expr_stmt (call "header" [ arg ]))
  | `Wpdb ->
      mk_s
        (Expr_stmt
           (mk_e (Call (F_method (var "wpdb", Mem_ident "query"),
                        [ { a_expr = arg; a_spread = false } ]))))
  | `Readfile -> mk_s (Expr_stmt (call "readfile" [ arg ]))

(* The shape the detectors exist for: source, optional propagation,
   sink.  Emitted with high probability so most programs contain at
   least one candidate flow. *)
let taint_chain t =
  let v = fresh t in
  let s1 = mk_s (Expr_stmt (mk_e (Assign (A_eq, var v, tainted_expr t)))) in
  let prop =
    match Rng.int t.rng 4 with
    | 0 ->
        let w = fresh t in
        [ mk_s
            (Expr_stmt
               (mk_e
                  (Assign
                     ( A_eq,
                       var w,
                       mk_e
                         (Interp
                            [ Ip_str (Rng.pick t.rng string_pool); Ip_expr (var v) ]) )))) ]
    | 1 ->
        [ mk_s
            (Expr_stmt
               (mk_e (Assign (A_concat, var v, str (Rng.pick t.rng string_pool))))) ]
    | 2 ->
        let w = fresh t in
        [ mk_s (Expr_stmt (mk_e (Assign (A_eq, var w, mk_e (Binop (Concat, str "q=", var v)))))) ]
    | _ -> []
  in
  let sink_var = match t.vars with v' :: _ -> v' | [] -> v in
  [ s1 ] @ prop @ [ sink_stmt t (var sink_var) ]

let rec stmt t depth =
  match
    Rng.weighted t.rng
      (with_user_calls t (3, `User)
         [ (6, `Assign); (3, `SinkCall); (2, `Echo); (2, `If); (1, `While);
           (1, `Foreach); (1, `ExprOnly); (1, `Global); (1, `Unset);
           (1, `Return); (1, `Block) ])
  with
  | `User -> (
      match Rng.int t.rng 3 with
      | 0 -> mk_s (Expr_stmt (user_call t))
      | 1 -> mk_s (Expr_stmt (mk_e (Assign (A_eq, var (fresh t), user_call t))))
      | _ -> sink_stmt t (user_call t))
  | `Assign ->
      let op = Rng.weighted t.rng [ (5, A_eq); (2, A_concat); (1, A_plus) ] in
      mk_s (Expr_stmt (mk_e (Assign (op, assign_lvalue t, expr t depth))))
  | `SinkCall -> sink_stmt t (expr t depth)
  | `Echo -> mk_s (Echo [ expr t depth ])
  | `If ->
      let cond = expr t (depth - 1) in
      let body = stmts t (depth - 1) (Rng.range t.rng 1 2) in
      let els =
        if Rng.chance t.rng 1 3 then Some (stmts t (depth - 1) 1) else None
      in
      mk_s (If ([ (cond, body) ], els))
  | `While -> mk_s (While (expr t (depth - 1), stmts t (depth - 1) (Rng.range t.rng 1 2)))
  | `Foreach ->
      let key =
        if Rng.chance t.rng 1 3 then Some (var (fresh t)) else None
      in
      mk_s
        (Foreach
           ( var (any_var t),
             { fe_key = key; fe_by_ref = false; fe_value = var (fresh t) },
             stmts t (depth - 1) (Rng.range t.rng 1 2) ))
  | `ExprOnly -> mk_s (Expr_stmt (expr t depth))
  | `Global -> mk_s (Global [ any_var t ])
  | `Unset -> mk_s (Unset [ var (any_var t) ])
  | `Return ->
      if Rng.bool t.rng then mk_s (Return (Some (expr t (depth - 1))))
      else mk_s (Return None)
  | `Block -> mk_s (Block (stmts t (depth - 1) (Rng.range t.rng 1 2)))

and stmts t depth n = List.init n (fun _ -> stmt t (max 0 depth))

let func_def t (name, arity) =
  let outer = t.vars in
  let params =
    List.init arity (fun i ->
        let p = Printf.sprintf "p%d" i in
        t.vars <- p :: t.vars;
        { p_name = p; p_default = None; p_by_ref = false; p_hint = None; p_variadic = false })
  in
  let body =
    let body_stmts = stmts t 1 (Rng.range t.rng 1 3) in
    (* sometimes a param flows straight into a sink: the interprocedural
       summary path *)
    match params with
    | p :: _ when Rng.chance t.rng 1 2 -> sink_stmt t (var p.p_name) :: body_stmts
    | _ -> body_stmts
  in
  t.vars <- outer;
  mk_s (Func_def { f_name = name; f_params = params; f_body = body; f_by_ref = false; f_loc = Loc.dummy })

(* ------------------------------------------------------------------ *)
(* Whole programs.                                                     *)

let program ?(max_stmts = 10) rng : program =
  let t = create rng in
  t.fns <-
    List.init (Rng.int t.rng 4) (fun _ ->
        (Printf.sprintf "fn%d" (Rng.int t.rng 1000), Rng.range t.rng 0 2));
  let funcs = List.map (func_def t) t.fns in
  let n = Rng.range t.rng 1 (max 1 max_stmts) in
  let body = stmts t 2 n in
  let body =
    if Rng.chance t.rng 2 3 then
      let chain = taint_chain t in
      let cut = Rng.int t.rng (List.length body + 1) in
      List.filteri (fun i _ -> i < cut) body
      @ chain
      @ List.filteri (fun i _ -> i >= cut) body
    else body
  in
  funcs @ body

(* ------------------------------------------------------------------ *)
(* Spice: raw source fragments the AST cannot express (heredocs,
   overflowing literals, comments, binary literals), appended to a
   printed program.  Cases carrying spice only run the totality-style
   oracles — the fragments are exactly the ones designed to stress the
   lexer's literal handling. *)

let spice_pool =
  [ "$fz = 0xFFFFFFFFFFFFFFFF;";
    "$fz = 9223372036854775808;";
    "$fz = 0x10000000000000000;";
    "$fz = \"$a[99999999999999999999]\";";
    "$fz = \"$a[18446744073709551616] tail\";";
    "$fz = 1e309;";
    "$fz = 077777777777777777777777777;";
    "$fz = <<<EOT\nrow $a[12345678901234567890] end\nEOT;";
    "$fz = `id \\`sub\\` $x`;";
    "$fz = '\xf0\x9f\x98\x80';";
    "$fz = \"\\x41\\101 $v\";";
    "// line comment\n$fz = 1;";
    "/* block */ $fz = 2;";
    "$fz = 0b11;";
    "$fz = \"{$a[0xFF]}\";";
    "$fz = .5;" ]

let spice rng source =
  let n = Rng.range rng 1 3 in
  let extras = List.init n (fun _ -> Rng.pick rng spice_pool) in
  source ^ "\n" ^ String.concat "\n" extras ^ "\n"

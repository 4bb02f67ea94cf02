(** Generic traversals over the PHP AST.

    The detectors and the symptom collector both need to walk every
    expression and statement; these folds centralize the recursion so
    each client only writes the interesting cases. *)

open Ast

(** [fold_expr f acc e] applies [f] to [e] and every sub-expression,
    in pre-order. *)
let rec fold_expr (f : 'a -> expr -> 'a) (acc : 'a) (e : expr) : 'a =
  let acc = f acc e in
  match e.e with
  | Int _ | Float _ | String _ | Var _ | Constant _ | Static_prop _ | Class_const _ ->
      acc
  | Interp parts | Backtick parts ->
      List.fold_left
        (fun acc -> function Ip_str _ -> acc | Ip_expr e -> fold_expr f acc e)
        acc parts
  | Var_var e1 | Clone e1 | Unop (_, e1) | Incdec (_, e1) | Cast (_, e1)
  | Empty e1 | Print e1 | Include (_, e1) ->
      fold_expr f acc e1
  | Array_lit items ->
      List.fold_left
        (fun acc it ->
          let acc =
            match it.ai_key with Some k -> fold_expr f acc k | None -> acc
          in
          fold_expr f acc it.ai_value)
        acc items
  | Index (e1, idx) -> (
      let acc = fold_expr f acc e1 in
      match idx with Some i -> fold_expr f acc i | None -> acc)
  | Prop (e1, m) -> (
      let acc = fold_expr f acc e1 in
      match m with Mem_expr e2 -> fold_expr f acc e2 | Mem_ident _ -> acc)
  | Call (callee, args) ->
      let acc =
        match callee with
        | F_ident _ | F_static _ -> acc
        | F_var e1 -> fold_expr f acc e1
        | F_method (e1, m) -> (
            let acc = fold_expr f acc e1 in
            match m with Mem_expr e2 -> fold_expr f acc e2 | Mem_ident _ -> acc)
      in
      List.fold_left (fun acc a -> fold_expr f acc a.a_expr) acc args
  | New (_, args) -> List.fold_left (fun acc a -> fold_expr f acc a.a_expr) acc args
  | Binop (_, l, r) | Assign (_, l, r) | Assign_ref (l, r) ->
      fold_expr f (fold_expr f acc l) r
  | Ternary (c, t, e2) -> (
      let acc = fold_expr f acc c in
      let acc = match t with Some t -> fold_expr f acc t | None -> acc in
      fold_expr f acc e2)
  | Isset es -> List.fold_left (fold_expr f) acc es
  | Exit e1 -> ( match e1 with Some e1 -> fold_expr f acc e1 | None -> acc)
  | List es ->
      List.fold_left
        (fun acc -> function Some e1 -> fold_expr f acc e1 | None -> acc)
        acc es
  | Closure c -> fold_stmts_with_expr f acc c.cl_body

(** [fold_stmts_with_expr f acc stmts] folds [f] over every expression
    reachable from [stmts], including nested functions and classes. *)
and fold_stmts_with_expr f acc stmts =
  List.fold_left (fold_stmt_with_expr f) acc stmts

and fold_stmt_with_expr f acc (s : stmt) =
  match s.s with
  | Expr_stmt e | Throw e -> fold_expr f acc e
  | Echo es | Unset es -> List.fold_left (fold_expr f) acc es
  | If (branches, els) ->
      let acc =
        List.fold_left
          (fun acc (c, body) -> fold_stmts_with_expr f (fold_expr f acc c) body)
          acc branches
      in
      (match els with Some body -> fold_stmts_with_expr f acc body | None -> acc)
  | While (c, body) -> fold_stmts_with_expr f (fold_expr f acc c) body
  | Do_while (body, c) -> fold_expr f (fold_stmts_with_expr f acc body) c
  | For (init, cond, step, body) ->
      let acc = List.fold_left (fold_expr f) acc init in
      let acc = List.fold_left (fold_expr f) acc cond in
      let acc = List.fold_left (fold_expr f) acc step in
      fold_stmts_with_expr f acc body
  | Foreach (subject, binding, body) ->
      let acc = fold_expr f acc subject in
      let acc =
        match binding.fe_key with Some k -> fold_expr f acc k | None -> acc
      in
      let acc = fold_expr f acc binding.fe_value in
      fold_stmts_with_expr f acc body
  | Switch (subject, cases) ->
      let acc = fold_expr f acc subject in
      List.fold_left
        (fun acc -> function
          | Case (e, body) -> fold_stmts_with_expr f (fold_expr f acc e) body
          | Default body -> fold_stmts_with_expr f acc body)
        acc cases
  | Return (Some e) -> fold_expr f acc e
  | Return None | Break _ | Continue _ | Global _ | Inline_html _ | Nop -> acc
  | Static_vars vs ->
      List.fold_left
        (fun acc (_, init) ->
          match init with Some e -> fold_expr f acc e | None -> acc)
        acc vs
  | Try (body, catches, fin) ->
      let acc = fold_stmts_with_expr f acc body in
      let acc =
        List.fold_left (fun acc c -> fold_stmts_with_expr f acc c.c_body) acc catches
      in
      (match fin with Some body -> fold_stmts_with_expr f acc body | None -> acc)
  | Func_def fn -> fold_stmts_with_expr f acc fn.f_body
  | Class_def k ->
      let acc =
        List.fold_left (fun acc (_, e) -> fold_expr f acc e) acc k.k_consts
      in
      let acc =
        List.fold_left
          (fun acc pr ->
            match pr.pr_default with Some e -> fold_expr f acc e | None -> acc)
          acc k.k_props
      in
      List.fold_left (fun acc m -> fold_stmts_with_expr f acc m.m_func.f_body) acc k.k_methods
  | Block body -> fold_stmts_with_expr f acc body
  | Const_def cs -> List.fold_left (fun acc (_, e) -> fold_expr f acc e) acc cs

(** [fold_expr_prune f acc e] is {!fold_expr} with pruning: [f] returns
    the new accumulator and whether to descend into the node's children.
    Clients walking a single scope use it to stop at closure boundaries
    or to treat lvalues specially. *)
let rec fold_expr_prune (f : 'a -> expr -> 'a * bool) (acc : 'a) (e : expr) : 'a =
  let acc, descend = f acc e in
  if not descend then acc
  else
    match e.e with
    | Int _ | Float _ | String _ | Var _ | Constant _ | Static_prop _ | Class_const _ ->
        acc
    | Interp parts | Backtick parts ->
        List.fold_left
          (fun acc -> function
            | Ip_str _ -> acc
            | Ip_expr e -> fold_expr_prune f acc e)
          acc parts
    | Var_var e1 | Clone e1 | Unop (_, e1) | Incdec (_, e1) | Cast (_, e1)
    | Empty e1 | Print e1 | Include (_, e1) ->
        fold_expr_prune f acc e1
    | Array_lit items ->
        List.fold_left
          (fun acc it ->
            let acc =
              match it.ai_key with Some k -> fold_expr_prune f acc k | None -> acc
            in
            fold_expr_prune f acc it.ai_value)
          acc items
    | Index (e1, idx) -> (
        let acc = fold_expr_prune f acc e1 in
        match idx with Some i -> fold_expr_prune f acc i | None -> acc)
    | Prop (e1, m) -> (
        let acc = fold_expr_prune f acc e1 in
        match m with Mem_expr e2 -> fold_expr_prune f acc e2 | Mem_ident _ -> acc)
    | Call (callee, args) ->
        let acc =
          match callee with
          | F_ident _ | F_static _ -> acc
          | F_var e1 -> fold_expr_prune f acc e1
          | F_method (e1, m) -> (
              let acc = fold_expr_prune f acc e1 in
              match m with
              | Mem_expr e2 -> fold_expr_prune f acc e2
              | Mem_ident _ -> acc)
        in
        List.fold_left (fun acc a -> fold_expr_prune f acc a.a_expr) acc args
    | New (_, args) ->
        List.fold_left (fun acc a -> fold_expr_prune f acc a.a_expr) acc args
    | Binop (_, l, r) | Assign (_, l, r) | Assign_ref (l, r) ->
        fold_expr_prune f (fold_expr_prune f acc l) r
    | Ternary (c, t, e2) -> (
        let acc = fold_expr_prune f acc c in
        let acc = match t with Some t -> fold_expr_prune f acc t | None -> acc in
        fold_expr_prune f acc e2)
    | Isset es -> List.fold_left (fold_expr_prune f) acc es
    | Exit e1 -> (
        match e1 with Some e1 -> fold_expr_prune f acc e1 | None -> acc)
    | List es ->
        List.fold_left
          (fun acc -> function Some e1 -> fold_expr_prune f acc e1 | None -> acc)
          acc es
    | Closure c ->
        List.fold_left
          (fun acc s -> fold_stmt_exprs_prune f acc s)
          acc c.cl_body

and fold_stmt_exprs_prune f acc (s : stmt) =
  let acc = List.fold_left (fold_expr_prune f) acc (stmt_exprs s) in
  List.fold_left (fold_stmt_exprs_prune f) acc (sub_stmts s)

(** [stmt_exprs s] is the expressions evaluated directly by [s] — its
    own expressions and the conditions of compound statements — without
    descending into nested statement bodies.  Function and class
    definitions evaluate nothing. *)
and stmt_exprs (s : stmt) : expr list =
  match s.s with
  | Expr_stmt e | Throw e | Return (Some e) -> [ e ]
  | Echo es | Unset es -> es
  | If (branches, _) -> List.map fst branches
  | While (c, _) | Do_while (_, c) -> [ c ]
  | For (init, conds, steps, _) -> init @ conds @ steps
  | Foreach (subject, binding, _) ->
      (subject :: Option.to_list binding.fe_key) @ [ binding.fe_value ]
  | Switch (subject, cases) ->
      subject
      :: List.filter_map
           (function Case (e, _) -> Some e | Default _ -> None)
           cases
  | Static_vars vs -> List.filter_map snd vs
  | Const_def cs -> List.map snd cs
  | Return None | Break _ | Continue _ | Global _ | Inline_html _ | Nop
  | Try _ | Func_def _ | Class_def _ | Block _ ->
      []

(** [sub_stmts s] is the immediate nested statements of [s]: branch and
    loop bodies, switch cases, try/catch/finally blocks.  Function and
    class bodies are {e not} included — they are separate scopes. *)
and sub_stmts (s : stmt) : stmt list =
  match s.s with
  | If (branches, els) ->
      List.concat_map snd branches
      @ (match els with Some b -> b | None -> [])
  | While (_, b) | Do_while (b, _) | For (_, _, _, b) | Foreach (_, _, b)
  | Block b ->
      b
  | Switch (_, cases) ->
      List.concat_map (function Case (_, b) | Default b -> b) cases
  | Try (b, catches, fin) ->
      b
      @ List.concat_map (fun c -> c.c_body) catches
      @ (match fin with Some b -> b | None -> [])
  | _ -> []

(** All calls to named functions in a program, with their locations.
    Method names appear lowercased, as ["name"]; static calls as
    ["class::name"]. *)
let named_calls prog : (string * arg list * Loc.t) list =
  List.rev
    (fold_stmts_with_expr
       (fun acc e ->
         match e.e with
         | Call (callee, args) -> (
             match callee_name callee with
             | Some name -> (name, args, e.eloc) :: acc
             | None -> acc)
         | _ -> acc)
       [] prog)

(** All top-level and nested user function definitions. *)
let rec collect_functions (stmts : stmt list) : func list =
  List.concat_map
    (fun s ->
      match s.s with
      | Func_def f -> f :: collect_functions f.f_body
      | Class_def k -> List.map (fun m -> m.m_func) k.k_methods
      | If (branches, els) ->
          List.concat_map (fun (_, b) -> collect_functions b) branches
          @ (match els with Some b -> collect_functions b | None -> [])
      | While (_, b) | Do_while (b, _) | For (_, _, _, b) | Foreach (_, _, b) | Block b ->
          collect_functions b
      | Switch (_, cases) ->
          List.concat_map
            (function Case (_, b) | Default b -> collect_functions b)
            cases
      | Try (b, catches, fin) ->
          collect_functions b
          @ List.concat_map (fun c -> collect_functions c.c_body) catches
          @ (match fin with Some b -> collect_functions b | None -> [])
      | _ -> [])
    stmts

(** Count of AST statement nodes, used as a cheap program-size proxy in
    benchmarks. *)
let stmt_count prog =
  let rec count_stmt (s : stmt) =
    1
    +
    match s.s with
    | If (branches, els) ->
        List.fold_left (fun n (_, b) -> n + count b) 0 branches
        + (match els with Some b -> count b | None -> 0)
    | While (_, b) | Do_while (b, _) | For (_, _, _, b) | Foreach (_, _, b) | Block b ->
        count b
    | Switch (_, cases) ->
        List.fold_left
          (fun n -> function Case (_, b) | Default b -> n + count b)
          0 cases
    | Try (b, catches, fin) ->
        count b
        + List.fold_left (fun n c -> n + count c.c_body) 0 catches
        + (match fin with Some b -> count b | None -> 0)
    | Func_def f -> count f.f_body
    | Class_def k -> List.fold_left (fun n m -> n + count m.m_func.f_body) 0 k.k_methods
    | _ -> 0
  and count stmts = List.fold_left (fun n s -> n + count_stmt s) 0 stmts in
  count prog

(* ------------------------------------------------------------------ *)
(* Bottom-up expression rewriting, used by the code corrector.          *)

(** [map_expr f e] rebuilds [e] bottom-up, applying [f] to every node
    after its children have been rewritten. *)
let rec map_expr (f : expr -> expr) (e : expr) : expr =
  let k e' = f { e with e = e' } in
  match e.e with
  | Int _ | Float _ | String _ | Var _ | Constant _ | Static_prop _ | Class_const _ ->
      f e
  | Interp parts ->
      k (Interp
           (List.map
              (function
                | Ip_str s -> Ip_str s
                | Ip_expr e1 -> Ip_expr (map_expr f e1))
              parts))
  | Backtick parts ->
      k (Backtick
           (List.map
              (function
                | Ip_str s -> Ip_str s
                | Ip_expr e1 -> Ip_expr (map_expr f e1))
              parts))
  | Var_var e1 -> k (Var_var (map_expr f e1))
  | Clone e1 -> k (Clone (map_expr f e1))
  | Unop (op, e1) -> k (Unop (op, map_expr f e1))
  | Incdec (op, e1) -> k (Incdec (op, map_expr f e1))
  | Cast (c, e1) -> k (Cast (c, map_expr f e1))
  | Empty e1 -> k (Empty (map_expr f e1))
  | Print e1 -> k (Print (map_expr f e1))
  | Include (ik, e1) -> k (Include (ik, map_expr f e1))
  | Array_lit items ->
      k (Array_lit
           (List.map
              (fun it ->
                { it with
                  ai_key = Option.map (map_expr f) it.ai_key;
                  ai_value = map_expr f it.ai_value })
              items))
  | Index (e1, idx) -> k (Index (map_expr f e1, Option.map (map_expr f) idx))
  | Prop (e1, m) -> k (Prop (map_expr f e1, map_member f m))
  | Call (callee, args) ->
      let callee =
        match callee with
        | F_ident _ | F_static _ -> callee
        | F_var e1 -> F_var (map_expr f e1)
        | F_method (e1, m) -> F_method (map_expr f e1, map_member f m)
      in
      k (Call (callee, List.map (fun a -> { a with a_expr = map_expr f a.a_expr }) args))
  | New (c, args) ->
      k (New (c, List.map (fun a -> { a with a_expr = map_expr f a.a_expr }) args))
  | Binop (op, l, r) -> k (Binop (op, map_expr f l, map_expr f r))
  | Assign (op, l, r) -> k (Assign (op, map_expr f l, map_expr f r))
  | Assign_ref (l, r) -> k (Assign_ref (map_expr f l, map_expr f r))
  | Ternary (c, t, e2) ->
      k (Ternary (map_expr f c, Option.map (map_expr f) t, map_expr f e2))
  | Isset es -> k (Isset (List.map (map_expr f) es))
  | Exit e1 -> k (Exit (Option.map (map_expr f) e1))
  | List es -> k (List (List.map (Option.map (map_expr f)) es))
  | Closure c -> k (Closure { c with cl_body = map_stmts f c.cl_body })

and map_member f = function
  | Mem_ident m -> Mem_ident m
  | Mem_expr e -> Mem_expr (map_expr f e)

(** [map_stmts f stmts] applies {!map_expr}[ f] to every expression in
    the statements, preserving statement structure. *)
and map_stmts (f : expr -> expr) (stmts : stmt list) : stmt list =
  List.map (map_stmt f) stmts

and map_stmt f (s : stmt) : stmt =
  let s' =
    match s.s with
    | Expr_stmt e -> Expr_stmt (map_expr f e)
    | Echo es -> Echo (List.map (map_expr f) es)
    | If (branches, els) ->
        If
          ( List.map (fun (c, b) -> (map_expr f c, map_stmts f b)) branches,
            Option.map (map_stmts f) els )
    | While (c, b) -> While (map_expr f c, map_stmts f b)
    | Do_while (b, c) -> Do_while (map_stmts f b, map_expr f c)
    | For (i, c, st, b) ->
        For
          ( List.map (map_expr f) i,
            List.map (map_expr f) c,
            List.map (map_expr f) st,
            map_stmts f b )
    | Foreach (subj, binding, b) ->
        Foreach
          ( map_expr f subj,
            { binding with
              fe_key = Option.map (map_expr f) binding.fe_key;
              fe_value = map_expr f binding.fe_value },
            map_stmts f b )
    | Switch (subj, cases) ->
        Switch
          ( map_expr f subj,
            List.map
              (function
                | Case (e, b) -> Case (map_expr f e, map_stmts f b)
                | Default b -> Default (map_stmts f b))
              cases )
    | Return e -> Return (Option.map (map_expr f) e)
    | Static_vars vs ->
        Static_vars (List.map (fun (v, e) -> (v, Option.map (map_expr f) e)) vs)
    | Unset es -> Unset (List.map (map_expr f) es)
    | Throw e -> Throw (map_expr f e)
    | Try (b, catches, fin) ->
        Try
          ( map_stmts f b,
            List.map (fun c -> { c with c_body = map_stmts f c.c_body }) catches,
            Option.map (map_stmts f) fin )
    | Func_def fn -> Func_def { fn with f_body = map_stmts f fn.f_body }
    | Class_def k ->
        Class_def
          { k with
            k_methods =
              List.map
                (fun m ->
                  { m with m_func = { m.m_func with f_body = map_stmts f m.m_func.f_body } })
                k.k_methods }
    | Block b -> Block (map_stmts f b)
    | (Break _ | Continue _ | Global _ | Inline_html _ | Nop | Const_def _) as same ->
        same
  in
  { s with s = s' }

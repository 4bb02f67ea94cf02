(** The built-in lint rules.

    Each rule is a {!Rule.t} value over the shared flow substrate:
    reachability marks dead code, reaching definitions back the
    undefined-variable check, and liveness backs the dead-sanitization
    check.  The sink and sanitizer vocabularies come from the same
    catalog the detectors use, so a weapon that teaches the analyzer a
    new sink automatically teaches the linter too. *)

open Wap_php
module Cat = Wap_catalog.Catalog
module VC = Wap_catalog.Vuln_class
module Cfg = Wap_flow.Cfg
module Use_def = Wap_flow.Use_def

let normalize = String.lowercase_ascii

(* ------------------------------------------------------------------ *)
(* Catalog-derived vocabularies.                                       *)

(* Plain values, not [lazy]: [wap lint --jobs N] runs the rules from
   several domains, and forcing one lazy from two domains at once raises
   [CamlinternalLazy.Undefined]. *)
let all_specs =
  Cat.specs_for VC.all_builtin @ [ Wap_catalog.Wordpress.wpsqli_spec () ]

let sanitizer_fns =
  List.filter_map
    (function Cat.San_fn f -> Some (normalize f) | Cat.San_method _ -> None)
    (List.concat_map (fun (s : Cat.spec) -> s.Cat.sanitizers) all_specs)

let sanitizer_methods =
  List.filter_map
    (function
      | Cat.San_method (o, m) -> Some (normalize o, normalize m)
      | Cat.San_fn _ -> None)
    (List.concat_map (fun (s : Cat.spec) -> s.Cat.sanitizers) all_specs)

let sink_fns =
  List.filter_map
    (function Cat.Sink_fn (f, _) -> Some (normalize f) | _ -> None)
    (List.concat_map (fun (s : Cat.spec) -> s.Cat.sinks) all_specs)

let sink_methods =
  List.filter_map
    (function
      | Cat.Sink_method (o, m) -> Some (normalize o, normalize m)
      | _ -> None)
    (List.concat_map (fun (s : Cat.spec) -> s.Cat.sinks) all_specs)

(* ------------------------------------------------------------------ *)
(* Shared helpers.                                                     *)

let in_function (si : Rule.scope_info) =
  match si.Rule.scope.Wap_flow.Scope.name with
  | Some f -> Printf.sprintf " in function %s()" f
  | None -> ""

(* the expressions evaluated by one CFG element *)
let elem_exprs = function
  | Cfg.Elem_stmt s -> Visitor.stmt_exprs s
  | Cfg.Elem_cond e -> [ e ]
  | Cfg.Elem_foreach (subject, _) -> [ subject ]
  | Cfg.Elem_catch _ -> []

let dedup_diags diags =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun (d : Rule.diag) ->
      let k = (d.Rule.rule, d.Rule.loc.Loc.line, d.Rule.loc.Loc.col, d.Rule.message) in
      if Hashtbl.mem seen k then false
      else begin
        Hashtbl.add seen k ();
        true
      end)
    diags

(* ------------------------------------------------------------------ *)
(* no-undef-var: use of a variable with no reaching definition.        *)

(* Variables probed by isset/empty anywhere in the scope: using one
   after such a probe is deliberate optional-input handling, not a bug
   the rule should shout about. *)
let probed_vars (body : Ast.stmt list) =
  let tbl = Hashtbl.create 8 in
  let probe (e : Ast.expr) =
    match Ast.base_variable e with
    | Some v -> Hashtbl.replace tbl v ()
    | None -> ()
  in
  Visitor.fold_stmts_with_expr
    (fun () (e : Ast.expr) ->
      match e.Ast.e with
      | Ast.Isset es -> List.iter probe es
      | Ast.Empty e1 -> probe e1
      | _ -> ())
    () body;
  tbl

let undef_var : Rule.t =
  {
    Rule.id = "no-undef-var";
    doc = "use of a variable that has no reaching definition";
    check =
      (fun ctx ->
        List.concat_map
          (fun (si : Rule.scope_info) ->
            let reaching =
              Wap_flow.Reaching.analyze
                ~params:si.Rule.scope.Wap_flow.Scope.params si.Rule.cfg
            in
            let probed = probed_vars si.Rule.scope.Wap_flow.Scope.body in
            let diags = ref [] in
            Array.iter
              (fun (blk : Cfg.block) ->
                if si.Rule.reachable.(blk.Cfg.bid) then
                  Wap_flow.Reaching.fold_block reaching blk.Cfg.bid ~init:()
                    ~f:(fun () defs elem ->
                      let same_elem_defs =
                        List.map
                          (fun (d : Use_def.def) -> d.Use_def.d_var)
                          (Use_def.defs_of_elem elem)
                      in
                      List.iter
                        (fun v ->
                          if
                            (not (Wap_flow.Reaching.defines defs v))
                            && (not (List.mem v same_elem_defs))
                            && not (Hashtbl.mem probed v)
                          then
                            diags :=
                              {
                                Rule.rule = "no-undef-var";
                                severity = Rule.Error;
                                loc = Cfg.elem_loc elem;
                                message =
                                  Printf.sprintf
                                    "use of undefined variable $%s%s" v
                                    (in_function si);
                              }
                              :: !diags)
                        (Use_def.uses_of_elem elem)))
              si.Rule.cfg.Cfg.blocks;
            List.rev !diags)
          ctx.Rule.scopes
        |> dedup_diags);
  }

(* ------------------------------------------------------------------ *)
(* no-unreachable: statement in a block no path reaches.               *)

let unreachable : Rule.t =
  {
    Rule.id = "no-unreachable";
    doc = "statement that no control path reaches";
    check =
      (fun ctx ->
        List.concat_map
          (fun (si : Rule.scope_info) ->
            Array.to_list si.Rule.cfg.Cfg.blocks
            |> List.filter_map (fun (blk : Cfg.block) ->
                   if si.Rule.reachable.(blk.Cfg.bid) then None
                   else
                     (* first substantive element of the dead block *)
                     List.find_map
                       (fun elem ->
                         match elem with
                         | Cfg.Elem_stmt
                             {
                               Ast.s =
                                 ( Ast.Nop | Ast.Inline_html _
                                 (* declarations are hoisted, not dead *)
                                 | Ast.Func_def _ | Ast.Class_def _ );
                               _;
                             }
                         | Cfg.Elem_catch _ ->
                             None
                         | _ ->
                             Some
                               {
                                 Rule.rule = "no-unreachable";
                                 severity = Rule.Warning;
                                 loc = Cfg.elem_loc elem;
                                 message =
                                   Printf.sprintf "unreachable code%s"
                                     (in_function si);
                               })
                       blk.Cfg.elems))
          ctx.Rule.scopes
        |> dedup_diags);
  }

(* ------------------------------------------------------------------ *)
(* no-dead-sanitizer: sanitization result overwritten before any use.  *)

let sanitizer_call_name (e : Ast.expr) : string option =
  match e.Ast.e with
  | Ast.Call (Ast.F_ident f, _) when List.mem (normalize f) sanitizer_fns ->
      Some (normalize f)
  | Ast.Call (Ast.F_method ({ e = Ast.Var obj; _ }, Ast.Mem_ident m), _) ->
      let key = (normalize obj, normalize m) in
      if
        List.mem key sanitizer_methods
        || List.mem ("*", normalize m) sanitizer_methods
      then
        Some (normalize obj ^ "->" ^ normalize m)
      else None
  | _ -> None

let dead_sanitizer : Rule.t =
  {
    Rule.id = "no-dead-sanitizer";
    doc = "sanitization result that is overwritten or dropped before use";
    check =
      (fun ctx ->
        List.concat_map
          (fun (si : Rule.scope_info) ->
            let live = Wap_flow.Live.analyze si.Rule.cfg in
            let diags = ref [] in
            Array.iter
              (fun (blk : Cfg.block) ->
                if si.Rule.reachable.(blk.Cfg.bid) then
                  Wap_flow.Live.fold_block_rev live blk.Cfg.bid ~init:()
                    ~f:(fun () live_after elem ->
                      match elem with
                      | Cfg.Elem_stmt
                          {
                            Ast.s =
                              Ast.Expr_stmt
                                {
                                  e =
                                    Ast.Assign
                                      (Ast.A_eq, { e = Ast.Var x; _ }, rhs);
                                  _;
                                };
                            sloc;
                          } -> (
                          match sanitizer_call_name rhs with
                          | Some fn
                            when not (Wap_flow.Live.VarSet.mem x live_after) ->
                              diags :=
                                {
                                  Rule.rule = "no-dead-sanitizer";
                                  severity = Rule.Warning;
                                  loc = sloc;
                                  message =
                                    Printf.sprintf
                                      "result of %s() stored in $%s is never \
                                       used (overwritten or dropped)%s"
                                      fn x (in_function si);
                                }
                                :: !diags
                          | _ -> ())
                      | _ -> ()))
              si.Rule.cfg.Cfg.blocks;
            List.rev !diags)
          ctx.Rule.scopes
        |> dedup_diags);
  }

(* ------------------------------------------------------------------ *)
(* no-assign-in-cond: assignment where a comparison was meant.         *)

(* an assignment in decision position: the condition itself, or a
   member of its &&/||/! skeleton — `($x = f()) !== false` is the
   deliberate idiom and is not matched *)
let rec decision_assign (e : Ast.expr) : Ast.expr option =
  match e.Ast.e with
  | Ast.Assign _ -> Some e
  | Ast.Binop ((Ast.Bool_and | Ast.Bool_or), l, r) -> (
      match decision_assign l with
      | Some a -> Some a
      | None -> decision_assign r)
  | Ast.Unop (Ast.Not, e1) -> decision_assign e1
  | _ -> None

let assign_in_cond : Rule.t =
  {
    Rule.id = "no-assign-in-cond";
    doc = "assignment used as an if/ternary condition (did you mean ==?)";
    check =
      (fun ctx ->
        let diags = ref [] in
        let flag (cond : Ast.expr) =
          match decision_assign cond with
          | Some a ->
              diags :=
                {
                  Rule.rule = "no-assign-in-cond";
                  severity = Rule.Warning;
                  loc = a.Ast.eloc;
                  message =
                    Printf.sprintf
                      "assignment '%s' used as a condition — did you mean a \
                       comparison?"
                      (Printer.expr_to_string a);
                }
                :: !diags
          | None -> ()
        in
        let rec walk_stmt (s : Ast.stmt) =
          (match s.Ast.s with
          | Ast.If (branches, _) -> List.iter (fun (c, _) -> flag c) branches
          | _ -> ());
          (* ternary conditions anywhere in the statement's expressions *)
          List.iter
            (fun e ->
              Visitor.fold_expr
                (fun () (e1 : Ast.expr) ->
                  match e1.Ast.e with
                  | Ast.Ternary (c, _, _) -> flag c
                  | _ -> ())
                () e)
            (Visitor.stmt_exprs s);
          List.iter walk_stmt (Visitor.sub_stmts s)
        in
        List.iter
          (fun (si : Rule.scope_info) ->
            (* only the top-level scope walks statements directly;
               function bodies are reached through their own scope *)
            match si.Rule.scope.Wap_flow.Scope.name with
            | None -> List.iter walk_stmt si.Rule.scope.Wap_flow.Scope.body
            | Some _ -> List.iter walk_stmt si.Rule.scope.Wap_flow.Scope.body)
          ctx.Rule.scopes;
        dedup_diags (List.rev !diags));
  }

(* ------------------------------------------------------------------ *)
(* no-dead-sink: a sensitive sink inside unreachable code.             *)

let dead_sink : Rule.t =
  {
    Rule.id = "no-dead-sink";
    doc = "sensitive sink inside unreachable code";
    check =
      (fun ctx ->
        let diags = ref [] in
        let flag loc name (si : Rule.scope_info) =
          diags :=
            {
              Rule.rule = "no-dead-sink";
              severity = Rule.Warning;
              loc;
              message =
                Printf.sprintf
                  "sensitive sink %s can never execute (unreachable code)%s"
                  name (in_function si);
            }
            :: !diags
        in
        let scan_expr si (e : Ast.expr) =
          Visitor.fold_expr
            (fun () (e1 : Ast.expr) ->
              match e1.Ast.e with
              | Ast.Call (Ast.F_ident f, _) when List.mem (normalize f) sink_fns ->
                  flag e1.Ast.eloc (normalize f ^ "()") si
              | Ast.Call (Ast.F_method ({ e = Ast.Var obj; _ }, Ast.Mem_ident m), _)
                when List.mem (normalize obj, normalize m) sink_methods
                     || List.mem ("*", normalize m) sink_methods ->
                  flag e1.Ast.eloc
                    (Printf.sprintf "$%s->%s()" (normalize obj) (normalize m))
                    si
              | Ast.Print _ -> flag e1.Ast.eloc "print" si
              | Ast.Include (_, _) -> flag e1.Ast.eloc "include/require" si
              | Ast.Backtick _ -> flag e1.Ast.eloc "`...` (shell)" si
              | _ -> ())
            () e
        in
        let scan_elem si elem =
          (match elem with
          | Cfg.Elem_stmt ({ Ast.s = Ast.Echo _; _ } as s) ->
              flag s.Ast.sloc "echo" si
          | _ -> ());
          List.iter (scan_expr si) (elem_exprs elem);
          (* nested statements of a dead compound statement *)
          match elem with
          | Cfg.Elem_stmt s ->
              List.iter
                (fun sub ->
                  List.iter (scan_expr si) (Visitor.stmt_exprs sub))
                (Visitor.sub_stmts s)
          | _ -> ()
        in
        List.iter
          (fun (si : Rule.scope_info) ->
            Array.iter
              (fun (blk : Cfg.block) ->
                if not si.Rule.reachable.(blk.Cfg.bid) then
                  List.iter (scan_elem si) blk.Cfg.elems)
              si.Rule.cfg.Cfg.blocks)
          ctx.Rule.scopes;
        dedup_diags (List.rev !diags));
  }

(** The shipped rules, in reporting order. *)
let builtin : Rule.t list =
  [ undef_var; unreachable; dead_sanitizer; assign_in_cond; dead_sink ]

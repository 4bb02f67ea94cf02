(** Intra-procedural control-flow graphs over the PHP AST.

    A CFG decomposes one scope (the top level of a file, or one function
    body) into basic blocks of straight-line elements connected by
    control edges.  [if]/[while]/[do]/[for]/[foreach]/[switch] introduce
    branch and loop edges; [break]/[continue] jump to the matching loop
    (or switch) boundary; [return]/[throw]/[exit]/[die] edge to the
    scope's exit block, so everything textually after them lands in a
    block with no path from the entry — the substrate every reachability
    client builds on. *)

open Wap_php

(** One straight-line step inside a basic block. *)
type elem =
  | Elem_stmt of Ast.stmt  (** a simple (non-compound) statement *)
  | Elem_cond of Ast.expr
      (** a branch condition (or [switch] subject / [case] label)
          evaluated at the end of the block *)
  | Elem_foreach of Ast.expr * Ast.foreach_binding
      (** [foreach] header: subject evaluation + per-iteration binding *)
  | Elem_catch of Ast.ident  (** binding of a [catch (E $e)] variable *)

type block = {
  bid : int;
  mutable elems : elem list;  (** in execution order *)
  mutable succs : int list;
  mutable preds : int list;
}

type t = {
  blocks : block array;  (** indexed by [bid] *)
  entry : int;
  exit_ : int;
}

let elem_loc = function
  | Elem_stmt s -> s.Ast.sloc
  | Elem_cond e | Elem_foreach (e, _) -> e.Ast.eloc
  | Elem_catch _ -> Loc.dummy

(* ------------------------------------------------------------------ *)
(* Construction.                                                       *)

type builder = { mutable rev_blocks : block list; mutable count : int }

let new_block b =
  let blk = { bid = b.count; elems = []; succs = []; preds = [] } in
  b.rev_blocks <- blk :: b.rev_blocks;
  b.count <- b.count + 1;
  blk

(* elems are accumulated reversed and flipped once at finalization *)
let add_elem blk e = blk.elems <- e :: blk.elems

(* [dst] is among [src]'s successors exactly when [src] is among [dst]'s
   predecessors, so walking both lists in step stops at the end of the
   shorter one: a switch head's n case edges cost O(1) each, not O(n). *)
let rec has_edge (src : int) (dst : int) succs preds =
  match (succs, preds) with
  | s :: succs, p :: preds -> s = dst || p = src || has_edge src dst succs preds
  | [], _ | _, [] -> false

let add_edge src dst =
  if not (has_edge src.bid dst.bid src.succs dst.preds) then begin
    src.succs <- dst.bid :: src.succs;
    dst.preds <- src.bid :: dst.preds
  end

(* One frame per enclosing loop or switch.  PHP counts switch as a
   break/continue level, and continue inside switch behaves like break,
   so a switch frame carries its own exit as both targets. *)
type frame = { brk : block; cont : block }

let rec nth_frame stack n =
  match (stack, n) with
  | f :: _, 1 -> Some f
  | _ :: rest, n when n > 1 -> nth_frame rest (n - 1)
  | _ -> None

let wrap_expr (e : Ast.expr) : Ast.stmt =
  Ast.mk_s ~loc:e.Ast.eloc (Ast.Expr_stmt e)

let rec build b ~exit_ ~stack cur (stmts : Ast.stmt list) : block =
  List.fold_left (fun cur s -> build_stmt b ~exit_ ~stack cur s) cur stmts

and build_stmt b ~exit_ ~stack cur (s : Ast.stmt) : block =
  match s.Ast.s with
  | Ast.Expr_stmt { e = Ast.Exit _; _ } | Ast.Return _ | Ast.Throw _ ->
      add_elem cur (Elem_stmt s);
      add_edge cur exit_;
      new_block b
  | Ast.Break n ->
      add_elem cur (Elem_stmt s);
      (match nth_frame stack (Option.value n ~default:1) with
      | Some f -> add_edge cur f.brk
      | None -> add_edge cur exit_);
      new_block b
  | Ast.Continue n ->
      add_elem cur (Elem_stmt s);
      (match nth_frame stack (Option.value n ~default:1) with
      | Some f -> add_edge cur f.cont
      | None -> add_edge cur exit_);
      new_block b
  | Ast.If (branches, els) ->
      let join = new_block b in
      let fall =
        List.fold_left
          (fun fall (cond, body) ->
            add_elem fall (Elem_cond cond);
            let then_b = new_block b in
            add_edge fall then_b;
            let then_end = build b ~exit_ ~stack then_b body in
            add_edge then_end join;
            let else_b = new_block b in
            add_edge fall else_b;
            else_b)
          cur branches
      in
      (match els with
      | Some body ->
          let els_end = build b ~exit_ ~stack fall body in
          add_edge els_end join
      | None -> add_edge fall join);
      join
  | Ast.While (cond, body) ->
      let head = new_block b in
      add_edge cur head;
      add_elem head (Elem_cond cond);
      let body_b = new_block b in
      let exit_b = new_block b in
      add_edge head body_b;
      add_edge head exit_b;
      let stack' = { brk = exit_b; cont = head } :: stack in
      let body_end = build b ~exit_ ~stack:stack' body_b body in
      add_edge body_end head;
      exit_b
  | Ast.Do_while (body, cond) ->
      let body_b = new_block b in
      add_edge cur body_b;
      let cond_b = new_block b in
      let exit_b = new_block b in
      let stack' = { brk = exit_b; cont = cond_b } :: stack in
      let body_end = build b ~exit_ ~stack:stack' body_b body in
      add_edge body_end cond_b;
      add_elem cond_b (Elem_cond cond);
      add_edge cond_b body_b;
      add_edge cond_b exit_b;
      exit_b
  | Ast.For (init, conds, steps, body) ->
      List.iter (fun e -> add_elem cur (Elem_stmt (wrap_expr e))) init;
      let head = new_block b in
      add_edge cur head;
      List.iter (fun e -> add_elem head (Elem_cond e)) conds;
      let body_b = new_block b in
      let exit_b = new_block b in
      let step_b = new_block b in
      add_edge head body_b;
      (* `for (;;)` never exits normally; only break leaves it *)
      if conds <> [] then add_edge head exit_b;
      let stack' = { brk = exit_b; cont = step_b } :: stack in
      let body_end = build b ~exit_ ~stack:stack' body_b body in
      add_edge body_end step_b;
      List.iter (fun e -> add_elem step_b (Elem_stmt (wrap_expr e))) steps;
      add_edge step_b head;
      exit_b
  | Ast.Foreach (subject, binding, body) ->
      let head = new_block b in
      add_edge cur head;
      add_elem head (Elem_foreach (subject, binding));
      let body_b = new_block b in
      let exit_b = new_block b in
      add_edge head body_b;
      add_edge head exit_b;
      let stack' = { brk = exit_b; cont = head } :: stack in
      let body_end = build b ~exit_ ~stack:stack' body_b body in
      add_edge body_end head;
      exit_b
  | Ast.Switch (subject, cases) ->
      add_elem cur (Elem_cond subject);
      List.iter
        (function
          | Ast.Case (e, _) -> add_elem cur (Elem_cond e)
          | Ast.Default _ -> ())
        cases;
      let exit_b = new_block b in
      let stack' = { brk = exit_b; cont = exit_b } :: stack in
      let case_blocks = List.map (fun case -> (case, new_block b)) cases in
      List.iter (fun (_, cb) -> add_edge cur cb) case_blocks;
      if
        not
          (List.exists (function Ast.Default _, _ -> true | _ -> false) case_blocks)
      then add_edge cur exit_b;
      let rec chain = function
        | [] -> ()
        | (case, cb) :: rest ->
            let body =
              match case with Ast.Case (_, body) | Ast.Default body -> body
            in
            let case_end = build b ~exit_ ~stack:stack' cb body in
            (match rest with
            | (_, next_cb) :: _ -> add_edge case_end next_cb  (* fallthrough *)
            | [] -> add_edge case_end exit_b);
            chain rest
      in
      chain case_blocks;
      exit_b
  | Ast.Try (body, catches, fin) ->
      let body_b = new_block b in
      add_edge cur body_b;
      let after = new_block b in
      let fin_b = Option.map (fun _ -> new_block b) fin in
      let landing = Option.value fin_b ~default:after in
      let body_end = build b ~exit_ ~stack body_b body in
      add_edge body_end landing;
      List.iter
        (fun (c : Ast.catch) ->
          let catch_b = new_block b in
          (* conservative: an exception may leave the body at any point,
             so the handler is reachable from both ends of it *)
          add_edge body_b catch_b;
          add_edge body_end catch_b;
          (match c.Ast.c_var with
          | Some v -> add_elem catch_b (Elem_catch v)
          | None -> ());
          let catch_end = build b ~exit_ ~stack catch_b c.Ast.c_body in
          add_edge catch_end landing)
        catches;
      (match (fin_b, fin) with
      | Some fb, Some fbody ->
          let fin_end = build b ~exit_ ~stack fb fbody in
          add_edge fin_end after
      | _ -> ());
      after
  | Ast.Block body -> build b ~exit_ ~stack cur body
  | Ast.Expr_stmt _ | Ast.Echo _ | Ast.Global _ | Ast.Static_vars _
  | Ast.Unset _ | Ast.Inline_html _ | Ast.Nop | Ast.Const_def _
  | Ast.Func_def _ | Ast.Class_def _ ->
      (* simple statements; nested function/class bodies are separate
         scopes and contribute no flow here *)
      add_elem cur (Elem_stmt s);
      cur

let of_stmts (stmts : Ast.stmt list) : t =
  let b = { rev_blocks = []; count = 0 } in
  let entry = new_block b in
  let exit_ = new_block b in
  let last = build b ~exit_ ~stack:[] entry stmts in
  add_edge last exit_;
  let blocks =
    Array.make b.count { bid = 0; elems = []; succs = []; preds = [] }
  in
  List.iter
    (fun blk ->
      blk.elems <- List.rev blk.elems;
      blocks.(blk.bid) <- blk)
    b.rev_blocks;
  { blocks; entry = entry.bid; exit_ = exit_.bid }

(* ------------------------------------------------------------------ *)
(* Queries.                                                            *)

let num_blocks cfg = Array.length cfg.blocks
let block cfg i = cfg.blocks.(i)
let succs cfg i = cfg.blocks.(i).succs
let preds cfg i = cfg.blocks.(i).preds

(** Blocks reachable from the entry, by depth-first search. *)
let reachable (cfg : t) : bool array =
  let seen = Array.make (num_blocks cfg) false in
  let rec go i =
    if not seen.(i) then begin
      seen.(i) <- true;
      List.iter go cfg.blocks.(i).succs
    end
  in
  go cfg.entry;
  seen

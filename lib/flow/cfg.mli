(** Intra-procedural control-flow graphs over the PHP AST.

    A CFG decomposes one scope (the top level of a file, or one function
    body) into basic blocks of straight-line elements connected by
    control edges.  [break]/[continue] jump to the matching loop (or
    switch) boundary; [return]/[throw]/[exit]/[die] edge to the scope's
    exit block, so everything textually after them lands in a block with
    no path from the entry. *)

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

val elem_loc : elem -> Loc.t

(** Build the CFG of one scope's statement list.  Nested function and
    class bodies are opaque simple statements — build their CFGs
    separately (see {!Scope.of_program}). *)
val of_stmts : Ast.stmt list -> t

val num_blocks : t -> int
val block : t -> int -> block
val succs : t -> int -> int list
val preds : t -> int -> int list

(** Blocks reachable from the entry, by depth-first search. *)
val reachable : t -> bool array

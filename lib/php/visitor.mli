(** Generic traversals over the PHP AST.

    The detectors and the symptom collector both need to walk every
    expression and statement; these folds centralize the recursion so
    each client only writes the interesting cases. *)

(** [fold_expr f acc e] applies [f] to [e] and every sub-expression, in
    pre-order (including expressions inside closure bodies). *)
val fold_expr : ('a -> Ast.expr -> 'a) -> 'a -> Ast.expr -> 'a

(** [fold_stmts_with_expr f acc stmts] folds [f] over every expression
    reachable from [stmts], including nested functions and classes. *)
val fold_stmts_with_expr : ('a -> Ast.expr -> 'a) -> 'a -> Ast.stmt list -> 'a

(** [fold_expr_prune f acc e] is {!fold_expr} with pruning: [f] returns
    the new accumulator and whether to descend into the node's children.
    Clients walking a single scope use it to stop at closure boundaries
    or to treat lvalues specially. *)
val fold_expr_prune : ('a -> Ast.expr -> 'a * bool) -> 'a -> Ast.expr -> 'a

(** [stmt_exprs s] is the expressions evaluated directly by [s] — its
    own expressions and the conditions of compound statements — without
    descending into nested statement bodies. *)
val stmt_exprs : Ast.stmt -> Ast.expr list

(** [sub_stmts s] is the immediate nested statements of [s]: branch and
    loop bodies, switch cases, try/catch/finally blocks.  Function and
    class bodies are {e not} included — they are separate scopes. *)
val sub_stmts : Ast.stmt -> Ast.stmt list

(** All calls to named functions in a program, with their arguments and
    locations.  Method names appear lowercased as ["name"]; static calls
    as ["class::name"]. *)
val named_calls : Ast.program -> (string * Ast.arg list * Loc.t) list

(** All top-level and nested user function definitions, including class
    methods. *)
val collect_functions : Ast.stmt list -> Ast.func list

(** Count of AST statement nodes, used as a cheap program-size proxy in
    benchmarks. *)
val stmt_count : Ast.program -> int

(** [map_expr f e] rebuilds [e] bottom-up, applying [f] to every node
    after its children have been rewritten. *)
val map_expr : (Ast.expr -> Ast.expr) -> Ast.expr -> Ast.expr

(** [map_stmts f stmts] applies {!map_expr}[ f] to every expression in
    the statements, preserving statement structure. *)
val map_stmts : (Ast.expr -> Ast.expr) -> Ast.stmt list -> Ast.stmt list

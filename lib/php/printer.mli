(** Pretty-printer that turns the AST back into parseable PHP.

    Used by the code corrector to emit fixed source files, and by the
    round-trip property tests: printing is idempotent after one
    normalizing pass through the parser.  Output favours correctness
    over beauty — operands are parenthesized whenever precedence could
    be ambiguous. *)

(** Render an expression as PHP source. *)
val expr_to_string : Ast.expr -> string

(** Render a whole program as a PHP file, including the [<?php] header. *)
val program_to_string : Ast.program -> string

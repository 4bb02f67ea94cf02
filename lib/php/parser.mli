(** Recursive-descent parser for the PHP subset.

    Expressions are parsed with precedence climbing following PHP's
    operator table.  Both brace-delimited and alternative
    ([if: ... endif;]) statement syntaxes are supported, since real-world
    PHP templates mix the two freely. *)

(** Syntax error with its position. *)
exception Error of string * Loc.t

(** [parse_string ~file src] parses a full PHP source text (inline HTML
    plus [<?php ... ?>] segments).

    @raise Error on syntax errors; @raise Lexer.Error on lexical ones. *)
val parse_string : file:string -> string -> Ast.program

(** Parse an already-tokenized buffer (see {!Lexer.tokenize_buf}).  Raw
    parse kernel: no lexing, no tracing — the perfbench probe uses it to
    time the parse layer apart from lexing.

    @raise Error on syntax errors. *)
val parse_buf : Token_buf.t -> Ast.program

(** Parse a file from disk. *)
val parse_file : string -> Ast.program

(** Parse a standalone expression, e.g. from a weapon specification. *)
val parse_expression : ?file:string -> string -> Ast.expr

(** An error skipped over during tolerant parsing. *)
type recovered_error = { err_msg : string; err_loc : Loc.t }

(** Parse a full source text, recovering from syntax errors by skipping
    to the next statement boundary.  Returns the statements that parsed
    plus the recovered errors — a scanner must not die on the one
    malformed file of an 8,000-file application. *)
val parse_string_tolerant :
  file:string -> string -> Ast.program * recovered_error list

(** Tokens produced by the PHP lexer.

    Double-quoted strings, heredocs and backticks are pre-split into
    interpolation parts by the lexer ({!interp_part}); the parser turns
    [Part_complex] parts (the [{$expr}] syntax) into full expressions by
    re-entering the expression grammar. *)

type interp_part =
  | Part_str of string  (** literal text, escapes already resolved *)
  | Part_var of string  (** [$name] *)
  | Part_index of string * index_sub  (** [$name[sub]] simple syntax *)
  | Part_prop of string * string  (** [$name->prop] simple syntax *)
  | Part_complex of string  (** [{$ ... }] raw inner text, parsed later *)
[@@deriving show, eq]

and index_sub =
  | Sub_name of string  (** bareword key: [$a[key]] *)
  | Sub_int of int  (** integer key: [$a[3]] *)
  | Sub_var of string  (** variable key: [$a[$k]] *)
[@@deriving show, eq]

type t =
  (* literals *)
  | INT of int
  | FLOAT of float
  | CONST_STRING of string  (** single-quoted or interpolation-free *)
  | INTERP_STRING of interp_part list  (** double-quoted / heredoc *)
  | VARIABLE of string  (** [$name], payload without the [$] *)
  | IDENT of string
  | INLINE_HTML of string
  | BACKTICK_STRING of interp_part list
      (** [`cmd $arg`] shell-execution operator *)
  (* keywords *)
  | K_IF | K_ELSE | K_ELSEIF | K_ENDIF
  | K_WHILE | K_ENDWHILE | K_DO
  | K_FOR | K_ENDFOR | K_FOREACH | K_ENDFOREACH | K_AS
  | K_SWITCH | K_ENDSWITCH | K_CASE | K_DEFAULT
  | K_BREAK | K_CONTINUE | K_RETURN
  | K_FUNCTION | K_USE | K_GLOBAL | K_STATIC
  | K_CLASS | K_INTERFACE | K_EXTENDS | K_IMPLEMENTS | K_NEW
  | K_PUBLIC | K_PRIVATE | K_PROTECTED | K_ABSTRACT | K_FINAL | K_CONST | K_VAR
  | K_ECHO | K_PRINT
  | K_UNSET | K_ISSET | K_EMPTY | K_LIST | K_ARRAY | K_EXIT
  | K_INCLUDE | K_INCLUDE_ONCE | K_REQUIRE | K_REQUIRE_ONCE
  | K_TRY | K_CATCH | K_FINALLY | K_THROW
  | K_INSTANCEOF | K_CLONE
  | K_AND | K_OR | K_XOR  (** low-precedence word operators *)
  (* punctuation *)
  | LPAREN | RPAREN | LBRACE | RBRACE | LBRACKET | RBRACKET
  | SEMI | COMMA | COLON | DOUBLE_COLON | ARROW | DOUBLE_ARROW
  | QUESTION | QQ | QQ_EQ
  | AT | DOLLAR
  | ELLIPSIS
  (* operators *)
  | PLUS | MINUS | STAR | SLASH | PERCENT | POW
  | DOT
  | EQ | PLUS_EQ | MINUS_EQ | STAR_EQ | SLASH_EQ | PERCENT_EQ
  | DOT_EQ | POW_EQ | AMP_EQ | PIPE_EQ | CARET_EQ | SHL_EQ | SHR_EQ
  | EQ_EQ | NEQ | IDENTICAL | NOT_IDENTICAL
  | LT | GT | LE | GE | SPACESHIP
  | AMP_AMP | PIPE_PIPE | BANG
  | AMP | PIPE | CARET | TILDE | SHL | SHR
  | INC | DEC
  | EOF
[@@deriving show, eq]

(** Keyword table: lowercase reserved word -> token. *)
val keyword_table : (string * t) list

(** Human-readable token name used in parse-error messages. *)
val describe : t -> string

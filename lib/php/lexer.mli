(** Hand-written lexer for the PHP subset understood by the tool.

    The lexer alternates between two modes, like PHP itself: outside
    [<?php ... ?>] everything is inline HTML; inside, it produces
    {!Token.t} values.  Double-quoted strings, heredocs and backticks are
    split into interpolation parts here so the parser can rebuild the
    implicit concatenation that WAP's taint analysis must see.

    The scanner is allocation-free on its hot path: it emits into a flat
    {!Token_buf.t}, matches keywords byte-for-byte in place, and
    materializes identifier / literal slices at most once through a
    per-tokenize interning pool (repeated spellings share one string and
    one hashconsed token).  The conformance goldens under
    [test/conformance/] pin its token streams and locations. *)

(** Lexical error with its position. *)
exception Error of string * Loc.t

(** [tokenize_buf ~file src] scans a whole source text (HTML and PHP
    segments) into a flat token buffer ending with {!Token.EOF}.  This
    is the hot path the parser consumes directly.

    @raise Error on malformed input (unterminated strings or comments,
    bad characters, malformed literals). *)
val tokenize_buf : file:string -> string -> Token_buf.t

(** [tokenize ~file src] is [tokenize_buf] re-materialized as a boxed
    located-token list — a thin compat wrapper for tests and oracles.

    @raise Error as {!tokenize_buf}. *)
val tokenize : file:string -> string -> (Token.t * Loc.t) list

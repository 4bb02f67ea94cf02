(** Flat, growable token buffer: the struct-of-arrays handoff between
    the lexer and the parser.

    Layout: a byte tag per token, a payload index into a pool of boxed
    tokens, and line/column packed into one immediate int — the file
    name is shared once per buffer.  Reading a token back allocates
    nothing; only {!loc} materializes a fresh [Loc.t]. *)

type t

(** An empty buffer for tokens of [file]. *)
val create : ?capacity:int -> file:string -> unit -> t

val file : t -> string
val length : t -> int

(** Append a token at line/col (line 1-based, col 0-based). *)
val push : t -> Token.t -> line:int -> col:int -> unit

(** [tok t i] is the [i]-th token.  Allocation-free. *)
val tok : t -> int -> Token.t

val line : t -> int -> int
val col : t -> int -> int

(** [loc t i] materializes the [i]-th token's location. *)
val loc : t -> int -> Loc.t

(** The most recently pushed token, if any.  Allocation-free for
    constant tokens. *)
val last_tok : t -> Token.t option

(** The boxed located-token list behind {!Lexer.tokenize}. *)
val to_list : t -> (Token.t * Loc.t) list

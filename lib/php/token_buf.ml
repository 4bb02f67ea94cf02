(** Flat, growable token buffer — the struct-of-arrays handoff between
    the lexer and the parser.

    The boxed [(Token.t * Loc.t) list] the lexer used to build spent
    three words of list cell plus four words of [Loc.t] record per
    token, then the parser copied the whole thing into an array before
    reading a single token.  This module stores the same stream as
    parallel arrays the parser consumes by index:

    - [tags]: one byte per token.  Constant constructors (keywords,
      punctuation, operators, [EOF] — the overwhelming majority of a
      real token stream) store their own runtime representation;
      payload-carrying constructors store [0x80 lor Obj.tag].
    - [payload]: for payload-carrying tokens, an index into [pool];
      unused otherwise.
    - [locs]: line and column packed into one immediate int
      ([line lsl col_bits lor col]).  The file name is shared once per
      buffer, so a location costs 8 bytes instead of a 4-word record.
    - [pool]: the boxed tokens ([INT], [IDENT], [INTERP_STRING], ...),
      in emission order.

    Reading a token back allocates nothing: constant tags are
    reconstructed as the immediate they are, boxed tags are fetched
    from [pool].  Only {!loc} materializes — a fresh [Loc.t] per call,
    which the parser caches per cursor position because the AST retains
    at most one [Loc.t] per token anyway. *)

type t = {
  file : string;
  mutable n : int;
  mutable tags : Bytes.t;
  mutable payload : int array;
  mutable locs : int array;
  mutable pool : Token.t array;
  mutable pool_n : int;
}

(* 31 bits of column: a column only exceeds 2^31 - 1 on a single source
   line longer than 2 GiB, beyond any input the scanner accepts. *)
let col_bits = 31
let col_mask = (1 lsl col_bits) - 1

(* ------------------------------------------------------------------ *)
(* Tag codes.                                                           *)

(* [Token.t]'s constant constructors are immediates [0 .. n-1] in
   declaration order and its payload constructors carry [Obj.tag]
   [0 .. m-1]; with 106 constant and 8 payload constructors both fit a
   byte with the high bit telling them apart.  The [Obj] round-trip is
   safe by construction: [code_of] only ever reads representations the
   compiler produced, and [tok] only rebuilds immediates from codes
   [code_of] wrote.  [test_php.ml] round-trips every constructor. *)

let boxed_bit = 0x80

let code_of (tok : Token.t) : int =
  let r = Obj.repr tok in
  if Obj.is_int r then (Obj.obj r : int) else boxed_bit lor Obj.tag r

let const_of_code (code : int) : Token.t = Obj.magic (code : int)

(* ------------------------------------------------------------------ *)

let create ?(capacity = 256) ~file () =
  {
    file;
    n = 0;
    tags = Bytes.create capacity;
    payload = Array.make capacity 0;
    locs = Array.make capacity 0;
    pool = Array.make 64 Token.EOF;
    pool_n = 0;
  }

let file t = t.file
let length t = t.n

let grow t =
  let cap = Bytes.length t.tags in
  let cap' = cap * 2 in
  let tags' = Bytes.create cap' in
  Bytes.blit t.tags 0 tags' 0 cap;
  t.tags <- tags';
  let payload' = Array.make cap' 0 in
  Array.blit t.payload 0 payload' 0 cap;
  t.payload <- payload';
  let locs' = Array.make cap' 0 in
  Array.blit t.locs 0 locs' 0 cap;
  t.locs <- locs'

let pool_add t tok =
  if t.pool_n = Array.length t.pool then begin
    let pool' = Array.make (2 * t.pool_n) Token.EOF in
    Array.blit t.pool 0 pool' 0 t.pool_n;
    t.pool <- pool'
  end;
  t.pool.(t.pool_n) <- tok;
  t.pool_n <- t.pool_n + 1;
  t.pool_n - 1

let push t tok ~line ~col =
  if t.n = Bytes.length t.tags then grow t;
  let code = code_of tok in
  Bytes.unsafe_set t.tags t.n (Char.unsafe_chr code);
  if code land boxed_bit <> 0 then t.payload.(t.n) <- pool_add t tok;
  t.locs.(t.n) <- (line lsl col_bits) lor (col land col_mask);
  t.n <- t.n + 1

let tok t i =
  let code = Char.code (Bytes.get t.tags i) in
  if code land boxed_bit = 0 then const_of_code code
  else t.pool.(t.payload.(i))

let line t i = t.locs.(i) lsr col_bits
let col t i = t.locs.(i) land col_mask

let loc t i = Loc.make ~file:t.file ~line:(line t i) ~col:(col t i)

let last_tok t = if t.n = 0 then None else Some (tok t (t.n - 1))

(* ------------------------------------------------------------------ *)
(* Compatibility bridge.                                                *)

let to_list t : (Token.t * Loc.t) list =
  let rec go i acc = if i < 0 then acc else go (i - 1) ((tok t i, loc t i) :: acc) in
  go (t.n - 1) []

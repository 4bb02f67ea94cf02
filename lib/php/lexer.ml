(** Hand-written lexer for the PHP subset understood by the tool.

    The lexer alternates between two modes, like PHP itself: outside
    [<?php ... ?>] everything is inline HTML; inside, it produces the
    tokens of {!Token.t}.  Double-quoted strings and heredocs are split
    into interpolation parts here so the parser can rebuild the implicit
    concatenation that WAP's taint analysis must see.

    The hot path is a byte-level scanner that emits straight into a flat
    {!Token_buf.t}: keyword matching compares bytes in place (no
    [String.sub] / [lowercase_ascii] round trip), identifiers and plain
    string literals are recorded as (offset, length) slices of the
    source and materialized at most once through a per-tokenize
    interning pool, and repeated [VARIABLE] / [IDENT] / [CONST_STRING]
    tokens are hashconsed so the buffer's pool holds one boxed token per
    distinct spelling.  Interpolated strings, heredocs and escape-heavy
    literals take the original [Buffer]-based slow path — they are rare
    and their payloads are not source slices.

    The token streams and locations it produces are pinned by the
    conformance goldens under [test/conformance/]. *)

exception Error of string * Loc.t

(* ------------------------------------------------------------------ *)
(* Scanner state.                                                      *)

type state = {
  src : string;
  file : string;
  len : int;
  mutable pos : int;
  mutable line : int;
  mutable col : int;
  (* Per-tokenize interning pool: buckets of already-materialized
     strings, looked up by hashing a source slice in place; a power of
     two of them, sized from the source ({!intern_buckets}). *)
  intern : string list array;
  (* Hashconsed boxed tokens, keyed by their (interned) payload. *)
  var_toks : (string, Token.t) Hashtbl.t;
  ident_toks : (string, Token.t) Hashtbl.t;
  str_toks : (string, Token.t) Hashtbl.t;
}

(* Pool buckets for a source of [len] bytes: the smallest power of two
   that is at least [len / 64], within [16, 512].  Most files are a few
   hundred bytes, and an array of more than 256 words skips the minor
   heap, so a fixed 512 buckets would cost every file a major-heap
   allocation; from 32 KB up the pool has its 512 buckets. *)
let intern_buckets len =
  let rec size n = if n >= 512 || n * 64 >= len then n else size (2 * n) in
  size 16

let make_state ~file src =
  let len = String.length src in
  let buckets = intern_buckets len in
  let table () = Hashtbl.create (min buckets 64) in
  {
    src;
    file;
    len;
    pos = 0;
    line = 1;
    col = 0;
    intern = Array.make buckets [];
    var_toks = table ();
    ident_toks = table ();
    str_toks = table ();
  }

let loc st = Loc.make ~file:st.file ~line:st.line ~col:st.col

let fail st msg = raise (Error (msg, loc st))

let at_end st = st.pos >= st.len

let peek st = if at_end st then '\000' else String.unsafe_get st.src st.pos

let peek2 st =
  if st.pos + 1 >= st.len then '\000' else String.unsafe_get st.src (st.pos + 1)

let peek3 st =
  if st.pos + 2 >= st.len then '\000' else String.unsafe_get st.src (st.pos + 2)

let advance st =
  if not (at_end st) then begin
    if String.unsafe_get st.src st.pos = '\n' then begin
      st.line <- st.line + 1;
      st.col <- 0
    end
    else st.col <- st.col + 1;
    st.pos <- st.pos + 1
  end

let advance_n st n =
  for _ = 1 to n do
    advance st
  done

(* In-place prefix test: no [String.sub]. *)
let looking_at st s =
  let n = String.length s in
  st.pos + n <= st.len
  &&
  let rec go i =
    i = n
    || (String.unsafe_get st.src (st.pos + i) = String.unsafe_get s i && go (i + 1))
  in
  go 0

let lower_char c =
  if c >= 'A' && c <= 'Z' then Char.unsafe_chr (Char.code c + 32) else c

(* Case-insensitive in-place prefix test ([s] must be lowercase). *)
let looking_at_ci st s =
  let n = String.length s in
  st.pos + n <= st.len
  &&
  let rec go i =
    i = n
    || (lower_char (String.unsafe_get st.src (st.pos + i)) = String.unsafe_get s i
       && go (i + 1))
  in
  go 0

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'
let is_hex c = is_digit c || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')

(* ------------------------------------------------------------------ *)
(* Interning pool.  One FNV-1a hash works for both source slices and
   already-materialized strings, so escape-processed literals land in
   the same pool as plain slices.                                      *)

let hash_bytes data off len =
  let h = ref 0x811c9dc5 in
  for i = off to off + len - 1 do
    h := (!h lxor Char.code (String.unsafe_get data i)) * 0x01000193 land 0xffffffff
  done;
  !h

let slice_equal data off len s =
  String.length s = len
  &&
  let rec go i =
    i = len || (String.unsafe_get s i = String.unsafe_get data (off + i) && go (i + 1))
  in
  go 0

let intern_bytes st data off len =
  let b = hash_bytes data off len land (Array.length st.intern - 1) in
  let rec find = function
    | [] ->
        let s = String.sub data off len in
        st.intern.(b) <- s :: st.intern.(b);
        s
    | s :: rest -> if slice_equal data off len s then s else find rest
  in
  find st.intern.(b)

(* Materialize a source slice at most once per tokenize. *)
let intern_slice st off len = intern_bytes st st.src off len

(* Dedupe an already-built string (escape/interp slow paths). *)
let intern_string st s = intern_bytes st s 0 (String.length s)

let hashcons tbl mk s =
  match Hashtbl.find_opt tbl s with
  | Some t -> t
  | None ->
      let t = mk s in
      Hashtbl.add tbl s t;
      t

let var_token st s = hashcons st.var_toks (fun s -> Token.VARIABLE s) s
let ident_token st s = hashcons st.ident_toks (fun s -> Token.IDENT s) s
let const_string_token st s = hashcons st.str_toks (fun s -> Token.CONST_STRING s) s

(* ------------------------------------------------------------------ *)
(* Keyword recognition: buckets of (lowercase spelling, token) by
   length, compared byte-for-byte against the source slice — no
   intermediate string, no lowercased copy.                            *)

let max_kw_len =
  List.fold_left (fun m (k, _) -> max m (String.length k)) 0 Token.keyword_table

let kw_by_len : (string * Token.t) array array =
  let buckets = Array.make (max_kw_len + 1) [] in
  List.iter
    (fun (k, t) ->
      let n = String.length k in
      buckets.(n) <- (String.lowercase_ascii k, t) :: buckets.(n))
    Token.keyword_table;
  Array.map (fun l -> Array.of_list (List.rev l)) buckets

let kw_lookup src off len : Token.t option =
  if len > max_kw_len then None
  else begin
    let cands = kw_by_len.(len) in
    let n = Array.length cands in
    let rec try_cand i =
      if i = n then None
      else
        let k, t = Array.unsafe_get cands i in
        let rec eq j =
          j = len
          || (lower_char (String.unsafe_get src (off + j)) = String.unsafe_get k j
             && eq (j + 1))
        in
        if eq 0 then Some t else try_cand (i + 1)
    in
    try_cand 0
  end

(* Scan an identifier in place; returns its (offset, length) extent. *)
let scan_ident st =
  let start = st.pos in
  while (not (at_end st)) && is_ident_char (peek st) do
    advance st
  done;
  (start, st.pos - start)

let read_ident st =
  let off, len = scan_ident st in
  intern_slice st off len

(* ------------------------------------------------------------------ *)
(* Escape sequences in double-quoted context.                          *)

let resolve_dq_escape ?(quote = '"') st =
  (* Called with [peek st] on the char right after a backslash.  [quote]
     is the delimiter of the surrounding context (['"'] for double-quoted
     strings and heredocs, ['`'] for backticks) — a backslash-escaped
     delimiter always resolves to the delimiter itself. *)
  let c = peek st in
  advance st;
  if c = quote then Some quote
  else
  match c with
  | 'n' -> Some '\n'
  | 't' -> Some '\t'
  | 'r' -> Some '\r'
  | 'v' -> Some '\011'
  | 'f' -> Some '\012'
  | 'e' -> Some '\027'
  | '\\' -> Some '\\'
  | '$' -> Some '$'
  | '"' -> Some '"'
  | '0' .. '7' ->
      (* up to three octal digits, first already consumed *)
      let v = ref (Char.code c - Char.code '0') in
      let n = ref 1 in
      while !n < 3 && peek st >= '0' && peek st <= '7' do
        v := (!v * 8) + (Char.code (peek st) - Char.code '0');
        advance st;
        incr n
      done;
      Some (Char.chr (!v land 0xff))
  | 'x' ->
      if is_hex (peek st) then begin
        let v = ref 0 in
        let n = ref 0 in
        while !n < 2 && is_hex (peek st) do
          let d = peek st in
          let dv =
            if is_digit d then Char.code d - Char.code '0'
            else (Char.code (Char.lowercase_ascii d) - Char.code 'a') + 10
          in
          v := (!v * 16) + dv;
          advance st;
          incr n
        done;
        Some (Char.chr (!v land 0xff))
      end
      else (* not an escape: PHP keeps the backslash *) None
  | other ->
      (* Unknown escape: PHP keeps the backslash. We signal with None and
         let the caller emit both characters. *)
      ignore other;
      None

(* ------------------------------------------------------------------ *)
(* Interpolated (double-quoted / heredoc) content — the slow path,
   reached only for strings that actually contain [$], [{] or [\ ].    *)

let scan_interp_parts ?quote st ~(stop : state -> bool)
    ~(consume_stop : state -> unit) : Token.interp_part list =
  let parts = ref [] in
  let buf = Buffer.create 32 in
  let flush () =
    if Buffer.length buf > 0 then begin
      parts := Token.Part_str (Buffer.contents buf) :: !parts;
      Buffer.clear buf
    end
  in
  let rec loop () =
    if at_end st then fail st "unterminated string"
    else if stop st then consume_stop st
    else
      match peek st with
      | '\\' ->
          advance st;
          if at_end st then fail st "dangling backslash in string";
          let before = peek st in
          (match resolve_dq_escape ?quote st with
          | Some c -> Buffer.add_char buf c
          | None ->
              Buffer.add_char buf '\\';
              Buffer.add_char buf before);
          loop ()
      | '$' when is_ident_start (peek2 st) ->
          flush ();
          advance st (* $ *);
          let name = read_ident st in
          (* simple syntax: optional [sub] or ->prop *)
          if peek st = '[' then begin
            advance st;
            let sub =
              if peek st = '$' then begin
                advance st;
                Token.Sub_var (read_ident st)
              end
              else if is_digit (peek st) then begin
                let b = Buffer.create 8 in
                while is_digit (peek st) do
                  Buffer.add_char b (peek st);
                  advance st
                done;
                (* offsets beyond the native int range behave like plain
                   string keys, as PHP treats them *)
                match int_of_string_opt (Buffer.contents b) with
                | Some n -> Token.Sub_int n
                | None -> Token.Sub_name (Buffer.contents b)
              end
              else if is_ident_start (peek st) then Token.Sub_name (read_ident st)
              else if peek st = '\'' then begin
                (* tolerate quoted key in simple syntax *)
                advance st;
                let b = Buffer.create 8 in
                while peek st <> '\'' && not (at_end st) do
                  Buffer.add_char b (peek st);
                  advance st
                done;
                advance st;
                Token.Sub_name (Buffer.contents b)
              end
              else fail st "bad subscript in string interpolation"
            in
            if peek st <> ']' then fail st "expected ] in string interpolation";
            advance st;
            parts := Token.Part_index (name, sub) :: !parts
          end
          else if peek st = '-' && peek2 st = '>' then begin
            advance_n st 2;
            if not (is_ident_start (peek st)) then
              fail st "expected property name in string interpolation";
            let prop = read_ident st in
            parts := Token.Part_prop (name, prop) :: !parts
          end
          else parts := Token.Part_var name :: !parts;
          loop ()
      | '$' when peek2 st = '{' ->
          (* ${name} legacy syntax *)
          flush ();
          advance_n st 2;
          let name = read_ident st in
          if peek st <> '}' then fail st "expected } in ${...} interpolation";
          advance st;
          parts := Token.Part_var name :: !parts;
          loop ()
      | '{' when peek2 st = '$' ->
          flush ();
          advance st (* { *);
          (* capture to matching close brace, tracking nesting and quotes *)
          let b = Buffer.create 16 in
          let depth = ref 1 in
          let rec cap () =
            if at_end st then fail st "unterminated {$...} interpolation"
            else
              match peek st with
              | '{' ->
                  incr depth;
                  Buffer.add_char b '{';
                  advance st;
                  cap ()
              | '}' ->
                  decr depth;
                  if !depth = 0 then advance st
                  else begin
                    Buffer.add_char b '}';
                    advance st;
                    cap ()
                  end
              | '\'' | '"' ->
                  let q = peek st in
                  Buffer.add_char b q;
                  advance st;
                  let rec instr () =
                    if at_end st then fail st "unterminated string in interpolation"
                    else if peek st = '\\' then begin
                      Buffer.add_char b '\\';
                      advance st;
                      Buffer.add_char b (peek st);
                      advance st;
                      instr ()
                    end
                    else if peek st = q then begin
                      Buffer.add_char b q;
                      advance st
                    end
                    else begin
                      Buffer.add_char b (peek st);
                      advance st;
                      instr ()
                    end
                  in
                  instr ();
                  cap ()
              | c ->
                  Buffer.add_char b c;
                  advance st;
                  cap ()
          in
          cap ();
          parts := Token.Part_complex (Buffer.contents b) :: !parts;
          loop ()
      | c ->
          Buffer.add_char buf c;
          advance st;
          loop ()
  in
  loop ();
  flush ();
  List.rev !parts

(* When a double-quoted string has no interpolation we collapse it into a
   CONST_STRING so downstream code sees plain literals. *)
let collapse_parts st (parts : Token.interp_part list) : Token.t =
  let all_str =
    List.for_all (function Token.Part_str _ -> true | _ -> false) parts
  in
  if all_str then
    const_string_token st
      (intern_string st
         (String.concat ""
            (List.map
               (function Token.Part_str s -> s | _ -> assert false)
               parts)))
  else Token.INTERP_STRING parts

(* ------------------------------------------------------------------ *)
(* Main tokenizer.                                                     *)

type mode = Html | Php

let tokenize_buf ~file src : Token_buf.t =
  let st = make_state ~file src in
  let buf =
    Token_buf.create ~capacity:(max 64 (String.length src / 8)) ~file ()
  in
  let mode = ref Html in
  let rec run () =
    if at_end st then Token_buf.push buf Token.EOF ~line:st.line ~col:st.col
    else match !mode with Html -> html () | Php -> php ()
  and html () =
    let l_line = st.line and l_col = st.col in
    let start = st.pos in
    (* Scan forward to the next open tag (or EOF); the chunk is emitted
       as one source slice, never staged through a Buffer. *)
    let rec scan () =
      if at_end st then `Eof
      else if looking_at_ci st "<?php" then `Open
      else if looking_at st "<?=" then `Echo
      else begin
        advance st;
        scan ()
      end
    in
    let stop = scan () in
    let chunk_len = st.pos - start in
    let emit_chunk () =
      if chunk_len > 0 then
        Token_buf.push buf
          (Token.INLINE_HTML (String.sub st.src start chunk_len))
          ~line:l_line ~col:l_col
    in
    (match stop with
    | `Eof -> emit_chunk ()
    | `Open ->
        advance_n st 5;
        mode := Php;
        emit_chunk ()
    | `Echo ->
        advance_n st 3;
        mode := Php;
        emit_chunk ();
        (* <?= is sugar for echo *)
        Token_buf.push buf Token.K_ECHO ~line:st.line ~col:st.col);
    run ()
  and php () =
    if at_end st then Token_buf.push buf Token.EOF ~line:st.line ~col:st.col
    else begin
      let c = peek st in
      if c = ' ' || c = '\t' || c = '\n' || c = '\r' then begin
        advance st;
        php ()
      end
      else if c = '?' && peek2 st = '>' then begin
        (* close tag terminates the current statement; only synthesize a
           semicolon when one is actually missing *)
        let l_line = st.line and l_col = st.col in
        advance_n st 2;
        (* PHP swallows a single newline right after the close tag *)
        if peek st = '\n' then advance st;
        (match Token_buf.last_tok buf with
        | Some Token.SEMI | Some Token.LBRACE | Some Token.RBRACE
        | Some Token.COLON | None ->
            ()
        | Some _ -> Token_buf.push buf Token.SEMI ~line:l_line ~col:l_col);
        mode := Html;
        run ()
      end
      else if (c = '/' && peek2 st = '/') || c = '#' then begin
        while
          (not (at_end st))
          && peek st <> '\n'
          && not (peek st = '?' && peek2 st = '>')
        do
          advance st
        done;
        php ()
      end
      else if c = '/' && peek2 st = '*' then begin
        advance_n st 2;
        while (not (at_end st)) && not (peek st = '*' && peek2 st = '/') do
          advance st
        done;
        if at_end st then fail st "unterminated block comment";
        advance_n st 2;
        php ()
      end
      else begin
        let t_line = st.line and t_col = st.col in
        let tok = token () in
        Token_buf.push buf tok ~line:t_line ~col:t_col;
        php ()
      end
    end
  and token () =
    let c = peek st in
    if c = '$' then begin
      advance st;
      if is_ident_start (peek st) then var_token st (read_ident st)
      else if peek st = '$' then Token.DOLLAR
      else if peek st = '{' then fail st "${expr} variable-variables unsupported"
      else Token.DOLLAR
    end
    else if is_ident_start c then begin
      let off, len = scan_ident st in
      match kw_lookup st.src off len with
      | Some k -> k
      | None -> ident_token st (intern_slice st off len)
    end
    else if is_digit c || (c = '.' && is_digit (peek2 st)) then number ()
    else if c = '\'' then single_quoted ()
    else if c = '"' then double_quoted ()
    else if c = '`' then backtick ()
    else if c = '<' && peek2 st = '<' && peek3 st = '<' then heredoc ()
    else operator ()
  and number () =
    (* The literal's text is exactly the consumed source slice, so the
       digits never go through a Buffer; the slice is materialized once
       for the final numeric conversion. *)
    let start = st.pos in
    if peek st = '0' && (peek2 st = 'x' || peek2 st = 'X') then begin
      advance_n st 2;
      let dstart = st.pos in
      while is_hex (peek st) do
        advance st
      done;
      if st.pos = dstart then fail st "malformed hexadecimal literal";
      let s = String.sub st.src start (st.pos - start) in
      match int_of_string_opt s with
      | Some n -> Token.INT n
      | None ->
          (* hex literal beyond the native int range: PHP overflows to
             float; fold the digits ourselves *)
          let v = ref 0.0 in
          String.iter
            (fun c ->
              let d =
                if is_digit c then Char.code c - Char.code '0'
                else (Char.code (Char.lowercase_ascii c) - Char.code 'a') + 10
              in
              v := (!v *. 16.0) +. float_of_int d)
            (String.sub s 2 (String.length s - 2));
          Token.FLOAT !v
    end
    else begin
      let is_float = ref false in
      while is_digit (peek st) do
        advance st
      done;
      if peek st = '.' && is_digit (peek2 st) then begin
        is_float := true;
        advance st;
        while is_digit (peek st) do
          advance st
        done
      end;
      if peek st = 'e' || peek st = 'E' then begin
        let save = st.pos in
        let save_col = st.col in
        advance st;
        if peek st = '+' || peek st = '-' then advance st;
        if is_digit (peek st) then begin
          is_float := true;
          while is_digit (peek st) do
            advance st
          done
        end
        else begin
          (* not an exponent after all; rewind (column included, or
             every later loc on the line drifts) *)
          st.pos <- save;
          st.col <- save_col
        end
      end;
      let s = String.sub st.src start (st.pos - start) in
      if !is_float then Token.FLOAT (float_of_string s)
      else
        match int_of_string_opt s with
        | Some n -> Token.INT n
        | None -> Token.FLOAT (float_of_string s)
    end
  and single_quoted () =
    advance st (* ' *);
    let start = st.pos in
    (* Fast path: no backslash before the closing quote — the payload is
       a pure source slice, interned without a Buffer round trip. *)
    let rec scan () =
      if at_end st then fail st "unterminated single-quoted string"
      else
        match peek st with
        | '\'' ->
            let s = intern_slice st start (st.pos - start) in
            advance st;
            const_string_token st s
        | '\\' ->
            let b = Buffer.create (st.pos - start + 16) in
            Buffer.add_substring b st.src start (st.pos - start);
            slow b
        | _ ->
            advance st;
            scan ()
    and slow b =
      if at_end st then fail st "unterminated single-quoted string"
      else
        match peek st with
        | '\'' ->
            advance st;
            const_string_token st (intern_string st (Buffer.contents b))
        | '\\' ->
            advance st;
            (match peek st with
            | '\'' -> Buffer.add_char b '\''
            | '\\' -> Buffer.add_char b '\\'
            | other ->
                Buffer.add_char b '\\';
                Buffer.add_char b other);
            advance st;
            slow b
        | ch ->
            Buffer.add_char b ch;
            advance st;
            slow b
    in
    scan ()
  and double_quoted () =
    advance st (* opening quote *);
    (* Fast path: lookahead for a closing quote with no escape or
       interpolation trigger in between — then the payload is a pure
       source slice. *)
    let rec plain i =
      if i >= st.len then -1
      else
        match String.unsafe_get st.src i with
        | '"' -> i
        | '\\' | '$' | '{' -> -1
        | _ -> plain (i + 1)
    in
    let e = plain st.pos in
    if e >= 0 then begin
      let s = intern_slice st st.pos (e - st.pos) in
      while st.pos <= e do
        advance st
      done;
      const_string_token st s
    end
    else
      let parts =
        scan_interp_parts st
          ~stop:(fun s -> peek s = '"')
          ~consume_stop:(fun s -> advance s)
      in
      collapse_parts st parts
  and backtick () =
    advance st (* opening backtick *);
    let parts =
      scan_interp_parts ~quote:'`' st
        ~stop:(fun s -> peek s = '`')
        ~consume_stop:(fun s -> advance s)
    in
    Token.BACKTICK_STRING parts
  and heredoc () =
    advance_n st 3;
    (* optional quotes around the tag *)
    let nowdoc = peek st = '\'' in
    if nowdoc || peek st = '"' then advance st;
    let tag = read_ident st in
    if tag = "" then fail st "missing heredoc tag";
    if nowdoc || peek st = '"' then
      if peek st = '\'' || peek st = '"' then advance st;
    (* consume to end of line *)
    while (not (at_end st)) && peek st <> '\n' do
      advance st
    done;
    if not (at_end st) then advance st;
    let terminator st =
      (* the terminator must start a line, possibly indented *)
      let rec check i =
        if i >= st.len then false
        else
          match st.src.[i] with
          | ' ' | '\t' -> check (i + 1)
          | _ ->
              i + String.length tag <= st.len
              && slice_equal st.src i (String.length tag) tag
              && (i + String.length tag >= st.len
                 ||
                 let nc = st.src.[i + String.length tag] in
                 not (is_ident_char nc))
      in
      (st.pos = 0 || st.src.[st.pos - 1] = '\n') && check st.pos
    in
    let consume_term st =
      while peek st = ' ' || peek st = '\t' do
        advance st
      done;
      advance_n st (String.length tag)
    in
    (* PHP strips the newline that precedes the terminator *)
    let strip_last_nl s =
      let n = String.length s in
      if n > 0 && s.[n - 1] = '\n' then String.sub s 0 (n - 1) else s
    in
    if nowdoc then begin
      (* nowdoc bodies are verbatim source slices *)
      let start = st.pos in
      let rec loop () =
        if at_end st then fail st "unterminated nowdoc"
        else if terminator st then begin
          let body_len = st.pos - start in
          consume_term st;
          body_len
        end
        else begin
          advance st;
          loop ()
        end
      in
      let body_len = loop () in
      let body_len =
        if body_len > 0 && st.src.[start + body_len - 1] = '\n' then body_len - 1
        else body_len
      in
      const_string_token st (intern_slice st start body_len)
    end
    else
      let parts = scan_interp_parts st ~stop:terminator ~consume_stop:consume_term in
      let parts =
        match List.rev parts with
        | Token.Part_str s :: rest ->
            let s = strip_last_nl s in
            if s = "" && rest <> [] then List.rev rest
            else List.rev (Token.Part_str s :: rest)
        | _ -> parts
      in
      collapse_parts st parts
  and operator () =
    (* First-char dispatch over in-place lookahead, longest operator
       first. *)
    let take n t =
      advance_n st n;
      t
    in
    let c = peek st in
    let c2 = peek2 st in
    match c with
    | '<' ->
        (* <<< never reaches here: [token] routes it to heredoc *)
        if c2 = '=' && peek3 st = '>' then take 3 Token.SPACESHIP
        else if c2 = '=' then take 2 Token.LE
        else if c2 = '<' && peek3 st = '=' then take 3 Token.SHL_EQ
        else if c2 = '<' then take 2 Token.SHL
        else if c2 = '>' then take 2 Token.NEQ
        else take 1 Token.LT
    | '=' ->
        if c2 = '=' && peek3 st = '=' then take 3 Token.IDENTICAL
        else if c2 = '=' then take 2 Token.EQ_EQ
        else if c2 = '>' then take 2 Token.DOUBLE_ARROW
        else take 1 Token.EQ
    | '!' ->
        if c2 = '=' && peek3 st = '=' then take 3 Token.NOT_IDENTICAL
        else if c2 = '=' then take 2 Token.NEQ
        else take 1 Token.BANG
    | '*' ->
        if c2 = '*' && peek3 st = '=' then take 3 Token.POW_EQ
        else if c2 = '*' then take 2 Token.POW
        else if c2 = '=' then take 2 Token.STAR_EQ
        else take 1 Token.STAR
    | '>' ->
        if c2 = '>' && peek3 st = '=' then take 3 Token.SHR_EQ
        else if c2 = '=' then take 2 Token.GE
        else if c2 = '>' then take 2 Token.SHR
        else take 1 Token.GT
    | '?' ->
        if c2 = '?' && peek3 st = '=' then take 3 Token.QQ_EQ
        else if c2 = '?' then take 2 Token.QQ
        else take 1 Token.QUESTION
    | '.' ->
        if c2 = '.' && peek3 st = '.' then take 3 Token.ELLIPSIS
        else if c2 = '=' then take 2 Token.DOT_EQ
        else take 1 Token.DOT
    | '&' ->
        if c2 = '&' then take 2 Token.AMP_AMP
        else if c2 = '=' then take 2 Token.AMP_EQ
        else take 1 Token.AMP
    | '|' ->
        if c2 = '|' then take 2 Token.PIPE_PIPE
        else if c2 = '=' then take 2 Token.PIPE_EQ
        else take 1 Token.PIPE
    | '+' ->
        if c2 = '+' then take 2 Token.INC
        else if c2 = '=' then take 2 Token.PLUS_EQ
        else take 1 Token.PLUS
    | '-' ->
        if c2 = '-' then take 2 Token.DEC
        else if c2 = '=' then take 2 Token.MINUS_EQ
        else if c2 = '>' then take 2 Token.ARROW
        else take 1 Token.MINUS
    | '/' -> if c2 = '=' then take 2 Token.SLASH_EQ else take 1 Token.SLASH
    | '%' -> if c2 = '=' then take 2 Token.PERCENT_EQ else take 1 Token.PERCENT
    | '^' -> if c2 = '=' then take 2 Token.CARET_EQ else take 1 Token.CARET
    | ':' -> if c2 = ':' then take 2 Token.DOUBLE_COLON else take 1 Token.COLON
    | '(' -> take 1 Token.LPAREN
    | ')' -> take 1 Token.RPAREN
    | '{' -> take 1 Token.LBRACE
    | '}' -> take 1 Token.RBRACE
    | '[' -> take 1 Token.LBRACKET
    | ']' -> take 1 Token.RBRACKET
    | ';' -> take 1 Token.SEMI
    | ',' -> take 1 Token.COMMA
    | '@' -> take 1 Token.AT
    | '~' -> take 1 Token.TILDE
    | other ->
        advance st;
        fail st (Printf.sprintf "unexpected character %C" other)
  in
  run ();
  buf

(* Compat wrapper: the buffer as a boxed located-token list, for tests
   and oracles; the parser consumes the buffer directly. *)
let tokenize ~file src : (Token.t * Loc.t) list =
  Token_buf.to_list (tokenize_buf ~file src)

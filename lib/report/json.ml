(** A minimal JSON emitter (no external dependency), used to export
    findings and experiment data for downstream tooling. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

let escape_string s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 32 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let rec write ~indent buf (v : t) (level : int) =
  let pad n = if indent then String.make (2 * n) ' ' else "" in
  let nl = if indent then "\n" else "" in
  match v with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int n -> Buffer.add_string buf (string_of_int n)
  | Float f ->
      if Float.is_integer f && Float.abs f < 1e15 then
        Buffer.add_string buf (Printf.sprintf "%.1f" f)
      else Buffer.add_string buf (Printf.sprintf "%.12g" f)
  | Str s ->
      Buffer.add_char buf '"';
      Buffer.add_string buf (escape_string s);
      Buffer.add_char buf '"'
  | List [] -> Buffer.add_string buf "[]"
  | List items ->
      Buffer.add_string buf ("[" ^ nl);
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_string buf ("," ^ nl);
          Buffer.add_string buf (pad (level + 1));
          write ~indent buf item (level + 1))
        items;
      Buffer.add_string buf (nl ^ pad level ^ "]")
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj fields ->
      Buffer.add_string buf ("{" ^ nl);
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string buf ("," ^ nl);
          Buffer.add_string buf (pad (level + 1));
          Buffer.add_string buf ("\"" ^ escape_string k ^ "\":");
          if indent then Buffer.add_char buf ' ';
          write ~indent buf v (level + 1))
        fields;
      Buffer.add_string buf (nl ^ pad level ^ "}")

(** Serialize; [indent] pretty-prints with two-space indentation. *)
let to_string ?(indent = true) (v : t) : string =
  let buf = Buffer.create 256 in
  write ~indent buf v 0;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parsing.  A recursive-descent reader for the documents this emitter
   (and the trace writer) produces — full RFC 8259 value syntax, with
   \uXXXX escapes decoded to UTF-8.                                    *)

exception Parse_error of string * int  (** message, byte offset *)

type parser_state = { src : string; mutable pos : int }

let p_error p msg = raise (Parse_error (msg, p.pos))

let p_peek p = if p.pos < String.length p.src then Some p.src.[p.pos] else None

let p_next p =
  match p_peek p with
  | Some c ->
      p.pos <- p.pos + 1;
      c
  | None -> p_error p "unexpected end of input"

let rec p_skip_ws p =
  match p_peek p with
  | Some (' ' | '\t' | '\n' | '\r') ->
      p.pos <- p.pos + 1;
      p_skip_ws p
  | _ -> ()

let p_expect p c =
  let got = p_next p in
  if got <> c then p_error p (Printf.sprintf "expected %C, got %C" c got)

let p_literal p lit v =
  String.iter (fun c -> p_expect p c) lit;
  v

let add_utf8 b code =
  if code < 0x80 then Buffer.add_char b (Char.chr code)
  else if code < 0x800 then begin
    Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
    Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
  end
  else if code < 0x10000 then begin
    Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
    Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
  end
  else begin
    Buffer.add_char b (Char.chr (0xF0 lor (code lsr 18)));
    Buffer.add_char b (Char.chr (0x80 lor ((code lsr 12) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
  end

let p_string p =
  p_expect p '"';
  let b = Buffer.create 16 in
  let rec loop () =
    match p_next p with
    | '"' -> Buffer.contents b
    | '\\' ->
        (match p_next p with
        | '"' -> Buffer.add_char b '"'
        | '\\' -> Buffer.add_char b '\\'
        | '/' -> Buffer.add_char b '/'
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'n' -> Buffer.add_char b '\n'
        | 'r' -> Buffer.add_char b '\r'
        | 't' -> Buffer.add_char b '\t'
        | 'u' ->
            let read4 () =
              let hex = Bytes.create 4 in
              for i = 0 to 3 do
                Bytes.set hex i (p_next p)
              done;
              match int_of_string_opt ("0x" ^ Bytes.to_string hex) with
              | Some code -> code
              | None -> p_error p "bad \\u escape"
            in
            let code = read4 () in
            if code >= 0xD800 && code <= 0xDBFF then begin
              (* high surrogate: must combine with a following low
                 surrogate into one astral-plane code point — emitting
                 the two halves separately would be CESU-8, not UTF-8 *)
              (match p_next p with
              | '\\' -> ()
              | _ -> p_error p "lone high surrogate (expected \\uDC00-\\uDFFF)");
              (match p_next p with
              | 'u' -> ()
              | _ -> p_error p "lone high surrogate (expected \\uDC00-\\uDFFF)");
              let low = read4 () in
              if low < 0xDC00 || low > 0xDFFF then
                p_error p "lone high surrogate (expected \\uDC00-\\uDFFF)";
              add_utf8 b
                (0x10000 + ((code - 0xD800) lsl 10) + (low - 0xDC00))
            end
            else if code >= 0xDC00 && code <= 0xDFFF then
              p_error p "lone low surrogate"
            else add_utf8 b code
        | c -> p_error p (Printf.sprintf "bad escape \\%C" c));
        loop ()
    | c when Char.code c < 32 -> p_error p "raw control character in string"
    | c ->
        Buffer.add_char b c;
        loop ()
  in
  loop ()

let p_number p =
  let start = p.pos in
  let is_num_char = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while (match p_peek p with Some c -> is_num_char c | None -> false) do
    p.pos <- p.pos + 1
  done;
  let text = String.sub p.src start (p.pos - start) in
  if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') text then
    match float_of_string_opt text with
    | Some f -> Float f
    | None -> p_error p "malformed number"
  else
    match int_of_string_opt text with
    | Some n -> Int n
    | None -> (
        (* integer overflowing 63 bits still parses as a float *)
        match float_of_string_opt text with
        | Some f -> Float f
        | None -> p_error p "malformed number")

let rec p_value p : t =
  p_skip_ws p;
  match p_peek p with
  | Some '"' -> Str (p_string p)
  | Some '{' ->
      p.pos <- p.pos + 1;
      p_skip_ws p;
      if p_peek p = Some '}' then begin
        p.pos <- p.pos + 1;
        Obj []
      end
      else
        let rec fields acc =
          p_skip_ws p;
          let k = p_string p in
          p_skip_ws p;
          p_expect p ':';
          let v = p_value p in
          p_skip_ws p;
          match p_next p with
          | ',' -> fields ((k, v) :: acc)
          | '}' -> Obj (List.rev ((k, v) :: acc))
          | c -> p_error p (Printf.sprintf "expected ',' or '}', got %C" c)
        in
        fields []
  | Some '[' ->
      p.pos <- p.pos + 1;
      p_skip_ws p;
      if p_peek p = Some ']' then begin
        p.pos <- p.pos + 1;
        List []
      end
      else
        let rec items acc =
          let v = p_value p in
          p_skip_ws p;
          match p_next p with
          | ',' -> items (v :: acc)
          | ']' -> List (List.rev (v :: acc))
          | c -> p_error p (Printf.sprintf "expected ',' or ']', got %C" c)
        in
        items []
  | Some 't' -> p_literal p "true" (Bool true)
  | Some 'f' -> p_literal p "false" (Bool false)
  | Some 'n' -> p_literal p "null" Null
  | Some ('-' | '0' .. '9') -> p_number p
  | Some c -> p_error p (Printf.sprintf "unexpected %C" c)
  | None -> p_error p "unexpected end of input"

let of_string (s : string) : (t, string) result =
  let p = { src = s; pos = 0 } in
  match
    let v = p_value p in
    p_skip_ws p;
    if p.pos <> String.length s then p_error p "trailing input after document";
    v
  with
  | v -> Ok v
  | exception Parse_error (msg, pos) ->
      Error (Printf.sprintf "%s at offset %d" msg pos)

(* Accessors for tests and downstream consumers. *)
let member k = function Obj fields -> List.assoc_opt k fields | _ -> None
let to_list_opt = function List xs -> Some xs | _ -> None

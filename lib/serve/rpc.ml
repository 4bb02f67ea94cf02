(** JSON-RPC 2.0 message transport with LSP base-protocol framing:
    each message is a [Content-Length: N] header block followed by a
    blank line and N bytes of JSON.  Values are {!Wap_report.Json}
    trees — the same minimal JSON the exporters use, so the server
    adds no dependency. *)

module Json = Wap_report.Json

let strip_cr s =
  let n = String.length s in
  if n > 0 && s.[n - 1] = '\r' then String.sub s 0 (n - 1) else s

(* The largest body a frame may announce.  The body is allocated
   before it is read, so a larger [Content-Length] is refused unread:
   trusting it would let one header line exhaust memory. *)
let max_body = 64 * 1024 * 1024

(* The longest header line a frame may carry; a [Content-Length] line
   takes about 30 bytes.  A longer line is refused without being held,
   for the same reason as [max_body]. *)
let max_header_line = 4096

type line = Line of string | Too_long | Eof

(* One header line without its newline.  [Eof] at end of input before
   any byte; [Too_long] past [max_header_line] bytes, once the rest of
   the line, up to its newline, has been read and dropped. *)
let read_line ic =
  let buf = Buffer.create 64 in
  let rec skip () =
    match input_char ic with
    | '\n' | (exception End_of_file) -> ()
    | _ -> skip ()
  in
  let rec go () =
    match input_char ic with
    | exception End_of_file ->
        if Buffer.length buf = 0 then Eof else Line (Buffer.contents buf)
    | '\n' -> Line (Buffer.contents buf)
    | _ when Buffer.length buf = max_header_line ->
        skip ();
        Too_long
    | c ->
        Buffer.add_char buf c;
        go ()
  in
  go ()

(* Returns [None] at a clean end of stream (EOF before any header
   byte); a framing or JSON error inside a message is an [Error] so
   the caller can log it and keep the connection alive. *)
let read_message (ic : in_channel) : (Json.t, string) result option =
  match read_line ic with
  | Eof -> None
  | first -> (
      let rec headers len = function
        | Eof -> Error "end of input inside headers"
        | Too_long ->
            Error
              (Printf.sprintf "header line longer than %d bytes"
                 max_header_line)
        | Line line ->
            let line = strip_cr line in
            if line = "" then Ok len
            else
              let len =
                match String.index_opt line ':' with
                | Some i
                  when String.lowercase_ascii (String.sub line 0 i)
                       = "content-length" -> (
                    let v =
                      String.trim
                        (String.sub line (i + 1) (String.length line - i - 1))
                    in
                    match int_of_string_opt v with
                    | Some n when n >= 0 -> Some n
                    | _ -> len)
                | _ -> len
              in
              headers len (read_line ic)
      in
      match headers None first with
      | Error e -> Some (Error e)
      | Ok None -> Some (Error "missing Content-Length header")
      | Ok (Some n) when n > max_body ->
          Some
            (Error
               (Printf.sprintf "Content-Length %d exceeds the %d-byte limit" n
                  max_body))
      | Ok (Some n) -> (
          match really_input_string ic n with
          | exception End_of_file ->
              Some (Error "end of input inside message body")
          | body -> Some (Json.of_string body)))

let write_message (oc : out_channel) (msg : Json.t) : unit =
  let body = Json.to_string ~indent:false msg in
  Printf.fprintf oc "Content-Length: %d\r\n\r\n%s" (String.length body) body;
  flush oc

(* ------------------------------------------------------------------ *)
(* Envelopes.                                                          *)

let response ~id result =
  Json.Obj [ ("jsonrpc", Json.Str "2.0"); ("id", id); ("result", result) ]

let error_response ~id ~code message =
  Json.Obj
    [
      ("jsonrpc", Json.Str "2.0");
      ("id", id);
      ( "error",
        Json.Obj [ ("code", Json.Int code); ("message", Json.Str message) ] );
    ]

let notification meth params =
  Json.Obj
    [ ("jsonrpc", Json.Str "2.0"); ("method", Json.Str meth); ("params", params) ]

(* ------------------------------------------------------------------ *)
(* Accessors.                                                          *)

let str_member k j =
  match Json.member k j with Some (Json.Str s) -> Some s | _ -> None

let int_member k j =
  match Json.member k j with
  | Some (Json.Int n) -> Some n
  | Some (Json.Float f) -> Some (int_of_float f)
  | _ -> None

let meth j = str_member "method" j
let id j = Json.member "id" j
let params j = Option.value (Json.member "params" j) ~default:Json.Null

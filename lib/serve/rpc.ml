(** JSON-RPC 2.0 message transport with LSP base-protocol framing:
    each message is a [Content-Length: N] header block followed by a
    blank line and N bytes of JSON.  Values are {!Wap_report.Json}
    trees — the same minimal JSON the exporters use, so the server
    adds no dependency. *)

module Json = Wap_report.Json

(* The largest body a frame may announce.  The body is allocated
   before it is read, so a larger [Content-Length] is refused unread:
   trusting it would let one header line exhaust memory. *)
let max_body = 64 * 1024 * 1024

(* The last well-formed [Content-Length] of a head, if any. *)
let content_length =
  List.fold_left
    (fun len line ->
      match Http.field line with
      | Some ("content-length", v) -> (
          match int_of_string_opt v with Some n when n >= 0 -> Some n | _ -> len)
      | _ -> len)
    None

(* Returns [None] at a clean end of stream (EOF before any header
   byte); a framing or JSON error inside a message is an [Error] so
   the caller can log it and keep the connection alive.  An over-long
   header line is drained to its newline, so the stream picks up at
   the next line. *)
let read_message (ic : in_channel) : (Json.t, string) result option =
  let body head =
    match content_length head with
    | None -> Error "missing Content-Length header"
    | Some n when n > max_body ->
        Error
          (Printf.sprintf "Content-Length %d exceeds the %d-byte limit" n
             max_body)
    | Some n -> (
        match really_input_string ic n with
        | exception End_of_file -> Error "end of input inside message body"
        | body -> Json.of_string body)
  in
  Option.map
    (fun head -> Result.bind head body)
    (Http.read_head ~drain:true ic)

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

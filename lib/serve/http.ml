(** Minimal HTTP/1.1 for the admin plane: enough to serve a scraper
    and [curl], nothing more.  One request per connection
    ([Connection: close]); bodies are never read (the admin surface is
    GET-only).  The header-block reader is also the LSP framing's. *)

(* The longest header line a head may carry, CR included; a
   [Content-Length] line takes about 30 bytes.  A longer line is
   refused without being held, so one line cannot exhaust memory. *)
let max_header_line = 4096

(* The most lines a head may carry before its blank line. *)
let max_headers = 100

(* Seconds an admin connection may block in one read or one write. *)
let io_timeout = 2.0

type line = Line of string | Too_long | Eof

(* One line without its newline or CR.  [Eof] at end of input before
   any byte; [Too_long] past [max_header_line] bytes, after reading the
   rest of the line up to its newline and dropping it when [drain]. *)
let read_line ~drain ic =
  let buf = Buffer.create 64 in
  let line () =
    let n = Buffer.length buf in
    Line
      (if n > 0 && Buffer.nth buf (n - 1) = '\r' then Buffer.sub buf 0 (n - 1)
       else Buffer.contents buf)
  in
  let rec skip () =
    match input_char ic with
    | '\n' | (exception End_of_file) -> ()
    | _ -> skip ()
  in
  let rec go () =
    match input_char ic with
    | exception End_of_file -> if Buffer.length buf = 0 then Eof else line ()
    | '\n' -> line ()
    | _ when Buffer.length buf = max_header_line ->
        if drain then skip ();
        Too_long
    | c ->
        Buffer.add_char buf c;
        go ()
  in
  go ()

let read_head ?(drain = false) ic : (string list, string) result option =
  let rec go acc n =
    match read_line ~drain ic with
    | Eof when n = 0 -> None
    | Eof -> Some (Error "end of input inside headers")
    | Too_long ->
        Some
          (Error
             (Printf.sprintf "header line longer than %d bytes" max_header_line))
    | Line "" -> Some (Ok (List.rev acc))
    | Line _ when n = max_headers ->
        Some (Error (Printf.sprintf "more than %d header lines" max_headers))
    | Line l -> go (l :: acc) (n + 1)
  in
  go [] 0

let field line =
  match String.index_opt line ':' with
  | None -> None
  | Some i ->
      Some
        ( String.lowercase_ascii (String.sub line 0 i),
          String.trim (String.sub line (i + 1) (String.length line - i - 1)) )

type request = {
  rq_meth : string;
  rq_path : string;  (** as sent, query string included *)
  rq_headers : (string * string) list;  (** names lowercased *)
}

(* A path like /metrics?x=1 → /metrics. *)
let strip_query (path : string) : string =
  match String.index_opt path '?' with
  | Some i -> String.sub path 0 i
  | None -> path

let request_of_head = function
  | [] -> Error "empty request"
  | request_line :: lines -> (
      match String.split_on_char ' ' request_line with
      | [ meth; path; version ]
        when version = "HTTP/1.1" || version = "HTTP/1.0" ->
          let rec headers acc = function
            | [] ->
                Ok { rq_meth = meth; rq_path = path; rq_headers = List.rev acc }
            | l :: rest -> (
                match field l with
                | Some kv -> headers (kv :: acc) rest
                | None -> Error (Printf.sprintf "malformed header %S" l))
          in
          headers [] lines
      | _ -> Error (Printf.sprintf "malformed request line %S" request_line))

let read_request (ic : in_channel) : (request, string) result option =
  Option.map (fun head -> Result.bind head request_of_head) (read_head ic)

let reason = function
  | 200 -> "OK"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 503 -> "Service Unavailable"
  | _ -> "Error"

(* Unbuffered full write: [Unix.write] on a socket may return short
   (send buffer full under a slow or loaded scraper) and may be
   interrupted; loop until every byte of a large [/metrics] or [/trace]
   body is out instead of silently truncating the response.  [EAGAIN]
   is a send timeout ([io_timeout]) and raises like any other error. *)
let write_all (fd : Unix.file_descr) (s : string) : unit =
  let n = String.length s in
  let off = ref 0 in
  while !off < n do
    match Unix.write_substring fd s !off (n - !off) with
    | 0 -> raise (Unix.Unix_error (Unix.EPIPE, "write", ""))
    | written -> off := !off + written
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

let write_response (fd : Unix.file_descr) ~code ~content_type (body : string) :
    unit =
  let head =
    Printf.sprintf
      "HTTP/1.1 %d %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: close\r\n\r\n"
      code (reason code) content_type (String.length body)
  in
  (* one buffer, one write loop: header and body cannot interleave with
     a concurrent log write's output, and small responses go out in a
     single syscall *)
  write_all fd (head ^ body)

(* ------------------------------------------------------------------ *)
(* Endpoints.                                                          *)

type endpoint = Port of int | Socket of string

let sockaddr = function
  | Port n -> Unix.ADDR_INET (Unix.inet_addr_loopback, n)
  | Socket path -> Unix.ADDR_UNIX path

let socket e =
  Unix.socket (Unix.domain_of_sockaddr (sockaddr e)) Unix.SOCK_STREAM 0

let listen e =
  let sock = socket e in
  (match e with
  | Port _ -> Unix.setsockopt sock Unix.SO_REUSEADDR true
  | Socket path -> ( try Unix.unlink path with Unix.Unix_error _ -> ()));
  Unix.bind sock (sockaddr e);
  Unix.listen sock 16;
  sock

let connect e =
  let fd = socket e in
  match Unix.connect fd (sockaddr e) with
  | () -> fd
  | exception ex ->
      Unix.close fd;
      raise ex

let close e sock =
  (try Unix.close sock with Unix.Unix_error _ -> ());
  match e with
  | Socket path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | Port _ -> ()

let get e path : (int * string, string) result =
  let exchange fd ic =
    write_all fd
      (Printf.sprintf "GET %s HTTP/1.1\r\nHost: wap\r\nConnection: close\r\n\r\n"
         path);
    match read_head ic with
    | Some (Ok (status :: _)) -> (
        match
          Option.bind
            (List.nth_opt (String.split_on_char ' ' status) 1)
            int_of_string_opt
        with
        | Some code -> Ok (code, In_channel.input_all ic)
        | None -> Error ("malformed status line: " ^ status))
    | Some (Error e) -> Error e
    | None | Some (Ok []) -> Error "empty response"
  in
  match connect e with
  | exception ex -> Error (Printexc.to_string ex)
  | fd -> (
      let ic = Unix.in_channel_of_descr fd in
      match exchange fd ic with
      | r ->
          close_in_noerr ic;
          r
      | exception ex ->
          close_in_noerr ic;
          Error (Printexc.to_string ex))

(** Minimal HTTP/1.1 for the admin plane, and the one bounded
    header-block reader, which the LSP framing ({!Rpc}) shares.

    Deliberately tiny: request line + headers in, status line + body
    out, one request per connection ([Connection: close]).  The admin
    surface is GET-only, so request bodies are never read. *)

(** {1 Header blocks} *)

(** The most lines a head may carry before its blank line (100). *)
val max_headers : int

(** Seconds an accepted admin connection may block in one read or one
    write (2 s): it bounds what an idle or stalled client costs. *)
val io_timeout : float

(** Read one head: its lines, newline and CR stripped, up to the blank
    line that ends it.  [None] at end of input before any byte.  An
    [Error] on end of input inside the head, on a line longer than
    4 KiB (CR included) and on more than {!max_headers} lines.  An
    over-long line is never held whole: the reader stops at the cap,
    and with [~drain:true] (default [false]) reads the rest of the line
    up to its newline in bounded steps and drops it, so a stream of
    heads picks up at the next line. *)
val read_head : ?drain:bool -> in_channel -> (string list, string) result option

(** ["Name: value"] as (lowercased name, trimmed value); [None] without
    a colon. *)
val field : string -> (string * string) option

(** {1 Server side} *)

type request = {
  rq_meth : string;
  rq_path : string;  (** as sent, query string included *)
  rq_headers : (string * string) list;  (** names lowercased *)
}

(** [rq_path] without its query string. *)
val strip_query : string -> string

(** Read one request head through {!read_head}.  [None] at end of input
    before a request line; [Some (Error _)] on a head {!read_head}
    refuses or a malformed request line or header. *)
val read_request : in_channel -> (request, string) result option

(** Write [s] to [fd] in full, looping on short writes and [EINTR].  A
    zero-byte write raises [EPIPE]; a send timeout ([EAGAIN] under
    [SO_SNDTIMEO]) raises too: large bodies over a slow connection are
    never silently truncated, and a stalled reader is given up on. *)
val write_all : Unix.file_descr -> string -> unit

(** Write a complete response ([Content-Length] + [Connection: close])
    directly to the connection's descriptor via {!write_all}. *)
val write_response :
  Unix.file_descr -> code:int -> content_type:string -> string -> unit

(** {1 Endpoints} *)

(** Where the admin plane listens: a loopback TCP port or a
    Unix-domain socket path. *)
type endpoint = Port of int | Socket of string

(** A bound, listening socket at the endpoint (a stale socket file at
    the path is replaced). *)
val listen : endpoint -> Unix.file_descr

(** Close a socket {!listen} returned, and remove its socket file. *)
val close : endpoint -> Unix.file_descr -> unit

(** [get e path] — one [GET path] over a fresh connection: the
    status code and the body, read to the end of input.  The response
    head goes through {!read_head}.  Any failure, connecting included,
    is an [Error]. *)
val get : endpoint -> string -> (int * string, string) result

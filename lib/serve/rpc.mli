(** JSON-RPC 2.0 transport with LSP base-protocol framing
    ([Content-Length] header + JSON body) over ordinary channels. *)

module Json = Wap_report.Json

(** Read one framed message.  [None] at a clean end of stream;
    [Some (Error _)] on a framing or JSON syntax error (the stream
    stays usable — the next header line is resynchronized by the
    caller reading on).  A [Content-Length] above 64 MiB is such an
    error, returned before any of its body is allocated or read. *)
val read_message : in_channel -> (Json.t, string) result option

(** Write one framed message and flush. *)
val write_message : out_channel -> Json.t -> unit

(** [response ~id result] — a successful JSON-RPC response. *)
val response : id:Json.t -> Json.t -> Json.t

(** [error_response ~id ~code msg] — a JSON-RPC error response
    (e.g. [-32601] method-not-found). *)
val error_response : id:Json.t -> code:int -> string -> Json.t

(** [notification meth params] — a JSON-RPC notification. *)
val notification : string -> Json.t -> Json.t

(** [Some s] when member [k] is a string. *)
val str_member : string -> Json.t -> string option

(** [Some n] when member [k] is a number (floats truncate). *)
val int_member : string -> Json.t -> int option

(** The ["method"] member, if any. *)
val meth : Json.t -> string option

(** The ["id"] member, if any — distinguishes requests from
    notifications. *)
val id : Json.t -> Json.t option

(** The ["params"] member, [Null] when absent. *)
val params : Json.t -> Json.t

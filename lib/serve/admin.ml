(** The daemon's admin plane: [/metrics], [/healthz], [/readyz],
    [/status], [/trace] over {!Http}, served from a dedicated domain so
    a scrape never waits on LSP traffic. *)

module Json = Wap_report.Json
module Metrics = Wap_obs.Metrics
module Trace = Wap_obs.Trace
module Expo = Wap_obs.Expo
module Log = Wap_obs.Log

type source = {
  ready : unit -> bool;
  status : unit -> Json.t;
  registry : Metrics.registry;
  tracer : unit -> Trace.t option;
}

type response = { code : int; content_type : string; body : string }

let text code body = { code; content_type = "text/plain; charset=utf-8"; body }

(* never installed, so it holds no buffer: what [/trace] renders when
   the daemon has no tracer *)
let untraced = Trace.create ()

(* Routing is a pure function of (source, path) so the tests can hit
   every endpoint in-process, without sockets. *)
let handle_path (src : source) (path : string) : response =
  match path with
  | "/healthz" -> text 200 "ok\n"
  | "/readyz" ->
      if src.ready () then text 200 "ready\n" else text 503 "no session open\n"
  | "/metrics" ->
      {
        code = 200;
        content_type = "text/plain; version=0.0.4; charset=utf-8";
        body = Expo.prometheus src.registry;
      }
  | "/status" ->
      {
        code = 200;
        content_type = "application/json";
        body = Json.to_string ~indent:true (src.status ()) ^ "\n";
      }
  | "/trace" ->
      (* Each poll serves only the window since the last one, so a
         dashboard polling [/trace] sees a live stream; the drain moves
         a cursor and erases nothing.  Without a tracer the document is
         a valid, empty trace. *)
      {
        code = 200;
        content_type = "application/json";
        body =
          Trace.to_chrome_json ~drain:true
            (Option.value (src.tracer ()) ~default:untraced);
      }
  | _ -> text 404 "not found\n"

(* One request per connection.  The descriptor is closed on every
   path, a client that resets mid-request included, and no read or
   write blocks past [Http.io_timeout], so an idle client holds the
   plane for at most that long. *)
let serve_client (src : source) fd =
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO Http.io_timeout;
  Unix.setsockopt_float fd Unix.SO_SNDTIMEO Http.io_timeout;
  let respond (r : response) =
    Http.write_response fd ~code:r.code ~content_type:r.content_type r.body
  in
  match Http.read_request (Unix.in_channel_of_descr fd) with
  | None -> ()
  | Some (Error e) -> respond (text 400 (e ^ "\n"))
  | Some (Ok rq) when rq.Http.rq_meth <> "GET" ->
      respond (text 405 "admin endpoints are GET-only\n")
  | Some (Ok rq) -> respond (handle_path src (Http.strip_query rq.Http.rq_path))

(* Accepts until [accept] itself fails; a client's failure is only
   logged. *)
let rec accept_loop (src : source) sock =
  match Unix.accept sock with
  | exception Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _) ->
      accept_loop src sock
  | fd, _ ->
      (try serve_client src fd
       with e ->
         Log.debug
           ~fields:[ ("error", Printexc.to_string e) ]
           "admin client error");
      accept_loop src sock

(* The admin domain spends its life blocked in [accept]; it is never
   joined — when the serving domain exits the process, the runtime
   tears it down.  The admin plane only reads (metric cells, the trace
   buffers, the server's session field), so there is nothing to flush
   on the way out. *)
let listen (src : source) (e : Http.endpoint) : unit -> unit =
  let sock = Http.listen e in
  ignore
    (Domain.spawn (fun () ->
         try accept_loop src sock
         with ex ->
           Log.error
             ~fields:[ ("error", Printexc.to_string ex) ]
             "admin plane stopped accepting"));
  Log.info
    ~fields:
      [
        (match e with
        | Http.Port n -> ("admin_port", string_of_int n)
        | Http.Socket path -> ("admin_socket", path));
      ]
    "admin plane listening";
  fun () -> Http.close e sock

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
      let events =
        match src.tracer () with Some t -> Trace.drain t | None -> []
      in
      {
        code = 200;
        content_type = "application/json";
        body = Trace.events_to_chrome_json events;
      }
  | _ -> text 404 "not found\n"

let serve_client (src : source) fd =
  let ic = Unix.in_channel_of_descr fd in
  (match Http.read_request ic with
  | None -> ()
  | Some (Error e) -> Http.write_response fd ~code:400 ~content_type:"text/plain" (e ^ "\n")
  | Some (Ok rq) ->
      if rq.Http.rq_meth <> "GET" then
        Http.write_response fd ~code:405 ~content_type:"text/plain"
          "admin endpoints are GET-only\n"
      else begin
        let r = handle_path src (Http.strip_query rq.Http.rq_path) in
        Http.write_response fd ~code:r.code ~content_type:r.content_type r.body
      end);
  try Unix.close fd with _ -> ()

let accept_loop (src : source) sock =
  let rec loop () =
    match Unix.accept sock with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
    | exception _ -> ()  (* socket closed: stop *)
    | fd, _ ->
        (try serve_client src fd
         with e ->
           Log.debug
             ~fields:[ ("error", Printexc.to_string e) ]
             "admin client error");
        loop ()
  in
  loop ()

let listen_tcp ~port =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt sock Unix.SO_REUSEADDR true;
  Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.listen sock 16;
  sock

let listen_unix ~path =
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.unlink path with _ -> ());
  Unix.bind sock (Unix.ADDR_UNIX path);
  Unix.listen sock 16;
  sock

(* The admin domain spends its life blocked in [accept]; it is never
   joined — when the serving domain exits the process, the runtime
   tears it down.  The admin plane only reads (metric cells, the trace
   buffers, the server's session field), so there is nothing to flush
   on the way out. *)
let spawn (src : source) sock : unit =
  ignore
    (Domain.spawn (fun () ->
         try accept_loop src sock
         with e ->
           Log.error
             ~fields:[ ("error", Printexc.to_string e) ]
             "admin listener died"))

(** The daemon's admin plane.

    A tiny HTTP/1.1 listener on one {!Http.endpoint}
    ([--admin-port]/[--admin-socket]) served from its own domain, so
    scrapes never contend with LSP traffic:

    - [GET /metrics] — the metrics registry in Prometheus text format
      ({!Wap_obs.Expo.prometheus});
    - [GET /healthz] — liveness: [200 ok] whenever the process can
      answer at all;
    - [GET /readyz] — readiness: [200] once a session is open (the
      first [didOpen] arrived), [503] before;
    - [GET /status] — one JSON document of operational facts (uptime,
      generation, open documents, session file/candidate counts,
      request and error totals, per-method request counts and p50/p95
      latencies, RSS);
    - [GET /trace] — {e drains} the tracer as Chrome trace-event JSON:
      each poll returns the events recorded since the last
      ({!Wap_obs.Trace.to_chrome_json} [~drain:true], which erases
      nothing).

    The admin plane is read-only by construction: it never mutates the
    session, the documents, the metrics or the recorded trace, so scan
    results and [--trace-out] files cannot depend on whether anyone is
    scraping. *)

type source = {
  ready : unit -> bool;  (** [/readyz] predicate *)
  status : unit -> Wap_report.Json.t;  (** [/status] document *)
  registry : Wap_obs.Metrics.registry;  (** scraped by [/metrics] *)
  tracer : unit -> Wap_obs.Trace.t option;  (** drained by [/trace] *)
}

type response = { code : int; content_type : string; body : string }

(** Route one (query-stripped) path — pure, so tests can hit every
    endpoint without a socket.  Unknown paths get [404]. *)
val handle_path : source -> string -> response

(** [listen src e] binds [e] and serves it from a fresh domain, one
    request per connection, returning the function that closes the
    listening socket and removes a socket file.  Each accepted
    connection reads and writes with a timeout of {!Http.io_timeout},
    its head goes through {!Http.read_head} (a refused head answers
    [400]), and its descriptor is closed on every path.  The domain is
    never joined: it blocks in [accept] until process exit tears it
    down, which is safe because the admin plane only reads.  If
    [accept] itself fails, the domain logs an error and stops. *)
val listen : source -> Http.endpoint -> unit -> unit

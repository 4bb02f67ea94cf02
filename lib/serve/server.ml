(** The [wap serve] LSP diagnostics daemon.

    A thin language-server shell around {!Wap_engine.Session}: the set
    of open editor documents {e is} the project.  The first [didOpen]
    opens a session; further opens/changes/closes map to
    {!Session.add_file}/{!Session.update_file}/{!Session.remove_file},
    so an edit re-analyzes only the touched file (and its include
    dependents) while diagnostics for every open document stay
    consistent.  Diagnostics are published per document and only when
    they changed since the last publish; findings the false-positive
    predictor flags are demoted to warnings.  [codeAction] offers the
    fixer's templates (the class's stock fix, user sanitization, user
    validation) as whole-document workspace edits.

    {!handle} is a pure-ish message-in/messages-out step so tests can
    drive the protocol in-process; {!serve_channels} wraps it in a
    read loop, which {!run_stdio} runs over stdin/stdout. *)

module Json = Wap_report.Json
module Session = Wap_engine.Session
module Trace = Wap_taint.Trace
module Tool = Wap_core.Tool
module Log = Wap_obs.Log
module Metrics = Wap_obs.Metrics
module Span = Wap_obs.Trace

type t = {
  tool : Tool.t;
  jobs : int;
  slow_s : float;
      (** requests slower than this (seconds) log a warning; [infinity]
          disables *)
  start_time : float;
  mutable session : Session.t option;  (** created at the first [didOpen] *)
  docs : (string, string) Hashtbl.t;  (** open documents: uri -> path *)
  texts : (string, string) Hashtbl.t;  (** path -> current text *)
  published : (string, string) Hashtbl.t;
      (** uri -> serialized diagnostics last pushed, to skip no-op
          publishes *)
  mutable shutdown_requested : bool;
  mutable finished : bool;
  mutable next_rid : int;  (** request ids, for the ambient log context *)
}

(* The daemon's state as the admin plane reads it: [serve.*] gauges of
   {!Metrics.global}, which the serving domain sets after each document
   mutation. *)
let set_gauge name v =
  Metrics.set (Metrics.gauge ("serve." ^ name)) (float_of_int v)

let create ?jobs ?slow_ms (tool : Tool.t) : t =
  (* registered (at zero) up front so a scrape before the first request
     already sees the serve families *)
  List.iter
    (fun name -> set_gauge name 0)
    [
      "open_documents";
      "session_generation";
      "session_files";
      "session_candidates";
      "last_reanalyzed";
    ];
  ignore (Metrics.counter "serve.rejected_frames");
  {
    tool;
    jobs = Wap_engine.Config.jobs jobs;
    slow_s =
      (match slow_ms with Some ms when ms > 0. -> ms /. 1000. | _ -> infinity);
    start_time = Unix.gettimeofday ();
    session = None;
    docs = Hashtbl.create 16;
    texts = Hashtbl.create 16;
    published = Hashtbl.create 16;
    shutdown_requested = false;
    finished = false;
    next_rid = 0;
  }

let finished t = t.finished

(* LSP's [exit] notification: status 0 after a [shutdown] request, 1
   without one.  End of input is no [exit], and leaves 0. *)
let exit_code t = if t.finished && not t.shutdown_requested then 1 else 0

(* ------------------------------------------------------------------ *)
(* URIs.  Editors send file:// URIs with percent-encoding; the session
   keys files by plain path.  Both mappings are kept so diagnostics go
   back out under the exact URI the client opened. *)

let percent_decode (s : string) : string =
  let buf = Buffer.create (String.length s) in
  let hex c =
    match c with
    | '0' .. '9' -> Some (Char.code c - Char.code '0')
    | 'a' .. 'f' -> Some (Char.code c - Char.code 'a' + 10)
    | 'A' .. 'F' -> Some (Char.code c - Char.code 'A' + 10)
    | _ -> None
  in
  let n = String.length s in
  let rec go i =
    if i < n then
      if s.[i] = '%' && i + 2 < n then
        match (hex s.[i + 1], hex s.[i + 2]) with
        | Some h, Some l ->
            Buffer.add_char buf (Char.chr ((h * 16) + l));
            go (i + 3)
        | _ ->
            Buffer.add_char buf s.[i];
            go (i + 1)
      else begin
        Buffer.add_char buf s.[i];
        go (i + 1)
      end
  in
  go 0;
  Buffer.contents buf

let path_of_uri (uri : string) : string =
  let uri = percent_decode uri in
  let prefix = "file://" in
  let pn = String.length prefix in
  if String.length uri >= pn && String.sub uri 0 pn = prefix then
    String.sub uri pn (String.length uri - pn)
  else uri

(* ------------------------------------------------------------------ *)
(* Session plumbing.                                                   *)

(* Route the document into the session, creating it on first use.
   Returns the paths whose analysis re-ran (informational). *)
let upsert t ~path text : string list =
  Hashtbl.replace t.texts path text;
  Span.with_span ~cat:"serve" ~args:[ ("path", path) ] "session.upsert"
    (fun () ->
      match t.session with
      | Some s ->
          if Session.mem s ~path then Session.update_file s ~path text
          else Session.add_file s ~path text
      | None ->
          let req =
            Session.request ~jobs:t.jobs
              ~fingerprint:(Tool.Scan.fingerprint t.tool)
              ~specs:t.tool.Tool.specs [ (path, text) ]
          in
          let s = Session.open_project req in
          t.session <- Some s;
          [ path ])

let drop t ~path : string list =
  Hashtbl.remove t.texts path;
  Span.with_span ~cat:"serve" ~args:[ ("path", path) ] "session.drop"
    (fun () ->
      match t.session with
      | Some s -> Session.remove_file s ~path
      | None -> [])

(* Set the gauges after a didOpen/didChange/didClose, the only messages
   that change what they count. *)
let record_mutation t ~(reanalyzed : string list) =
  set_gauge "open_documents" (Hashtbl.length t.docs);
  set_gauge "last_reanalyzed" (List.length reanalyzed);
  match t.session with
  | None -> ()
  | Some s ->
      set_gauge "session_generation" (Session.generation s);
      set_gauge "session_files" (List.length (Session.paths s));
      set_gauge "session_candidates" (List.length (Session.all_diagnostics s))

(* ------------------------------------------------------------------ *)
(* Diagnostics.                                                        *)

let position line character =
  Json.Obj [ ("line", Json.Int line); ("character", Json.Int character) ]

let range l0 c0 l1 c1 =
  Json.Obj [ ("start", position l0 c0); ("end", position l1 c1) ]

(* LSP lines are 0-based; {!Wap_php.Loc} lines are 1-based (columns are
   0-based on both sides).  The reported span covers the sink name. *)
let range_of_candidate (c : Trace.candidate) =
  let line = max 0 (c.Trace.sink_loc.Wap_php.Loc.line - 1) in
  let col = max 0 c.Trace.sink_loc.Wap_php.Loc.col in
  range line col line (col + String.length c.Trace.sink_name)

let diagnostic_of_candidate t (c : Trace.candidate) =
  let predicted_fp =
    Wap_mining.Predictor.is_false_positive t.tool.Tool.predictor c
  in
  let message =
    if predicted_fp then Trace.summary c ^ " (predicted false positive)"
    else Trace.summary c
  in
  Json.Obj
    [
      ("range", range_of_candidate c);
      ("severity", Json.Int (if predicted_fp then 2 else 1));
      ("code", Json.Str (Wap_catalog.Vuln_class.acronym c.Trace.vclass));
      ("source", Json.Str "wap");
      ("message", Json.Str message);
    ]

(* De-duplicated finalized candidates whose sink is in [path] — the
   same collapse the batch pipeline applies before prediction (RFI and
   LFI both firing on one include yield one diagnostic). *)
let candidates_for t ~path : Trace.candidate list =
  match t.session with
  | None -> []
  | Some s -> Tool.dedup_candidates (List.map snd (Session.diagnostics s ~path))

let diagnostics_json t ~path =
  Json.List (List.map (diagnostic_of_candidate t) (candidates_for t ~path))

(* Publish diagnostics for every open document whose rendered
   diagnostics differ from the last publish.  Deterministic (sorted by
   URI) so the smoke test can rely on message order. *)
let publish_changed t : Json.t list =
  Span.with_span ~cat:"serve" "publish" @@ fun () ->
  let open_uris =
    List.sort compare (Hashtbl.fold (fun uri _ acc -> uri :: acc) t.docs [])
  in
  List.filter_map
    (fun uri ->
      let path = Hashtbl.find t.docs uri in
      let diags = diagnostics_json t ~path in
      let rendered = Json.to_string ~indent:false diags in
      if Hashtbl.find_opt t.published uri = Some rendered then None
      else begin
        Hashtbl.replace t.published uri rendered;
        Some
          (Rpc.notification "textDocument/publishDiagnostics"
             (Json.Obj [ ("uri", Json.Str uri); ("diagnostics", diags) ]))
      end)
    open_uris

(* ------------------------------------------------------------------ *)
(* Text-document notifications.                                        *)

let text_document_uri params =
  match Json.member "textDocument" params with
  | Some td -> Rpc.str_member "uri" td
  | None -> None

let did_open t params : Json.t list =
  let text =
    match Json.member "textDocument" params with
    | Some td -> Rpc.str_member "text" td
    | None -> None
  in
  match (text_document_uri params, text) with
  | Some uri, Some text ->
      let path = path_of_uri uri in
      Hashtbl.replace t.docs uri path;
      let reran = upsert t ~path text in
      record_mutation t ~reanalyzed:reran;
      Log.info
        ~fields:
          [ ("uri", uri); ("reanalyzed", string_of_int (List.length reran)) ]
        "didOpen";
      publish_changed t
  | _ ->
      Log.warn "didOpen without textDocument.uri/text";
      []

(* Full-document sync (capability [change: 1]): the last content change
   carries the whole new text. *)
let did_change t params : Json.t list =
  let text =
    match Json.member "contentChanges" params with
    | Some changes -> (
        match Json.to_list_opt changes with
        | Some (_ :: _ as l) -> Rpc.str_member "text" (List.nth l (List.length l - 1))
        | _ -> None)
    | None -> None
  in
  match (text_document_uri params, text) with
  | Some uri, Some text ->
      let path = path_of_uri uri in
      Hashtbl.replace t.docs uri path;
      let reran = upsert t ~path text in
      record_mutation t ~reanalyzed:reran;
      Log.debug
        ~fields:
          [ ("uri", uri); ("reanalyzed", string_of_int (List.length reran)) ]
        "didChange";
      publish_changed t
  | _ ->
      Log.warn "didChange without textDocument.uri/contentChanges";
      []

let did_close t params : Json.t list =
  match text_document_uri params with
  | Some uri ->
      let path =
        match Hashtbl.find_opt t.docs uri with
        | Some p -> p
        | None -> path_of_uri uri
      in
      Hashtbl.remove t.docs uri;
      record_mutation t ~reanalyzed:(drop t ~path);
      let clear =
        (* Closing a document always clears its diagnostics on the
           client; skip only if we never published any. *)
        match Hashtbl.find_opt t.published uri with
        | None | Some "[]" ->
            Hashtbl.remove t.published uri;
            []
        | Some _ ->
            Hashtbl.remove t.published uri;
            [
              Rpc.notification "textDocument/publishDiagnostics"
                (Json.Obj
                   [ ("uri", Json.Str uri); ("diagnostics", Json.List []) ]);
            ]
      in
      clear @ publish_changed t
  | None -> []

(* ------------------------------------------------------------------ *)
(* Code actions: the fixer's templates as whole-document edits.        *)

let count_lines (s : string) : int =
  1 + String.fold_left (fun n c -> if c = '\n' then n + 1 else n) 0 s

let default_malicious = [ '\''; '"'; '\\'; '<'; '>' ]

(* The three automatic templates of {!Wap_fixer.Fix}: the class's stock
   fix (a [Php_sanitization] for most classes), a [User_sanitization]
   and a [User_validation] over the usual metacharacters. *)
let fixes_for (c : Trace.candidate) : (string * Wap_fixer.Fix.t) list =
  let acr =
    String.lowercase_ascii (Wap_catalog.Vuln_class.acronym c.Trace.vclass)
  in
  let stock = Wap_fixer.Fix.stock c.Trace.vclass in
  [
    ( Printf.sprintf "Apply stock fix %s" stock.Wap_fixer.Fix.fix_name,
      stock );
    ( "Sanitize input (neutralize metacharacters)",
      {
        Wap_fixer.Fix.fix_name = "san_user_" ^ acr;
        vclass = c.Trace.vclass;
        template =
          Wap_fixer.Fix.User_sanitization
            { malicious = default_malicious; neutralizer = "" };
      } );
    ( "Validate input (reject metacharacters)",
      {
        Wap_fixer.Fix.fix_name = "val_user_" ^ acr;
        vclass = c.Trace.vclass;
        template = Wap_fixer.Fix.User_validation { malicious = default_malicious };
      } );
  ]

let action_of t ~uri ~text program (c : Trace.candidate) (title, fix) :
    Json.t option =
  let fixed, report =
    Wap_fixer.Corrector.correct_program program
      [ { Wap_fixer.Corrector.candidate = c; fix } ]
  in
  match report.Wap_fixer.Corrector.applied with
  | [] -> None
  | _ ->
      let new_text = Wap_php.Printer.program_to_string fixed in
      let whole_doc = range 0 0 (count_lines text) 0 in
      let edit =
        Json.Obj
          [
            ( "changes",
              Json.Obj
                [
                  ( uri,
                    Json.List
                      [
                        Json.Obj
                          [
                            ("range", whole_doc);
                            ("newText", Json.Str new_text);
                          ];
                      ] );
                ] );
          ]
      in
      Some
        (Json.Obj
           [
             ("title", Json.Str title);
             ("kind", Json.Str "quickfix");
             ("diagnostics", Json.List [ diagnostic_of_candidate t c ]);
             ("edit", edit);
           ])

let code_actions t params : Json.t =
  match text_document_uri params with
  | None -> Json.List []
  | Some uri -> (
      let path =
        match Hashtbl.find_opt t.docs uri with
        | Some p -> p
        | None -> path_of_uri uri
      in
      (* the quick fixes rewrite the AST the session analyzed; a
         document whose parse recovered errors gets none, since
         printing its partial AST would drop the code that did not
         parse *)
      match
        (Hashtbl.find_opt t.texts path, Option.bind t.session (Session.parsed ~path))
      with
      | Some text, Some (program, []) ->
          let start_line, end_line =
            match Json.member "range" params with
            | Some r -> (
                let line k =
                  Option.bind (Json.member k r) (Rpc.int_member "line")
                in
                match (line "start", line "end") with
                | Some s, Some e -> (s, e)
                | Some s, None -> (s, s)
                | _ -> (0, max_int))
            | None -> (0, max_int)
          in
          let in_range (c : Trace.candidate) =
            let l = c.Trace.sink_loc.Wap_php.Loc.line - 1 in
            l >= start_line && l <= end_line
          in
          let actions =
            candidates_for t ~path
            |> List.filter in_range
            |> List.concat_map (fun c ->
                   List.filter_map
                     (action_of t ~uri ~text program c)
                     (fixes_for c))
          in
          Json.List actions
      | _ -> Json.List [])

(* ------------------------------------------------------------------ *)
(* Dispatch.                                                           *)

let initialize_result t =
  Json.Obj
    [
      ( "capabilities",
        Json.Obj
          [
            ( "textDocumentSync",
              Json.Obj
                [
                  ("openClose", Json.Bool true);
                  ("change", Json.Int 1) (* full-document sync *);
                ] );
            ("codeActionProvider", Json.Bool true);
          ] );
      ( "serverInfo",
        Json.Obj
          [
            ("name", Json.Str "wap");
            ("version", Json.Str (Wap_core.Version.name t.tool.Tool.version));
          ] );
    ]

let dispatch (t : t) (msg : Json.t) : Json.t list =
  let meth = Option.value (Rpc.meth msg) ~default:"" in
  let params = Rpc.params msg in
  match (meth, Rpc.id msg) with
  | "initialize", Some id -> [ Rpc.response ~id (initialize_result t) ]
  | "initialized", _ -> []
  | "shutdown", Some id ->
      t.shutdown_requested <- true;
      [ Rpc.response ~id Json.Null ]
  | "exit", _ ->
      t.finished <- true;
      []
  | "textDocument/didOpen", _ -> did_open t params
  | "textDocument/didChange", _ -> did_change t params
  | "textDocument/didClose", _ -> did_close t params
  | "textDocument/codeAction", Some id ->
      [ Rpc.response ~id (code_actions t params) ]
  | _, Some id ->
      [ Rpc.error_response ~id ~code:(-32601) ("method not found: " ^ meth) ]
  | _, None ->
      Log.debug ~fields:[ ("method", meth) ] "ignoring notification";
      []

(* ------------------------------------------------------------------ *)
(* Request instrumentation.  [handle] = [dispatch] wrapped in a request
   id (ambient in the log context), a span, a per-method latency
   histogram and error counter, and the slow-request warning.  None of
   it touches what [dispatch] computes — telemetry observes the session,
   it never feeds back into it. *)

(* The per-method metric label set is closed over the protocol we
   actually speak; anything else folds into "other" so a misbehaving
   client can't inflate the registry. *)
let metric_method = function
  | ( "initialize" | "initialized" | "shutdown" | "exit"
    | "textDocument/didOpen" | "textDocument/didChange"
    | "textDocument/didClose" | "textDocument/codeAction" ) as m ->
      m
  | _ -> "other"

let is_error_msg = function
  | Json.Obj fields -> List.mem_assoc "error" fields
  | _ -> false

let handle (t : t) (msg : Json.t) : Json.t list =
  let meth = Option.value (Rpc.meth msg) ~default:"(none)" in
  let rid = t.next_rid in
  t.next_rid <- rid + 1;
  Log.with_context [ ("rid", string_of_int rid) ] (fun () ->
      let t0 = Unix.gettimeofday () in
      let out =
        Span.with_span ~cat:"serve" ~args:[ ("rid", string_of_int rid) ] meth
          (fun () -> dispatch t msg)
      in
      let dt = Unix.gettimeofday () -. t0 in
      let m = metric_method meth in
      Metrics.incr (Metrics.counter ("serve.requests." ^ m));
      Metrics.observe (Metrics.histogram ("serve.request_seconds." ^ m)) dt;
      let errors = List.length (List.filter is_error_msg out) in
      if errors > 0 then
        Metrics.incr ~by:errors (Metrics.counter ("serve.errors." ^ m));
      if dt > t.slow_s then
        Log.warn
          ~fields:
            [ ("method", meth); ("ms", Printf.sprintf "%.1f" (dt *. 1000.)) ]
          "slow request";
      out)

(* ------------------------------------------------------------------ *)
(* Transport.                                                          *)

let serve_channels (t : t) (ic : in_channel) (oc : out_channel) : unit =
  let rec loop () =
    if not t.finished then
      (* the decode span includes the wait for the client's next frame,
         so gaps between requests are visible in the trace as such *)
      match Span.with_span ~cat:"serve" "decode" (fun () -> Rpc.read_message ic) with
      | None -> ()
      | Some (Error e) ->
          Metrics.incr (Metrics.counter "serve.rejected_frames");
          Log.warn ~fields:[ ("error", e) ] "malformed message";
          loop ()
      | Some (Ok msg) ->
          List.iter (Rpc.write_message oc) (handle t msg);
          loop ()
  in
  loop ()

let run_stdio (t : t) : unit = serve_channels t stdin stdout

(* ------------------------------------------------------------------ *)
(* Admin plane surface.  Everything here reads the registry, the tracer
   and the word-sized [session] field — safe from any domain, never
   touching the session itself. *)

let ready t = Option.is_some t.session

let status_json t : Json.t =
  let snap = Metrics.snapshot Metrics.global in
  let gauge name =
    match List.assoc_opt ("serve." ^ name) snap.Metrics.gauges with
    | Some v -> Json.Int (int_of_float v)
    | None -> Json.Int 0
  in
  (* the entries named [prefix ^ tail], as (tail, value) *)
  let under prefix entries =
    let n = String.length prefix in
    List.filter_map
      (fun (k, v) ->
        if String.starts_with ~prefix k then
          Some (String.sub k n (String.length k - n), v)
        else None)
      entries
  in
  let total prefix =
    Json.Int
      (List.fold_left (fun acc (_, n) -> acc + n) 0
         (under prefix snap.Metrics.counters))
  in
  let methods =
    List.filter_map
      (fun (meth, (h : Metrics.hist_snapshot)) ->
        if h.Metrics.h_count = 0 then None
        else
          let ms q = Json.Float (1e3 *. Metrics.clamped_quantile h q) in
          Some
            ( meth,
              Json.Obj
                [
                  ("requests", Json.Int h.Metrics.h_count);
                  ("p50_ms", ms 0.5);
                  ("p95_ms", ms 0.95);
                ] ))
      (under "serve.request_seconds." snap.Metrics.histograms)
  in
  let tracer_fields =
    match Span.global () with
    | Some tr ->
        [
          ("trace_events", Json.Int (Span.event_count tr));
          ("trace_dropped", Json.Int (Span.dropped tr));
        ]
    | None -> []
  in
  let rss_fields =
    match Wap_obs.Expo.rss_bytes () with
    | Some b -> [ ("rss_bytes", Json.Int b) ]
    | None -> []
  in
  Json.Obj
    ([
       ("service", Json.Str "wap serve");
       ("version", Json.Str (Wap_core.Version.name t.tool.Tool.version));
       ("uptime_seconds", Json.Float (Unix.gettimeofday () -. t.start_time));
       ("ready", Json.Bool (ready t));
       ("generation", gauge "session_generation");
       ("open_documents", gauge "open_documents");
       ("session_files", gauge "session_files");
       ("session_candidates", gauge "session_candidates");
       ("requests", total "serve.requests.");
       ("errors", total "serve.errors.");
       ("last_reanalyzed", gauge "last_reanalyzed");
       ("methods", Json.Obj methods);
     ]
    @ tracer_fields @ rss_fields)

let admin_source t : Admin.source =
  {
    Admin.ready = (fun () -> ready t);
    status = (fun () -> status_json t);
    registry = Metrics.global;
    tracer = (fun () -> Span.global ());
  }

(** The LSP diagnostics daemon, driven in-process: protocol framing,
    the initialize handshake, diagnostics published on open/change and
    cleared by a sanitizing edit, code actions carrying working fixes,
    and error responses for unknown methods. *)

module J = Wap_report.Json
module Rpc = Wap_serve.Rpc
module Server = Wap_serve.Server

let tool = lazy (Wap_core.Tool.create ~seed:2016 Wap_core.Version.Wape)
let server () = Server.create ~jobs:1 (Lazy.force tool)

let vuln_php =
  "<?php $id = $_GET['id']; $r = mysql_query(\"SELECT * FROM t WHERE id = \" \
   . $id); ?>"

let safe_php =
  "<?php $id = mysql_real_escape_string($_GET['id']); $r = \
   mysql_query(\"SELECT * FROM t WHERE id = \" . $id); ?>"

let uri = "file:///tmp/a.php"

(* ------------------------------------------------------------------ *)
(* Message builders / accessors.                                       *)

let req id meth params =
  J.Obj
    [
      ("jsonrpc", J.Str "2.0");
      ("id", J.Int id);
      ("method", J.Str meth);
      ("params", params);
    ]

let notif meth params =
  J.Obj [ ("jsonrpc", J.Str "2.0"); ("method", J.Str meth); ("params", params) ]

let did_open ~text =
  notif "textDocument/didOpen"
    (J.Obj
       [ ("textDocument", J.Obj [ ("uri", J.Str uri); ("text", J.Str text) ]) ])

let did_change ~text =
  notif "textDocument/didChange"
    (J.Obj
       [
         ("textDocument", J.Obj [ ("uri", J.Str uri) ]);
         ("contentChanges", J.List [ J.Obj [ ("text", J.Str text) ] ]);
       ])

let publishes msgs =
  List.filter_map
    (fun m ->
      if Rpc.meth m = Some "textDocument/publishDiagnostics" then
        match J.member "diagnostics" (Rpc.params m) with
        | Some diags -> Option.map (fun l -> (Rpc.params m, l)) (J.to_list_opt diags)
        | None -> None
      else None)
    msgs

let the_publish name msgs =
  match publishes msgs with
  | [ (params, diags) ] ->
      Alcotest.(check (option string))
        (name ^ ": published under the opened uri")
        (Some uri)
        (Rpc.str_member "uri" params);
      diags
  | l ->
      Alcotest.failf "%s: expected exactly one publishDiagnostics, got %d" name
        (List.length l)

(* ------------------------------------------------------------------ *)

let test_initialize () =
  let t = server () in
  match Server.handle t (req 1 "initialize" (J.Obj [])) with
  | [ resp ] ->
      let result = Option.get (J.member "result" resp) in
      let caps = Option.get (J.member "capabilities" result) in
      Alcotest.(check (option int))
        "id echoed" (Some 1)
        (Rpc.int_member "id" resp);
      Alcotest.(check bool) "code actions offered" true
        (J.member "codeActionProvider" caps = Some (J.Bool true));
      Alcotest.(check (option int))
        "full-document sync"
        (Some 1)
        (Option.bind (J.member "textDocumentSync" caps) (Rpc.int_member "change"))
  | l -> Alcotest.failf "expected one response, got %d" (List.length l)

let test_diagnostics_lifecycle () =
  let t = server () in
  ignore (Server.handle t (req 1 "initialize" (J.Obj [])));
  (* open a vulnerable document: one SQLI diagnostic at severity 1 *)
  let diags = the_publish "didOpen" (Server.handle t (did_open ~text:vuln_php)) in
  Alcotest.(check int) "one diagnostic" 1 (List.length diags);
  let d = List.hd diags in
  Alcotest.(check (option string)) "SQLI" (Some "SQLI") (Rpc.str_member "code" d);
  Alcotest.(check (option int)) "error severity" (Some 1) (Rpc.int_member "severity" d);
  Alcotest.(check bool) "message names the flow" true
    (match Rpc.str_member "message" d with
    | Some m ->
        let has sub =
          let n = String.length sub in
          let rec go i =
            i + n <= String.length m && (String.sub m i n = sub || go (i + 1))
          in
          go 0
        in
        has "mysql_query" && has "$_GET"
    | None -> false);
  (* a sanitizing edit clears the diagnostic (and the clear is
     published, because the rendered diagnostics changed) *)
  let diags =
    the_publish "didChange" (Server.handle t (did_change ~text:safe_php))
  in
  Alcotest.(check int) "cleared after sanitizing edit" 0 (List.length diags);
  (* an identical edit publishes nothing: diagnostics did not change *)
  Alcotest.(check int) "no-op edit publishes nothing" 0
    (List.length (publishes (Server.handle t (did_change ~text:safe_php))));
  (* re-introducing the flaw republishes *)
  let diags =
    the_publish "re-break" (Server.handle t (did_change ~text:vuln_php))
  in
  Alcotest.(check int) "diagnostic back" 1 (List.length diags);
  (* closing the document clears its diagnostics on the client *)
  let close =
    Server.handle t
      (notif "textDocument/didClose"
         (J.Obj [ ("textDocument", J.Obj [ ("uri", J.Str uri) ]) ]))
  in
  Alcotest.(check int) "close clears" 0
    (List.length (the_publish "didClose" close))

let test_code_actions_fix_the_flaw () =
  let t = server () in
  ignore (Server.handle t (req 1 "initialize" (J.Obj [])));
  ignore (Server.handle t (did_open ~text:vuln_php));
  let whole_doc =
    J.Obj
      [
        ( "start",
          J.Obj [ ("line", J.Int 0); ("character", J.Int 0) ] );
        ("end", J.Obj [ ("line", J.Int 99); ("character", J.Int 0) ]);
      ]
  in
  let actions =
    match
      Server.handle t
        (req 2 "textDocument/codeAction"
           (J.Obj
              [
                ("textDocument", J.Obj [ ("uri", J.Str uri) ]);
                ("range", whole_doc);
              ]))
    with
    | [ resp ] ->
        Option.get (J.to_list_opt (Option.get (J.member "result" resp)))
    | _ -> Alcotest.fail "expected one codeAction response"
  in
  (* the three fixer templates: stock fix, user sanitization, user
     validation *)
  Alcotest.(check int) "three quick fixes" 3 (List.length actions);
  let new_text_of action =
    let edit = Option.get (J.member "edit" action) in
    match J.member "changes" edit with
    | Some (J.Obj [ (u, J.List [ change ]) ]) ->
        Alcotest.(check string) "edit targets the document" uri u;
        Option.get (Rpc.str_member "newText" change)
    | _ -> Alcotest.fail "workspace edit shape"
  in
  let has sub s =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  List.iter
    (fun action ->
      Alcotest.(check (option string))
        "kind" (Some "quickfix")
        (Rpc.str_member "kind" action);
      let fixed = new_text_of action in
      Alcotest.(check bool) "edit rewrites the document" true
        (fixed <> vuln_php);
      (* every edit yields parseable PHP that wraps the sink in a fix
         call and defines the fix function *)
      let _, errors = Wap_php.Parser.parse_string_tolerant ~file:"a.php" fixed in
      Alcotest.(check int) "fixed source parses" 0 (List.length errors))
    actions;
  (* the class's stock fix is a known sanitizer: applying its edit must
     silence the diagnostic.  (The user sanitization/validation
     templates silence once their generated function is registered via
     --sanitizer, the extra-sanitizers mechanism.) *)
  let stock =
    List.find
      (fun a ->
        match Rpc.str_member "title" a with
        | Some title -> has "san_sqli" title
        | None -> false)
      actions
  in
  let fixed = new_text_of stock in
  Alcotest.(check bool) "stock edit defines the fix" true
    (has "san_sqli" fixed);
  let diags =
    the_publish "after stock fix" (Server.handle t (did_change ~text:fixed))
  in
  Alcotest.(check int) "stock fix silences the diagnostic" 0
    (List.length diags)

(* A document whose parse recovered errors still gets its diagnostics,
   but no quick fix: each edit would print the recovered AST, which has
   lost the statement that did not parse. *)
let test_no_code_actions_on_recovered_parse () =
  let t = server () in
  ignore (Server.handle t (req 1 "initialize" (J.Obj [])));
  let text =
    "<?php $id = $_GET['id']; $keep = 1 +; $r = mysql_query(\"SELECT * FROM t \
     WHERE id = \" . $id); ?>"
  in
  Alcotest.(check int) "the flow is still diagnosed" 1
    (List.length (the_publish "didOpen" (Server.handle t (did_open ~text))));
  match
    Server.handle t
      (req 2 "textDocument/codeAction"
         (J.Obj [ ("textDocument", J.Obj [ ("uri", J.Str uri) ]) ]))
  with
  | [ resp ] ->
      Alcotest.(check int) "no quick fix" 0
        (List.length (Option.get (J.to_list_opt (Option.get (J.member "result" resp)))))
  | _ -> Alcotest.fail "expected one codeAction response"

let test_unknown_method_and_exit () =
  let t = server () in
  (match Server.handle t (req 7 "foo/bar" J.Null) with
  | [ resp ] ->
      let err = Option.get (J.member "error" resp) in
      Alcotest.(check (option int))
        "method not found" (Some (-32601))
        (Rpc.int_member "code" err)
  | _ -> Alcotest.fail "expected one error response");
  Alcotest.(check int) "unknown notification ignored" 0
    (List.length (Server.handle t (notif "foo/baz" J.Null)));
  (match Server.handle t (req 8 "shutdown" J.Null) with
  | [ resp ] ->
      Alcotest.(check bool) "shutdown returns null" true
        (J.member "result" resp = Some J.Null)
  | _ -> Alcotest.fail "expected one shutdown response");
  Alcotest.(check bool) "not finished before exit" false (Server.finished t);
  (* end of input, with no exit at all, exits 0 *)
  Alcotest.(check int) "status 0 before exit" 0 (Server.exit_code t);
  Alcotest.(check int) "exit is silent" 0
    (List.length (Server.handle t (notif "exit" J.Null)));
  Alcotest.(check bool) "finished after exit" true (Server.finished t);
  Alcotest.(check int) "status 0 on exit after shutdown" 0 (Server.exit_code t);
  let t = server () in
  ignore (Server.handle t (notif "exit" J.Null));
  Alcotest.(check int) "status 1 on exit without shutdown" 1 (Server.exit_code t)

(* ------------------------------------------------------------------ *)
(* Framing.                                                            *)

module Http = Wap_serve.Http

(* [f ic] over the read end of a pipe that a domain fills with [s].  The
   read end is closed once [f] returns, so a writer still blocked on
   what [f] left unread fails with EPIPE instead of hanging. *)
let over_pipe s f =
  let previous = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  let r, w = Unix.pipe () in
  let writer =
    Domain.spawn (fun () ->
        (try Http.write_all w s with Unix.Unix_error _ -> ());
        Unix.close w)
  in
  let ic = Unix.in_channel_of_descr r in
  Fun.protect
    ~finally:(fun () ->
      close_in_noerr ic;
      Domain.join writer;
      ignore (Sys.signal Sys.sigpipe previous))
    (fun () -> f ic)

let frame m =
  let body = J.to_string ~indent:false m in
  Printf.sprintf "Content-Length: %d\r\n\r\n%s" (String.length body) body

let test_framing_roundtrip () =
  let path = Filename.temp_file "wap_serve" ".bin" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with _ -> ())
    (fun () ->
      let m1 = req 1 "initialize" (J.Obj []) in
      let m2 = notif "exit" (J.Obj [ ("unicode", J.Str "caf\xc3\xa9 \"q\"") ]) in
      let oc = open_out_bin path in
      Rpc.write_message oc m1;
      Rpc.write_message oc m2;
      close_out oc;
      let ic = open_in_bin path in
      let read () =
        match Rpc.read_message ic with
        | Some (Ok m) -> m
        | Some (Error e) -> Alcotest.failf "framing error: %s" e
        | None -> Alcotest.fail "unexpected end of stream"
      in
      let m1' = read () and m2' = read () in
      Alcotest.(check bool) "first message round-trips" true (m1 = m1');
      Alcotest.(check bool) "second message round-trips" true (m2 = m2');
      Alcotest.(check bool) "clean EOF" true (Rpc.read_message ic = None);
      close_in ic)

let test_framing_errors () =
  (* every message read from [s], up to the end of input *)
  let reads_of s =
    let path = Filename.temp_file "wap_serve" ".bin" in
    let oc = open_out_bin path in
    output_string oc s;
    close_out oc;
    let ic = open_in_bin path in
    let rec all acc =
      match Rpc.read_message ic with None -> List.rev acc | Some r -> all (r :: acc)
    in
    let rs = all [] in
    close_in ic;
    (try Sys.remove path with _ -> ());
    rs
  in
  let read_of s = match reads_of s with r :: _ -> Some r | [] -> None in
  (match read_of "X-Other: 1\r\n\r\n{}" with
  | Some (Error e) ->
      Alcotest.(check bool) "missing Content-Length reported" true
        (e <> "")
  | _ -> Alcotest.fail "expected an error for missing Content-Length");
  (match read_of "Content-Length: 2\r\n\r\n{]" with
  | Some (Error _) -> ()
  | _ -> Alcotest.fail "expected a JSON error");
  (match read_of "Content-Length: 50\r\n\r\n{}" with
  | Some (Error _) -> ()
  | _ -> Alcotest.fail "expected a truncated-body error");
  (* an oversized length is refused before its body is allocated, and
     the frame after it still parses *)
  (match reads_of "Content-Length: 1000000000000\r\n\r\nContent-Length: 2\r\n\r\n{}" with
  | [ Error _; Ok (J.Obj []) ] -> ()
  | _ -> Alcotest.fail "expected an oversized-frame error, then the next frame");
  (* a header line far past the 4 KiB cap is refused, and the frame
     after it still parses *)
  (match reads_of (String.make 100_000 'X' ^ "\r\nContent-Length: 2\r\n\r\n{}") with
  | [ Error _; Ok (J.Obj []) ] -> ()
  | _ -> Alcotest.fail "expected an over-long-header error, then the next frame");
  (* a head of more than [max_headers] lines is refused once the line
     past the cap is read, and the frame after it still parses *)
  (match
     reads_of
       (String.concat ""
          (List.init (Http.max_headers + 1) (Printf.sprintf "X-Pad-%d: 1\r\n"))
       ^ "Content-Length: 2\r\n\r\n{}")
   with
  | [ Error _; Ok (J.Obj []) ] -> ()
  | _ -> Alcotest.fail "expected a too-many-headers error, then the next frame");
  match read_of "" with
  | None -> ()
  | _ -> Alcotest.fail "expected clean EOF"

(* The daemon's read loop over a pipe: a refused frame is skipped, and
   the initialize after it is answered. *)
let test_serve_channels_after_refusal () =
  let t = server () in
  let out_r, out_w = Unix.pipe () in
  over_pipe
    (String.make 5_000 'X' ^ "\r\n"
    ^ frame (req 1 "initialize" (J.Obj []))
    ^ frame (req 2 "shutdown" J.Null)
    ^ frame (notif "exit" J.Null))
    (fun ic ->
      let oc = Unix.out_channel_of_descr out_w in
      Server.serve_channels t ic oc;
      close_out oc);
  let ic = Unix.in_channel_of_descr out_r in
  let first = Rpc.read_message ic in
  close_in ic;
  (match first with
  | Some (Ok init) ->
      Alcotest.(check (option int)) "initialize answered" (Some 1)
        (Rpc.int_member "id" init);
      Alcotest.(check bool) "with capabilities" true
        (Option.bind (J.member "result" init) (J.member "capabilities") <> None)
  | _ -> Alcotest.fail "expected the initialize response");
  Alcotest.(check bool) "exit ends the loop" true (Server.finished t);
  Alcotest.(check int) "exit status 0 after shutdown" 0 (Server.exit_code t)

(* ------------------------------------------------------------------ *)
(* Admin plane: routed through {!Admin.handle_path} directly, so every
   endpoint is exercised without a socket.                             *)

module Admin = Wap_serve.Admin
module Metrics = Wap_obs.Metrics
module Expo = Wap_obs.Expo

let test_admin_plane () =
  Metrics.reset Metrics.global;
  let t = server () in
  let src = Server.admin_source t in
  let get path = Admin.handle_path src path in
  (* liveness is unconditional; readiness needs an open session *)
  Alcotest.(check int) "/healthz answers 200" 200 (get "/healthz").Admin.code;
  Alcotest.(check int) "/readyz is 503 before a session opens" 503
    (get "/readyz").Admin.code;
  Alcotest.(check int) "unknown path answers 404" 404 (get "/nope").Admin.code;
  ignore (Server.handle t (req 1 "initialize" (J.Obj [])));
  ignore (Server.handle t (did_open ~text:vuln_php));
  Alcotest.(check int) "/readyz flips to 200 after didOpen" 200
    (get "/readyz").Admin.code;
  (* /status: one JSON document of operational facts *)
  let st = get "/status" in
  Alcotest.(check string) "/status is JSON" "application/json"
    st.Admin.content_type;
  (match J.of_string st.Admin.body with
  | Error e -> Alcotest.failf "/status does not parse: %s" e
  | Ok doc ->
      Alcotest.(check bool) "ready:true" true
        (J.member "ready" doc = Some (J.Bool true));
      Alcotest.(check (option int)) "one open document" (Some 1)
        (Rpc.int_member "open_documents" doc));
  (* /metrics: survives our own strict parser and shows the request *)
  let m = get "/metrics" in
  Alcotest.(check int) "/metrics answers 200" 200 m.Admin.code;
  (match Expo.parse_text m.Admin.body with
  | Error e -> Alcotest.failf "/metrics fails the strict parser: %s" e
  | Ok p ->
      let did_open_count =
        List.find_opt
          (fun s ->
            s.Expo.s_name = "wap_serve_request_seconds_count"
            && List.assoc_opt "method" s.Expo.s_labels
               = Some "textDocument/didOpen")
          p.Expo.p_samples
      in
      match did_open_count with
      | Some s ->
          Alcotest.(check (float 0.)) "one didOpen latency observed" 1.0
            s.Expo.s_value
      | None -> Alcotest.fail "didOpen latency histogram not exported");
  (* /trace: a well-formed Chrome document even with no tracer installed *)
  let tr = get "/trace" in
  Alcotest.(check int) "/trace answers 200" 200 tr.Admin.code;
  match J.of_string tr.Admin.body with
  | Error e -> Alcotest.failf "/trace does not parse: %s" e
  | Ok doc ->
      Alcotest.(check bool) "traceEvents array present" true
        (Option.bind (J.member "traceEvents" doc) J.to_list_opt <> None)

(* /status reads the registry: the session's generation, files and
   finalized candidates (gauges set after each document mutation), and
   the request, error and last-edit counts. *)
let test_status_counts () =
  Metrics.reset Metrics.global;
  let t = server () in
  let status () =
    let body = (Admin.handle_path (Server.admin_source t) "/status").Admin.body in
    match J.of_string body with
    | Ok doc -> fun k -> Option.value ~default:(-1) (Rpc.int_member k doc)
    | Error e -> Alcotest.failf "/status does not parse: %s" e
  in
  Alcotest.(check int) "no session files before didOpen" 0
    (status () "session_files");
  ignore (Server.handle t (req 1 "initialize" (J.Obj [])));
  ignore (Server.handle t (did_open ~text:vuln_php));
  let st = status () in
  Alcotest.(check int) "generation 0 after didOpen" 0 (st "generation");
  Alcotest.(check int) "one session file" 1 (st "session_files");
  Alcotest.(check bool) "the flaw is a candidate" true (st "session_candidates" >= 1);
  Alcotest.(check int) "two requests" 2 (st "requests");
  Alcotest.(check int) "no errors" 0 (st "errors");
  Alcotest.(check int) "didOpen re-analyzed one file" 1 (st "last_reanalyzed");
  ignore (Server.handle t (did_change ~text:safe_php));
  ignore (Server.handle t (req 2 "no/such/method" (J.Obj [])));
  let st = status () in
  Alcotest.(check int) "generation 1 after didChange" 1 (st "generation");
  Alcotest.(check int) "four requests" 4 (st "requests");
  Alcotest.(check int) "the unknown method is an error" 1 (st "errors");
  Alcotest.(check int) "didChange re-analyzed one file" 1 (st "last_reanalyzed")

(* /status reports each method's request count and latency quantiles
   clamped to the observed range: one didOpen reads p50 = p95 = its own
   latency, where interpolating inside its bucket would not. *)
let test_status_methods () =
  Metrics.reset Metrics.global;
  let t = server () in
  ignore (Server.handle t (req 1 "initialize" (J.Obj [])));
  ignore (Server.handle t (did_open ~text:vuln_php));
  let observed_ms =
    1e3
    *. (Metrics.hist_snapshot
          (Metrics.histogram "serve.request_seconds.textDocument/didOpen"))
         .Metrics.h_min
  in
  let body = (Admin.handle_path (Server.admin_source t) "/status").Admin.body in
  match J.of_string body with
  | Error e -> Alcotest.failf "/status does not parse: %s" e
  | Ok doc -> (
      match
        Option.bind (J.member "methods" doc) (J.member "textDocument/didOpen")
      with
      | None -> Alcotest.fail "/status has no didOpen entry under methods"
      | Some m ->
          let ms k =
            match J.member k m with
            | Some (J.Float f) -> f
            | Some (J.Int n) -> float_of_int n
            | _ -> nan
          in
          Alcotest.(check (option int)) "one didOpen request" (Some 1)
            (Rpc.int_member "requests" m);
          Alcotest.(check (float 1e-6)) "p50 = the observation" observed_ms
            (ms "p50_ms");
          Alcotest.(check (float 1e-6)) "p95 = the observation" observed_ms
            (ms "p95_ms"))

(* The admin plane's head goes through the bounded reader: a
   100,000-byte header line is refused, not held. *)
let test_request_line_cap () =
  (match
     over_pipe
       ("GET /healthz HTTP/1.1\r\nX-Big: " ^ String.make 100_000 'a'
      ^ "\r\n\r\n")
       Http.read_request
   with
  | Some (Error _) -> ()
  | Some (Ok _) -> Alcotest.fail "a 100,000-byte header line was accepted"
  | None -> Alcotest.fail "expected a refusal, not end of input");
  match
    over_pipe "GET /status?x=1 HTTP/1.1\r\nHost: wap\r\n\r\n" Http.read_request
  with
  | Some (Ok rq) ->
      Alcotest.(check (pair string string))
        "method and path" ("GET", "/status?x=1")
        (rq.Http.rq_meth, rq.Http.rq_path);
      Alcotest.(check (list (pair string string)))
        "headers" [ ("host", "wap") ] rq.Http.rq_headers
  | _ -> Alcotest.fail "a well-formed request was refused"

(* One endpoint end to end: [Admin.listen] serves a Unix socket that
   [Http.get] reads, a malformed request line answers 400, and the
   close function removes the socket file. *)
let test_endpoint_round_trip () =
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "wap_admin_%d.sock" (Unix.getpid ()))
  in
  let e = Http.Socket path in
  let close = Admin.listen (Server.admin_source (server ())) e in
  Fun.protect ~finally:close (fun () ->
      Alcotest.(check (result (pair int string) string))
        "/healthz" (Ok (200, "ok\n")) (Http.get e "/healthz");
      match Http.get e "/a b" with
      | Ok (code, _) -> Alcotest.(check int) "malformed request line" 400 code
      | Error err -> Alcotest.failf "GET failed: %s" err);
  Alcotest.(check bool) "socket file removed" false (Sys.file_exists path)

let () =
  Alcotest.run "serve"
    [
      ( "protocol",
        [
          Alcotest.test_case "initialize" `Quick test_initialize;
          Alcotest.test_case "diagnostics lifecycle" `Slow
            test_diagnostics_lifecycle;
          Alcotest.test_case "code actions fix the flaw" `Slow
            test_code_actions_fix_the_flaw;
          Alcotest.test_case "no code action on a recovered parse" `Slow
            test_no_code_actions_on_recovered_parse;
          Alcotest.test_case "unknown method / shutdown / exit" `Quick
            test_unknown_method_and_exit;
        ] );
      ( "framing",
        [
          Alcotest.test_case "round-trip" `Quick test_framing_roundtrip;
          Alcotest.test_case "errors" `Quick test_framing_errors;
          Alcotest.test_case "serve_channels skips a refused frame" `Quick
            test_serve_channels_after_refusal;
        ] );
      ( "admin",
        [
          Alcotest.test_case "handle_path endpoints" `Slow test_admin_plane;
          Alcotest.test_case "/status counts" `Slow test_status_counts;
          Alcotest.test_case "/status per-method latency" `Slow
            test_status_methods;
          Alcotest.test_case "read_request refuses a long header line" `Quick
            test_request_line_cap;
          Alcotest.test_case "endpoint round trip" `Quick
            test_endpoint_round_trip;
        ] );
    ]

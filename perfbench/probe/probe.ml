(* The benchmark's in-process probe.

   [trace] replays one workload's inputs in this process, calling each
   layer's public functions and recording one span per call.  Spans
   are kept in memory and written out when the replay ends; the
   per-layer metrics are the spans' self times summed per layer name,
   plus work counts taken at the same boundaries.  The span named
   "proc" wraps the replay of what one untraced [wap] process of the
   workload does, so the harness can set its layer sum against that
   process's wall.

   [seeded], [score-tree], [score-files] and [score-fleet] check scan
   exports against the corpus generator's ground truth with
   {!Wap_core.Aggregate.score_package}.

   Every subcommand prints one JSON object on stdout. *)

module Json = Wap_report.Json
module An = Wap_taint.Analyzer
module Trace = Wap_taint.Trace
module Tool = Wap_core.Tool
module App = Wap_corpus.Appgen
module Cache = Wap_engine.Cache
module Pool = Wap_engine.Pool
module Session = Wap_engine.Session
module Server = Wap_serve.Server
module Coord = Wap_fleet.Coordinator

let ( / ) = Filename.concat
let now = Wap_obs.Clock.now_ns
let ms_of_ns ns = float_of_int ns /. 1e6

(* ------------------------------------------------------------------ *)
(* Spans and counters.                                                 *)

type span = {
  id : int;
  name : string;
  parent : int;  (** 0 at the root *)
  t0 : int;
  mutable t1 : int;
}

let spans : span list ref = ref []
let stack = ref [ 0 ]
let next_id = ref 1

(* Only ever called from the main domain: a [Pool.map] is wrapped by
   one span, never spanned per item. *)
let span name f =
  let s = { id = !next_id; name; parent = List.hd !stack; t0 = now (); t1 = 0 } in
  incr next_id;
  stack := s.id :: !stack;
  Fun.protect f ~finally:(fun () ->
      s.t1 <- now ();
      stack := List.tl !stack;
      spans := s :: !spans)

let counters : (string, float) Hashtbl.t = Hashtbl.create 32
let get name = Option.value ~default:0. (Hashtbl.find_opt counters name)
let add name v = Hashtbl.replace counters name (get name +. v)
let set name v = Hashtbl.replace counters name v
let addi name n = add name (float_of_int n)

(* self time = duration minus the part covered by direct children
   (children of one span never overlap: spans are sequential) *)
let self_times () =
  let covered = Hashtbl.create 4096 in
  List.iter
    (fun s ->
      let prev = Option.value ~default:0 (Hashtbl.find_opt covered s.parent) in
      Hashtbl.replace covered s.parent (prev + (s.t1 - s.t0)))
    !spans;
  List.map
    (fun s ->
      (s, s.t1 - s.t0 - Option.value ~default:0 (Hashtbl.find_opt covered s.id)))
    !spans

let write_spans file =
  let ordered = List.sort (fun a b -> compare a.id b.id) !spans in
  let json =
    Json.List
      (List.map
         (fun s ->
           Json.Obj
             [ ("id", Json.Int s.id); ("name", Json.Str s.name);
               ("parent", Json.Int s.parent); ("start_ns", Json.Int s.t0);
               ("end_ns", Json.Int s.t1) ])
         ordered)
  in
  let oc = open_out_bin file in
  output_string oc (Json.to_string ~indent:false json);
  close_out oc

(* ------------------------------------------------------------------ *)
(* Layer calls.                                                        *)

let startup () =
  let dataset =
    span "core.training_set" (fun () ->
        Wap_core.Training.dataset_for Wap_core.Version.Wape)
  in
  span "mining.train" (fun () -> Tool.create ~dataset Wap_core.Version.Wape)

let read_all paths =
  List.map (fun p -> (p, span "php.read" (fun () -> Wap_php.Io.read_file p))) paths

let parse_one (path, src) : An.file_unit =
  addi "php.bytes" (String.length src);
  let program =
    match span "php.lex" (fun () -> Wap_php.Lexer.tokenize_buf ~file:path src) with
    | buf ->
        addi "php.tokens" (Wap_php.Token_buf.length buf);
        span "php.parse" (fun () ->
            try Wap_php.Parser.parse_buf buf
            with Wap_php.Parser.Error _ | Wap_php.Lexer.Error _ ->
              fst (Wap_php.Parser.parse_string_tolerant ~file:path src))
    | exception Wap_php.Lexer.Error _ -> []
  in
  { An.path; program }

(* the engine's parse work item: lex + tolerant parse, no spans *)
let parse_item (path, src) : An.file_unit =
  { An.path; program = fst (Wap_php.Parser.parse_string_tolerant ~file:path src) }

type app = {
  sources : (string * string) list;
  units : An.file_unit list;
  digests : string list;
  st : An.project_state;
  pass2 : (int * Trace.candidate) list list;  (** per file *)
  pass3 : (int * Trace.candidate) list list;  (** per file *)
}

let result_of ~sources ~candidates findings : Tool.package_result =
  let pkg =
    {
      App.pkg_name = (match sources with (n, _) :: _ -> n | [] -> "<empty>");
      pkg_version = "";
      pkg_kind = App.Webapp;
      pkg_files =
        List.map (fun (f_name, f_source) -> { App.f_name; f_source }) sources;
      pkg_seeded = [];
    }
  in
  let fps, real = List.partition (fun f -> f.Tool.predicted_fp) findings in
  {
    Tool.package = pkg;
    files_analyzed = List.length sources;
    loc = App.loc_of_package pkg;
    analysis_seconds = 0.;
    analysis_cpu_seconds = 0.;
    phase_seconds = [];
    candidates;
    findings;
    reported = List.map (fun f -> f.Tool.candidate) real;
    predicted_fps = List.map (fun f -> f.Tool.candidate) fps;
  }

(* What [wap analyze --no-cache] does to one app, layer by layer.  At
   [jobs] > 1 the parse and pass-3 fan-outs go through {!Pool.map} and
   are spanned as a whole. *)
let replay_app ~tool ~jobs paths : app =
  let sources = read_all paths in
  let units =
    if jobs <= 1 then List.map parse_one sources
    else span "pool.parse_jN" (fun () -> Pool.map_list ~jobs parse_item sources)
  in
  let digests =
    span "engine.digest" (fun () ->
        let ds = List.map (fun (_, src) -> Digest.to_hex (Digest.string src)) sources in
        ignore
          (Cache.key
             (Session.cache_format_version :: Tool.Scan.fingerprint tool
             :: List.sort String.compare
                  (List.map2 (fun (p, _) d -> p ^ "\x01" ^ d) sources ds)));
        ds)
  in
  let st = An.project_state ~specs:tool.Tool.specs () in
  List.iter (fun u -> span "taint.pass1" (fun () -> An.summarize_file st u)) units;
  let pass2 =
    List.map (fun u -> span "taint.pass2" (fun () -> An.analyze_file_functions st u)) units
  in
  let pass3 =
    if jobs <= 1 then
      List.map (fun u -> span "ir.pass3_cold" (fun () -> Ir_pass3.run st ~units u)) units
    else
      Array.to_list
        (span "pool.pass3_jN" (fun () ->
             Pool.map ~jobs (fun u -> Ir_pass3.run st ~units u) (Array.of_list units)))
  in
  let emitted = List.concat pass2 @ List.concat pass3 in
  addi "taint.candidates_emitted" (List.length emitted);
  let finalized = span "taint.finalize" (fun () -> An.finalize ~units emitted) in
  let candidates =
    span "taint.finalize" (fun () ->
        List.map snd finalized
        |> List.stable_sort (fun (a : Trace.candidate) b ->
               Wap_php.Loc.compare a.Trace.sink_loc b.Trace.sink_loc)
        |> Tool.dedup_candidates)
  in
  addi "taint.candidates_final" (List.length candidates);
  let findings =
    List.map
      (fun c ->
        span "mining.predict" (fun () ->
            {
              Tool.candidate = c;
              predicted_fp = Wap_mining.Predictor.is_false_positive tool.Tool.predictor c;
              symptoms = Wap_mining.Predictor.justification tool.Tool.predictor c;
            }))
      candidates
  in
  addi "mining.classified" (List.length findings);
  let text =
    span "core.export" (fun () ->
        Wap_core.Export.result_to_string (result_of ~sources ~candidates findings))
  in
  addi "core.export_bytes" (String.length text);
  { sources; units; digests; st; pass2; pass3 }

(* Pass 3 again with the AST walker, over the replayed app's state. *)
let walker_pass3 app =
  List.iter
    (fun u ->
      ignore
        (span "taint.pass3" (fun () ->
             An.analyze_file_toplevel app.st ~units:app.units u)))
    app.units

(* [Pool.map] over the same items at jobs=1, then jobs=N.  The jobs=1
   call runs first and forces the pool's lazily created metrics, which
   sidesteps their race at jobs=N; the output says so. *)
let pool_probe ~jobs app =
  let items = Array.of_list app.sources in
  ignore (span "pool.parse_j1" (fun () -> Pool.map ~jobs:1 parse_item items));
  set "pool.warmed_j1" 1.;
  ignore (span "pool.parse_jN" (fun () -> Pool.map ~jobs parse_item items));
  let st = app.st and units = app.units in
  ignore
    (span "pool.pass3_jN" (fun () ->
         Pool.map ~jobs (fun u -> Ir_pass3.run st ~units u) (Array.of_list units)))

let rec dir_bytes d =
  Array.fold_left
    (fun acc e ->
      let p = d / e in
      if Sys.is_directory p then acc + dir_bytes p else acc + (Unix.stat p).Unix.st_size)
    0 (Sys.readdir d)

let mkdir_p d = if not (Sys.file_exists d) then Unix.mkdir d 0o755

(* The fill and the warm read of a [--cache-dir] scan: a parse entry and
   an analysis entry per file, stored through one handle and found
   through a fresh one, as the next process would. *)
let cache_probe ~tool ~dir app =
  mkdir_p dir;
  let fmt = Session.cache_format_version in
  let fd = Cache.key [ fmt; "perfbench"; Tool.Scan.fingerprint tool ] in
  let c = Cache.create ~dir () in
  let rec zip5 a b c d e =
    match (a, b, c, d, e) with
    | (path, _) :: a, digest :: b, u :: c, p2 :: d, p3 :: e ->
        (path, digest, u, p2, p3) :: zip5 a b c d e
    | _ -> []
  in
  let keys =
    List.map
      (fun (path, digest, (u : An.file_unit), p2, p3) ->
        let kp = span "engine.digest" (fun () -> Cache.key [ fmt; "parse"; path; digest ]) in
        let ka =
          span "engine.digest" (fun () -> Cache.key [ fmt; "analyze-file"; fd; path; digest ])
        in
        span "cache.store" (fun () ->
            Cache.store c ~key:kp (u.An.program, ([] : Wap_php.Parser.recovered_error list)));
        span "cache.store" (fun () -> Cache.store c ~key:ka (p2, p3));
        (kp, ka))
      (zip5 app.sources app.digests app.units app.pass2 app.pass3)
  in
  addi "cache.entries" (2 * List.length keys);
  addi "cache.disk_bytes" (dir_bytes dir);
  let warm = Cache.create ~dir () in
  List.iter
    (fun (kp, ka) ->
      ignore
        (span "cache.find" (fun () ->
             (Cache.find warm ~key:kp
               : (Wap_php.Ast.program * Wap_php.Parser.recovered_error list) option)));
      ignore
        (span "cache.find" (fun () ->
             (Cache.find warm ~key:ka
               : ((int * Trace.candidate) list * (int * Trace.candidate) list) option))))
    keys;
  let h = Cache.hits warm and m = Cache.misses warm in
  set "cache.warm_hit_ratio" (float_of_int h /. float_of_int (max 1 (h + m)))

(* ------------------------------------------------------------------ *)
(* Edits: the same alternating cycle the LSP client drives.            *)

type edit_kind = Toplevel | Function

let kind_name = function Toplevel -> "toplevel" | Function -> "function"

(* add an XSS-R at top level, remove it, add it inside a new function
   (which changes the file's declarations), remove it *)
let edit_cycle base =
  [ (Toplevel, base ^ "\necho $_GET['perfbench'];\n"); (Toplevel, base);
    (Function, base ^ "\nfunction perfbench_edit() {\n  echo $_GET['perfbench'];\n}\n");
    (Function, base) ]

let session_probe ~tool ~cycles files =
  let sources = List.map (fun p -> (p, Wap_php.Io.read_file p)) files in
  let req =
    Session.request ~jobs:1 ~fingerprint:(Tool.Scan.fingerprint tool)
      ~specs:tool.Tool.specs sources
  in
  let s = span "session.open" (fun () -> Session.open_project req) in
  let path, base = List.hd sources in
  for _ = 1 to cycles do
    List.iter
      (fun (kind, text) ->
        let k = kind_name kind in
        let rerun = span ("session.update_" ^ k) (fun () -> Session.update_file s ~path text) in
        addi ("session.reanalyzed_" ^ k) (List.length rerun);
        addi ("session.edits_" ^ k) 1;
        ignore (span "session.diagnostics" (fun () -> Session.diagnostics s ~path)))
      (edit_cycle base)
  done

let uri_of path =
  "file://" ^ if Filename.is_relative path then Sys.getcwd () / path else path

let rpc ?id meth params =
  Json.Obj
    ([ ("jsonrpc", Json.Str "2.0") ]
    @ (match id with Some i -> [ ("id", Json.Int i) ] | None -> [])
    @ [ ("method", Json.Str meth); ("params", params) ])

let doc_open path text =
  rpc "textDocument/didOpen"
    (Json.Obj
       [ ( "textDocument",
           Json.Obj
             [ ("uri", Json.Str (uri_of path)); ("languageId", Json.Str "php");
               ("version", Json.Int 1); ("text", Json.Str text) ] ) ])

let doc_change path version text =
  rpc "textDocument/didChange"
    (Json.Obj
       [ ( "textDocument",
           Json.Obj [ ("uri", Json.Str (uri_of path)); ("version", Json.Int version) ] );
         ("contentChanges", Json.List [ Json.Obj [ ("text", Json.Str text) ] ]) ])

let is_publish = function
  | Json.Obj fields ->
      List.assoc_opt "method" fields = Some (Json.Str "textDocument/publishDiagnostics")
  | _ -> false

(* [wap serve] up to the last didOpen reply: the LSP load *)
let serve_open ~tool sources =
  let srv = Server.create ~jobs:1 tool in
  ignore
    (span "serve.handle_open" (fun () ->
         Server.handle srv (rpc ~id:0 "initialize" (Json.Obj []))));
  List.iter
    (fun (path, text) ->
      ignore (span "serve.handle_open" (fun () -> Server.handle srv (doc_open path text))))
    sources;
  srv

let serve_edits srv ~cycles (path, base) =
  let version = ref 1 in
  for _ = 1 to cycles do
    List.iter
      (fun (kind, text) ->
        incr version;
        let out =
          span ("serve.handle_" ^ kind_name kind) (fun () ->
              Server.handle srv (doc_change path !version text))
        in
        addi "serve.publishes" (List.length (List.filter is_publish out));
        addi "serve.edits" 1)
      (edit_cycle base)
  done

(* ------------------------------------------------------------------ *)
(* Fleet.                                                              *)

let fleet_probe ~jobs ~cache_dir dirs =
  let cfg =
    {
      Coord.fc_workers = jobs;
      fc_worker_jobs = 1;
      fc_cache_dir = Some cache_dir;
      fc_summary_store = true;
      fc_progress = false;
    }
  in
  let t0 = now () in
  let first = Atomic.make 0 in
  let o =
    span "fleet.run" (fun () ->
        Coord.run
          ~on_result:(fun _ -> ignore (Atomic.compare_and_set first 0 (now () - t0)))
          cfg ~dirs)
  in
  let rp = o.Coord.report in
  set "fleet.first_result_s" (float_of_int (Atomic.get first) /. 1e9);
  set "fleet.dedup_hit_ratio" rp.Coord.rp_dedup_hit_ratio;
  set "fleet.cache_misses" (float_of_int rp.Coord.rp_cache_misses);
  set "fleet.retried" (float_of_int rp.Coord.rp_retried);
  set "fleet.failed" (float_of_int (List.length rp.Coord.rp_failed))

(* ------------------------------------------------------------------ *)
(* trace                                                               *)

(* A fixed integer loop, so numbers from different hosts compare. *)
let calibrate () =
  let once () =
    let t0 = now () in
    let x = ref 0 in
    for i = 1 to 20_000_000 do
      x := (!x * 1103515245 + i) land 0x3fffffff
    done;
    ignore (Sys.opaque_identity !x);
    now () - t0
  in
  ms_of_ns (List.fold_left min max_int [ once (); once (); once () ])

let read_lines file =
  String.split_on_char '\n' (Wap_php.Io.read_file file)
  |> List.filter (fun l -> l <> "")

let layer_names =
  [ "core.training_set"; "mining.train"; "php.read"; "php.lex"; "php.parse";
    "engine.digest"; "cache.store"; "cache.find"; "pool.parse_j1"; "pool.parse_jN";
    "pool.pass3_jN"; "session.open"; "session.update_toplevel";
    "session.update_function"; "session.diagnostics"; "taint.pass1"; "taint.pass2";
    "taint.pass3"; "taint.finalize"; "ir.pass3_cold"; "mining.predict"; "core.export";
    "serve.handle_open"; "serve.handle_toplevel"; "serve.handle_function" ]

type proc = Oneshot | Batch1 | BatchN | Serve | Fleet

let proc_of_string = function
  | "oneshot" -> Oneshot
  | "batch1" -> Batch1
  | "batchN" -> BatchN
  | "serve" -> Serve
  | "fleet" -> Fleet
  | s -> failwith ("unknown --proc " ^ s)

let trace ~proc ~files ~edit_files ~fleet_dirs ~jobs ~work ~cycles ~spans_out =
  let calibration_ms = calibrate () in
  let tool = ref None in
  let app = ref None in
  let server = ref None in
  let edit_sources = List.map (fun p -> (p, Wap_php.Io.read_file p)) edit_files in
  if proc = BatchN then
    (* warm the pool's lazies at jobs=1 before any jobs=N call *)
    ignore (span "pool.parse_j1" (fun () -> Pool.map ~jobs:1 parse_item [| ("w.php", "<?php\n") |]));
  let proc_id = !next_id in
  span "proc" (fun () ->
      match proc with
      | Oneshot ->
          let t = startup () in
          tool := Some t;
          ignore (replay_app ~tool:t ~jobs:1 [ List.hd files ])
      | Batch1 ->
          let t = startup () in
          tool := Some t;
          app := Some (replay_app ~tool:t ~jobs:1 files)
      | BatchN ->
          let t = startup () in
          tool := Some t;
          ignore (replay_app ~tool:t ~jobs files)
      | Serve ->
          let t = startup () in
          tool := Some t;
          server := Some (serve_open ~tool:t edit_sources)
      | Fleet -> fleet_probe ~jobs ~cache_dir:(work / "fleet-cache") fleet_dirs);
  (* the counters describe one replay of the workload's inputs *)
  if proc = Oneshot || proc = BatchN then Hashtbl.reset counters;
  let tool = match !tool with Some t -> t | None -> startup () in
  let app = match !app with Some a -> a | None -> replay_app ~tool ~jobs:1 files in
  walker_pass3 app;
  pool_probe ~jobs app;
  cache_probe ~tool ~dir:(work / "probe-cache") app;
  session_probe ~tool ~cycles edit_files;
  let srv = match !server with Some s -> s | None -> serve_open ~tool edit_sources in
  serve_edits srv ~cycles (List.hd edit_sources);
  if proc <> Fleet then fleet_probe ~jobs ~cache_dir:(work / "fleet-cache") fleet_dirs;
  write_spans spans_out;
  (* per-layer self time, and the layer sum inside the process replay *)
  let selfs = self_times () in
  let in_proc = Hashtbl.create 4096 in
  Hashtbl.replace in_proc proc_id ();
  List.iter
    (fun (s, _) -> if Hashtbl.mem in_proc s.parent then Hashtbl.replace in_proc s.id ())
    (List.sort (fun (a, _) (b, _) -> compare a.id b.id) selfs);
  let by_name = Hashtbl.create 32 in
  let layer_sum = ref 0 and proc_wall = ref 0 in
  List.iter
    (fun (s, self) ->
      Hashtbl.replace by_name s.name
        (self + Option.value ~default:0 (Hashtbl.find_opt by_name s.name));
      if s.id = proc_id then proc_wall := s.t1 - s.t0
      else if Hashtbl.mem in_proc s.id then layer_sum := !layer_sum + self)
    selfs;
  let layer n = ms_of_ns (Option.value ~default:0 (Hashtbl.find_opt by_name n)) in
  let per n d = get n /. max 1. (get d) in
  let edits = get "serve.edits" in
  let metrics =
    List.map (fun n -> (n ^ "_ms", layer n)) layer_names
    @ [
        ("php.bytes", get "php.bytes");
        ("php.tokens", get "php.tokens");
        ("php.tokens_per_s", get "php.tokens" /. (max 1e-9 (layer "php.lex") /. 1e3));
        ("cache.entries", get "cache.entries");
        ("cache.disk_bytes", get "cache.disk_bytes");
        ("cache.warm_hit_ratio", get "cache.warm_hit_ratio");
        ("pool.warmed_j1", get "pool.warmed_j1");
        ("session.reanalyzed_toplevel", per "session.reanalyzed_toplevel" "session.edits_toplevel");
        ("session.reanalyzed_function", per "session.reanalyzed_function" "session.edits_function");
        ("taint.candidates_emitted", get "taint.candidates_emitted");
        ("taint.candidates_final", get "taint.candidates_final");
        ("mining.classified", get "mining.classified");
        ("core.export_bytes", get "core.export_bytes");
        ( "serve.overhead_ms",
          (layer "serve.handle_toplevel" +. layer "serve.handle_function"
          -. layer "session.update_toplevel" -. layer "session.update_function"
          -. layer "session.diagnostics")
          /. max 1. edits );
        ("serve.publishes_per_edit", get "serve.publishes" /. max 1. edits);
        ("fleet.run_s", layer "fleet.run" /. 1e3);
        ("fleet.first_result_s", get "fleet.first_result_s");
        ("fleet.dedup_hit_ratio", get "fleet.dedup_hit_ratio");
        ("fleet.cache_misses", get "fleet.cache_misses");
        ("fleet.retried", get "fleet.retried");
        ("fleet.failed", get "fleet.failed");
        ("ir.available", if Ir_pass3.available then 1. else 0.);
        ("trace.replay_wall_ms", ms_of_ns !proc_wall);
        ("trace.layer_sum_ms", ms_of_ns !layer_sum);
        ("host.cores", float_of_int (Domain.recommended_domain_count ()));
        ("host.calibration_ms", calibration_ms);
      ]
  in
  Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) metrics)

(* ------------------------------------------------------------------ *)
(* Ground truth.                                                       *)

let pkg_dir (p : App.package) = p.App.pkg_name ^ "-" ^ p.App.pkg_version

let str_member k j = match Json.member k j with Some (Json.Str s) -> s | _ -> ""
let int_member k j = match Json.member k j with Some (Json.Int i) -> i | _ -> 0

let finding ~file ~line ~cls ~sink ~predicted_fp : Tool.finding =
  let vclass =
    match Wap_catalog.Vuln_class.of_acronym cls with
    | Some v -> v
    | None -> failwith ("unknown class " ^ cls)
  in
  {
    Tool.candidate =
      {
        Trace.vclass;
        file;
        sink_name = sink;
        sink_loc = Wap_php.Loc.make ~file ~line ~col:0;
        origins = [];
        sink_args = [];
        tainted_positions = [];
      };
    predicted_fp;
    symptoms = [];
  }

let score pkg findings =
  Wap_core.Aggregate.score_package
    {
      Tool.package = pkg;
      files_analyzed = 0;
      loc = 0;
      analysis_seconds = 0.;
      analysis_cpu_seconds = 0.;
      phase_seconds = [];
      candidates = [];
      findings;
      reported = [];
      predicted_fps = [];
    }

let score_json (s : Wap_core.Aggregate.score) extra =
  Json.Obj
    ([ ("real_reported", Json.Int s.Wap_core.Aggregate.real_reported);
       ("real_missed", Json.Int s.Wap_core.Aggregate.real_missed);
       ("real_undetected", Json.Int s.Wap_core.Aggregate.real_undetected);
       ("fps_predicted", Json.Int s.Wap_core.Aggregate.fpp);
       ("fps_reported", Json.Int s.Wap_core.Aggregate.fp);
       ("unmatched", Json.Int s.Wap_core.Aggregate.unmatched) ]
    @ extra)

let parse_json file =
  match Json.of_string (Wap_php.Io.read_file file) with
  | Ok j -> j
  | Error e -> failwith (file ^ ": " ^ e)

(* findings of a [wap analyze --json] export, as (file, finding) *)
let export_findings file =
  match Json.member "findings" (parse_json file) with
  | Some (Json.List l) ->
      List.map
        (fun f ->
          let loc = Option.value ~default:Json.Null (Json.member "sink_loc" f) in
          ( str_member "file" loc,
            fun ~file ->
              finding ~file ~line:(int_member "line" loc) ~cls:(str_member "class" f)
                ~sink:(str_member "sink" f)
                ~predicted_fp:(str_member "kind" f = "false_positive") ))
        l
  | _ -> []

let split_pkg rel =
  match String.index_opt rel '/' with
  | Some i -> (String.sub rel 0 i, String.sub rel (i + 1) (String.length rel - i - 1))
  | None -> (rel, "")

let webapps seed =
  List.map (fun (_, p) -> (pkg_dir p, p)) (Wap_corpus.Corpus.webapps ~seed ())

(* the whole-tree export of [wap analyze ROOT]: per package by path prefix *)
let score_tree ~seed ~root export =
  let prefix = root ^ "/" in
  let n = String.length prefix in
  let by_pkg = Hashtbl.create 64 in
  let stray = ref 0 in
  List.iter
    (fun (path, mk) ->
      if String.length path > n && String.sub path 0 n = prefix then begin
        let dir, file = split_pkg (String.sub path n (String.length path - n)) in
        Hashtbl.add by_pkg dir (mk ~file)
      end
      else incr stray)
    (export_findings export);
  let pkgs = webapps seed in
  let stray = !stray + Hashtbl.fold (fun d _ acc -> if List.mem_assoc d pkgs then acc else acc + 1) by_pkg 0 in
  let total =
    Wap_core.Aggregate.sum_scores
      (List.map (fun (d, p) -> score p (List.rev (Hashtbl.find_all by_pkg d))) pkgs)
  in
  (* undetected over the tree as a whole (seeded real flows minus real
     verdicts), beside the sum of the per-package shortfalls, which a
     package with a doubly reported snippet cannot offset *)
  let open Wap_core.Aggregate in
  let seeded_real =
    List.fold_left (fun n (_, p) -> n + App.count_label p Wap_corpus.Snippet.Real) 0 pkgs
  in
  score_json
    { total with
      unmatched = total.unmatched + stray;
      real_undetected = max 0 (seeded_real - total.real_reported - total.real_missed) }
    [ ("real_undetected_per_package", Json.Int total.real_undetected);
      ("packages", Json.Int (List.length pkgs)) ]

(* one-file exports: each scored against its own file's seeded entries.
   A file is bad when a seeded real flow goes unflagged or a finding
   matches nothing seeded; real flows the predictor dismisses are only
   counted (alone, a file can lack the context that marks a flow real). *)
let score_files ~seed list =
  let pkgs = webapps seed in
  let bad = ref [] in
  let scores =
    List.map
      (fun line ->
        match String.split_on_char '\t' line with
        | [ rel; export ] ->
            let dir, file = split_pkg rel in
            let pkg = List.assoc dir pkgs in
            let pkg =
              { pkg with
                App.pkg_seeded =
                  List.filter (fun (s : App.seeded) -> s.App.sd_file = file) pkg.App.pkg_seeded }
            in
            let s = score pkg (List.map (fun (_, mk) -> mk ~file) (export_findings export)) in
            let open Wap_core.Aggregate in
            if s.real_undetected + s.unmatched > 0 then bad := rel :: !bad;
            s
        | _ -> failwith ("bad list line: " ^ line))
      (read_lines list)
  in
  score_json
    (Wap_core.Aggregate.sum_scores scores)
    [ ("files", Json.Int (List.length scores));
      ("bad", Json.List (List.rev_map (fun r -> Json.Str r) !bad)) ]

(* merged fleet NDJSON: one line per project *)
let score_fleet ~seed ~projects ndjson =
  let plugins =
    List.map (fun (_, p) -> (pkg_dir p, p)) (Wap_corpus.Corpus.plugins ~seed ())
  and projs =
    List.map (fun (_, p) -> (pkg_dir p, p))
      (Wap_corpus.Corpus.generated_projects ~seed ~count:projects ())
  in
  let plug = ref [] and proj = ref [] and unknown = ref 0 in
  List.iter
    (fun line ->
      let j =
        match Json.of_string line with Ok j -> j | Error e -> failwith e
      in
      let name = str_member "project" j in
      let findings =
        match Json.member "findings" j with
        | Some (Json.List l) ->
            List.map
              (fun f ->
                finding ~file:(str_member "file" f) ~line:(int_member "line" f)
                  ~cls:(str_member "class" f) ~sink:(str_member "sink" f)
                  ~predicted_fp:(Json.member "predicted_fp" f = Some (Json.Bool true)))
              l
        | _ -> []
      in
      match (List.assoc_opt name plugins, List.assoc_opt name projs) with
      | Some p, _ -> plug := score p findings :: !plug
      | None, Some p -> proj := score p findings :: !proj
      | None, None -> incr unknown)
    (read_lines ndjson);
  let sum l = Wap_core.Aggregate.sum_scores l in
  Json.Obj
    [ ("plugins", score_json (sum !plug) [ ("count", Json.Int (List.length !plug)) ]);
      ("projects", score_json (sum !proj) [ ("count", Json.Int (List.length !proj)) ]);
      ("expected", Json.Int (List.length plugins + List.length projs));
      ("unknown", Json.Int !unknown) ]

let seeded ~seed =
  Json.List
    (List.concat_map
       (fun (d, (p : App.package)) ->
         List.sort_uniq compare
           (List.map (fun (s : App.seeded) -> d ^ "/" ^ s.App.sd_file) p.App.pkg_seeded)
         |> List.map (fun s -> Json.Str s))
       (webapps seed))

(* ------------------------------------------------------------------ *)
(* Command line.                                                       *)

let () =
  Wap_fleet.Worker.maybe_main ();
  Wap_obs.Log.set_level Wap_obs.Log.Error;
  let args = Array.to_list Sys.argv in
  let rec opts acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        opts ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | rest -> (acc, rest)
  in
  let cmd, rest = match args with _ :: c :: r -> (c, r) | _ -> ("", []) in
  let o, pos = opts [] rest in
  let opt k = match List.assoc_opt k o with Some v -> v | None -> failwith ("missing --" ^ k) in
  let int k = int_of_string (opt k) in
  let lines k = match List.assoc_opt k o with Some f -> read_lines f | None -> [] in
  let out =
    match (cmd, pos) with
    | "trace", [] ->
        trace ~proc:(proc_of_string (opt "proc")) ~files:(lines "files")
          ~edit_files:(lines "edit-files") ~fleet_dirs:(lines "fleet-dirs")
          ~jobs:(int "jobs") ~work:(opt "work") ~cycles:(int "cycles")
          ~spans_out:(opt "spans")
    | "seeded", [] -> seeded ~seed:(int "seed")
    | "score-tree", [ export ] -> score_tree ~seed:(int "seed") ~root:(opt "root") export
    | "score-files", [ list ] -> score_files ~seed:(int "seed") list
    | "score-fleet", [ ndjson ] ->
        score_fleet ~seed:(int "seed") ~projects:(int "projects") ndjson
    | _ ->
        prerr_endline
          "usage: probe (trace|seeded|score-tree|score-files|score-fleet) [--key value]... [FILE]";
        exit 2
  in
  print_endline (Json.to_string ~indent:false out)

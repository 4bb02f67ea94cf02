(** The [wap] command-line tool.

    Sub-commands:
    - [analyze]     run the detectors + false-positive predictor on PHP
                    files, optionally emitting corrected source;
    - [lint]        run the control-flow lint rules (Wap_lint) alone;
    - [weapon-gen]  generate a weapon from ep/ss/san data and a fix
                    template, and store it on disk;
    - [corpus-gen]  materialize the synthetic evaluation corpus;
    - [experiments] regenerate the paper's tables and figures;
    - [train]       build and export the predictor's training data set;
    - [symptoms]    list the symptom/attribute catalog (Table I);
    - [fuzz]        generate random PHP programs and check the pipeline
                    against differential oracles, shrinking and saving
                    any violation as a reproducer;
    - [serve]       run the LSP diagnostics daemon over stdio (or a
                    socket), re-analyzing only what each edit touches
                    via the session engine;
    - [top]         live terminal view of a running daemon, polling its
                    admin plane's [/status];
    - [fleet]       shard a directory of projects across spawned worker
                    processes (this binary re-executed in a hidden
                    worker mode) and merge the per-project reports
                    deterministically. *)

open Cmdliner
module Scan = Wap_core.Tool.Scan
module Session = Wap_engine.Session

let read_file = Wap_php.Io.read_file

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

let seed_arg =
  let doc = "Deterministic seed for training and corpus generation." in
  Arg.(
    value & opt int Wap_core.Training.frozen_seed & info [ "seed" ] ~docv:"N" ~doc)

(* scan-engine flags, shared by analyze / lint / experiments *)

let jobs_arg =
  let doc =
    "Worker domains for parsing and analysis (default: the machine's \
     recommended domain count; the WAP_JOBS environment variable overrides \
     the default)."
  in
  Arg.(value & opt int (Wap_engine.Config.default_jobs ())
       & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let no_cache_arg =
  Arg.(value & flag
       & info [ "no-cache" ]
           ~doc:"Disable the incremental scan result cache, even with \
                 --cache-dir.")

let cache_dir_arg =
  Arg.(value & opt (some string) None
       & info [ "cache-dir" ] ~docv:"DIR"
           ~doc:"Persist cached scan results under $(docv) between runs \
                 (created if missing; its parent must exist).  Every \
                 command uses a cache only when this is given.")

(* The cache directory, with --no-cache folded in.  A --cache-dir that
   cannot be made a directory is a usage error: caching in memory
   instead would read like a fresh persistent cache on every run. *)
let cache_dir_term =
  let check no_cache = function
    | Some dir when not no_cache -> (
        (* creates the directory the scan will fill *)
        match Wap_engine.Cache.create ~dir () with
        | _ -> `Ok (Some dir)
        | exception Sys_error e -> `Error (true, "option '--cache-dir': " ^ e))
    | _ -> `Ok None
  in
  Term.(ret (const check $ no_cache_arg $ cache_dir_arg))

(* One-shot commands never read back within a run what they store, so
   they cache only when the cache persists. *)
let disk_cache = Option.map (fun dir -> Wap_engine.Cache.create ~dir ())

(* observability flags (Wap_obs), shared by analyze / lint / experiments *)

let log_level_conv =
  let parse s =
    match Wap_obs.Log.level_of_string s with
    | Some l -> Ok l
    | None ->
        Error (`Msg (Printf.sprintf "unknown log level %S (debug|info|warn|error|quiet)" s))
  in
  Arg.conv (parse, fun ppf l -> Fmt.string ppf (Wap_obs.Log.level_name l))

let log_format_conv =
  let parse s =
    match Wap_obs.Log.format_of_string s with
    | Some f -> Ok f
    | None -> Error (`Msg (Printf.sprintf "unknown log format %S (text|json)" s))
  in
  Arg.conv
    ( parse,
      fun ppf f ->
        Fmt.string ppf
          (match f with Wap_obs.Log.Text -> "text" | Wap_obs.Log.Json -> "json") )

let trace_out_arg =
  Arg.(value & opt (some string) None
       & info [ "trace-out" ] ~docv:"FILE"
           ~doc:"Record spans for the whole run and write them as Chrome \
                 trace-event JSON to $(docv) (open in chrome://tracing or \
                 https://ui.perfetto.dev).  Defaults to the WAP_TRACE_OUT \
                 environment variable; the flag wins when both are set.")

let log_level_arg =
  Arg.(value & opt log_level_conv Wap_obs.Log.Info
       & info [ "log-level" ] ~docv:"LEVEL"
           ~doc:"Diagnostics verbosity on stderr: debug, info, warn, error or \
                 quiet.  debug logs per-file progress.")

let log_format_arg =
  Arg.(value & opt log_format_conv Wap_obs.Log.Text
       & info [ "log-format" ] ~docv:"FMT"
           ~doc:"Diagnostics format on stderr: text or json (one JSON object \
                 per line).")

(* Configure logger + tracer from the flags; returns the finish action
   that unsets the tracer and writes the trace file. *)
let setup_obs trace_out log_level log_format =
  Wap_obs.Log.set_level log_level;
  Wap_obs.Log.set_format log_format;
  match Wap_engine.Config.trace_out trace_out with
  | None -> fun () -> ()
  | Some path ->
      let tracer = Wap_obs.Trace.create () in
      Wap_obs.Trace.set_global (Some tracer);
      fun () ->
        Wap_obs.Trace.set_global None;
        Wap_obs.Trace.write tracer ~file:path;
        Wap_obs.Log.info
          ~fields:
            [ ("file", path);
              ("events", string_of_int (Wap_obs.Trace.event_count tracer)) ]
          "wrote trace"

let stats_arg =
  Arg.(value & flag
       & info [ "stats" ]
           ~doc:"Print per-phase timing, counter and per-detector tables to \
                 stderr after the scan.")

(* The --stats summary: per-phase wall clock (sums to ~analysis_seconds),
   scan counters, and the per-detector breakdown — all on stderr so
   stdout stays machine-parseable. *)
let print_scan_stats (outcome : Scan.outcome) =
  let module Tbl = Wap_report.Table in
  let r = outcome.Scan.result in
  let total = r.Wap_core.Tool.analysis_seconds in
  let phases = r.Wap_core.Tool.phase_seconds in
  let accounted = List.fold_left (fun acc (_, s) -> acc +. s) 0.0 phases in
  let share s = if total <= 0.0 then "" else Tbl.pctf (s /. total) in
  let phase_rows =
    List.map (fun (k, s) -> [ k; Printf.sprintf "%.4f" s; share s ]) phases
    @ [ [ "---"; "---"; "---" ];
        [ "accounted"; Printf.sprintf "%.4f" accounted; share accounted ];
        [ "analysis total"; Printf.sprintf "%.4f" total; share total ] ]
  in
  let t1 =
    Tbl.make ~title:"scan phases (wall clock)"
      ~header:[ "phase"; "seconds"; "share" ]
      phase_rows
  in
  let snap = Wap_obs.Metrics.snapshot Wap_obs.Metrics.global in
  let hist name =
    List.assoc_opt name snap.Wap_obs.Metrics.histograms
  in
  let mean_ms h =
    match h with
    | Some h when h.Wap_obs.Metrics.h_count > 0 ->
        Printf.sprintf "%.3f"
          (1e3 *. h.Wap_obs.Metrics.h_sum /. float_of_int h.Wap_obs.Metrics.h_count)
    | _ -> "n/a"
  in
  let counter name =
    string_of_int
      (Option.value ~default:0
         (List.assoc_opt name snap.Wap_obs.Metrics.counters))
  in
  let counter_rows =
    [
      [ "files parsed"; string_of_int r.Wap_core.Tool.files_analyzed ];
      [ "lines of code"; string_of_int r.Wap_core.Tool.loc ];
      [ "parse errors recovered";
        string_of_int
          (List.fold_left
             (fun acc (_, errs) -> acc + List.length errs)
             0 outcome.Scan.parse_errors) ];
      [ "detector specs"; string_of_int (List.length outcome.Scan.spec_reports) ];
      [ "candidates"; string_of_int (List.length r.Wap_core.Tool.candidates) ];
      [ "vulnerabilities"; string_of_int (List.length r.Wap_core.Tool.reported) ];
      [ "predicted false positives";
        string_of_int (List.length r.Wap_core.Tool.predicted_fps) ];
      [ "worker domains"; string_of_int outcome.Scan.jobs_used ];
      [ "cache hits"; string_of_int outcome.Scan.cache_hits ];
      [ "cache misses"; string_of_int outcome.Scan.cache_misses ];
      [ "functions reused from pass 1"; counter "taint.functions_reused" ];
      [ "functions re-analyzed in pass 2"; counter "taint.functions_reanalyzed" ];
      [ "loop fixpoint iterations"; counter "taint.loop_iterations" ];
      [ "specs retired early from loops"; counter "taint.loop_specs_retired" ];
      [ "pool queue-wait mean (ms)";
        mean_ms (hist "engine.pool.queue_wait_seconds") ];
      [ "pool task-run mean (ms)"; mean_ms (hist "engine.pool.task_run_seconds") ];
    ]
  in
  let t2 = Tbl.make ~title:"scan counters" ~header:[ "counter"; "value" ] counter_rows in
  let spec_rows =
    List.map
      (fun (s : Session.spec_report) ->
        [ s.Session.sr_spec; string_of_int s.Session.sr_candidates ])
      outcome.Scan.spec_reports
  in
  let t3 =
    Tbl.make ~title:"per-detector breakdown"
      ~header:[ "detector"; "candidates" ]
      spec_rows
  in
  (* every latency histogram in the registry, with the quantiles
     Prometheus's histogram_quantile would interpolate from the exposed
     buckets, clamped to the observed range *)
  let q_ms h q =
    let v = Wap_obs.Metrics.clamped_quantile h q in
    if Float.is_nan v then "n/a" else Printf.sprintf "%.3f" (1e3 *. v)
  in
  let hist_rows =
    List.filter_map
      (fun (name, (h : Wap_obs.Metrics.hist_snapshot)) ->
        if h.Wap_obs.Metrics.h_count = 0 then None
        else
          Some
            [
              name;
              string_of_int h.Wap_obs.Metrics.h_count;
              mean_ms (Some h);
              q_ms h 0.5;
              q_ms h 0.95;
            ])
      snap.Wap_obs.Metrics.histograms
  in
  let t4 =
    Tbl.make ~title:"latency histograms (ms)"
      ~header:[ "histogram"; "count"; "mean"; "p50"; "p95" ]
      hist_rows
  in
  Printf.eprintf "%s\n%s\n%s%s%!" (Tbl.render t1) (Tbl.render t2)
    (Tbl.render t3)
    (if hist_rows = [] then "" else "\n" ^ Tbl.render t4)

(* expand directories to their .php files, recursively; explicitly named
   files pass through regardless of extension *)
let expand_php_paths files =
  let rec expand path =
    if Sys.is_directory path then
      Sys.readdir path |> Array.to_list |> List.sort String.compare
      |> List.concat_map (fun entry -> expand (Filename.concat path entry))
    else if Filename.check_suffix path ".php" || List.mem path files then
      [ path ]
    else []
  in
  List.concat_map expand files

(* ------------------------------------------------------------------ *)
(* analyze                                                             *)

let version_conv =
  let parse = function
    | "wape" | "new" -> Ok Wap_core.Version.Wape
    | "v21" | "2.1" | "original" -> Ok Wap_core.Version.Wap_v21
    | s -> Error (`Msg (Printf.sprintf "unknown tool version %S (wape|v21)" s))
  in
  Arg.conv (parse, fun ppf v -> Fmt.string ppf (Wap_core.Version.name v))

let tool_version_arg =
  Arg.(value & opt version_conv Wap_core.Version.Wape
       & info [ "tool-version" ] ~docv:"V" ~doc:"Tool configuration: wape or v21.")

(* The tool configuration flags of analyze and serve, evaluating to the
   tool constructor over a training set and a seed.  --weapon resolves
   here, so a weapon that is neither stock nor stored under --weapon-dir
   is a usage error. *)
let tool_term =
  let weapons =
    Arg.(value & opt_all string []
         & info [ "weapon" ] ~docv:"NAME"
             ~doc:"Activate a weapon: nosqli, hei, wpsqli, or a name stored under --weapon-dir.")
  in
  let weapon_dir =
    Arg.(value & opt (some dir) None
         & info [ "weapon-dir" ] ~docv:"DIR" ~doc:"Directory holding stored weapons.")
  in
  let sanitizers =
    Arg.(value & opt_all string []
         & info [ "sanitizer" ] ~docv:"FN"
             ~doc:"Register a user sanitization function (applies to every detector).")
  in
  (* a stock weapon by its activation flag, else one stored under
     --weapon-dir *)
  let load stock weapon_dir name =
    match
      (Wap_weapon.Registry.find_flag (Lazy.force stock) ("-" ^ name), weapon_dir)
    with
    | Some w, _ -> w
    | None, None -> failwith (Printf.sprintf "unknown weapon %S (no --weapon-dir)" name)
    | None, Some dir -> (
        try Wap_weapon.Store.load ~dir ~name
        with Sys_error e | Wap_weapon.Store.Corrupt e ->
          failwith (Printf.sprintf "cannot load weapon %S from %s: %s" name dir e))
  in
  let resolve version names weapon_dir sanitizers =
    let stock = lazy (Wap_weapon.Registry.builtin ()) in
    match List.map (load stock weapon_dir) names with
    | exception Failure e -> `Error (true, "option '--weapon': " ^ e)
    | weapons ->
        let extra_sanitizers = List.map (fun fn -> (None, fn)) sanitizers in
        `Ok (fun dataset seed ->
            Wap_core.Tool.create ~seed ~weapons ~extra_sanitizers ?dataset version)
  in
  Term.(ret (const resolve $ tool_version_arg $ weapons $ weapon_dir $ sanitizers))

let analyze_cmd =
  let files =
    Arg.(non_empty & pos_all file [] & info [] ~docv:"FILE" ~doc:"PHP files to analyze.")
  in
  let fix =
    Arg.(value & flag
         & info [ "fix" ]
             ~doc:"Write corrected source next to each file with a reported \
                   vulnerability (.fixed.php), whatever the output format.  A \
                   file whose parse recovered errors is not corrected.")
  in
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Show symptoms and flow steps.")
  in
  let confirm =
    Arg.(value & flag
         & info [ "confirm" ]
             ~doc:"Dynamically confirm each finding by replaying it with an attack payload.")
  in
  let training_set =
    Arg.(value & opt (some file) None
         & info [ "training-set" ] ~docv:"FILE"
             ~doc:"Train the false-positive predictor from this CSV (as exported by `wap train`).")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit machine-readable JSON instead of text.")
  in
  let html_out =
    Arg.(value & opt (some string) None
         & info [ "html" ] ~docv:"FILE" ~doc:"Also write a standalone HTML report.")
  in
  (* the --training-set CSV, checked against the tool version's
     attributes before anything runs *)
  let dataset =
    let load version = function
      | None -> `Ok None
      | Some path -> (
          match
            Wap_mining.Dataset.of_csv
              ~mode:(Wap_core.Version.attribute_mode version)
              (read_file path)
          with
          | Ok d -> `Ok (Some d)
          | Error e ->
              `Error (true, Printf.sprintf "option '--training-set': %s: %s" path e))
    in
    Term.(ret (const load $ tool_version_arg $ training_set))
  in
  let run files fix make_tool seed verbose confirm json dataset html_out jobs cache_dir trace_out stats log_level log_format =
    let finish_obs = setup_obs trace_out log_level log_format in
    let tool = make_tool dataset seed in
    let paths = expand_php_paths files in
    let sources = List.map (fun p -> (p, read_file p)) paths in
    let cache = disk_cache cache_dir in
    let outcome = Scan.run tool (Scan.request ~jobs ?cache sources) in
    let result = outcome.Scan.result in
    let parse_errors = outcome.Scan.parse_errors in
    if verbose then
      Wap_obs.Log.info
        ~fields:
          [ ("workers", string_of_int outcome.Scan.jobs_used);
            ( "cache",
              match cache_dir with
              | Some dir -> "on (" ^ dir ^ ")"
              | None -> "off" );
            ("hits", string_of_int outcome.Scan.cache_hits);
            ("misses", string_of_int outcome.Scan.cache_misses) ]
        "scan finished";
    List.iter
      (fun (path, errs) ->
        List.iter
          (fun (e : Wap_php.Parser.recovered_error) ->
            Wap_obs.Log.warn
              ~fields:
                [ ("file", path);
                  ("loc", Wap_php.Loc.to_string e.Wap_php.Parser.err_loc) ]
              (Printf.sprintf "parse error recovered: %s"
                 e.Wap_php.Parser.err_msg))
          errs)
      parse_errors;
    (* each finding replayed once, on the AST the scan analyzed, however
       many outputs show its verdict *)
    let confirm =
      if not confirm then None
      else
        let replay = Wap_confirm.Confirm.replay outcome.Scan.units in
        let verdicts =
          List.map
            (fun (f : Wap_core.Tool.finding) ->
              (f.Wap_core.Tool.candidate, replay f.Wap_core.Tool.candidate))
            result.Wap_core.Tool.findings
        in
        Some (fun c -> List.assq c verdicts)
    in
    (match html_out with
    | Some path ->
        write_file path (Wap_core.Export.result_to_html ?confirm result);
        Wap_obs.Log.info ~fields:[ ("file", path) ] "wrote HTML report"
    | None -> ());
    if json then print_endline (Wap_core.Export.result_to_string ?confirm result)
    else begin
      Printf.printf
        "%d file(s): %d candidate(s), %d vulnerability(ies), %d predicted false positive(s)\n"
        (List.length paths)
        (List.length result.Wap_core.Tool.candidates)
        (List.length result.Wap_core.Tool.reported)
        (List.length result.Wap_core.Tool.predicted_fps);
      List.iter
        (fun (f : Wap_core.Tool.finding) ->
          let c = f.Wap_core.Tool.candidate in
          let dyn =
            match confirm with
            | Some verdict -> " (" ^ Wap_confirm.Confirm.label (verdict c) ^ ")"
            | None -> ""
          in
          Printf.printf "  [%s] %s%s\n"
            (if f.Wap_core.Tool.predicted_fp then "FP " else "VULN")
            (Wap_taint.Trace.summary c) dyn;
          if verbose then begin
            let o = Wap_taint.Trace.primary c in
            List.iter
              (fun (s : Wap_taint.Trace.step) ->
                Printf.printf "        via %s: %s\n"
                  (Wap_php.Loc.to_string s.Wap_taint.Trace.step_loc)
                  s.Wap_taint.Trace.step_desc)
              (Wap_taint.Trace.steps o);
            Printf.printf "        symptoms: %s\n"
              (String.concat ", " f.Wap_core.Tool.symptoms)
          end)
        result.Wap_core.Tool.findings
    end;
    (* corrected source, from the AST the scan analyzed; a file whose
       parse recovered errors is not rewritten, since printing its
       partial AST would drop the code that did not parse *)
    if fix then
      List.iter
        (fun (u : Wap_taint.Analyzer.file_unit) ->
          let path = u.Wap_taint.Analyzer.path in
          match
            List.filter
              (fun (c : Wap_taint.Trace.candidate) ->
                String.equal c.Wap_taint.Trace.file path)
              result.Wap_core.Tool.reported
          with
          | [] -> ()
          | _ when List.mem_assoc path parse_errors ->
              Wap_obs.Log.warn ~fields:[ ("file", path) ]
                "not corrected: its parse recovered errors"
          | here ->
              let fixed, report =
                Wap_fixer.Corrector.correct u.Wap_taint.Analyzer.program here
              in
              let out = path ^ ".fixed.php" in
              write_file out fixed;
              Wap_obs.Log.info
                ~fields:
                  [ ("file", out);
                    ( "fixes",
                      string_of_int
                        (List.length report.Wap_fixer.Corrector.applied) ) ]
                "wrote corrected source")
        outcome.Scan.units;
    if stats then print_scan_stats outcome;
    finish_obs ();
    `Ok ()
  in
  let doc = "Detect (and optionally correct) vulnerabilities in PHP files." in
  Cmd.v (Cmd.info "analyze" ~doc)
    Term.(ret (const run $ files $ fix $ tool_term $ seed_arg $ verbose
               $ confirm $ json $ dataset $ html_out $ jobs_arg
               $ cache_dir_term $ trace_out_arg $ stats_arg $ log_level_arg
               $ log_format_arg))

(* ------------------------------------------------------------------ *)
(* lint                                                                *)

let lint_cmd =
  let files =
    Arg.(value & pos_all file []
         & info [] ~docv:"FILE" ~doc:"PHP files or directories to lint.")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit machine-readable JSON instead of text.")
  in
  let only_rules =
    Arg.(value & opt_all string []
         & info [ "rule" ] ~docv:"ID"
             ~doc:"Run only this rule (repeatable); default: all rules.")
  in
  let list_rules =
    Arg.(value & flag & info [ "list-rules" ] ~doc:"List the available rules and exit.")
  in
  let run files json only_rules list_rules jobs cache_dir trace_out log_level log_format =
    let finish_obs = setup_obs trace_out log_level log_format in
    Fun.protect ~finally:finish_obs @@ fun () ->
    if list_rules then begin
      List.iter
        (fun (r : Wap_lint.Rule.t) ->
          Printf.printf "%-20s %s\n" r.Wap_lint.Rule.id r.Wap_lint.Rule.doc)
        (Wap_lint.Lint.all_rules ());
      `Ok ()
    end
    else if files = [] then `Error (true, "required argument FILE is missing")
    else begin
      let all = Wap_lint.Lint.all_rules () in
      let unknown =
        List.filter
          (fun id ->
            not (List.exists (fun (r : Wap_lint.Rule.t) -> r.Wap_lint.Rule.id = id) all))
          only_rules
      in
      if unknown <> [] then
        `Error
          ( false,
            Printf.sprintf "unknown rule %s (see --list-rules)"
              (String.concat ", " unknown) )
      else begin
      let rules =
        match only_rules with
        | [] -> None
        | ids ->
            Some
              (List.filter
                 (fun (r : Wap_lint.Rule.t) -> List.mem r.Wap_lint.Rule.id ids)
                 all)
      in
      let cache = disk_cache cache_dir in
      (* lint is per-file, so its diagnostics cache honestly keys on the
         file digest plus the active rule set alone *)
      let rule_ids =
        List.sort String.compare
          (List.map
             (fun (r : Wap_lint.Rule.t) -> r.Wap_lint.Rule.id)
             (match rules with Some rs -> rs | None -> all))
      in
      let lint_one path : Wap_lint.Rule.diag list =
        Wap_obs.Trace.with_span ~cat:"lint" "lint_file"
          ~args:[ ("file", path) ]
        @@ fun () ->
        let src = read_file path in
        let compute () =
          let program, _errs =
            Wap_php.Parser.parse_string_tolerant ~file:path src
          in
          Wap_lint.Lint.run ?rules ~file:path program
        in
        match cache with
        | None -> compute ()
        | Some c ->
            let key =
              Wap_engine.Cache.key
                (Session.cache_format_version :: "lint" :: path
                :: Digest.to_hex (Digest.string src) :: rule_ids)
            in
            fst (Wap_engine.Cache.memoize c ~key compute)
      in
      let diags =
        List.concat
          (Wap_engine.Pool.map_list ~jobs lint_one (expand_php_paths files))
      in
      let items =
        List.map
          (fun (d : Wap_lint.Rule.diag) ->
            {
              Wap_report.Diag.file = d.Wap_lint.Rule.loc.Wap_php.Loc.file;
              line = d.Wap_lint.Rule.loc.Wap_php.Loc.line;
              col = d.Wap_lint.Rule.loc.Wap_php.Loc.col;
              severity = Wap_lint.Rule.severity_name d.Wap_lint.Rule.severity;
              rule = d.Wap_lint.Rule.rule;
              message = d.Wap_lint.Rule.message;
            })
          diags
      in
      if json then
        print_endline (Wap_report.Json.to_string (Wap_report.Diag.to_json items))
      else begin
        if items <> [] then print_endline (Wap_report.Diag.render_all items);
        Printf.printf "%s\n" (Wap_report.Diag.summary items)
      end;
      `Ok ()
      end
    end
  in
  let doc = "Run the control-flow lint rules over PHP files." in
  Cmd.v (Cmd.info "lint" ~doc)
    Term.(ret (const run $ files $ json $ only_rules $ list_rules $ jobs_arg
               $ cache_dir_term $ trace_out_arg $ log_level_arg
               $ log_format_arg))

(* ------------------------------------------------------------------ *)
(* weapon-gen                                                          *)

let weapon_gen_cmd =
  let name_arg =
    Arg.(required & opt (some string) None
         & info [ "name" ] ~docv:"NAME" ~doc:"Weapon name; activation flag becomes -NAME.")
  in
  let sinks =
    Arg.(value & opt_all string []
         & info [ "sink" ] ~docv:"FN" ~doc:"Sensitive sink function (repeatable).")
  in
  let sink_methods =
    Arg.(value & opt_all (pair ~sep:':' string string) []
         & info [ "sink-method" ] ~docv:"OBJ:METHOD"
             ~doc:"Sensitive sink method, e.g. wpdb:query (repeatable).")
  in
  let sans =
    Arg.(value & opt_all string []
         & info [ "san" ] ~docv:"FN" ~doc:"Sanitization function (repeatable).")
  in
  let entries =
    Arg.(value & opt_all string []
         & info [ "entry-fn" ] ~docv:"FN" ~doc:"Extra entry-point function (repeatable).")
  in
  let fix_spec =
    Arg.(value & opt string "validate:'\""
         & info [ "fix" ] ~docv:"TEMPLATE"
             ~doc:"Fix template: php:FUNC, sanitize:CHARS (replaced by space), or validate:CHARS.")
  in
  let symptoms =
    Arg.(value & opt_all (pair ~sep:'=' string string) []
         & info [ "symptom" ] ~docv:"FN=STATIC"
             ~doc:"Dynamic symptom: user function FN behaves like static symptom STATIC.")
  in
  let out =
    Arg.(value & opt string "weapons" & info [ "out" ] ~docv:"DIR" ~doc:"Output directory.")
  in
  let run name sinks sink_methods sans entries fix_spec symptoms out =
    let req_fix =
      match String.index_opt fix_spec ':' with
      | Some i -> (
          let kind = String.sub fix_spec 0 i in
          let payload = String.sub fix_spec (i + 1) (String.length fix_spec - i - 1) in
          let chars = List.of_seq (String.to_seq payload) in
          match kind with
          | "php" -> Wap_weapon.Generator.With_php_sanitizer payload
          | "sanitize" ->
              Wap_weapon.Generator.With_user_sanitization
                { malicious = chars; neutralizer = " " }
          | "validate" -> Wap_weapon.Generator.With_user_validation { malicious = chars }
          | k -> failwith ("unknown fix template kind: " ^ k))
      | None -> failwith "fix template must be php:FN, sanitize:CHARS or validate:CHARS"
    in
    let request =
      {
        Wap_weapon.Generator.req_name = name;
        req_vclass = None;
        req_sources = List.map (fun f -> Wap_catalog.Catalog.Src_fn f) entries;
        req_sinks =
          List.map (fun f -> Wap_catalog.Catalog.Sink_fn (f, [])) sinks
          @ List.map (fun (o, m) -> Wap_catalog.Catalog.Sink_method (o, m)) sink_methods;
        req_sanitizers = List.map (fun f -> Wap_catalog.Catalog.San_fn f) sans;
        req_fix;
        req_dynamic_symptoms = symptoms;
      }
    in
    let weapon = Wap_weapon.Generator.generate request in
    if not (Sys.file_exists out) then Sys.mkdir out 0o755;
    Wap_weapon.Store.save ~dir:out weapon;
    Printf.printf "generated %s\nstored under %s/%s/\nactivate with: wap analyze --weapon %s --weapon-dir %s FILE...\n"
      (Wap_weapon.Weapon.describe weapon) out name name out;
    `Ok ()
  in
  let doc = "Generate a weapon (detector + fix + dynamic symptoms) without programming." in
  Cmd.v (Cmd.info "weapon-gen" ~doc)
    Term.(ret (const run $ name_arg $ sinks $ sink_methods $ sans $ entries
               $ fix_spec $ symptoms $ out))

(* ------------------------------------------------------------------ *)
(* corpus-gen                                                          *)

let corpus_gen_cmd =
  let out =
    Arg.(value & opt string "corpus" & info [ "out" ] ~docv:"DIR" ~doc:"Output directory.")
  in
  let plugins =
    Arg.(value & flag & info [ "plugins" ] ~doc:"Also write the 115 WordPress plugins.")
  in
  let projects =
    Arg.(value & opt int 0
         & info [ "projects" ] ~docv:"N"
             ~doc:"Also write $(docv) fleet projects sharing one framework \
                   layer (under $(b,projects/), for $(b,wap fleet)).")
  in
  let run out plugins projects seed =
    let ( / ) = Filename.concat in
    let mkdir d = if not (Sys.file_exists d) then Sys.mkdir d 0o755 in
    let rec mkdir_p d =
      if not (Sys.file_exists d) then begin
        mkdir_p (Filename.dirname d);
        mkdir d
      end
    in
    mkdir_p out;
    let write_pkg dir (pkg : Wap_corpus.Appgen.package) =
      let pdir = dir / (pkg.Wap_corpus.Appgen.pkg_name ^ "-" ^ pkg.Wap_corpus.Appgen.pkg_version) in
      mkdir pdir;
      List.iter
        (fun (f : Wap_corpus.Appgen.file) ->
          let path = pdir / f.Wap_corpus.Appgen.f_name in
          mkdir_p (Filename.dirname path);
          write_file path f.Wap_corpus.Appgen.f_source)
        pkg.Wap_corpus.Appgen.pkg_files
    in
    let apps = Wap_corpus.Corpus.webapps ~seed () in
    mkdir (out / "webapps");
    List.iter (fun (_, pkg) -> write_pkg (out / "webapps") pkg) apps;
    Wap_obs.Log.info "wrote web applications"
      ~fields:
        [ ("count", string_of_int (List.length apps));
          ("dir", Filename.concat out "webapps") ];
    if plugins then begin
      let ps = Wap_corpus.Corpus.plugins ~seed () in
      mkdir (out / "plugins");
      List.iter (fun (_, pkg) -> write_pkg (out / "plugins") pkg) ps;
      Wap_obs.Log.info "wrote plugins"
        ~fields:
          [ ("count", string_of_int (List.length ps));
            ("dir", Filename.concat out "plugins") ]
    end;
    if projects > 0 then begin
      let ps = Wap_corpus.Corpus.generated_projects ~seed ~count:projects () in
      mkdir (out / "projects");
      List.iter (fun (_, pkg) -> write_pkg (out / "projects") pkg) ps;
      Wap_obs.Log.info "wrote fleet projects"
        ~fields:
          [ ("count", string_of_int (List.length ps));
            ("dir", Filename.concat out "projects") ]
    end;
    `Ok ()
  in
  let doc = "Materialize the synthetic evaluation corpus on disk." in
  Cmd.v (Cmd.info "corpus-gen" ~doc)
    Term.(ret (const run $ out $ plugins $ projects $ seed_arg))

(* ------------------------------------------------------------------ *)
(* fleet                                                               *)

let fleet_cmd =
  let roots =
    Arg.(non_empty & pos_all dir []
         & info [] ~docv:"DIR"
             ~doc:"Fleet root: a directory whose subdirectories are the \
                   projects to shard across workers (a directory without \
                   subdirectories is itself a single project).")
  in
  let workers =
    Arg.(value & opt int 2
         & info [ "workers" ] ~docv:"N" ~doc:"Worker processes to spawn.")
  in
  let worker_jobs =
    Arg.(value & opt int 1
         & info [ "worker-jobs" ] ~docv:"N"
             ~doc:"Analysis domains inside each worker (the fleet \
                   parallelizes across processes; keep this low).")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"FILE"
             ~doc:"Write the merged NDJSON report to $(docv) instead of \
                   stdout.")
  in
  let summary =
    Arg.(value & opt (some string) None
         & info [ "summary" ] ~docv:"FILE"
             ~doc:"Also write the fleet summary (throughput, cache traffic, \
                   retries) as JSON to $(docv).")
  in
  let no_summary_store =
    Arg.(value & flag
         & info [ "no-summary-store" ]
             ~doc:"Disable the content-addressed cross-project summary \
                   store (files shared between projects are then \
                   re-summarized per project).  The store lives in the \
                   $(b,--cache-dir), so without one it is off anyway.")
  in
  let quiet =
    Arg.(value & flag
         & info [ "quiet" ]
             ~doc:"Silence the periodic progress/ETA line on stderr.")
  in
  let run roots workers worker_jobs out summary cache_dir no_summary_store
      quiet log_level log_format =
    Wap_obs.Log.set_level log_level;
    Wap_obs.Log.set_format log_format;
    let dirs = Wap_fleet.Coordinator.discover roots in
    let cfg =
      {
        Wap_fleet.Coordinator.fc_workers = workers;
        fc_worker_jobs = worker_jobs;
        fc_cache_dir = cache_dir;
        fc_summary_store = not no_summary_store;
        fc_progress = not quiet;
      }
    in
    let on_result (r : Wap_fleet.Proto.result) =
      if r.Wap_fleet.Proto.res_ok then
        Wap_obs.Log.info "project scanned"
          ~fields:
            [ ("project", r.Wap_fleet.Proto.res_project);
              ("files", string_of_int r.Wap_fleet.Proto.res_files);
              ("reported", string_of_int r.Wap_fleet.Proto.res_reported);
              ( "seconds",
                Printf.sprintf "%.3f" r.Wap_fleet.Proto.res_seconds ) ]
      else
        Wap_obs.Log.error "project failed"
          ~fields:
            [ ("project", r.Wap_fleet.Proto.res_project);
              ("error", r.Wap_fleet.Proto.res_error) ]
    in
    Wap_obs.Log.info "fleet starting"
      ~fields:
        [ ("projects", string_of_int (List.length dirs));
          ("workers", string_of_int workers) ];
    let o = Wap_fleet.Coordinator.run ~on_result cfg ~dirs in
    let merged =
      String.concat ""
        (List.map (fun l -> l ^ "\n") (Wap_fleet.Coordinator.merged_lines o))
    in
    (match out with
    | Some f -> write_file f merged
    | None -> print_string merged);
    let rp = o.Wap_fleet.Coordinator.report in
    (match summary with
    | Some f ->
        write_file f
          (Wap_report.Json.to_string
             (Wap_fleet.Coordinator.report_json rp)
          ^ "\n")
    | None -> ());
    Wap_obs.Log.info "fleet done"
      ~fields:
        [ ("projects", string_of_int rp.Wap_fleet.Coordinator.rp_projects);
          ("files", string_of_int rp.Wap_fleet.Coordinator.rp_files);
          ( "wall",
            Printf.sprintf "%.3fs" rp.Wap_fleet.Coordinator.rp_wall_seconds );
          ( "projects/s",
            Printf.sprintf "%.2f"
              rp.Wap_fleet.Coordinator.rp_projects_per_second );
          ( "dedup_hit_ratio",
            Printf.sprintf "%.2f" rp.Wap_fleet.Coordinator.rp_dedup_hit_ratio
          );
          ("retried", string_of_int rp.Wap_fleet.Coordinator.rp_retried) ];
    match rp.Wap_fleet.Coordinator.rp_failed with
    | [] -> `Ok ()
    | failed ->
        `Error
          ( false,
            Printf.sprintf "%d project(s) failed after retry: %s"
              (List.length failed)
              (String.concat ", " failed) )
  in
  let doc =
    "Shard a directory of projects across worker processes and merge the \
     per-project scan reports deterministically."
  in
  Cmd.v (Cmd.info "fleet" ~doc)
    Term.(ret (const run $ roots $ workers $ worker_jobs $ out $ summary
               $ cache_dir_term $ no_summary_store $ quiet
               $ log_level_arg $ log_format_arg))

(* ------------------------------------------------------------------ *)
(* experiments                                                         *)

let experiments_cmd =
  let quick =
    Arg.(value & flag & info [ "quick" ] ~doc:"Only the vulnerable packages.")
  in
  let run quick seed jobs cache_dir trace_out log_level log_format =
    let finish_obs = setup_obs trace_out log_level log_format in
    Fun.protect ~finally:finish_obs @@ fun () ->
    let module E = Wap_core.Experiments in
    let cache = disk_cache cache_dir in
    let section s =
      print_string s;
      print_newline ()
    in
    section (E.table1 ());
    let dataset = Wap_core.Training.dataset_for ~seed Wap_core.Version.Wape in
    (* each classifier is cross-validated once: Tables II and III, the
       ranking and the attribute ablation share these *)
    let evals = E.evaluate_models ~seed ~dataset () in
    section (E.table2 ~dataset evals);
    section (E.table3 evals);
    section (E.table4 ());
    let webapps = E.run_webapps ~seed ~only_vulnerable:quick ~jobs ?cache () in
    section (E.table5 webapps);
    section (E.table6 webapps);
    let plugins = E.run_plugins ~seed ~only_vulnerable:quick ~jobs ?cache () in
    section (E.table7 plugins);
    section (E.fig4 plugins);
    section (E.fig5 webapps plugins);
    section (E.confirmation_table ~seed ~packages:(if quick then 3 else 6) ());
    section (E.classifier_ranking ~seed ~dataset evals);
    section (E.ablation_attributes ~seed ~dataset evals);
    section (E.ablation_interprocedural ~seed ());
    section (E.ablation_vote ~seed ());
    let before, after = E.escape_experiment ~seed () in
    Printf.printf
      "Extensibility experiment (Section V-A): a vfront-like module reports %d\n\
       candidate(s); after feeding the application's own escape() function as a\n\
       sanitizer, %d remain (the custom-sanitized flows are no longer reported).\n"
      before after;
    `Ok ()
  in
  let doc =
    "Regenerate the paper's evaluation: its tables and figures, the \
     classifier selection behind Table II, three ablations and the §V-A \
     extensibility experiment."
  in
  Cmd.v (Cmd.info "experiments" ~doc)
    Term.(ret (const run $ quick $ seed_arg $ jobs_arg $ cache_dir_term
               $ trace_out_arg $ log_level_arg
               $ log_format_arg))

(* ------------------------------------------------------------------ *)
(* train                                                               *)

let train_cmd =
  let out =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"FILE" ~doc:"Write the data set as CSV.")
  in
  let version =
    Arg.(value & opt version_conv Wap_core.Version.Wape
         & info [ "tool-version" ] ~docv:"V" ~doc:"Data set flavour: wape or v21.")
  in
  let arff =
    Arg.(value & flag & info [ "arff" ] ~doc:"Write WEKA ARFF instead of CSV.")
  in
  let run out version seed arff =
    let d = Wap_core.Training.dataset_for ~seed version in
    Printf.printf "%s data set: %d instances (%d FP / %d RV), %d attributes\n"
      (Wap_core.Version.name version)
      (Wap_mining.Dataset.size d) (Wap_mining.Dataset.positives d)
      (Wap_mining.Dataset.negatives d)
      (Wap_mining.Attributes.paper_count d.Wap_mining.Dataset.mode);
    (match out with
    | Some path ->
        write_file path
          (if arff then Wap_mining.Dataset.to_arff d else Wap_mining.Dataset.to_csv d);
        Wap_obs.Log.info "wrote training data set" ~fields:[ ("file", path) ]
    | None -> ());
    `Ok ()
  in
  let doc = "Build (and optionally export) the predictor training data set." in
  Cmd.v (Cmd.info "train" ~doc) Term.(ret (const run $ out $ version $ seed_arg $ arff))

(* ------------------------------------------------------------------ *)
(* symptoms                                                            *)

let symptoms_cmd =
  let run () =
    print_string (Wap_core.Experiments.table1 ());
    `Ok ()
  in
  let doc = "List the symptom and attribute catalog (Table I)." in
  Cmd.v (Cmd.info "symptoms" ~doc) Term.(ret (const run $ const ()))

(* ------------------------------------------------------------------ *)
(* serve                                                               *)

let serve_cmd =
  let socket =
    Arg.(value & opt (some string) None
         & info [ "socket" ] ~docv:"PATH"
             ~doc:"Listen on a Unix-domain socket at $(docv) instead of stdio.")
  in
  let port =
    Arg.(value & opt (some int) None
         & info [ "port" ] ~docv:"N"
             ~doc:"Listen on localhost TCP port $(docv) instead of stdio.")
  in
  let admin_port =
    Arg.(value & opt (some int) None
         & info [ "admin-port" ] ~docv:"N"
             ~doc:"Serve the admin plane (GET /metrics, /healthz, /readyz, \
                   /status, /trace) on localhost TCP port $(docv), from a \
                   dedicated domain so scrapes never wait on LSP traffic.")
  in
  let admin_socket =
    Arg.(value & opt (some string) None
         & info [ "admin-socket" ] ~docv:"PATH"
             ~doc:"Serve the admin plane on a Unix-domain socket at $(docv).")
  in
  let slow_ms =
    Arg.(value & opt (some float) None
         & info [ "slow-ms" ] ~docv:"MS"
             ~doc:"Log a warning for any request slower than $(docv) \
                   milliseconds.")
  in
  let run make_tool seed jobs socket port admin_port admin_socket slow_ms
      trace_out log_level log_format =
    let finish_obs = setup_obs trace_out log_level log_format in
    match (socket, port, admin_port, admin_socket) with
    | Some _, Some _, _, _ ->
        finish_obs ();
        `Error (false, "--socket and --port are mutually exclusive")
    | _, _, Some _, Some _ ->
        finish_obs ();
        `Error (false, "--admin-port and --admin-socket are mutually exclusive")
    | _ ->
        (* a peer (LSP client or admin scraper) dropping its connection
           mid-write must surface as EPIPE, not kill the daemon *)
        (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
         with Invalid_argument _ -> ());
        let admin_on = admin_port <> None || admin_socket <> None in
        if admin_on then begin
          (* daemon logs carry wall-clock timestamps so they correlate
             with scrapes and traces *)
          Wap_obs.Log.set_timestamps true;
          (* without a batch --trace-out, trace into the bounded ring
             GET /trace drains: 4,096 events per domain *)
          if Wap_obs.Trace.global () = None then
            Wap_obs.Trace.set_global
              (Some (Wap_obs.Trace.create ~ring_capacity:4096 ()))
        end;
        let server = Wap_serve.Server.create ~jobs ?slow_ms (make_tool None seed) in
        let admin_cleanup =
          if not admin_on then fun () -> ()
          else begin
            let src = Wap_serve.Server.admin_source server in
            match (admin_port, admin_socket) with
            | Some p, None ->
                let sock = Wap_serve.Admin.listen_tcp ~port:p in
                Wap_serve.Admin.spawn src sock;
                Wap_obs.Log.info
                  ~fields:[ ("admin_port", string_of_int p) ]
                  "admin plane listening";
                fun () -> (try Unix.close sock with _ -> ())
            | None, Some path ->
                let sock = Wap_serve.Admin.listen_unix ~path in
                Wap_serve.Admin.spawn src sock;
                Wap_obs.Log.info
                  ~fields:[ ("admin_socket", path) ]
                  "admin plane listening";
                fun () ->
                  (try Unix.close sock with _ -> ());
                  (try Unix.unlink path with _ -> ())
            | _ -> fun () -> ()
          end
        in
        (match (socket, port) with
        | Some path, None -> Wap_serve.Server.run_unix_socket server ~path
        | None, Some port -> Wap_serve.Server.run_tcp server ~port
        | _ -> Wap_serve.Server.run_stdio server);
        admin_cleanup ();
        finish_obs ();
        `Ok ()
  in
  let doc =
    "Run the LSP diagnostics daemon: analyzes the documents an editor opens \
     with the session engine, publishes findings as diagnostics after every \
     change (re-analyzing only the edited file), and offers the fixer's \
     sanitization/validation templates as quick fixes.  Speaks the Language \
     Server Protocol over stdio by default (logs go to stderr); --socket or \
     --port select a socket transport.  --admin-port/--admin-socket add an \
     HTTP admin plane (Prometheus /metrics, /healthz, /readyz, /status and a \
     draining Chrome-trace /trace) served from a dedicated domain; wap top \
     renders it as a live terminal view."
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(ret (const run $ tool_term $ seed_arg $ jobs_arg $ socket $ port $ admin_port
               $ admin_socket $ slow_ms $ trace_out_arg
               $ log_level_arg $ log_format_arg))

(* ------------------------------------------------------------------ *)
(* top                                                                 *)

(* A one-shot HTTP GET against the daemon's admin plane (loopback TCP
   or Unix socket).  Hand-rolled on purpose: the admin server speaks
   Connection: close, so "read to EOF after the blank line" is the
   whole client. *)
let admin_get ~(connect : unit -> Unix.file_descr) (path : string) :
    (int * string, string) result =
  match connect () with
  | exception e -> Error (Printexc.to_string e)
  | fd -> (
      let ic = Unix.in_channel_of_descr fd in
      let oc = Unix.out_channel_of_descr fd in
      let finally () =
        (try close_out_noerr oc with _ -> ());
        (try close_in_noerr ic with _ -> ());
        try Unix.close fd with _ -> ()
      in
      Fun.protect ~finally @@ fun () ->
      Printf.fprintf oc "GET %s HTTP/1.1\r\nHost: wap\r\nConnection: close\r\n\r\n"
        path;
      flush oc;
      match input_line ic with
      | exception End_of_file -> Error "empty response"
      | status_line -> (
          match String.split_on_char ' ' (String.trim status_line) with
          | _http :: code :: _ -> (
              match int_of_string_opt code with
              | None -> Error ("malformed status line: " ^ status_line)
              | Some code ->
                  (* skip headers *)
                  let rec headers () =
                    match input_line ic with
                    | exception End_of_file -> ()
                    | "" | "\r" -> ()
                    | _ -> headers ()
                  in
                  headers ();
                  let body = Buffer.create 4096 in
                  (try
                     while true do
                       Buffer.add_channel body ic 1
                     done
                   with End_of_file -> ());
                  Ok (code, Buffer.contents body))
          | _ -> Error ("malformed status line: " ^ status_line)))

let top_cmd =
  let port =
    Arg.(value & opt (some int) None
         & info [ "port" ] ~docv:"N"
             ~doc:"Admin port of the daemon (its --admin-port).")
  in
  let socket =
    Arg.(value & opt (some string) None
         & info [ "socket" ] ~docv:"PATH"
             ~doc:"Admin Unix socket of the daemon (its --admin-socket).")
  in
  let interval =
    Arg.(value & opt float 2.0
         & info [ "interval" ] ~docv:"SECONDS"
             ~doc:"Seconds between polls.")
  in
  let once =
    Arg.(value & flag
         & info [ "once" ]
             ~doc:"Poll once, print the view without clearing the screen, \
                   and exit (what the smoke test runs).")
  in
  let run port socket interval once =
    let connect =
      match (port, socket) with
      | Some n, None ->
          Ok
            (fun () ->
              let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
              Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, n));
              fd)
      | None, Some path ->
          Ok
            (fun () ->
              let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
              Unix.connect fd (Unix.ADDR_UNIX path);
              fd)
      | _ -> Error "exactly one of --port or --socket is required"
    in
    match connect with
    | Error e -> `Error (false, e)
    | Ok connect ->
        let module Tbl = Wap_report.Table in
        let module Json = Wap_report.Json in
        (* previous poll's (time, request total), for the rate *)
        let prev : (float * float) option ref = ref None in
        let render () =
          match admin_get ~connect "/status" with
          | Error e -> Error e
          | Ok (code, _) when code <> 200 ->
              Error (Printf.sprintf "admin plane answered %d" code)
          | Ok (_, body) -> (
              match Json.of_string body with
              | Error e -> Error ("bad /status JSON: " ^ e)
              | Ok status ->
                  let now = Unix.gettimeofday () in
                  let num j k =
                    match Json.member k j with
                    | Some (Json.Int n) -> Some (float_of_int n)
                    | Some (Json.Float f) -> Some f
                    | _ -> None
                  in
                  let show fmt j k =
                    match num j k with
                    | Some v -> Printf.sprintf fmt v
                    | None -> "n/a"
                  in
                  let requests = num status "requests" in
                  let rate =
                    match (!prev, requests) with
                    | Some (t0, n0), Some n when now > t0 ->
                        Printf.sprintf "%.1f" ((n -. n0) /. (now -. t0))
                    | _ -> "n/a"
                  in
                  Option.iter (fun n -> prev := Some (now, n)) requests;
                  let field = show "%.0f" status in
                  let overview =
                    Tbl.make ~title:"wap serve"
                      ~header:[ "fact"; "value" ]
                      [
                        [ "uptime"; show "%.0fs" status "uptime_seconds" ];
                        [ "requests/s"; rate ];
                        [ "requests"; field "requests" ];
                        [ "errors"; field "errors" ];
                        [ "open documents"; field "open_documents" ];
                        [ "session files"; field "session_files" ];
                        [ "candidates"; field "session_candidates" ];
                        [ "generation"; field "generation" ];
                        [ "last edit reanalyzed"; field "last_reanalyzed" ];
                        [ "rss bytes"; field "rss_bytes" ];
                      ]
                  in
                  let lat_rows =
                    match Json.member "methods" status with
                    | Some (Json.Obj methods) ->
                        List.map
                          (fun (meth, m) ->
                            [
                              meth;
                              show "%.0f" m "requests";
                              show "%.3f" m "p50_ms";
                              show "%.3f" m "p95_ms";
                            ])
                          methods
                    | _ -> []
                  in
                  let latency =
                    Tbl.make ~title:"request latency (ms)"
                      ~header:[ "method"; "count"; "p50"; "p95" ]
                      lat_rows
                  in
                  Ok (Tbl.render overview ^ "\n" ^ Tbl.render latency))
        in
        let rec loop () =
          match render () with
          | Error e -> `Error (false, e)
          | Ok view ->
              if once then begin
                print_string view;
                `Ok ()
              end
              else begin
                (* clear + home, then the fresh frame *)
                print_string "\027[2J\027[H";
                print_string view;
                flush stdout;
                Unix.sleepf interval;
                loop ()
              end
        in
        loop ()
  in
  let doc =
    "Live terminal view of a running wap serve daemon: polls its admin \
     plane's /status and renders requests/s, per-method p50/p95 latency, \
     session counts and last-edit reanalysis counts.  Point it at \
     the daemon's --admin-port or --admin-socket; --once prints a single \
     frame for scripting."
  in
  Cmd.v (Cmd.info "top" ~doc)
    Term.(ret (const run $ port $ socket $ interval $ once))

(* ------------------------------------------------------------------ *)
(* fuzz                                                                *)

let fuzz_cmd =
  let iterations =
    Arg.(value & opt int 500
         & info [ "iterations" ] ~docv:"N"
             ~doc:"Number of random programs to generate and check.")
  in
  let fuzz_seed =
    Arg.(value & opt int 2016
         & info [ "seed" ] ~docv:"N"
             ~doc:"Generator seed; one (seed, iteration) pair always \
                   regenerates the same program.")
  in
  let oracle =
    Arg.(value & opt_all string []
         & info [ "oracle" ] ~docv:"NAME"
             ~doc:
               ("Oracle to check (repeatable; default: all of "
               ^ String.concat ", " Wap_fuzz.Oracle.names
               ^ ")."))
  in
  let out_seed_dir =
    Arg.(value & opt string "fuzz-seeds"
         & info [ "out-seed-dir" ] ~docv:"DIR"
             ~doc:"Directory where shrunk reproducers of violations are \
                   written.")
  in
  let max_size =
    Arg.(value & opt int 10
         & info [ "max-size" ] ~docv:"N"
             ~doc:"Top-level statement bound per generated program.")
  in
  let max_failures =
    Arg.(value & opt int 5
         & info [ "max-failures" ] ~docv:"N"
             ~doc:"Stop fuzzing after this many violations.")
  in
  let run iterations seed oracle_names out_seed_dir max_size max_failures
      trace_out log_level log_format =
    let finish_obs = setup_obs trace_out log_level log_format in
    let unknown =
      List.filter (fun n -> Wap_fuzz.Oracle.by_name n = None) oracle_names
    in
    if unknown <> [] then begin
      finish_obs ();
      `Error
        ( false,
          Printf.sprintf "unknown oracle %s (known: %s)"
            (String.concat ", " unknown)
            (String.concat ", " Wap_fuzz.Oracle.names) )
    end
    else begin
      let oracles =
        match oracle_names with
        | [] -> Wap_fuzz.Oracle.all
        | names -> List.filter_map Wap_fuzz.Oracle.by_name names
      in
      let config =
        {
          Wap_fuzz.Driver.seed;
          iterations;
          max_stmts = max_size;
          oracles;
          out_seed_dir = Some out_seed_dir;
          max_failures;
          shrink_budget = 400;
        }
      in
      let on_case done_ total =
        if done_ mod 250 = 0 || done_ = total then
          Wap_obs.Log.info "fuzz progress"
            ~fields:
              [ ("cases", string_of_int done_); ("of", string_of_int total) ]
      in
      let report = Wap_fuzz.Driver.run ~on_case config in
      finish_obs ();
      Printf.printf "fuzz: %d cases, seed %d, oracles [%s]: %d violation(s)\n"
        report.Wap_fuzz.Driver.cases seed
        (String.concat ", "
           (List.map (fun (o : Wap_fuzz.Oracle.t) -> o.name) oracles))
        (List.length report.Wap_fuzz.Driver.failures);
      if report.Wap_fuzz.Driver.failures = [] then `Ok ()
      else begin
        List.iter
          (fun (f : Wap_fuzz.Driver.failure) ->
            Printf.printf "\n%s (iteration %d): %s\n" f.fl_oracle
              f.fl_iteration f.fl_message;
            (match f.fl_seed_file with
            | Some path -> Printf.printf "reproducer written to %s\n" path
            | None -> ());
            print_string "--- shrunk reproducer ---\n";
            print_string f.fl_source;
            if String.length f.fl_source > 0
               && f.fl_source.[String.length f.fl_source - 1] <> '\n'
            then print_newline ())
          report.Wap_fuzz.Driver.failures;
        exit 1
      end
    end
  in
  let doc =
    "Fuzz the pipeline with random PHP programs against the differential \
     oracles listed under $(b,--oracle)."
  in
  Cmd.v (Cmd.info "fuzz" ~doc)
    Term.(ret (const run $ iterations $ fuzz_seed $ oracle $ out_seed_dir
               $ max_size $ max_failures $ trace_out_arg $ log_level_arg
               $ log_format_arg))

let main =
  let doc = "modular, extensible static analysis for PHP web applications" in
  let info = Cmd.info "wap" ~version:"3.0-repro" ~doc in
  Cmd.group info
    [ analyze_cmd; lint_cmd; weapon_gen_cmd; corpus_gen_cmd; fleet_cmd;
      experiments_cmd; train_cmd; symptoms_cmd; fuzz_cmd; serve_cmd;
      top_cmd ]

(* hidden fleet-worker mode: when spawned by the coordinator as
   [wap __fleet-worker], run the worker loop and exit before cmdliner
   ever sees the argv *)
let () = Wap_fleet.Worker.maybe_main ()
let () = exit (Cmd.eval main)

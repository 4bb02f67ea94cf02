(** The parallel scan engine: pool semantics, determinism of the merged
    output across worker counts, and the digest-keyed incremental
    cache. *)

module T = Wap_core.Tool
module Scan = T.Scan
module Pool = Wap_engine.Pool
module Cache = Wap_engine.Cache
module Session = Wap_engine.Session

let seed = 2016
let wape = lazy (T.create ~seed Wap_core.Version.Wape)

let acp =
  lazy
    (Wap_corpus.Appgen.of_webapp_profile ~seed
       (List.nth Wap_corpus.Profiles.vulnerable_webapps 0))

let acp_files () =
  let pkg = Lazy.force acp in
  List.map
    (fun (f : Wap_corpus.Appgen.file) ->
      (f.Wap_corpus.Appgen.f_name, f.Wap_corpus.Appgen.f_source))
    pkg.Wap_corpus.Appgen.pkg_files

(* ------------------------------------------------------------------ *)
(* Pool.                                                               *)

let test_pool_order () =
  let xs = Array.init 100 Fun.id in
  List.iter
    (fun jobs ->
      let ys = Pool.map ~jobs (fun i -> i * i) xs in
      Alcotest.(check (array int))
        (Printf.sprintf "squares in input order at jobs=%d" jobs)
        (Array.init 100 (fun i -> i * i))
        ys)
    [ 1; 2; 4; 8 ]

let test_pool_deterministic_failure () =
  (* indices 13, 37, 61, 85 fail; the lowest one must escape whatever
     the scheduling *)
  let xs = Array.init 100 Fun.id in
  let f i = if i mod 24 = 13 then failwith (string_of_int i) else i in
  for _ = 1 to 5 do
    List.iter
      (fun jobs ->
        match Pool.map ~jobs f xs with
        | _ -> Alcotest.fail "expected an exception"
        | exception Failure msg ->
            Alcotest.(check string)
              (Printf.sprintf "lowest failing index at jobs=%d" jobs)
              "13" msg)
      [ 1; 2; 4 ]
  done

let test_config_default_jobs () =
  let original = Sys.getenv_opt "WAP_JOBS" in
  Unix.putenv "WAP_JOBS" "3";
  Alcotest.(check int) "WAP_JOBS honoured" 3 (Wap_engine.Config.default_jobs ());
  Alcotest.(check int) "flag beats env" 5 (Wap_engine.Config.jobs (Some 5));
  Unix.putenv "WAP_JOBS" "bogus";
  Alcotest.(check bool) "bogus falls back to >= 1" true
    (Wap_engine.Config.default_jobs () >= 1);
  Unix.putenv "WAP_JOBS" (Option.value original ~default:"");
  Alcotest.(check bool) "restored >= 1" true
    (Wap_engine.Config.default_jobs () >= 1)

let test_pool_map_list_empty () =
  Alcotest.(check (list int)) "empty in, empty out" []
    (Pool.map_list ~jobs:4 (fun x -> x) [])

(* The first [Pool.map] of a process is where its worker domains first
   touch process-wide handles such as the engine's metrics, so only
   fresh processes show a race there (a lazy forced by two domains at
   once raises [CamlinternalLazy.Undefined]).  The binary is built as a
   dependency of this suite. *)
let test_fresh_processes_parallel () =
  let wap = "../bin/wap_cli.exe" in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "wap_engine_fresh_%d" (Unix.getpid ()))
  in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  List.iter
    (fun (name, src) ->
      let flat = String.map (function '/' -> '_' | c -> c) name in
      Out_channel.with_open_bin (Filename.concat dir flat) (fun oc ->
          output_string oc src))
    (acp_files ());
  (* the children must not inherit WAP_TRACE_OUT or WAP_JOBS *)
  let env =
    Unix.environment () |> Array.to_list
    |> List.filter (fun kv -> not (String.starts_with ~prefix:"WAP_" kv))
    |> Array.of_list
  in
  let err = Filename.concat dir "stderr" in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
  @@ fun () ->
  for run = 1 to 20 do
    let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
    let errfd = Unix.openfile err [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
    let pid =
      Unix.create_process_env wap
        [| wap; "analyze"; "--jobs"; "4"; "--no-cache"; dir |]
        env Unix.stdin null errfd
    in
    Unix.close null;
    Unix.close errfd;
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 -> ()
    | _ ->
        Alcotest.failf "run %d of wap analyze --jobs 4 failed: %s" run
          (In_channel.with_open_bin err In_channel.input_all)
  done

(* ------------------------------------------------------------------ *)
(* Determinism across worker counts.                                   *)

let zero_timings (r : T.package_result) =
  {
    r with
    T.analysis_seconds = 0.0;
    analysis_cpu_seconds = 0.0;
    phase_seconds = List.map (fun (k, _) -> (k, 0.0)) r.T.phase_seconds;
  }

let test_scan_deterministic () =
  let tool = Lazy.force wape in
  let files = acp_files () in
  let export jobs =
    let o = Scan.run tool (Scan.request ~jobs files) in
    Wap_core.Export.result_to_string (zero_timings o.Scan.result)
  in
  let j1 = export 1 in
  Alcotest.(check bool) "non-trivial corpus" true (String.length j1 > 1000);
  Alcotest.(check string) "jobs=2 byte-identical to jobs=1" j1 (export 2);
  Alcotest.(check string) "jobs=4 byte-identical to jobs=1" j1 (export 4)

let test_fused_equals_per_spec () =
  (* the fused multi-spec pass equals the analyzer reference — one
     single-spec [Analyzer.analyze_project] run per spec over the same
     parsed units, merged in the engine's order — at any worker count *)
  let specs = (Lazy.force wape).T.specs in
  let render =
    List.map (fun (i, c) ->
        Printf.sprintf "%d %s" i (Wap_taint.Trace.show_candidate c))
  in
  List.iter
    (fun jobs ->
      let s =
        Session.open_project (Session.request ~jobs ~specs (acp_files ()))
      in
      let units = (Session.export s).Session.units in
      let reference =
        Session.merge
          (List.concat
             (List.mapi
                (fun i spec ->
                  List.map
                    (fun c -> (i, c))
                    (Wap_taint.Analyzer.analyze_project ~spec units))
                specs))
      in
      Alcotest.(check bool) "non-trivial corpus" true
        (List.length reference > 10);
      Alcotest.(check (list string))
        (Printf.sprintf "jobs=%d fused = per-spec reference" jobs)
        (render reference)
        (render (Session.all_diagnostics s)))
    [ 1; 4 ]

let test_engine_merge_order () =
  (* the raw (pre-dedup) engine output is also order-stable *)
  let tool = Lazy.force wape in
  let run jobs =
    let o =
      Session.run (Session.request ~jobs ~specs:tool.T.specs (acp_files ()))
    in
    List.map Wap_taint.Trace.summary o.Session.candidates
  in
  Alcotest.(check (list string)) "merge order jobs=4 = jobs=1" (run 1) (run 4)

let test_scan_matches_package_request () =
  (* a package request and a plain file-list request over the same
     sources route through the same engine: identical findings (the
     exports differ only in the package header the former carries) *)
  let tool = Lazy.force wape in
  let files = acp_files () in
  let via_files = Scan.run tool (Scan.request ~jobs:2 files) in
  let via_pkg =
    (Scan.run tool (Scan.request_of_package (Lazy.force acp))).Scan.result
  in
  Alcotest.(check int) "no recovered errors" 0
    (List.length via_files.Scan.parse_errors);
  Alcotest.(check (list string)) "file and package requests agree"
    (List.map Wap_taint.Trace.summary via_pkg.T.candidates)
    (List.map Wap_taint.Trace.summary via_files.Scan.result.T.candidates);
  Alcotest.(check int) "reported agree"
    (List.length via_pkg.T.reported)
    (List.length via_files.Scan.result.T.reported)

(* ------------------------------------------------------------------ *)
(* Cache.                                                              *)

let test_cache_memoize () =
  let c = Cache.create () in
  let calls = ref 0 in
  let compute () = incr calls; 42 in
  let v1, hit1 = Cache.memoize c ~key:(Cache.key [ "k" ]) compute in
  let v2, hit2 = Cache.memoize c ~key:(Cache.key [ "k" ]) compute in
  Alcotest.(check (pair int bool)) "first is a miss" (42, false) (v1, hit1);
  Alcotest.(check (pair int bool)) "second is a hit" (42, true) (v2, hit2);
  Alcotest.(check int) "computed once" 1 !calls;
  Alcotest.(check int) "hits counted" 1 (Cache.hits c);
  Alcotest.(check int) "misses counted" 1 (Cache.misses c)

let test_cache_rescan_hits () =
  let tool = Lazy.force wape in
  let files = acp_files () in
  let nfiles = List.length files in
  (* one parse entry per file plus one analysis entry for the project *)
  let cache = Cache.create () in
  let o1 = Scan.run tool (Scan.request ~jobs:2 ~cache files) in
  Alcotest.(check int) "cold scan misses everything" (nfiles + 1)
    o1.Scan.cache_misses;
  Alcotest.(check int) "cold scan hits nothing" 0 o1.Scan.cache_hits;
  let o2 = Scan.run tool (Scan.request ~jobs:2 ~cache files) in
  Alcotest.(check int) "warm rescan hits everything" (nfiles + 1)
    o2.Scan.cache_hits;
  Alcotest.(check int) "warm rescan misses nothing" 0 o2.Scan.cache_misses;
  Alcotest.(check string) "cached result identical"
    (Wap_core.Export.result_to_string (zero_timings o1.Scan.result))
    (Wap_core.Export.result_to_string (zero_timings o2.Scan.result))

(* One request over four generated packages: the profile list repeats
   package names, so the merged file list repeats paths with different
   contents.  The parse keys and the analysis key must carry each
   file's source digest, not just its path, or the warm scan hands the
   second file of a repeated path the first one's entry. *)
let test_cache_repeated_paths () =
  let tool = Lazy.force wape in
  let files =
    List.concat_map
      (fun profile ->
        let pkg = Wap_corpus.Appgen.of_webapp_profile ~seed profile in
        List.map
          (fun (f : Wap_corpus.Appgen.file) ->
            ( Filename.concat pkg.Wap_corpus.Appgen.pkg_name
                f.Wap_corpus.Appgen.f_name,
              f.Wap_corpus.Appgen.f_source ))
          pkg.Wap_corpus.Appgen.pkg_files)
      (List.filteri (fun i _ -> i < 4) Wap_corpus.Profiles.vulnerable_webapps)
  in
  let paths = List.map fst files in
  Alcotest.(check bool) "the merged corpus really repeats paths" true
    (List.length (List.sort_uniq String.compare paths) < List.length paths);
  let export o =
    Wap_core.Export.result_to_string (zero_timings o.Scan.result)
  in
  let uncached = export (Scan.run tool (Scan.request ~jobs:2 files)) in
  let cache = Cache.create () in
  Alcotest.(check string) "cold cached scan = uncached scan" uncached
    (export (Scan.run tool (Scan.request ~jobs:2 ~cache files)));
  let warm = Scan.run tool (Scan.request ~jobs:2 ~cache files) in
  Alcotest.(check int) "warm scan misses nothing" 0 warm.Scan.cache_misses;
  Alcotest.(check string) "warm cached scan = uncached scan" uncached
    (export warm)

(* Pass 1 registers summaries in project order and the last declaration
   of a name wins, so reordering the files can change the verdicts: the
   analysis entry must be keyed in file order, or a cache warmed by one
   order answers for another. *)
let test_cache_file_order () =
  let tool = Lazy.force wape in
  let a = ("a.php", "<?php\nfunction f($x) { return htmlspecialchars($x); }\n")
  and b = ("b.php", "<?php\nfunction f($x) { return $x; }\n")
  and c = ("c.php", "<?php\necho f($_GET['x']);\n") in
  let export o =
    Wap_core.Export.result_to_string (zero_timings o.Scan.result)
  in
  let findings o = List.length o.Scan.result.T.candidates in
  let uncached files = Scan.run tool (Scan.request ~jobs:2 files) in
  Alcotest.(check int) "a b c: b's f wins, one finding" 1
    (findings (uncached [ a; b; c ]));
  Alcotest.(check int) "b a c: a's sanitizing f wins, no finding" 0
    (findings (uncached [ b; a; c ]));
  let cache = Cache.create () in
  ignore (Scan.run tool (Scan.request ~jobs:2 ~cache [ a; b; c ]));
  let reordered = Scan.run tool (Scan.request ~jobs:2 ~cache [ b; a; c ]) in
  Alcotest.(check string) "a cache warmed by a b c answers b a c as uncached"
    (export (uncached [ b; a; c ]))
    (export reordered);
  Alcotest.(check int) "every parse hits, the analysis misses" 3
    reordered.Scan.cache_hits

let test_cache_source_edit_invalidates () =
  let tool = Lazy.force wape in
  let files = acp_files () in
  let nfiles = List.length files in
  let cache = Cache.create () in
  let _ = Scan.run tool (Scan.request ~jobs:2 ~cache files) in
  (* editing one file re-parses just that file but re-analyzes the whole
     project (summaries and includes are cross-file, so the one analysis
     entry is keyed by every file) *)
  let edited =
    match files with
    | (path, src) :: rest -> (path, src ^ "\n") :: rest
    | [] -> assert false
  in
  let o = Scan.run tool (Scan.request ~jobs:2 ~cache edited) in
  Alcotest.(check int) "unchanged files still hit" (nfiles - 1) o.Scan.cache_hits;
  Alcotest.(check int) "edited parse + the analysis entry recomputed" 2
    o.Scan.cache_misses

let test_cache_spec_set_invalidates () =
  let tool = Lazy.force wape in
  let files = acp_files () in
  let nfiles = List.length files in
  let cache = Cache.create () in
  let _ = Scan.run tool (Scan.request ~jobs:2 ~cache files) in
  (* equipping a weapon changes the spec-set fingerprint: parse entries
     survive, the analysis entry is invalid *)
  let armed =
    T.create ~seed ~weapons:[ Wap_weapon.Generator.wpsqli () ]
      Wap_core.Version.Wape
  in
  Alcotest.(check bool) "fingerprints differ" false
    (String.equal (T.Scan.fingerprint tool) (T.Scan.fingerprint armed));
  let o = Scan.run armed (Scan.request ~jobs:2 ~cache files) in
  Alcotest.(check int) "parses reused across tools" nfiles o.Scan.cache_hits;
  Alcotest.(check int) "the project re-analyzed" 1 o.Scan.cache_misses

let test_cache_weapon_added_mid_cache () =
  (* regression: a weapon equipped after the cache is warm must change
     the scan result exactly as it would with no cache at all *)
  let tool = Lazy.force wape in
  let files = acp_files () in
  let cache = Cache.create () in
  let _ = Scan.run tool (Scan.request ~jobs:2 ~cache files) in
  let armed =
    T.create ~seed ~weapons:[ Wap_weapon.Generator.wpsqli () ]
      Wap_core.Version.Wape
  in
  let via_warm_cache =
    Scan.run armed (Scan.request ~jobs:2 ~cache files)
  in
  let via_no_cache = Scan.run armed (Scan.request ~jobs:2 files) in
  Alcotest.(check string) "warm cache does not mask the new weapon"
    (Wap_core.Export.result_to_string (zero_timings via_no_cache.Scan.result))
    (Wap_core.Export.result_to_string (zero_timings via_warm_cache.Scan.result))

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let test_cache_disk_persistence () =
  let tool = Lazy.force wape in
  let files = acp_files () in
  let nfiles = List.length files in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "wap-cache-test-%d" (Unix.getpid ()))
  in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir)
    (fun () ->
      let c1 = Cache.create ~dir () in
      let o1 = Scan.run tool (Scan.request ~jobs:2 ~cache:c1 files) in
      Alcotest.(check int) "first process misses" (nfiles + 1)
        o1.Scan.cache_misses;
      Alcotest.(check int) "one entry file per parse plus one analysis entry"
        (nfiles + 1)
        (Array.length (Sys.readdir dir));
      (* a fresh Cache.t on the same directory simulates a new process *)
      let c2 = Cache.create ~dir () in
      let o2 = Scan.run tool (Scan.request ~jobs:2 ~cache:c2 files) in
      Alcotest.(check int) "second process hits from disk" (nfiles + 1)
        o2.Scan.cache_hits;
      Alcotest.(check string) "persisted result identical"
        (Wap_core.Export.result_to_string (zero_timings o1.Scan.result))
        (Wap_core.Export.result_to_string (zero_timings o2.Scan.result)))

(* ------------------------------------------------------------------ *)
(* Progress and timings.                                               *)

module Log = Wap_obs.Log
module J = Wap_report.Json

(* Per-file progress is the engine's debug log: one "parsed" and one
   "analyzed" line per file, with parse workers running. *)
let test_progress_and_timings () =
  let tool = Lazy.force wape in
  let files = acp_files () in
  let lines = ref [] in
  let level = Log.level () and format = Log.format () in
  Log.set_level Log.Debug;
  Log.set_format Log.Json;
  Log.set_writer (fun l -> lines := l :: !lines);
  let o =
    Fun.protect
      ~finally:(fun () ->
        Log.reset_writer ();
        Log.set_level level;
        Log.set_format format)
      (fun () -> Scan.run tool (Scan.request ~jobs:2 files))
  in
  let files_logged msg =
    List.sort compare
      (List.filter_map
         (fun l ->
           match J.of_string (String.trim l) with
           | Ok doc when J.member "msg" doc = Some (J.Str msg) -> (
               match J.member "file" doc with Some (J.Str f) -> Some f | _ -> None)
           | _ -> None)
         !lines)
  in
  let paths = List.sort compare (List.map fst files) in
  Alcotest.(check (list string)) "one parsed line per file" paths
    (files_logged "parsed");
  Alcotest.(check (list string)) "one analyzed line per file" paths
    (files_logged "analyzed");
  Alcotest.(check int) "one report per spec" (List.length tool.T.specs)
    (List.length o.Scan.spec_reports);
  Alcotest.(check bool) "wall clock recorded" true
    (o.Scan.result.T.analysis_seconds > 0.0);
  Alcotest.(check bool) "cpu clock recorded" true
    (o.Scan.result.T.analysis_cpu_seconds > 0.0)

(* The four packages [bench/main.ml] merges into one application: a
   scan long enough (1,220 files) that a few ms of descheduling
   under a parallel [dune runtest] cannot move the phase share past
   the bound, as it could on one small package. *)
let merged_files () =
  List.concat_map
    (fun profile ->
      let pkg = Wap_corpus.Appgen.of_webapp_profile ~seed profile in
      List.map
        (fun (f : Wap_corpus.Appgen.file) ->
          ( Filename.concat pkg.Wap_corpus.Appgen.pkg_name
              f.Wap_corpus.Appgen.f_name,
            f.Wap_corpus.Appgen.f_source ))
        pkg.Wap_corpus.Appgen.pkg_files)
    (List.filteri (fun i _ -> i < 4) Wap_corpus.Profiles.vulnerable_webapps)

let test_phase_breakdown () =
  let tool = Lazy.force wape in
  let o = Scan.run tool (Scan.request ~jobs:2 (merged_files ())) in
  let phases = o.Scan.result.T.phase_seconds in
  Alcotest.(check (list string)) "phases in pipeline order"
    [ "parse"; "digest"; "analyze"; "merge"; "predict" ]
    (List.map fst phases);
  Alcotest.(check (float 0.)) "without a cache nothing is digested" 0.
    (List.assoc "digest" phases);
  List.iter
    (fun (k, s) ->
      Alcotest.(check bool) (k ^ " is non-negative") true (s >= 0.0))
    phases;
  let accounted = List.fold_left (fun acc (_, s) -> acc +. s) 0.0 phases in
  let total = o.Scan.result.T.analysis_seconds in
  (* acceptance criterion is 10%; allow 25% here to keep CI unflaky on
     loaded shared runners *)
  Alcotest.(check bool)
    (Printf.sprintf "phases (%.4fs) account for most of the wall clock (%.4fs)"
       accounted total)
    true
    (accounted <= total && accounted >= 0.75 *. total)

(* ------------------------------------------------------------------ *)
(* Optional tracing of the whole suite: WAP_TRACE_OUT=FILE installs a
   global tracer before any test runs and writes a Chrome trace when the
   process exits.  CI uses this to archive a trace artifact; it also
   exercises the "tracing changes no scan result" guarantee on every
   test above.                                                          *)

let () =
  match Sys.getenv_opt "WAP_TRACE_OUT" with
  | None | Some "" -> ()
  | Some path ->
      let tracer = Wap_obs.Trace.create () in
      Wap_obs.Trace.set_global (Some tracer);
      at_exit (fun () ->
          Wap_obs.Trace.set_global None;
          Wap_obs.Trace.write tracer ~file:path)

let () =
  Alcotest.run "wap_engine"
    [
      ( "pool",
        [
          Alcotest.test_case "order preserved" `Quick test_pool_order;
          Alcotest.test_case "deterministic failure" `Quick
            test_pool_deterministic_failure;
          Alcotest.test_case "WAP_JOBS default" `Quick test_config_default_jobs;
          Alcotest.test_case "empty map_list" `Quick test_pool_map_list_empty;
          Alcotest.test_case "20 fresh wap processes at jobs=4" `Slow
            test_fresh_processes_parallel;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "export byte-identical for jobs 1/2/4" `Slow
            test_scan_deterministic;
          Alcotest.test_case "fused = per-spec, jobs 1/4" `Slow
            test_fused_equals_per_spec;
          Alcotest.test_case "engine merge order stable" `Slow
            test_engine_merge_order;
          Alcotest.test_case "package request routes through Scan" `Slow
            test_scan_matches_package_request;
        ] );
      ( "cache",
        [
          Alcotest.test_case "memoize" `Quick test_cache_memoize;
          Alcotest.test_case "warm rescan hits everything (fused)" `Slow
            test_cache_rescan_hits;
          Alcotest.test_case "merged packages with repeated paths" `Slow
            test_cache_repeated_paths;
          Alcotest.test_case "reordered files miss the analysis entry" `Quick
            test_cache_file_order;
          Alcotest.test_case "source edit invalidates" `Slow
            test_cache_source_edit_invalidates;
          Alcotest.test_case "spec set invalidates" `Slow
            test_cache_spec_set_invalidates;
          Alcotest.test_case "weapon added mid-cache" `Slow
            test_cache_weapon_added_mid_cache;
          Alcotest.test_case "disk persistence" `Slow test_cache_disk_persistence;
        ] );
      ( "reporting",
        [
          Alcotest.test_case "progress + timings" `Slow test_progress_and_timings;
          Alcotest.test_case "phase breakdown" `Slow test_phase_breakdown;
        ] );
    ]

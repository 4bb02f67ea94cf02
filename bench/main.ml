(** The scan-engine and fleet kernels.

    [dune exec bench/main.exe] times the scan engine (parallel
    speedup, warm-cache rescan, incremental edits, telemetry overhead)
    and a 2-worker fleet against one process, and writes the numbers
    of both to one document, [BENCH_scan.json].  Then [--check-obs]
    fails the run when the telemetry overhead exceeds 5%, and
    [--check-fleet] when a fleet project fails, the fleet shares no
    work or two workers are slower than one; every failed check is
    named.  The paper's evaluation is [wap experiments]. *)

module Scan = Wap_core.Tool.Scan
module J = Wap_report.Json

let seed = 2016

(* ------------------------------------------------------------------ *)
(* Scan-engine kernel: parallel speedup and warm-cache rescan.         *)

(* Host speed: the best of three runs of a fixed 20M-step integer loop,
   in ms -- the same loop as perfbench's [host.calibration_ms], so that
   numbers recorded on different hosts can be compared. *)
let calibration_ms () =
  let once () =
    let t0 = Wap_obs.Clock.now_ns () in
    let x = ref 0 in
    for i = 1 to 20_000_000 do
      x := (!x * 1103515245 + i) land 0x3fffffff
    done;
    ignore (Sys.opaque_identity !x);
    Wap_obs.Clock.now_ns () - t0
  in
  float_of_int (List.fold_left min max_int [ once (); once (); once () ]) /. 1e6

(* the median of an odd-length list, ordered by [key] *)
let median_by key xs =
  List.nth
    (List.sort (fun a b -> compare (key a) (key b)) xs)
    (List.length xs / 2)

(* Each kernel returns its fields of the document and the failures of
   its gate. *)
let run_scan_engine () =
  let calibration = calibration_ms () in
  (* merge several packages into one large application so the scan has
     enough files and spec-tasks to spread over the workers *)
  let profiles =
    List.filteri (fun i _ -> i < 4) Wap_corpus.Profiles.vulnerable_webapps
  in
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
      profiles
  in
  let tool = Wap_core.Tool.create ~seed Wap_core.Version.Wape in
  let scan ?cache jobs =
    Scan.run tool (Scan.request ~jobs ?cache files)
  in
  print_string "== Scan engine (lib/engine) ==\n";
  Printf.printf "corpus: %d files from %d packages, %d detector specs\n"
    (List.length files) (List.length profiles)
    (List.length tool.Wap_core.Tool.specs);
  let cores = Domain.recommended_domain_count () in
  (* speedup is only physically possible up to the core count; past it,
     extra domains just contend on the stop-the-world minor GC *)
  let par_jobs = if cores >= 4 then 4 else max 1 cores in
  let o1 = scan 1 in
  let opar = scan par_jobs in
  let w1 = o1.Scan.result.Wap_core.Tool.analysis_seconds in
  let wp = opar.Scan.result.Wap_core.Tool.analysis_seconds in
  Printf.printf "cold scan, jobs=1: %6.2fs wall  (%.2fs cpu)\n" w1
    o1.Scan.result.Wap_core.Tool.analysis_cpu_seconds;
  (* on a 1-core host jobs=1 vs jobs=1 is pure noise, not a parallel
     speedup: report it as not-measured instead of as a regression *)
  let par_speedup =
    if par_jobs <= 1 then None else Some (if wp > 0. then w1 /. wp else 0.)
  in
  (match par_speedup with
  | Some s ->
      Printf.printf
        "cold scan, jobs=%d: %6.2fs wall  (%.2fs cpu)  speedup %.2fx\n"
        par_jobs wp
        opar.Scan.result.Wap_core.Tool.analysis_cpu_seconds s
  | None ->
      Printf.printf
        "cold scan, jobs=%d: %6.2fs wall  (%.2fs cpu)  speedup n/a — host \
         reports %d core(s), parallel-speedup check skipped\n"
        par_jobs wp
        opar.Scan.result.Wap_core.Tool.analysis_cpu_seconds cores);
  if cores < 4 && par_jobs > 1 then
    Printf.printf
      "  (host reports %d core(s); speedup measured at jobs=%d, not 4)\n"
      cores par_jobs;
  let o4 = scan 4 in
  let same =
    List.length o1.Scan.result.Wap_core.Tool.candidates
    = List.length o4.Scan.result.Wap_core.Tool.candidates
  in
  Printf.printf "deterministic at jobs=4: %s (%d candidates)\n"
    (if same then "yes" else "NO — MISMATCH")
    (List.length o4.Scan.result.Wap_core.Tool.candidates);
  let cache = Wap_engine.Cache.create () in
  let oc1 = scan ~cache 4 in
  let oc2 = scan ~cache 4 in
  Printf.printf "cache fill:   %6.2fs wall  (%d hit(s), %d miss(es))\n"
    oc1.Scan.result.Wap_core.Tool.analysis_seconds
    oc1.Scan.cache_hits oc1.Scan.cache_misses;
  Printf.printf
    "warm rescan:  %6.2fs wall  (%d hit(s), %d miss(es)) — unchanged files skipped\n"
    oc2.Scan.result.Wap_core.Tool.analysis_seconds
    oc2.Scan.cache_hits oc2.Scan.cache_misses;
  (* incremental-edit kernel: a session over a 100-file project, then
     repeated summary-preserving edits of one function-free file — the
     [wap serve] steady state.  Each round measures update + renewed
     per-file diagnostics; min-of-rounds against a fresh batch scan of
     the same project. *)
  let inc_files = List.filteri (fun i _ -> i < 100) files in
  let edit_path, edit_src =
    let no_funcs (path, src) =
      Wap_php.Visitor.collect_functions
        (fst (Wap_php.Parser.parse_string_tolerant ~file:path src))
      = []
    in
    match List.find_opt no_funcs inc_files with
    | Some f -> f
    | None -> List.hd inc_files
  in
  let inc_request =
    Wap_engine.Session.request ~jobs:1
      ~fingerprint:(Scan.fingerprint tool)
      ~specs:tool.Wap_core.Tool.specs inc_files
  in
  let session = Wap_engine.Session.open_project inc_request in
  let inc_reran = ref 0 in
  let inc_best = ref infinity and inc_total = ref 0. in
  let inc_rounds = 20 in
  for i = 1 to inc_rounds do
    (* alternate two variants so every round really changes the digest *)
    let src = if i mod 2 = 0 then edit_src else edit_src ^ "\n" in
    let t0 = Unix.gettimeofday () in
    let reran = Wap_engine.Session.update_file session ~path:edit_path src in
    ignore (Wap_engine.Session.diagnostics session ~path:edit_path);
    let w = Unix.gettimeofday () -. t0 in
    inc_reran := List.length reran;
    inc_total := !inc_total +. w;
    if w < !inc_best then inc_best := w
  done;
  let inc_mean = !inc_total /. float_of_int inc_rounds in
  let inc_full =
    let t0 = Unix.gettimeofday () in
    ignore (Wap_engine.Session.run inc_request);
    Unix.gettimeofday () -. t0
  in
  let inc_speedup = if !inc_best > 0. then inc_full /. !inc_best else 0. in
  Printf.printf
    "incremental edit (session, %d files, %d re-analyzed): %.2fms min / \
     %.2fms mean — full rescan %.1fms (%.0fx)%s\n"
    (List.length inc_files) !inc_reran (1000. *. !inc_best)
    (1000. *. inc_mean) (1000. *. inc_full) inc_speedup
    (if !inc_best < 0.010 then "" else "  [above the 10ms target]");
  (* telemetry overhead: the same full-corpus scan with the daemon's
     observability plane on (bounded ring tracer + wall-clock log
     timestamps) vs off.  Each round times the two sides back to back —
     scheduler and thermal drift is correlated over adjacent ~100ms
     windows, so drift hits both sides — and gives one paired ratio,
     traced over plain; the gate reads the median of the rounds'
     ratios.  Over ten invocations on a shared 2-core host it spread
     less than the older statistic, the minimum of each side over all
     rounds, which pairs rounds far apart in time (and is still
     reported).  The sides are timed in CPU seconds ([Sys.time],
     microsecond granularity), which scheduler preemption by neighbour
     tenants cannot inflate the way it inflates wall clock, while every
     real telemetry cost (clock reads, ring stores, the GC work they
     cause) is still in-process CPU.  No [Gc.compact] between rounds on
     purpose: compaction makes the heap layout deterministic per side,
     so an unlucky cache-alignment of the traced side's layout persists
     for every round of an invocation and reads as phantom overhead —
     letting the layout drift round to round turns that bias into
     noise the median absorbs. *)
  let obs_scan () =
    let t0 = Sys.time () in
    ignore (Scan.run tool (Scan.request ~jobs:1 files));
    Sys.time () -. t0
  in
  (* ONE tracer for every on-round, created before the warm-up and kept
     alive across the off-rounds too: its ring (a fixed array, full
     after the warm-up) is then part of the live set on both sides, so
     the [Gc.compact] in [obs_scan] produces the same heap layout for
     both and the ratio measures per-event cost, not an
     alignment-lottery difference between two layouts *)
  let tracer = Wap_obs.Trace.create ~ring_capacity:4096 () in
  let obs_on () =
    Wap_obs.Trace.set_global (Some tracer);
    Wap_obs.Log.set_timestamps true
  in
  let obs_off () =
    Wap_obs.Trace.set_global None;
    Wap_obs.Log.set_timestamps false
  in
  obs_on ();
  ignore (obs_scan ()) (* warm-up: allocator, code paths, the ring *);
  obs_off ();
  let rounds = 51 in
  let pairs =
    List.init rounds (fun round ->
        (* counterbalance within-pair order: second position is usually
           the warmer one, and always giving it to the same side would
           bias the ratio *)
        if round land 1 = 0 then begin
          obs_off ();
          let p = obs_scan () in
          obs_on ();
          (p, obs_scan ())
        end
        else begin
          obs_on ();
          let o = obs_scan () in
          obs_off ();
          (obs_scan (), o)
        end)
  in
  obs_off ();
  let w_plain = List.fold_left (fun m (p, _) -> min m p) infinity pairs in
  let w_obs = List.fold_left (fun m (_, o) -> min m o) infinity pairs in
  let min_ratio = if w_plain > 0. then w_obs /. w_plain else 0. in
  let pair_ratios = List.map (fun (p, o) -> if p > 0. then o /. p else 0.) pairs in
  let obs_ratio = median_by Fun.id pair_ratios in
  Printf.printf
    "telemetry overhead (%d files, jobs=1, %d alternating rounds, cpu): \
     plain %.3fs, ring tracer + timestamps %.3fs (min per side, ratio \
     %.3fx) — median paired ratio %.3fx\n"
    (List.length files) rounds w_plain w_obs min_ratio obs_ratio;
  (* machine-readable companion for CI trend tracking *)
  let wc1 = oc1.Scan.result.Wap_core.Tool.analysis_seconds in
  let wc2 = oc2.Scan.result.Wap_core.Tool.analysis_seconds in
  let phase_obj (o : Scan.outcome) =
    J.Obj
      (List.map
         (fun (k, s) -> (k, J.Float s))
         o.Scan.result.Wap_core.Tool.phase_seconds)
  in
  print_newline ();
  ( [
      ("kernel", J.Str "scan");
      ("files", J.Int (List.length files));
      ("packages", J.Int (List.length profiles));
      ("specs", J.Int (List.length tool.Wap_core.Tool.specs));
      ("cores", J.Int cores);
      ("ocaml_version", J.Str Sys.ocaml_version);
      ("calibration_ms", J.Float calibration);
      ("jobs_parallel", J.Int par_jobs);
      ("cold_jobs1_wall_seconds", J.Float w1);
      ( "cold_jobs1_cpu_seconds",
        J.Float o1.Scan.result.Wap_core.Tool.analysis_cpu_seconds );
      ("cold_parallel_wall_seconds", J.Float wp);
      ( "cold_parallel_cpu_seconds",
        J.Float opar.Scan.result.Wap_core.Tool.analysis_cpu_seconds );
      ( "speedup",
        match par_speedup with Some s -> J.Float s | None -> J.Null );
      ("phases_fused_jobs1", phase_obj o1);
      ("deterministic", J.Bool same);
      ( "candidates",
        J.Int (List.length o4.Scan.result.Wap_core.Tool.candidates) );
      ("cache_fill_wall_seconds", J.Float wc1);
      ("warm_rescan_wall_seconds", J.Float wc2);
      ( "cache_rescan_ratio",
        J.Float (if wc1 > 0. then wc2 /. wc1 else 0.) );
      ("warm_cache_hits", J.Int oc2.Scan.cache_hits);
      ("warm_cache_misses", J.Int oc2.Scan.cache_misses);
      ("incremental_project_files", J.Int (List.length inc_files));
      ("incremental_edit_reanalyzed", J.Int !inc_reran);
      ("incremental_edit_wall_seconds", J.Float !inc_best);
      ("incremental_edit_mean_wall_seconds", J.Float inc_mean);
      ("incremental_full_rescan_wall_seconds", J.Float inc_full);
      ("incremental_speedup", J.Float inc_speedup);
      ("obs_plain_cpu_seconds", J.Float w_plain);
      ("obs_on_cpu_seconds", J.Float w_obs);
      ("obs_min_ratio", J.Float min_ratio);
      ("obs_overhead_ratio", J.Float obs_ratio);
      ("obs_overhead_pairs", J.List (List.map (fun r -> J.Float r) pair_ratios));
    ],
    if obs_ratio > 1.05 then
      [ Printf.sprintf
          "telemetry overhead above the 5%% budget (ratio %.3fx > 1.05)"
          obs_ratio ]
    else [] )

(* ------------------------------------------------------------------ *)
(* Fleet kernel: multi-project sharding vs a single process.           *)

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let write_projects dir projects =
  List.iter
    (fun (name, (pkg : Wap_corpus.Appgen.package)) ->
      List.iter
        (fun (f : Wap_corpus.Appgen.file) ->
          let path =
            Filename.concat (Filename.concat dir name)
              f.Wap_corpus.Appgen.f_name
          in
          mkdir_p (Filename.dirname path);
          let oc = open_out_bin path in
          output_string oc f.Wap_corpus.Appgen.f_source;
          close_out oc)
        pkg.Wap_corpus.Appgen.pkg_files)
    projects

let run_fleet () =
  let n_projects = 10 and project_files = 240 and pairs = 5 in
  let root = "_bench_fleet_corpus" and cache_dir = "_bench_fleet_cache" in
  let scratch = [ root; cache_dir ] in
  List.iter (fun d -> if Sys.file_exists d then rm_rf d) scratch;
  write_projects root
    (Wap_corpus.Corpus.generated_projects ~seed ~files:project_files
       ~count:n_projects ());
  let dirs = Wap_fleet.Coordinator.discover [ root ] in
  let total_files =
    List.fold_left
      (fun n dir -> n + List.length (Wap_php.Io.php_files dir))
      0 dirs
  in
  print_string "== Fleet (lib/fleet) ==\n";
  Printf.printf
    "corpus: %d projects, %d files, sharing a %d-file framework layer\n"
    (List.length dirs) total_files
    (List.length (Wap_corpus.Corpus.shared_layer ~seed ()));
  (* every run starts from an empty cache directory: no run may inherit
     another's warm disk cache *)
  let fleet_run workers =
    if Sys.file_exists cache_dir then rm_rf cache_dir;
    (Wap_fleet.Coordinator.run
       {
         Wap_fleet.Coordinator.fc_workers = workers;
         fc_worker_jobs = 1;
         fc_cache_dir = Some cache_dir;
         fc_summary_store = false;
         (* progress lines would pollute the timed runs' stderr *)
         fc_progress = false;
       }
       ~dirs)
      .Wap_fleet.Coordinator.report
  in
  let wall rp = rp.Wap_fleet.Coordinator.rp_wall_seconds in
  (* counterbalanced pairs: the side that runs first alternates, so a
     drift in host speed over the kernel hits both sides alike *)
  let runs =
    List.init pairs (fun i ->
        if i mod 2 = 0 then
          let single = fleet_run 1 in
          let fleet = fleet_run 2 in
          (single, fleet)
        else
          let fleet = fleet_run 2 in
          let single = fleet_run 1 in
          (single, fleet))
  in
  let ratios =
    List.map
      (fun (single, fleet) ->
        if wall fleet > 0. then wall single /. wall fleet else 0.)
      runs
  in
  List.iteri
    (fun i ((single, fleet), r) ->
      Printf.printf "pair %d: 1 worker %5.2fs, 2 workers %5.2fs — %.2fx\n"
        (i + 1) (wall single) (wall fleet) r)
    (List.combine runs ratios);
  let fleets = List.map snd runs in
  let w_single = wall (median_by wall (List.map fst runs)) in
  (* the 2-worker run of median wall supplies the throughput figures *)
  let rp = median_by wall fleets in
  let w_fleet = wall rp in
  let cores = Domain.recommended_domain_count () in
  (* two workers on one core just time-slice; the ratio is scheduler
     noise, not a parallel speedup — report it as not-measured, exactly
     like the scan kernel's [speedup] *)
  let fleet_speedup =
    if cores < 2 then None else Some (median_by Fun.id ratios)
  in
  Printf.printf
    "fleet, 1 worker (single scanning process): %6.2fs wall (median of %d)\n"
    w_single pairs;
  let speedup_str =
    match fleet_speedup with
    | Some s -> Printf.sprintf "median %.2fx" s
    | None -> Printf.sprintf "n/a — host reports %d core(s)" cores
  in
  Printf.printf
    "fleet, 2 workers: %6.2fs wall — speedup %s, %.1f projects/s, %.1f \
     files/s, dedup hit ratio %.2f\n"
    w_fleet speedup_str rp.Wap_fleet.Coordinator.rp_projects_per_second
    rp.Wap_fleet.Coordinator.rp_files_per_second
    rp.Wap_fleet.Coordinator.rp_dedup_hit_ratio;
  print_newline ();
  List.iter (fun d -> if Sys.file_exists d then rm_rf d) scratch;
  let failed =
    List.concat_map
      (fun (single, fleet) ->
        single.Wap_fleet.Coordinator.rp_failed
        @ fleet.Wap_fleet.Coordinator.rp_failed)
      runs
  in
  let failures =
    (if failed = [] then []
     else [ "fleet projects failed: " ^ String.concat ", " failed ])
    @ (if
         List.for_all
           (fun fleet -> fleet.Wap_fleet.Coordinator.rp_dedup_hit_ratio > 0.)
           fleets
       then []
       else
         [ "fleet dedup hit ratio is 0: no shared-layer parse entry was \
            reused" ])
    (* a 2-worker fleet can only beat one process when there are at
       least two cores to run the workers on; on a 1-core host the
       speedup is null and the gate skips *)
    @
    match fleet_speedup with
    | Some s when s < 1.0 ->
        [ Printf.sprintf
            "2-worker fleet slower than a single process (median speedup \
             %.2fx < 1.0 over %d pairs)"
            s pairs ]
    | Some _ | None -> []
  in
  ( [ ("fleet_projects", J.Int rp.Wap_fleet.Coordinator.rp_projects);
      ("fleet_single_process_wall_seconds", J.Float w_single);
      ("fleet_wall_seconds", J.Float w_fleet);
      ( "fleet_speedup",
        match fleet_speedup with Some s -> J.Float s | None -> J.Null );
      ("fleet_speedup_pairs", J.List (List.map (fun r -> J.Float r) ratios));
      ( "fleet_projects_per_second",
        J.Float rp.Wap_fleet.Coordinator.rp_projects_per_second );
      ( "fleet_files_per_second",
        J.Float rp.Wap_fleet.Coordinator.rp_files_per_second );
      ( "fleet_dedup_hit_ratio",
        J.Float rp.Wap_fleet.Coordinator.rp_dedup_hit_ratio ) ],
    failures )

(* the bench binary doubles as the fleet worker when the fleet kernel
   spawns it — must run before cmdline parsing *)
let () = Wap_fleet.Worker.maybe_main ()

(* Both kernels run before any gate is applied, so one failing gate
   never hides the other's result. *)
let () =
  let flags = [ "--check-obs"; "--check-fleet" ] in
  let args = List.tl (Array.to_list Sys.argv) in
  match List.filter (fun a -> not (List.mem a flags)) args with
  | [] ->
      let scan_fields, obs_failures = run_scan_engine () in
      let fleet_fields, fleet_failures = run_fleet () in
      let oc = open_out "BENCH_scan.json" in
      output_string oc (J.to_string (J.Obj (scan_fields @ fleet_fields)));
      output_char oc '\n';
      close_out oc;
      print_string "wrote BENCH_scan.json\n";
      let gate flag failures = if List.mem flag args then failures else [] in
      let failures =
        gate "--check-obs" obs_failures @ gate "--check-fleet" fleet_failures
      in
      List.iter (Printf.eprintf "FAIL: %s\n") failures;
      if failures <> [] then exit 1
  | arg :: _ ->
      Printf.eprintf "bench: unknown argument %s (accepted: %s)\n" arg
        (String.concat ", " flags);
      exit 2

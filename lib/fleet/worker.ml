(** The fleet worker: the hidden process mode every [wap]-family
    executable carries.

    The coordinator re-executes its own binary with
    [argv(1) = "__fleet-worker"]; {!maybe_main}, called first thing by
    each host executable's entry point, intercepts that and never
    returns.  The worker then speaks {!Proto} over stdin/stdout: one
    config in, then one scan and one result out per job, exit 0 at end
    of input.

    Each worker holds one tool instance for its whole life, and one
    cache handle when the fleet has a [cache_dir]: through that
    directory the fleet shares the parse entries of identical files
    (the vendored framework layer: same relative path, same source)
    across projects {e and} across workers.  Without a directory the
    worker scans uncached. *)

module Json = Wap_report.Json

let dispatch_argv = "__fleet-worker"

(* Deterministic crash hook for the retry tests and the smoke script:
   [WAP_FLEET_TEST_CRASH=<project>] makes the worker die (exit 42)
   when handed that project on a {e first} attempt, so the
   coordinator's single retry deterministically succeeds;
   [<project>:always] dies on every attempt, so the retry
   deterministically fails too. *)
let crash_env = "WAP_FLEET_TEST_CRASH"
let crash_exit_code = 42

let should_crash ~spec (job : Proto.job) =
  let project = Filename.basename job.Proto.job_dir in
  match spec with
  | None -> false
  | Some s when Filename.check_suffix s ":always" ->
      String.equal (Filename.chop_suffix s ":always") project
  | Some s -> String.equal s project && job.Proto.job_attempt = 1

let read_file = Wap_php.Io.read_file

let finding_json (f : Wap_core.Tool.finding) : Json.t =
  let c = f.Wap_core.Tool.candidate in
  Json.Obj
    [ ("class", Json.Str (Wap_catalog.Vuln_class.acronym c.Wap_taint.Trace.vclass));
      ("file", Json.Str c.Wap_taint.Trace.file);
      ("line", Json.Int c.Wap_taint.Trace.sink_loc.Wap_php.Loc.line);
      ("col", Json.Int c.Wap_taint.Trace.sink_loc.Wap_php.Loc.col);
      ("sink", Json.Str c.Wap_taint.Trace.sink_name);
      ("predicted_fp", Json.Bool f.Wap_core.Tool.predicted_fp) ]

(* The merged-output payload: only deterministic scan facts, no
   timings and no cache state, so the fleet's merged NDJSON is
   byte-identical whatever the worker count or cache temperature. *)
let payload ~project (r : Wap_core.Tool.package_result) : Json.t =
  Json.Obj
    [ ("project", Json.Str project);
      ("files", Json.Int r.Wap_core.Tool.files_analyzed);
      ("loc", Json.Int r.Wap_core.Tool.loc);
      ("findings", Json.List (List.map finding_json r.Wap_core.Tool.findings))
    ]

let scan_project ~tool ~cache ~(cfg : Proto.config) (job : Proto.job) :
    Proto.result =
  let t0 = Unix.gettimeofday () in
  let project = Filename.basename job.Proto.job_dir in
  let rels = Wap_php.Io.php_files job.Proto.job_dir in
  let sources =
    List.map
      (fun rel -> (rel, read_file (Filename.concat job.Proto.job_dir rel)))
      rels
  in
  let outcome =
    Wap_core.Tool.Scan.run tool
      (Wap_core.Tool.Scan.request ~jobs:cfg.Proto.cfg_jobs ?cache sources)
  in
  let r = outcome.Wap_core.Tool.Scan.result in
  {
    Proto.res_project = project;
    res_dir = job.Proto.job_dir;
    res_attempt = job.Proto.job_attempt;
    res_ok = true;
    res_error = "";
    res_payload = payload ~project r;
    res_files = r.Wap_core.Tool.files_analyzed;
    res_loc = r.Wap_core.Tool.loc;
    res_candidates = List.length r.Wap_core.Tool.candidates;
    res_reported = List.length r.Wap_core.Tool.reported;
    res_seconds = Unix.gettimeofday () -. t0;
    res_cache_hits = outcome.Wap_core.Tool.Scan.cache_hits;
    res_cache_misses = outcome.Wap_core.Tool.Scan.cache_misses;
  }

let error_result (job : Proto.job) msg : Proto.result =
  {
    Proto.res_project = Filename.basename job.Proto.job_dir;
    res_dir = job.Proto.job_dir;
    res_attempt = job.Proto.job_attempt;
    res_ok = false;
    res_error = msg;
    res_payload = Json.Null;
    res_files = 0;
    res_loc = 0;
    res_candidates = 0;
    res_reported = 0;
    res_seconds = 0.;
    res_cache_hits = 0;
    res_cache_misses = 0;
  }

let main () : int =
  let malformed e =
    prerr_endline ("wap fleet worker: unreadable message: " ^ e);
    2
  in
  match Proto.recv_config stdin with
  | exception End_of_file -> 0
  | exception Failure e -> malformed e
  | cfg ->
      let tool = Wap_core.Tool.create Wap_core.Version.Wape in
      let cache =
        Option.map
          (fun dir -> Wap_engine.Cache.create ~dir ())
          cfg.Proto.cfg_cache_dir
      in
      let crash_target = Sys.getenv_opt crash_env in
      let rec loop () =
        match Proto.recv_job stdin with
        | exception End_of_file -> 0
        | exception Failure e -> malformed e
        | job ->
            if should_crash ~spec:crash_target job then exit crash_exit_code;
            let res =
              try scan_project ~tool ~cache ~cfg job
              with e -> error_result job (Printexc.to_string e)
            in
            Proto.send_result stdout res;
            loop ()
      in
      loop ()

let maybe_main () =
  if Array.length Sys.argv >= 2 && Sys.argv.(1) = dispatch_argv then
    exit (main ())

(** The fleet coordinator: shard a set of project directories over N
    spawned worker processes and merge their results.

    One domain drives each worker over a pair of pipes, pulling jobs
    from a shared queue — a worker that finishes a small project early
    immediately takes the next one, so the shard boundaries are
    dynamic.  A worker that dies mid-project (crash, OOM kill) is
    detected as end of input, or a result cut short, on its result
    pipe; the coordinator respawns a fresh worker and retries the
    project {e once}, and only a project whose retry also fails is
    recorded as a failure.

    The merged output is deterministic: per-project payloads carry no
    timings or cache state, and {!merged_lines} orders them by project
    name — byte-identical whatever the worker count, the scheduling or
    the cache temperature.  Timing, throughput and cache statistics
    live in the separate {!report}. *)

module Json = Wap_report.Json

type config = {
  fc_workers : int;  (** worker processes; clamped to at least 1 *)
  fc_worker_jobs : int;  (** analysis domains inside each worker *)
  fc_cache_dir : string option;  (** shared disk cache, fleet-wide *)
  fc_summary_store : bool;  (** ignored; see the interface *)
  fc_progress : bool;
      (** emit periodic [done/total, files/s, ETA] lines on stderr *)
}

type report = {
  rp_projects : int;
  rp_failed : string list;  (** projects failed after their retry *)
  rp_retried : int;  (** first-attempt worker deaths recovered *)
  rp_files : int;
  rp_loc : int;
  rp_candidates : int;
  rp_reported : int;
  rp_wall_seconds : float;
  rp_projects_per_second : float;
  rp_files_per_second : float;
  rp_cache_hits : int;
  rp_cache_misses : int;
  rp_dedup_hit_ratio : float;
      (** hits / (hits + misses) across all workers; > 0 means some
          entry was reused *)
}

type outcome = { results : Proto.result list; report : report }

(* ------------------------------------------------------------------ *)
(* Project discovery.                                                  *)

let discover roots : string list =
  List.concat_map
    (fun root ->
      if not (Sys.is_directory root) then
        invalid_arg (Printf.sprintf "wap fleet: %S is not a directory" root)
      else
        let subdirs =
          Sys.readdir root |> Array.to_list |> List.sort String.compare
          |> List.filter_map (fun e ->
                 let p = Filename.concat root e in
                 if Sys.is_directory p then Some p else None)
        in
        match subdirs with [] -> [ root ] | ds -> ds)
    roots

(* ------------------------------------------------------------------ *)
(* Worker processes.                                                   *)

type wproc = { w_pid : int; w_send : out_channel; w_recv : in_channel }

let worker_config (cfg : config) : Proto.config =
  { Proto.cfg_jobs = cfg.fc_worker_jobs; cfg_cache_dir = cfg.fc_cache_dir }

(* Self-exec: the worker is this very binary in its hidden mode, so
   the fleet works from the CLI, the bench harness and the test
   executables alike — whoever the host is, it dispatched
   [Worker.maybe_main] before reaching its own main. *)
let spawn (cfg : config) : wproc =
  let job_r, job_w = Unix.pipe () in
  let res_r, res_w = Unix.pipe () in
  Unix.set_close_on_exec job_w;
  Unix.set_close_on_exec res_r;
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; Worker.dispatch_argv |]
      job_r res_w Unix.stderr
  in
  Unix.close job_r;
  Unix.close res_w;
  let w = { w_pid = pid; w_send = Unix.out_channel_of_descr job_w;
            w_recv = Unix.in_channel_of_descr res_r }
  in
  (try Proto.send_config w.w_send (worker_config cfg)
   with Sys_error _ -> ()  (* died instantly: detected at first job *));
  w

let dispose (w : wproc) =
  close_out_noerr w.w_send;
  close_in_noerr w.w_recv;
  try ignore (Unix.waitpid [] w.w_pid) with Unix.Unix_error _ -> ()

(* One job round-trip.  [None] means the worker is gone (end of
   input, a broken pipe, or a value cut short by its death): the
   caller respawns. *)
let attempt (w : wproc) (job : Proto.job) : Proto.result option =
  match
    Proto.send_job w.w_send job;
    Proto.recv_result w.w_recv
  with
  | exception (End_of_file | Failure _ | Sys_error _) -> None
  | r -> Some r

(* ------------------------------------------------------------------ *)
(* The shard loop.                                                     *)

type shared = {
  sh_queue : Proto.job Queue.t;
  sh_mutex : Mutex.t;
  mutable sh_results : Proto.result list;
  mutable sh_retried : int;
  sh_on_result : (Proto.result -> unit) option;
  sh_progress : progress option;
}

(* Progress accounting, mutated only under [sh_mutex].  The ETA
   extrapolates the mean project rate so far; lines are throttled to
   one per second plus a final one at [done = total]. *)
and progress = {
  pg_total : int;
  pg_t0 : float;
  mutable pg_done : int;
  mutable pg_files : int;
  mutable pg_last_emit : float;
}

let locked sh f =
  Mutex.lock sh.sh_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock sh.sh_mutex) f

let pop sh = locked sh (fun () -> Queue.take_opt sh.sh_queue)

let emit_progress pg ~now =
  pg.pg_last_emit <- now;
  let elapsed = now -. pg.pg_t0 in
  let fps =
    if elapsed > 0. then float_of_int pg.pg_files /. elapsed else 0.
  in
  let rate =
    if elapsed > 0. then float_of_int pg.pg_done /. elapsed else 0.
  in
  if pg.pg_done >= pg.pg_total then
    Printf.eprintf "fleet: %d/%d projects, %.1f files/s, done in %.0fs\n%!"
      pg.pg_done pg.pg_total fps elapsed
  else begin
    let eta =
      if rate > 0. then float_of_int (pg.pg_total - pg.pg_done) /. rate
      else 0.
    in
    Printf.eprintf "fleet: %d/%d projects, %.1f files/s, ETA %.0fs\n%!"
      pg.pg_done pg.pg_total fps eta
  end

let record sh r =
  locked sh (fun () ->
      sh.sh_results <- r :: sh.sh_results;
      (match sh.sh_progress with
      | Some pg ->
          pg.pg_done <- pg.pg_done + 1;
          if r.Proto.res_ok then
            pg.pg_files <- pg.pg_files + r.Proto.res_files;
          let now = Unix.gettimeofday () in
          if pg.pg_done >= pg.pg_total || now -. pg.pg_last_emit >= 1.0 then
            emit_progress pg ~now
      | None -> ());
      match sh.sh_on_result with Some f -> f r | None -> ())

let drive (cfg : config) (sh : shared) =
  let w = ref (spawn cfg) in
  let rec next () =
    match pop sh with
    | None -> dispose !w
    | Some job -> (
        match attempt !w job with
        | Some r ->
            record sh r;
            next ()
        | None ->
            (* worker died mid-project: fresh worker, one retry *)
            dispose !w;
            w := spawn cfg;
            if job.Proto.job_attempt = 1 then begin
              locked sh (fun () -> sh.sh_retried <- sh.sh_retried + 1);
              let retry = { job with Proto.job_attempt = 2 } in
              (match attempt !w retry with
              | Some r -> record sh r
              | None ->
                  dispose !w;
                  w := spawn cfg;
                  record sh (Worker.error_result retry "worker died twice"))
            end
            else record sh (Worker.error_result job "worker died");
            next ())
  in
  next ()

(* Stable fleet-wide order: project name, directory as tie-break. *)
let compare_results (a : Proto.result) (b : Proto.result) =
  let c = String.compare a.Proto.res_project b.Proto.res_project in
  if c <> 0 then c else String.compare a.Proto.res_dir b.Proto.res_dir

let run ?on_result (cfg : config) ~dirs : outcome =
  (* a worker dying between our write and its read turns the job pipe
     into a broken pipe; take the EPIPE, not the signal *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let t0 = Unix.gettimeofday () in
  let sh =
    {
      sh_queue = Queue.create ();
      sh_mutex = Mutex.create ();
      sh_results = [];
      sh_retried = 0;
      sh_on_result = on_result;
      sh_progress =
        (if cfg.fc_progress && dirs <> [] then
           Some
             {
               pg_total = List.length dirs;
               pg_t0 = t0;
               pg_done = 0;
               pg_files = 0;
               pg_last_emit = t0;
             }
         else None);
    }
  in
  List.iter
    (fun dir ->
      Queue.add { Proto.job_dir = dir; job_attempt = 1 } sh.sh_queue)
    dirs;
  let n = max 1 (min cfg.fc_workers (List.length dirs)) in
  if dirs <> [] then
    List.init n (fun _ -> Domain.spawn (fun () -> drive cfg sh))
    |> List.iter Domain.join;
  let wall = Unix.gettimeofday () -. t0 in
  let results = List.sort compare_results sh.sh_results in
  let ok = List.filter (fun r -> r.Proto.res_ok) results in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 ok in
  let files = sum (fun r -> r.Proto.res_files) in
  let hits = sum (fun r -> r.Proto.res_cache_hits) in
  let misses = sum (fun r -> r.Proto.res_cache_misses) in
  let report =
    {
      rp_projects = List.length results;
      rp_failed =
        List.filter_map
          (fun r ->
            if r.Proto.res_ok then None else Some r.Proto.res_project)
          results;
      rp_retried = sh.sh_retried;
      rp_files = files;
      rp_loc = sum (fun r -> r.Proto.res_loc);
      rp_candidates = sum (fun r -> r.Proto.res_candidates);
      rp_reported = sum (fun r -> r.Proto.res_reported);
      rp_wall_seconds = wall;
      rp_projects_per_second =
        (if wall > 0. then float_of_int (List.length ok) /. wall else 0.);
      rp_files_per_second =
        (if wall > 0. then float_of_int files /. wall else 0.);
      rp_cache_hits = hits;
      rp_cache_misses = misses;
      rp_dedup_hit_ratio =
        (if hits + misses > 0 then
           float_of_int hits /. float_of_int (hits + misses)
         else 0.);
    }
  in
  { results; report }

(* ------------------------------------------------------------------ *)
(* Outputs.                                                            *)

let merged_lines (o : outcome) : string list =
  List.filter_map
    (fun r ->
      if r.Proto.res_ok then
        Some (Json.to_string ~indent:false r.Proto.res_payload)
      else None)
    o.results

let report_json (r : report) : Json.t =
  Json.Obj
    [ ("projects", Json.Int r.rp_projects);
      ("failed", Json.List (List.map (fun p -> Json.Str p) r.rp_failed));
      ("retried", Json.Int r.rp_retried);
      ("files", Json.Int r.rp_files);
      ("loc", Json.Int r.rp_loc);
      ("candidates", Json.Int r.rp_candidates);
      ("reported", Json.Int r.rp_reported);
      ("wall_seconds", Json.Float r.rp_wall_seconds);
      ("fleet_projects_per_second", Json.Float r.rp_projects_per_second);
      ("fleet_files_per_second", Json.Float r.rp_files_per_second);
      ("cache_hits", Json.Int r.rp_cache_hits);
      ("cache_misses", Json.Int r.rp_cache_misses);
      ("fleet_dedup_hit_ratio", Json.Float r.rp_dedup_hit_ratio) ]

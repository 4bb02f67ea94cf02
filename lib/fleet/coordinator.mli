(** The fleet coordinator: shard project directories over N spawned
    worker processes (this very binary, re-executed in its hidden
    [__fleet-worker] mode), stream per-project results back, retry a
    project once when its worker dies, and merge deterministically.

    One domain drives each worker over a pair of pipes, pulling jobs
    from a shared queue, so shard boundaries are dynamic.  The merged
    NDJSON ({!merged_lines}) is byte-identical whatever the worker
    count or cache temperature; timing, throughput and cache traffic
    live in the separate {!report}. *)

module Json = Wap_report.Json

type config = {
  fc_workers : int;  (** worker processes; clamped to at least 1 *)
  fc_worker_jobs : int;  (** analysis domains inside each worker *)
  fc_cache_dir : string option;
      (** shared disk cache, fleet-wide: projects and workers share the
          parse entries of identical files through it *)
  fc_summary_store : bool;
      (** ignored.  The cross-project summary store it switched is
          gone; the field stays only because the benchmark probe still
          sets it, and goes when the probe stops. *)
  fc_progress : bool;
      (** emit a [fleet: done/total projects, files/s, ETA] line on
          stderr about once a second (and at completion); stdout and
          the merged NDJSON are untouched *)
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
          entry was reused: a shared file's parse entry by another
          project, or any entry by a rerun *)
}

type outcome = {
  results : Proto.result list;  (** sorted by project name, then dir *)
  report : report;
}

(** Expand fleet roots to project directories: a root with
    subdirectories contributes them (sorted); a leaf root is itself
    one project.  Raises [Invalid_argument] on a non-directory. *)
val discover : string list -> string list

(** Run the fleet over the given project directories.  [on_result]
    streams each per-project result as it lands (any worker domain's
    order, under the coordinator's lock). *)
val run : ?on_result:(Proto.result -> unit) -> config -> dirs:string list -> outcome

(** The deterministic merged output: one compact-JSON line per
    successful project, in {!outcome}[.results] order. *)
val merged_lines : outcome -> string list

val report_json : report -> Json.t

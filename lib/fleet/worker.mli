(** The fleet worker: the hidden process mode every [wap]-family
    executable carries, entered when the coordinator re-executes its
    own binary with [argv(1) = {!dispatch_argv}].

    Protocol (over stdin/stdout, see {!Proto}): one config in, then
    one result out per job, exit 0 at end of input; a value it cannot
    read goes to stderr with exit 2.  The worker keeps one tool
    instance for its whole life, and caches only in the config's
    [cfg_cache_dir]: through that directory projects and workers share
    the parse entries of identical files (same relative path, same
    source).  Without one it scans uncached. *)

(** ["__fleet-worker"]. *)
val dispatch_argv : string

(** [WAP_FLEET_TEST_CRASH]: when set to a project's base name, the
    worker exits with {!crash_exit_code} when handed that project on a
    {e first} attempt (so the coordinator's retry succeeds); with a
    [:always] suffix it dies on every attempt (so the retry fails
    too).  The deterministic worker-death hook of the retry tests and
    the fleet smoke script. *)
val crash_env : string

val crash_exit_code : int

(** A failure result for a job (also used by the coordinator to record
    a project whose worker died on both attempts). *)
val error_result : Proto.job -> string -> Proto.result

(** Run the worker loop on stdin/stdout; returns the exit code. *)
val main : unit -> int

(** Call first thing in every host executable's entry point: if this
    process was spawned as a fleet worker, runs {!main} and exits —
    otherwise returns immediately. *)
val maybe_main : unit -> unit

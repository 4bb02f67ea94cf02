(** The fleet wire protocol: marshalled OCaml values between the
    coordinator and its worker processes — one [config] down at
    startup, then [job]s down and [result]s back.  Both ends are one
    executable, so nothing is encoded field by field.

    Each [send_*] writes one value and flushes.  Each [recv_*] reads
    one value; it raises [End_of_file] at end of input before the
    value starts, and [End_of_file] or [Failure] on a value cut short
    (a worker killed mid-write). *)

module Json = Wap_report.Json

type config = {
  cfg_jobs : int;  (** analysis domains inside each worker *)
  cfg_cache_dir : string option;
      (** shared disk cache, fleet-wide; a worker caches only here *)
  cfg_summary_store : bool;
      (** cross-project summary store; runs only through [cfg_cache_dir] *)
}

type job = { job_dir : string; job_attempt : int  (** 1, then 2 on retry *) }

type result = {
  res_project : string;  (** base name of the project directory *)
  res_dir : string;
  res_attempt : int;
  res_ok : bool;
  res_error : string;  (** [""] when ok *)
  res_payload : Json.t;
      (** the deterministic per-project scan report (no timings, no
          cache state): what the merged NDJSON output is made of *)
  res_files : int;
  res_loc : int;
  res_candidates : int;
  res_reported : int;
  res_seconds : float;  (** worker wall clock on this project *)
  res_cache_hits : int;  (** cache traffic attributed to this scan *)
  res_cache_misses : int;
}

val send_config : out_channel -> config -> unit
val recv_config : in_channel -> config
val send_job : out_channel -> job -> unit
val recv_job : in_channel -> job
val send_result : out_channel -> result -> unit
val recv_result : in_channel -> result

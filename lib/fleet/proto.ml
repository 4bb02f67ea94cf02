(** The fleet wire protocol: marshalled OCaml values between the
    coordinator and its worker processes.

    Three messages flow over the pipes: one [config] (first thing on a
    worker's stdin), then [job]s down and [result]s back, one per
    project.  Both ends are the same executable (the coordinator
    re-executes its own binary), so the values cross as they are.  A
    marshalled value carries its length in its header, so a dead worker
    reads as [End_of_file] and a torn write as [End_of_file] or
    [Failure]. *)

module Json = Wap_report.Json

type config = {
  cfg_jobs : int;  (** analysis domains inside each worker *)
  cfg_cache_dir : string option;  (** shared disk cache, fleet-wide *)
  cfg_summary_store : bool;  (** cross-project summary store *)
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

let send oc v =
  Marshal.to_channel oc v [];
  flush oc

let recv ic = Marshal.from_channel ic

let send_config : out_channel -> config -> unit = send
let recv_config : in_channel -> config = recv
let send_job : out_channel -> job -> unit = send
let recv_job : in_channel -> job = recv
let send_result : out_channel -> result -> unit = send
let recv_result : in_channel -> result = recv

(** The fuzz loop: generate, check every oracle, shrink failures, and
    persist reproducers.

    Fully deterministic: one [(seed, iteration)] pair regenerates the
    same case on every platform, so a failure report alone suffices to
    reproduce a bug. *)

type config = {
  seed : int;
  iterations : int;
  max_stmts : int;  (** top-level statement bound per generated program *)
  oracles : Oracle.t list;
  out_seed_dir : string option;
      (** directory for shrunk reproducers; [None] disables writing *)
  max_failures : int;  (** stop fuzzing after this many violations *)
  shrink_budget : int;  (** oracle evaluations allowed per shrink *)
}

(** seed 2016, 500 iterations, all oracles, no seed dir. *)
val default_config : config

type failure = {
  fl_oracle : string;
  fl_iteration : int;  (** [-1] for replayed seed files *)
  fl_message : string;
  fl_source : string;  (** shrunk reproducer *)
  fl_seed_file : string option;  (** where it was written, if anywhere *)
}

type report = { cases : int; failures : failure list }

(** The case generated at [(seed, iteration)] — exposed so a failure can
    be regenerated without its seed file. *)
val case_at : seed:int -> max_stmts:int -> int -> Oracle.case

(** Run the fuzz loop.  [tool] defaults to a fresh
    [Wap_core.Tool.create ~seed:2016 Wape]; pass one to share the
    (expensive) predictor training across runs.  [on_case] is called
    after each case with [(done, total)]. *)
val run : ?tool:Wap_core.Tool.t -> ?on_case:(int -> int -> unit) -> config -> report

(** Replay every [.php] file under [dir] (sorted) against [oracles]
    (default: all).  Used by the test suite on [test/fuzz_seeds/] so
    each shrunk reproducer pins its bug forever. *)
val replay : ?tool:Wap_core.Tool.t -> ?oracles:Oracle.t list -> string -> report

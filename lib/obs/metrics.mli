(** Atomic counters and fixed-bucket histograms.

    Each metric stripes its cells over a small array of atomics indexed
    by the emitting domain's id, so concurrent domains rarely contend on
    one cache line; reading ({!value}, {!snapshot}) merges the
    per-domain cells — the "merge at scan end" of the scan pipeline.
    Updates are lock-free and never lost, whatever [--jobs] is.

    Metrics live in a registry keyed by name; {!counter} / {!histogram}
    find-or-create, so instrumentation sites can look a metric up by
    name without coordinating.  The default registry is {!global}; tests
    create private ones. *)

type registry

(** A fresh, empty registry. *)
val create_registry : unit -> registry

(** The process-wide registry the pipeline's instrumentation records
    into. *)
val global : registry

(** {2 Counters} *)

type counter

(** Find or create the named counter. *)
val counter : ?registry:registry -> string -> counter

val incr : ?by:int -> counter -> unit

(** Merged value over all per-domain cells. *)
val value : counter -> int

(** {2 Gauges} *)

(** A last-writer-wins instantaneous value (open documents, RSS,
    generation counter) — unlike counters it can go down, so reads
    return the latest {!set}, not a merge. *)
type gauge

(** Find or create the named gauge (initial value [0.]). *)
val gauge : ?registry:registry -> string -> gauge

val set : gauge -> float -> unit
val gauge_value : gauge -> float

(** {2 Histograms} *)

type histogram

(** Default bucket upper bounds, in seconds: 100us .. 30s,
    roughly logarithmic. *)
val default_buckets : float array

(** Find or create the named histogram.  [buckets] (ascending upper
    bounds) is only consulted on creation; an implicit overflow bucket
    catches everything above the last bound. *)
val histogram : ?registry:registry -> ?buckets:float array -> string -> histogram

val observe : histogram -> float -> unit

type hist_snapshot = {
  h_buckets : float array;  (** upper bounds, ascending *)
  h_counts : int array;  (** per bucket, one extra overflow slot *)
  h_count : int;  (** total observations *)
  h_sum : float;  (** sum of observed values *)
  h_min : float;  (** smallest observed value, [infinity] when empty *)
  h_max : float;  (** largest observed value, [neg_infinity] when empty *)
}

val hist_snapshot : histogram -> hist_snapshot

(** [quantile h q] estimates the [q]-quantile ([0.5] = median, [0.95] =
    p95) of the observed values by linear interpolation inside the
    bucket that holds the q-th observation — exactly how Prometheus's
    [histogram_quantile] reads the same buckets.  Clamps to the last
    finite bound when the quantile falls in the overflow bucket; [nan]
    on an empty histogram. *)
val quantile : histogram -> float -> float

(** {!quantile} over an already-taken snapshot, clamped to
    [[h_min, h_max]]: with few observations, interpolating inside a
    wide bucket can land far from every observed value (one 5.3 ms
    observation in the (5, 25] ms bucket reads p50 = 15 ms); the clamp
    keeps it within the data.  [--stats] and the daemon's [/status]
    render this one. *)
val clamped_quantile : hist_snapshot -> float -> float

(** {2 Registry-wide views} *)

type snapshot = {
  counters : (string * int) list;  (** sorted by name *)
  gauges : (string * float) list;  (** sorted by name *)
  histograms : (string * hist_snapshot) list;  (** sorted by name *)
}

val snapshot : registry -> snapshot

(** Zero every cell of every metric (the metrics stay registered). *)
val reset : registry -> unit

(** A hand-rolled Domain-based worker pool.

    [jobs] domains (the calling one included) claim input indices in
    order from one atomic counter and run them until none is left.
    Results are written into per-index slots, so the output order is
    that of the input regardless of scheduling — the substrate the scan
    engine builds its deterministic merge on.

    Every work item records its queue wait (pool start to claim) and
    run time into the [engine.pool.*] histograms of
    {!Wap_obs.Metrics.global}, which the CLI's [--stats] summary
    reads. *)

(** [map ~jobs f xs] is [Array.map f xs] computed by [jobs] domains;
    [jobs] defaults to {!Config.default_jobs}[ ()].
    [jobs] is clamped to [1 .. Array.length xs]; at [1] (or on singleton
    input) no domain is spawned and the map runs in the caller.

    If applications of [f] raise, every work item still runs and the
    exception of the {e lowest} failing input index is re-raised in the
    caller — which exception escapes does not depend on scheduling. *)
val map : ?jobs:int -> ('a -> 'b) -> 'a array -> 'b array

(** [map_list ~jobs f xs] is [List.map f xs] through {!map}. *)
val map_list : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list

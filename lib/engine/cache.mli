(** Digest-keyed incremental result cache.

    Entries are keyed by a hex digest built from every input that
    determines the value (source digests, tool version, active detector
    specs, cache-format version) and hold a marshalled value.  Lookups
    hit the in-memory table first; a cache created with [~dir] also
    persists every entry as a file under that directory and re-reads it
    in later runs, which is what lets [wap analyze]/[wap experiments]
    skip unchanged work between processes.

    All operations are safe to call from several domains at once.  The
    hit/miss counters are atomics, so they stay exact under any
    [--jobs]; each lookup also bumps the process-wide
    [engine.cache.{hits,misses}] counters of {!Wap_obs.Metrics.global}
    and, when tracing is on, records an instant event.

    The marshalling is untyped, so a key must always be requested at the
    type it was stored at — callers guarantee this by embedding a kind
    tag (e.g. ["parse"], ["analyze"]) and a format-version string in the
    key material.

    Disk entries are crash- and concurrency-safe: every entry is
    published by writing a unique same-directory temp file and renaming
    it into place (readers see the old or the new complete entry, never
    a torn one), and carries a digest-verified frame.  An entry that
    fails verification — truncated by a crash, corrupted on disk, or a
    foreign file — is deleted and read as a miss; a verified frame whose
    marshalled payload still cannot be decoded is likewise invalidated
    and read as a miss instead of raising.  Several processes may
    therefore share one cache directory (the fleet's cross-project
    summary store does exactly this). *)

type t

(** [create ?dir ()] makes an empty cache.  With [dir] the directory is
    created if missing and entries are persisted there.  Raises
    [Sys_error] when [dir] is not a directory and cannot be made one
    (a file, or a path under a missing directory). *)
val create : ?dir:string -> unit -> t

(** [key parts] combines the given key material into one hex digest. *)
val key : string list -> string

(** [memoize t ~key compute] returns [(v, hit)]: the cached value and
    [true] on a hit, otherwise [(compute (), false)] after storing the
    computed value under [key]. *)
val memoize : t -> key:string -> (unit -> 'a) -> 'a * bool

(** Typed probe: the cached value, counting a hit or a miss.  {!memoize}
    is [find] then, on a miss, {!store}; the engine reads every entry
    through it.  The halves are exposed for callers that time or test
    them apart (the benchmark probe, the disk-frame tests). *)
val find : t -> key:string -> 'a option

(** Store a value without touching the hit/miss counters. *)
val store : t -> key:string -> 'a -> unit

(** Drop an entry from the in-memory table and the persistence
    directory (used internally for undecodable entries; exposed for
    targeted invalidation and tests). *)
val invalidate : t -> key:string -> unit

(** Lookups since creation that found an entry / had to compute. *)
val hits : t -> int

val misses : t -> int

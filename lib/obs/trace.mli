(** Span tracing over the monotonic clock, exported as Chrome
    trace-event JSON ([chrome://tracing] / Perfetto compatible).

    A {e span} covers one timed region ([with_span]); spans opened while
    another span of the same domain is running nest under it, which the
    trace viewer renders as stacked slices (Chrome "X" complete events
    nest by time containment within one [tid]).  Each domain appends to
    its own buffer — no cross-domain synchronization per event, only a
    one-time registration when a domain emits its first event.

    Tracing is ambient: instrumentation sites call {!with_span}
    unconditionally, and when no tracer is installed ({!set_global}
    [None], the default) the only cost is one atomic load — recording
    never changes what the instrumented code computes or returns. *)

type event = {
  ev_name : string;
  ev_cat : string;  (** category: [engine], [taint], [php], ... *)
  ev_ts_ns : int;  (** start, relative to the tracer's epoch *)
  ev_dur_ns : int;  (** duration; [0] and {!is_instant} for instants *)
  ev_tid : int;  (** emitting domain's id *)
  ev_depth : int;  (** span-stack depth at emission, 0 = top level *)
  ev_args : (string * string) list;
  ev_instant : bool;
}

type t

(** A fresh tracer; its epoch (trace time zero) is the creation
    instant.  Each domain records into its own buffer of flat arrays,
    event [k] in slot [k] modulo the capacity.  Without [ring_capacity]
    a full buffer doubles, so every event is retained until the tracer
    is dropped (the batch [--trace-out] mode).  With [ring_capacity]
    each domain keeps that many slots and overwrites its {e oldest}
    event when they are full — the daemon mode, where {!drain} serves
    the recent window on demand and a domain's buffer stays that size
    however long it runs.  A non-positive capacity means unbounded. *)
val create : ?ring_capacity:int -> unit -> t

(** The per-domain ring capacity, if the tracer is bounded. *)
val ring_capacity : t -> int option

(** Install [Some t] to start recording process-wide, [None] to stop. *)
val set_global : t option -> unit

val global : unit -> t option

(** Is a global tracer installed? *)
val enabled : unit -> bool

(** [with_span ~cat name f] runs [f ()], recording a span around it in
    the current domain's buffer of the global tracer (no-op without
    one).  The span is recorded even if [f] raises. *)
val with_span :
  ?args:(string * string) list -> cat:string -> string -> (unit -> 'a) -> 'a

(** Record a zero-duration instant event. *)
val instant : ?args:(string * string) list -> cat:string -> string -> unit

(** All recorded events, every domain's buffer merged, sorted by start
    time.  Only meaningful once the traced workload has finished (worker
    domains joined). *)
val events : t -> event list

(** The events recorded since the previous drain (sorted like
    {!events}) — so each [GET /trace] poll sees only what happened since
    the last one.  A read: each buffer's one cursor is an event number,
    which the drain reads once and moves to the buffer's count, so
    {!events} and {!write} still return every drained event (in ring
    mode, until the ring evicts it).  Safe to call while other domains
    trace: an event pushed concurrently with a drain is returned by
    exactly that drain or the next one, and a buffer that grows waits
    for the drain to finish.  The one tear: when a ring filled up since
    the last drain, concurrent pushes may overwrite the oldest events
    of the window being read. *)
val drain : t -> event list

val event_count : t -> int

(** Ring events that left their ring before any {!drain} returned them:
    events a [/trace] poller missed by falling behind, or, when nothing
    drains, every overflow eviction (what {!events} and {!write} no
    longer hold).  An event evicted after a drain returned it is not
    counted, so a poller that keeps up reads 0.  Always 0 when
    unbounded. *)
val dropped : t -> int

(** The trace as a Chrome trace-event JSON document
    ([{"traceEvents": [...]}]); timestamps in microseconds.  [pid]
    defaults to the current process id.  The one writer: it reads the
    buffers' slots in place, building no record per event.  With
    [~drain:true] (default [false]) the document holds what {!drain}
    would return and moves the cursors as {!drain} does — what
    [GET /trace] serves. *)
val to_chrome_json : ?pid:int -> ?drain:bool -> t -> string

(** Write the whole trace, as {!to_chrome_json} renders it, to
    [file]. *)
val write : ?pid:int -> t -> file:string -> unit

(** Prometheus text-format exposition of a {!Metrics} registry.

    {!prometheus} renders every counter, gauge and histogram of a
    registry as one Prometheus text-format (0.0.4) document: counters
    with the [_total] suffix, histograms as cumulative
    [_bucket{le="..."}] series closed by [le="+Inf"] plus [_sum] and
    [_count].  Registry names are free-form (dots, slashes, spaces);
    exposition sanitizes them to the Prometheus charset and, for known
    partitioned families (per-method request counts, errors and
    latencies, per-algorithm training times), lifts the name's tail into
    a label so the family stays one metric.

    {!parse_text} is the deliberately strict reader of that format used
    by the test suite (round-trip proofs: escaping, bucket
    cumulativity, [_sum]/[_count] consistency). *)

(** Render the registry's current state as a Prometheus text document.
    Metric names get a [wap_] namespace prefix.  Ends with a newline;
    empty registries render to the empty string. *)
val prometheus : Metrics.registry -> string

(** One sample line, unescaped. *)
type sample = {
  s_name : string;
  s_labels : (string * string) list;
  s_value : float;
}

type parsed = {
  p_samples : sample list;  (** document order *)
  p_types : (string * string) list;  (** [# TYPE] lines, document order *)
}

(** Strict parse of a Prometheus text document: every line must be a
    well-formed [# HELP]/[# TYPE] comment or sample, label values must
    be quoted with only the three standard escapes, values must parse
    as floats ([+Inf]/[-Inf]/[NaN] included), and the document must end
    with a newline.  Returns [Error "line N: ..."] on the first
    violation. *)
val parse_text : string -> (parsed, string) result

(** This process's resident set size in bytes, read from
    [/proc/self/status] ([None] where unavailable). *)
val rss_bytes : unit -> int option

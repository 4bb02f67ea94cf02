(** The [wap serve] LSP diagnostics daemon: a language-server shell
    around {!Wap_engine.Session}.

    The set of open editor documents is the analyzed project.  The
    first [textDocument/didOpen] opens a session; further
    opens/changes/closes map to the session's incremental
    [add_file]/[update_file]/[remove_file], so an edit re-analyzes only
    the touched file (plus its include dependents).  Each message is
    handled to completion, edits included, before the next is read, so
    the session is never behind the document texts; at debug level the
    engine logs one line per file each edit re-parses and re-analyzes.
    Diagnostics are pushed with [textDocument/publishDiagnostics], only
    when they changed; predicted false positives are demoted to
    warnings (LSP severity 2) and tagged in the message.  [textDocument/codeAction]
    offers the fixer's templates — the class's stock fix, a user
    sanitization and a user validation — as whole-document workspace
    edits.

    Supported messages: [initialize], [initialized], [shutdown],
    [exit], [textDocument/didOpen|didChange|didClose|codeAction].
    Unknown requests get a [-32601] error; unknown notifications are
    ignored.  Text synchronization is full-document ([change: 1]). *)

type t

(** [create tool] — a fresh server around an assembled WAP tool.
    [jobs] resolves through {!Wap_engine.Config} ([WAP_JOBS]).
    Requests slower than [slow_ms] milliseconds log a warning
    (disabled when absent or non-positive). *)
val create : ?jobs:int -> ?slow_ms:float -> Wap_core.Tool.t -> t

(** Process one decoded client message; returns the messages to send
    back (the response if it was a request, plus any publish
    notifications), in order.  This is the whole protocol state
    machine — tests drive it in-process without a transport. *)
val handle : t -> Wap_report.Json.t -> Wap_report.Json.t list

(** True once the [exit] notification was received. *)
val finished : t -> bool

(** The process exit status LSP asks for: [1] once [exit] arrived
    without a [shutdown] request before it, else [0] — an [exit] after
    [shutdown], or end of input with no [exit] at all. *)
val exit_code : t -> int

(** Read framed messages from the channel, {!handle} them, write the
    output messages back, until [exit] or end of input. *)
val serve_channels : t -> in_channel -> out_channel -> unit

(** Serve one client over stdin/stdout (logs go to stderr).  Stdio is
    the daemon's only LSP transport. *)
val run_stdio : t -> unit

(** The {!Admin.source} for this server, read from any domain without
    touching the session: [/readyz] is ready once the first [didOpen]
    opened a session; [/metrics] scrapes {!Wap_obs.Metrics.global};
    [/trace] drains the global tracer; and [/status] renders a snapshot
    of {!Wap_obs.Metrics.global}, whose [serve.*] gauges the serving
    domain sets after each document mutation: uptime, readiness,
    generation, open document / session file / candidate counts,
    request and error totals, the last edit's re-analyzed file count, a
    [methods] object holding each method's request count and p50/p95
    latency in milliseconds ({!Wap_obs.Metrics.clamped_quantile}),
    trace event/drop counts and RSS. *)
val admin_source : t -> Admin.source

#!/usr/bin/env bash
# End-to-end smoke test for the `wap serve` admin plane.
#
# Starts the daemon with an LSP stdio transport fed through a FIFO and
# an admin HTTP listener, drives real LSP traffic (didOpen a vulnerable
# file), and asserts against the live admin endpoints:
#   /healthz  -> 200 ok, before and after the session opens
#   /readyz   -> 503 before the first didOpen, 200 after
#   /metrics  -> well-formed Prometheus text (TYPE lines, request
#                histogram with +Inf bucket and consistent _count)
#   /status   -> JSON with ready:true, an open document and a
#                per-method object holding the didOpen entry
#   /trace    -> well-formed Chrome trace JSON (traceEvents array)
#                holding the didOpen span; a second drain, after a
#                didChange, holds that span and not didOpen
#   wap top --once renders the same plane as a terminal view, with
#                p50 = p95 on the one-request didOpen row
# and that no client can bloat, leak or block the plane:
#   a 64 MB header line leaves VmRSS within 8 MiB and /healthz at 200
#   50 connections reset mid-request leave the descriptor count no higher
#   one idle connection does not keep /healthz from answering
# A second short daemon run with --trace-out checks that a /trace poll
# erases nothing: the file written at exit holds the polled didOpen span.
# A third serves the plane on --admin-socket for wap top --socket --once,
# exits 0 after shutdown + exit, and removes its socket file.
#
# Usage: scripts/admin_smoke.sh  (WAP overrides the binary under test)
set -euo pipefail

WAP=${WAP:-_build/default/bin/wap_cli.exe}
PORT=${ADMIN_PORT:-9377}
DIR=$(mktemp -d)
FIFO="$DIR/lsp.in"
OUT="$DIR/lsp.out"
LOG="$DIR/serve.log"
SRV_PID=""
IDLE_PID=""
cleanup() {
  [ -n "$SRV_PID" ] && kill "$SRV_PID" 2>/dev/null || true
  [ -n "$IDLE_PID" ] && kill "$IDLE_PID" 2>/dev/null || true
  rm -rf "$DIR"
}
trap cleanup EXIT

if [ ! -x "$WAP" ]; then
  echo "admin_smoke: $WAP not found (run 'dune build bin/wap_cli.exe' first)" >&2
  exit 2
fi

fail() {
  echo "admin_smoke FAIL: $1" >&2
  echo "--- server log ---" >&2
  cat "$LOG" >&2 || true
  exit 1
}

# GET a path; prints "<http-code>" and writes the body to $2
get() {
  curl -sS -m 10 -o "$2" -w '%{http_code}' "http://127.0.0.1:$PORT$1"
}

frame() {
  local body=$1
  printf 'Content-Length: %d\r\n\r\n%s' "${#body}" "$body"
}

mkfifo "$FIFO"
"$WAP" serve --jobs 1 --log-level info --admin-port "$PORT" --slow-ms 5000 \
  < "$FIFO" > "$OUT" 2> "$LOG" &
SRV_PID=$!

# keep the FIFO writable for the whole test; messages are appended below
exec 3> "$FIFO"

# wait for the admin plane to come up
for _ in $(seq 1 50); do
  if CODE=$(get /healthz "$DIR/healthz" 2>/dev/null) && [ "$CODE" = 200 ]; then
    break
  fi
  sleep 0.2
done
[ "${CODE:-}" = 200 ] || fail "/healthz never answered 200"
grep -q ok "$DIR/healthz" || fail "/healthz body is not ok"

# before any didOpen the daemon must be alive but not ready
CODE=$(get /readyz "$DIR/readyz")
[ "$CODE" = 503 ] || fail "/readyz should be 503 before a session opens (got $CODE)"

# open a vulnerable document over LSP
VULN='<?php $id = $_GET[\"id\"]; $r = mysql_query(\"SELECT * FROM t WHERE id = \" . $id); ?>'
frame '{"jsonrpc":"2.0","id":1,"method":"initialize","params":{}}' >&3
frame "{\"jsonrpc\":\"2.0\",\"method\":\"textDocument/didOpen\",\"params\":{\"textDocument\":{\"uri\":\"file:///smoke/a.php\",\"text\":\"$VULN\"}}}" >&3

# readiness must flip once the session is open
READY=""
for _ in $(seq 1 50); do
  if CODE=$(get /readyz "$DIR/readyz") && [ "$CODE" = 200 ]; then
    READY=yes
    break
  fi
  sleep 0.2
done
[ "$READY" = yes ] || fail "/readyz never flipped to 200 after didOpen"

# readiness flips when the session opens, inside the didOpen; /status
# counts the request under its method once the didOpen is handled
COUNTED=""
for _ in $(seq 1 50); do
  CODE=$(get /status "$DIR/status")
  [ "$CODE" = 200 ] || fail "/status answered $CODE"
  grep -q '"methods": *{' "$DIR/status" || fail "/status has no per-method object"
  if grep -q '"textDocument/didOpen": *{' "$DIR/status"; then
    COUNTED=yes
    break
  fi
  sleep 0.2
done
[ "$COUNTED" = yes ] || fail "/status never counted the didOpen under its method"
grep -q '"ready": *true' "$DIR/status" || fail "/status does not report ready:true"
grep -q '"open_documents": *1' "$DIR/status" || fail "/status does not report 1 open document"

# /metrics: well-formed Prometheus text
CODE=$(get /metrics "$DIR/metrics")
[ "$CODE" = 200 ] || fail "/metrics answered $CODE"
grep -q '^# TYPE wap_serve_requests_total counter$' "$DIR/metrics" \
  || fail "/metrics missing the request counter TYPE line"
grep -q '^# TYPE wap_serve_request_seconds histogram$' "$DIR/metrics" \
  || fail "/metrics missing the request histogram TYPE line"
grep -q 'wap_serve_request_seconds_bucket{method="textDocument/didOpen",le="+Inf"}' "$DIR/metrics" \
  || fail "/metrics missing the didOpen +Inf bucket"
# the +Inf bucket must equal _count for the same label set
INF=$(sed -n 's/^wap_serve_request_seconds_bucket{method="textDocument\/didOpen",le="+Inf"} //p' "$DIR/metrics")
CNT=$(sed -n 's/^wap_serve_request_seconds_count{method="textDocument\/didOpen"} //p' "$DIR/metrics")
[ -n "$INF" ] && [ "$INF" = "$CNT" ] \
  || fail "didOpen +Inf bucket ($INF) != _count ($CNT)"
# no malformed sample lines: every non-comment line is name{...} value
BAD=$(grep -v '^#' "$DIR/metrics" | grep -cEv '^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9.e+-]+$' || true)
[ "$BAD" = 0 ] || fail "$BAD malformed sample line(s) in /metrics"

# /trace: well-formed Chrome trace JSON, twice, while traffic continues
CODE=$(get /trace "$DIR/trace1")
[ "$CODE" = 200 ] || fail "/trace answered $CODE"
grep -q '"traceEvents":\[' "$DIR/trace1" || fail "/trace is not a Chrome trace document"
grep -q '"name":"textDocument/didOpen"' "$DIR/trace1" \
  || fail "/trace does not hold the didOpen span"
frame "{\"jsonrpc\":\"2.0\",\"method\":\"textDocument/didChange\",\"params\":{\"textDocument\":{\"uri\":\"file:///smoke/a.php\"},\"contentChanges\":[{\"text\":\"$VULN\"}]}}" >&3
sleep 0.5
CODE=$(get /trace "$DIR/trace2")
[ "$CODE" = 200 ] || fail "second /trace drain answered $CODE"
grep -q '"traceEvents":\[' "$DIR/trace2" || fail "second /trace drain is not a Chrome trace document"
grep -q '"name":"textDocument/didChange"' "$DIR/trace2" \
  || fail "second /trace drain does not hold the didChange span"
if grep -q '"name":"textDocument/didOpen"' "$DIR/trace2"; then
  fail "second /trace drain still holds the drained didOpen span"
fi

# unknown paths 404
CODE=$(get /nope "$DIR/nope")
[ "$CODE" = 404 ] || fail "unknown admin path answered $CODE, not 404"

# wap top renders the same plane
"$WAP" top --port "$PORT" --once > "$DIR/top" || fail "wap top --once failed"
grep -q 'wap serve' "$DIR/top" || fail "wap top output missing the overview table"
grep -q 'textDocument/didOpen' "$DIR/top" || fail "wap top output missing per-method latency"
# one didOpen: its p50 and p95 are both that one observation
ROW=$(grep 'textDocument/didOpen' "$DIR/top")
P50=$(echo "$ROW" | awk -F'|' '{gsub(/ /, "", $3); print $3}')
P95=$(echo "$ROW" | awk -F'|' '{gsub(/ /, "", $4); print $4}')
[ -n "$P50" ] && [ "$P50" = "$P95" ] \
  || fail "wap top didOpen row reads p50 $P50 and p95 $P95 for one request"

# a 64 MB header line is refused at 4 KiB, never held
rss_kb() { awk '/^VmRSS:/ {print $2}' "/proc/$SRV_PID/status"; }
RSS0=$(rss_kb)
python3 - "$PORT" <<'PY' || fail "could not send the 64 MB header line"
import socket, sys
s = socket.create_connection(("127.0.0.1", int(sys.argv[1])))
try:
    s.sendall(b"GET /healthz HTTP/1.1\r\nX-Big: ")
    chunk = b"a" * (1 << 20)
    for _ in range(64):
        s.sendall(chunk)
    s.sendall(b"\r\n\r\n")
    s.recv(4096)
except OSError:
    pass  # the daemon answers 400 and closes long before the line ends
s.close()
PY
CODE=$(get /healthz "$DIR/healthz") || true
[ "$CODE" = 200 ] || fail "/healthz answered ${CODE:-nothing} after a 64 MB header line"
RSS1=$(rss_kb)
[ $((RSS1 - RSS0)) -le 8192 ] \
  || fail "a 64 MB header line took VmRSS from ${RSS0} to ${RSS1} kB"

# clients that reset mid-request leave no descriptor behind
fds() { ls "/proc/$SRV_PID/fd" | wc -l; }
FDS0=$(fds)
python3 - "$PORT" <<'PY' || fail "could not reset 50 connections"
import socket, struct, sys
for _ in range(50):
    s = socket.create_connection(("127.0.0.1", int(sys.argv[1])))
    s.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n")
    s.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
    s.close()
PY
for _ in $(seq 1 50); do
  [ "$(fds)" -le "$FDS0" ] && break
  sleep 0.2
done
[ "$(fds)" -le "$FDS0" ] \
  || fail "50 reset connections took the daemon from $FDS0 to $(fds) descriptors"

# an idle connection holds the plane for one read timeout, not for good
python3 - "$PORT" > "$DIR/idle" <<'PY' &
import socket, sys, time
s = socket.create_connection(("127.0.0.1", int(sys.argv[1])))
print("connected", flush=True)
time.sleep(60)
PY
IDLE_PID=$!
for _ in $(seq 1 50); do
  grep -q connected "$DIR/idle" && break
  sleep 0.1
done
grep -q connected "$DIR/idle" || fail "the idle client never connected"
sleep 0.2
CODE=$(get /healthz "$DIR/healthz") || true
[ "$CODE" = 200 ] || fail "/healthz did not answer within 10 s behind an idle connection"
kill "$IDLE_PID" 2>/dev/null || true
wait "$IDLE_PID" 2>/dev/null || true
IDLE_PID=""

# clean shutdown
frame '{"jsonrpc":"2.0","id":9,"method":"shutdown","params":{}}' >&3
frame '{"jsonrpc":"2.0","method":"exit"}' >&3
exec 3>&-
wait "$SRV_PID" 2>/dev/null || true
SRV_PID=""

# a /trace poll erases nothing: with --trace-out, the file written at
# exit still holds the didOpen span the poll returned
TRACE_OUT="$DIR/trace-out.json"
"$WAP" serve --jobs 1 --admin-port "$PORT" --trace-out "$TRACE_OUT" \
  < "$FIFO" > "$OUT" 2> "$LOG" &
SRV_PID=$!
exec 3> "$FIFO"
frame '{"jsonrpc":"2.0","id":1,"method":"initialize","params":{}}' >&3
frame "{\"jsonrpc\":\"2.0\",\"method\":\"textDocument/didOpen\",\"params\":{\"textDocument\":{\"uri\":\"file:///smoke/a.php\",\"text\":\"$VULN\"}}}" >&3
SPAN=""
for _ in $(seq 1 50); do
  if CODE=$(get /trace "$DIR/trace3" 2>/dev/null) && [ "$CODE" = 200 ]; then
    SPAN=$(grep -o '{"name":"textDocument/didOpen",[^}]*}' "$DIR/trace3" || true)
    [ -n "$SPAN" ] && break
  fi
  sleep 0.2
done
[ -n "$SPAN" ] || fail "/trace under --trace-out never returned the didOpen span"
frame '{"jsonrpc":"2.0","id":9,"method":"shutdown","params":{}}' >&3
frame '{"jsonrpc":"2.0","method":"exit"}' >&3
exec 3>&-
wait "$SRV_PID" 2>/dev/null || true
SRV_PID=""
[ -s "$TRACE_OUT" ] || fail "--trace-out wrote no file"
grep -qF "$SPAN" "$TRACE_OUT" || fail "--trace-out file lost the didOpen span a /trace poll returned"

# the same plane on a Unix-domain socket, read by wap top --socket
SOCK="$DIR/admin.sock"
"$WAP" serve --jobs 1 --admin-socket "$SOCK" < "$FIFO" > "$OUT" 2> "$LOG" &
SRV_PID=$!
exec 3> "$FIFO"
frame '{"jsonrpc":"2.0","id":1,"method":"initialize","params":{}}' >&3
frame "{\"jsonrpc\":\"2.0\",\"method\":\"textDocument/didOpen\",\"params\":{\"textDocument\":{\"uri\":\"file:///smoke/a.php\",\"text\":\"$VULN\"}}}" >&3
TOP=""
for _ in $(seq 1 50); do
  if "$WAP" top --socket "$SOCK" --once > "$DIR/top-sock" 2>/dev/null \
    && grep -q 'textDocument/didOpen' "$DIR/top-sock"; then
    TOP=yes
    break
  fi
  sleep 0.2
done
[ "$TOP" = yes ] || fail "wap top --socket --once never showed the didOpen"
grep -q 'wap serve' "$DIR/top-sock" || fail "wap top --socket output missing the overview table"
frame '{"jsonrpc":"2.0","id":9,"method":"shutdown","params":{}}' >&3
frame '{"jsonrpc":"2.0","method":"exit"}' >&3
exec 3>&-
STATUS=0
wait "$SRV_PID" || STATUS=$?
SRV_PID=""
[ "$STATUS" = 0 ] || fail "the daemon exited $STATUS after shutdown + exit"
[ ! -e "$SOCK" ] || fail "the daemon left its admin socket file behind"

echo "admin_smoke OK: healthz/readyz transition, Prometheus metrics, /status methods, trace drain, wap top, 64 MB header, reset clients, idle client, --trace-out after a poll, --admin-socket with wap top --socket"

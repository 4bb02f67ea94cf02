#!/usr/bin/env bash
# End-to-end smoke test for the `wap serve` LSP daemon over stdio.
#
# Drives the documented editor flow with framed JSON-RPC messages:
#   an oversized header, no body    -> refused unread; the daemon reads on
#   a 1 MB header line               -> refused, dropped up to its newline
#   initialize
#   didOpen  (a vulnerable file)     -> expect publishDiagnostics with >=1 SQLI
#   didChange (sanitized contents)   -> expect publishDiagnostics clearing it
#   shutdown / exit
#
# Usage: scripts/lsp_smoke.sh  (WAP overrides the binary under test)
set -euo pipefail

WAP=${WAP:-_build/default/bin/wap_cli.exe}
OUT=$(mktemp)
trap 'rm -f "$OUT"' EXIT

if [ ! -x "$WAP" ]; then
  echo "lsp_smoke: $WAP not found (run 'dune build bin/wap_cli.exe' first)" >&2
  exit 2
fi

frame() {
  local body=$1
  printf 'Content-Length: %d\r\n\r\n%s' "${#body}" "$body"
}

# JSON string escaping for the PHP payloads
esc() { printf '%s' "$1" | sed 's/\\/\\\\/g; s/"/\\"/g'; }

VULN='<?php $id = $_GET["id"]; $r = mysql_query("SELECT * FROM t WHERE id = " . $id); ?>'
SAFE='<?php $id = mysql_real_escape_string($_GET["id"]); $r = mysql_query("SELECT * FROM t WHERE id = " . $id); ?>'
URI='file:///smoke/a.php'

{
  printf 'Content-Length: 1000000000000\r\n\r\n'
  head -c 1048576 /dev/zero | tr '\0' X
  printf '\r\n'
  frame '{"jsonrpc":"2.0","id":1,"method":"initialize","params":{}}'
  frame "{\"jsonrpc\":\"2.0\",\"method\":\"textDocument/didOpen\",\"params\":{\"textDocument\":{\"uri\":\"$URI\",\"text\":\"$(esc "$VULN")\"}}}"
  frame "{\"jsonrpc\":\"2.0\",\"method\":\"textDocument/didChange\",\"params\":{\"textDocument\":{\"uri\":\"$URI\"},\"contentChanges\":[{\"text\":\"$(esc "$SAFE")\"}]}}"
  frame '{"jsonrpc":"2.0","id":2,"method":"shutdown","params":{}}'
  frame '{"jsonrpc":"2.0","method":"exit"}'
} | "$WAP" serve --jobs 1 --log-level warn > "$OUT"

# one message per line for ordered assertions
MSGS=$(tr -d '\r' < "$OUT" | sed 's/Content-Length:/\n&/g')

fail() {
  echo "lsp_smoke FAIL: $1" >&2
  echo "--- server output ---" >&2
  printf '%s\n' "$MSGS" >&2
  exit 1
}

printf '%s\n' "$MSGS" | grep -q '"codeActionProvider":true' \
  || fail "initialize response missing codeActionProvider"

SQLI_LINE=$(printf '%s\n' "$MSGS" \
  | grep -n 'publishDiagnostics' | grep '"code":"SQLI"' \
  | head -1 | cut -d: -f1)
[ -n "$SQLI_LINE" ] || fail "no publishDiagnostics with a SQLI finding after didOpen"

printf '%s\n' "$MSGS" | sed -n "${SQLI_LINE}p" | grep -q '"severity":1' \
  || fail "SQLI diagnostic not published at error severity"

CLEAR_LINE=$(printf '%s\n' "$MSGS" \
  | grep -n 'publishDiagnostics.*"diagnostics":\[\]' \
  | head -1 | cut -d: -f1)
[ -n "$CLEAR_LINE" ] || fail "diagnostics not cleared after the sanitizing edit"

[ "$SQLI_LINE" -lt "$CLEAR_LINE" ] \
  || fail "diagnostics cleared before they were published (order $SQLI_LINE vs $CLEAR_LINE)"

echo "lsp_smoke OK: SQLI published on didOpen, cleared on sanitized didChange"

#!/usr/bin/env bash
# End-to-end smoke test for `wap fleet`.
#
# Exercises the documented fleet flow against a generated multi-project
# corpus sharing one framework layer:
#   corpus-gen --projects               -> materialize the corpus
#   fleet --workers 1 / --workers 2     -> merged NDJSON must be byte-identical
#   fleet --no-cache                    -> the same merge, and no cache traffic
#                                          (a worker caches only in --cache-dir)
#   WAP_FLEET_TEST_CRASH=<proj>         -> a killed worker is retried, output
#                                          unchanged, exit 0
#   WAP_FLEET_TEST_CRASH=<proj>:always  -> the retry dies too: nonzero exit
#                                          naming the failed project
#   summary JSON                        -> dedup hit ratio > 0 (the shared
#                                          layer was scanned once fleet-wide)
#
# Usage: scripts/fleet_smoke.sh  (WAP overrides the binary under test)
set -euo pipefail

WAP=${WAP:-_build/default/bin/wap_cli.exe}
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

if [ ! -x "$WAP" ]; then
  echo "fleet_smoke: $WAP not found (run 'dune build bin/wap_cli.exe' first)" >&2
  exit 2
fi

fail() { echo "fleet_smoke: FAIL: $*" >&2; exit 1; }

"$WAP" corpus-gen --out "$WORK/corpus" --projects 6 > /dev/null
ROOT="$WORK/corpus/projects"
[ -d "$ROOT/proj_001-1.0" ] || fail "corpus-gen --projects did not write $ROOT/proj_001-1.0"

# 1. merged output is byte-identical whatever the worker count
"$WAP" fleet "$ROOT" --workers 1 --cache-dir "$WORK/cache1" \
  --out "$WORK/w1.ndjson" --log-level warn
"$WAP" fleet "$ROOT" --workers 2 --cache-dir "$WORK/cache2" \
  --out "$WORK/w2.ndjson" --summary "$WORK/summary.json" --log-level warn
cmp "$WORK/w1.ndjson" "$WORK/w2.ndjson" \
  || fail "1-worker and 2-worker merged NDJSON differ"
[ "$(wc -l < "$WORK/w1.ndjson")" -eq 6 ] \
  || fail "expected 6 merged lines, got $(wc -l < "$WORK/w1.ndjson")"

# 2. without a cache directory nothing is cached, and the merge is the same
"$WAP" fleet "$ROOT" --workers 2 --no-cache \
  --out "$WORK/nocache.ndjson" --summary "$WORK/nocache-summary.json" \
  --log-level warn
cmp "$WORK/w1.ndjson" "$WORK/nocache.ndjson" \
  || fail "--no-cache merged NDJSON differs from the cached runs'"
grep -q '"cache_hits": 0,' "$WORK/nocache-summary.json" \
  && grep -q '"cache_misses": 0,' "$WORK/nocache-summary.json" \
  || fail "--no-cache run reports cache traffic: $(cat "$WORK/nocache-summary.json")"

# 3. the summary store deduplicates the shared framework layer
grep -q '"fleet_dedup_hit_ratio": 0\.0*[1-9]' "$WORK/summary.json" \
  || fail "dedup hit ratio is 0 — shared layer not deduplicated: $(cat "$WORK/summary.json")"

# 4. a worker killed on its first attempt is retried; output unchanged
WAP_FLEET_TEST_CRASH=proj_001-1.0 \
  "$WAP" fleet "$ROOT" --workers 2 --cache-dir "$WORK/cache3" \
  --out "$WORK/crash.ndjson" --summary "$WORK/crash-summary.json" \
  --log-level error \
  || fail "fleet did not survive a single worker death"
cmp "$WORK/w1.ndjson" "$WORK/crash.ndjson" \
  || fail "output changed after a worker death + retry"
grep -q '"retried": 1' "$WORK/crash-summary.json" \
  || fail "retry not recorded: $(cat "$WORK/crash-summary.json")"

# 5. a worker that dies on the retry too fails only its project, loudly
if WAP_FLEET_TEST_CRASH=proj_001-1.0:always \
  "$WAP" fleet "$ROOT" --workers 2 --cache-dir "$WORK/cache4" \
  --out "$WORK/doomed.ndjson" --log-level quiet 2> "$WORK/doomed.err"; then
  fail "fleet exited 0 although a project failed after its retry"
fi
grep -q 'proj_001-1.0' "$WORK/doomed.err" \
  || fail "failed project not named on stderr: $(cat "$WORK/doomed.err")"
[ "$(wc -l < "$WORK/doomed.ndjson")" -eq 5 ] \
  || fail "expected the 5 surviving projects in the merge"

echo "fleet_smoke: OK (6 projects; determinism, no-cache, dedup, retry, hard failure)"

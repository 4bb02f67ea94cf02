#!/usr/bin/env python3
"""The wap benchmark: what a user waits on, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a wap checkout, one run at a time: the generated
corpus is kept in .perfbench/ and regenerated in place by each run.  It
builds `wap` and the probe with dune, generates the workload's inputs
from the seed, measures for about S seconds, checks every verdict, and
prints one JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
workload's inputs are replayed in the probe instead, which reports the
per-layer ones.  Progress and notes go to stderr.  Workloads and
metrics are described in perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from harness import workloads  # noqa: E402
from harness.stats import Tally  # noqa: E402

WORK_DIR = ".perfbench"
TARGETS = ["./bin/wap_cli.exe", "./perfbench/probe/probe.exe"]
SETTLE_S = 15


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build():
    """Build wap and the probe from source; False if this is no wap checkout."""
    if not all(os.path.exists(os.path.join(ROOT, p)) for p in ("dune-project", "bin", "lib")):
        log("no wap sources here (dune-project, bin/, lib/): nothing to build")
        return False
    env = dict(os.environ, DUNE_CACHE="disabled")
    t0 = time.perf_counter()
    p = subprocess.run(["dune", "build", "--root", "."] + TARGETS, cwd=ROOT, env=env,
                       stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    if p.returncode != 0:
        log("build failed:\n" + p.stdout.decode("utf-8", "replace")[-2000:])
        return False
    log("build: %.1f s" % (time.perf_counter() - t0))
    return True


def clean_up(work):
    """Delete the run's work directory.  After a large tree (a scan cache)
    the disk stays slow for a few seconds, so wait that out here rather
    than in the next run's set-up."""
    files = sum(len(f) for _, _, f in os.walk(work))
    shutil.rmtree(work, ignore_errors=True)
    os.sync()
    if files > 2000:
        time.sleep(SETTLE_S)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not build():
        return 2
    os.chdir(ROOT)
    work = os.path.join(WORK_DIR, "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    os.makedirs(work)
    tally = Tally()
    ctx = workloads.Ctx(args.workload, ROOT, work, args.seed, args.seconds, tally, log)
    try:
        metrics = workloads.WORKLOADS[args.workload](ctx, bool(args.trace))
    except Exception as e:  # no result line: the run failed as a whole
        log("run failed: %s: %s" % (type(e).__name__, e))
        return 1
    finally:
        clean_up(work)
    for cause in tally.causes:
        log("failed operation: " + cause)
    log("%d of %d operations failed (%.1f%%)" % (
        tally.failed, tally.attempted, 100 * tally.failure_share()))
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Check that the benchmark is steady: run each workload once per seed and
report, for every end-to-end metric, its median over the runs and its
spread (interquartile distance as a share of the median) against the
metric's bound in BENCHMARK.json.

    python3 perfbench/steady.py --workload webapps --seeds 10 [--first-seed 1]

A spread above a third of the bound is flagged; one above the bound
fails.  setup_s is reported but, as its spread is expected to be wide,
only flagged.  The raw results go to stdout as one JSON line at the end.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from harness.stats import median, spread  # noqa: E402


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    raw = {}
    worst = "ok"
    for w in args.workload:
        values = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = bench["command"] + ["--workload", w, "--seed", str(seed), "--seconds",
                                      str(bench["run_seconds"]), "--trace", "0"]
            p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
            lines = p.stdout.decode().strip().splitlines()
            if p.returncode != 0 or not lines:
                print("%s seed %d: exit %d, no result" % (w, seed, p.returncode))
                worst = "fail"
                continue
            res = json.loads(lines[-1])
            if not res["correct"] or res["failed"]:
                print("%s seed %d: correct=%s failed=%d/%d" % (
                    w, seed, res["correct"], res["failed"], res["attempted"]))
                worst = "fail"
            for name in bounds:
                values[name].append(res["metrics"][name]["value"])
        raw[w] = values
        print("== %s (%d runs)" % (w, len(values["setup_s"])))
        for name, bound in bounds.items():
            xs = values[name]
            if len(xs) < 2:
                continue
            s = spread(xs)
            mark = "ok" if s < bound / 3 else ("wide" if s <= bound else "FAIL")
            if name != "setup_s" and mark == "FAIL":
                worst = "fail"
            print("  %-14s median %12.3f  spread %6.3f  bound %.2f  %s" % (
                name, median(xs), s, bound, mark))
    print(json.dumps(raw))
    return 0 if worst == "ok" else 1


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's workloads.

Every workload generates its inputs with `wap corpus-gen --seed N`, drives
the real `wap` binary from this one client process, checks each verdict
against the generator's ground truth (through the probe), and returns
its metrics.  Each reports the same end-to-end metric names; what
"main", "second" and "third" time is per workload (see README.md):

  workload     main                 second                third
  oneshot      analyze process      ... on files w/ finds ... on clean files
  webapps      cold scan, jobs=1    warm rescan           in-memory cache
  webapps-par  cold scan, jobs=N    cold scan, jobs=1     default flags
  lsp-edit     top-level edit RTT   function edit RTT     load (254 opens)
  fleet        fleet, fresh cache   --workers 1           rerun, warm cache

With trace=True a workload instead times its untraced process (the
median of three, or one LSP load) and replays the same inputs in the
probe.
"""

import json
import os
import random
import shutil
import time

from . import lsp, proc
from .stats import beyond, median, tail_mean, trimmed_mean

FLEET_PROJECTS = 16
LSP_PACKAGE = "Pivotx-2.3.10"
EDIT_CODE = "XSS-R"
TIMING_KEYS = ("analysis_seconds", "analysis_cpu_seconds", "phases")


class Ctx:
    def __init__(self, name, root, work, seed, seconds, tally, log):
        self.name = name
        self.root = root
        self.work = work  # relative to root, like every path handed to wap
        # The corpus lives beside the run's work directory and is
        # regenerated in place: its file names do not depend on the seed,
        # and rewriting files is steadier than deleting and recreating a
        # tree of 8,374 of them (see settle).
        self.corpus_dir = os.path.join(os.path.dirname(work),
                                       "corpus-fleet" if name == "fleet" else "corpus-webapps")
        self.seed = seed
        self.seconds = seconds
        self.tally = tally
        self.log = log
        self.jobs = os.cpu_count() or 1
        self.wap = os.path.join(root, "_build", "default", "bin", "wap_cli.exe")
        self.probe_exe = os.path.join(root, "_build", "default", "perfbench", "probe", "probe.exe")
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("WAP_")}
        self.env["TMPDIR"] = os.path.join(root, work)

    def path(self, *parts):
        return os.path.join(self.work, *parts)

    def corpus(self, *parts):
        return os.path.join(self.corpus_dir, *parts)

    def run(self, args, out=None):
        return proc.run([self.wap] + args, stdout_path=out, cwd=self.root, env=self.env)

    def probe(self, args):
        return json.loads(proc.check_output([self.probe_exe] + args, cwd=self.root,
                                            env=self.env).decode().strip().splitlines()[-1])

    def timed(self, args, out=None):
        """One operation: a failed process is counted, never retried."""
        r = self.run(args, out)
        if r.ok:
            self.tally.ok()
        else:
            self.tally.fail("wap %s: %s" % (args[0], r.error))
            self.log("failed: wap %s: %s" % (" ".join(args[:3]), r.error))
        return r


def rmtree(path):
    shutil.rmtree(path, ignore_errors=True)


def php_files(root):
    out = []
    for d, _, files in os.walk(root):
        out.extend(os.path.join(d, f) for f in files if f.endswith(".php"))
    return sorted(out)


def write_list(path, lines):
    with open(path, "w") as f:
        f.write("".join(l + "\n" for l in lines))
    return path


def corpus(ctx, extra=()):
    """Regenerate the corpus for this seed; returns the seconds it took."""
    settle()
    r = ctx.run(["corpus-gen", "--seed", str(ctx.seed), "--out", ctx.corpus()] + list(extra))
    if not r.ok:
        raise RuntimeError("corpus-gen failed: " + r.error)
    return r.wall_s


def settle():
    """Flush dirty pages (untimed), so one operation's disk writeback does
    not land in the next one's wall.  Trees of small files (caches) are
    only deleted when the run ends: on a filesystem mounted with
    `discard`, a deleted tree slows every writer for seconds after."""
    os.sync()


def setup_median(ctx, once, times=3):
    return median([once() for _ in range(times)])


def canonical_export(path):
    """The export with its timing fields removed, for identity checks."""
    with open(path) as f:
        doc = json.load(f)
    for k in TIMING_KEYS:
        doc.pop(k, None)
    return doc


def e2e(setup_s, main, second, third, rss):
    """The end-to-end metrics from one run's samples (seconds).

    The centre is a 10%-trimmed mean and the tail the mean of the slowest
    fifth, not the median and p90: on a shared host, walls switch between
    a fast and a slow mode from one second to the next, and a percentile
    jumps from one mode to the other as their mix crosses it, where these
    means move with the mix."""
    ms = lambda f, xs: (f(xs) * 1e3, "ms")
    return {
        "setup_s": (setup_s, "s"),
        "main_mean_ms": ms(trimmed_mean, main),
        "main_tail_ms": ms(tail_mean, main),
        "second_mean_ms": ms(trimmed_mean, second),
        "second_tail_ms": ms(tail_mean, second),
        "third_mean_ms": ms(trimmed_mean, third),
        "peak_rss_mb": (max(rss), "MB"),
    }


def reference(ctx, args_for, times=3):
    """Median wall of the untraced process the replay stands for;
    args_for(k) gives the k-th run's arguments (its own cache dir, if any)."""
    walls = []
    for k in range(times):
        settle()
        r = ctx.timed(args_for(k))
        if r.ok:
            walls.append(r.wall_s)
    need(walls, "reference process")
    return median(walls)


def need(samples, what):
    if not samples:
        raise RuntimeError("no successful %s in this run" % what)


def until(ctx, t0, done, minimum):
    return time.perf_counter() - t0 < ctx.seconds or done < minimum


# ---------------------------------------------------------------------------
# oneshot


def draw(ctx, tree):
    """A seeded sample of single files: half hold seeded flows, half none."""
    seeded = set(ctx.probe(["seeded", "--seed", str(ctx.seed)]))
    rels = [os.path.relpath(p, tree) for p in php_files(tree)]
    rng = random.Random(ctx.seed)
    with_truth = sorted(r for r in rels if r in seeded)
    clean = sorted(r for r in rels if r not in seeded)
    sample = rng.sample(with_truth, 50) + rng.sample(clean, 50)
    rng.shuffle(sample)
    return sample


def oneshot(ctx, trace):
    tree = ctx.corpus("webapps")
    cache = ctx.path("oneshot-cache")
    picks = []

    def once():
        t = corpus(ctx)
        rmtree(cache)
        settle()
        t0 = time.perf_counter()
        picks[:] = draw(ctx, tree)
        warm = ctx.run(["analyze", "--cache-dir", cache, os.path.join(tree, picks[-1])])
        if not warm.ok:
            raise RuntimeError("warm-up failed: " + warm.error)
        return t + time.perf_counter() - t0

    setup = setup_median(ctx, once, 1 if trace else 3)
    if trace:
        first = os.path.join(tree, picks[0])
        wall = reference(ctx, lambda k: ["analyze", "--cache-dir", ctx.path("ref-cache-%d" % k),
                                         "--json", first])
        return traced(ctx, "oneshot", wall, files=[os.path.join(tree, p) for p in picks])
    outs = ctx.path("oneshot-out")
    os.makedirs(outs, exist_ok=True)
    rows, walls = [], []
    t0 = time.perf_counter()
    rng = random.Random(ctx.seed + 1)
    order = list(picks)
    i = 0
    # at least the whole draw, so its slowest fifth holds twenty samples
    while until(ctx, t0, i, len(picks)):
        if i and i % len(order) == 0:
            rng.shuffle(order)
        rel = order[i % len(order)]
        out = os.path.join(outs, "%d.json" % i)
        r = ctx.timed(["analyze", "--cache-dir", cache, "--json", os.path.join(tree, rel)], out)
        i += 1
        if r.ok:
            rows.append((rel, out))
            walls.append(r)
    need(rows, "analyze process")
    verdicts = ctx.probe(["score-files", "--seed", str(ctx.seed),
                          write_list(ctx.path("oneshot.list"), ["%s\t%s" % row for row in rows])])
    for rel in verdicts["bad"]:
        ctx.tally.check(False, "oneshot verdict: %s has an unflagged or unmatched flow" % rel)
    ctx.log("oneshot: %d processes, %d beyond p90; totals %s" % (
        len(walls), beyond([r.wall_s for r in walls], 90),
        {k: verdicts[k] for k in ("real_reported", "real_missed", "real_undetected",
                                  "fps_predicted", "fps_reported", "unmatched")}))
    finds = []
    for (_, out), r in zip(rows, walls):
        with open(out) as f:
            finds.append(bool(json.load(f)["findings"]))
    main = [r.wall_s for r in walls]
    second = [r.wall_s for r, f in zip(walls, finds) if f]
    third = [r.wall_s for r, f in zip(walls, finds) if not f]
    need(second, "process on a file with findings")
    need(third, "process on a clean file")
    return e2e(setup, main, second, third, [r.rss_mb for r in walls])


# ---------------------------------------------------------------------------
# webapps and webapps-par


def score_tree(ctx, tree, export, what):
    """Every finding must match a seeded flow.  Missed and undetected
    flows are only reported: at some seeds the predictor dismisses one
    real flow (seed 610), or one flow that its package alone shows goes
    unseen when the 54 packages are scanned as one app (seeds 103, 108)."""
    s = ctx.probe(["score-tree", "--seed", str(ctx.seed), "--root", tree, export])
    ctx.log("%s verdicts: %s" % (what, s))
    ctx.tally.check(s["unmatched"] == 0, "%s verdict: unmatched = %d" % (what, s["unmatched"]))


def batch_loop(ctx, tree, kinds, minimum, first=()):
    """Repeat the scans in `kinds` (name -> args builder) until the run's
    time is up, the first round preceded by the scans in `first`; every
    export must equal the first one."""
    walls = {k: [] for k, _ in list(first) + kinds}
    rss = []
    ref = ref_doc = None
    outs = ctx.path("exports")
    os.makedirs(outs, exist_ok=True)
    t0 = time.perf_counter()
    i = 0
    while until(ctx, t0, i, minimum):
        for j, (name, build) in enumerate((list(first) if i == 0 else []) + kinds):
            out = os.path.join(outs, "%d-%d-%s.json" % (i, j, name))
            args = build()
            settle()
            r = ctx.timed(args + ["--json", tree], out)
            if not r.ok:
                continue
            walls[name].append(r.wall_s)
            if name == kinds[0][0]:
                rss.append(r.rss_mb)
            if ref is None:
                ref, ref_doc = out, canonical_export(out)
                score_tree(ctx, tree, out, name)
            elif canonical_export(out) != ref_doc:
                ctx.tally.check(False, "%s export %d differs from %s" % (name, i, ref))
            else:
                os.remove(out)
        i += 1
    for name in walls:
        need(walls[name], name + " scan")
    return walls, rss


def webapps(ctx, trace):
    tree = ctx.corpus("webapps")
    setup = setup_median(ctx, lambda: corpus(ctx), 1 if trace else 3)
    if trace:
        wall = reference(ctx, lambda k: ["analyze", "--jobs", "1", "--no-cache", "--json", tree])
        return traced(ctx, "batch1", wall, files=php_files(tree))

    # One fill per run: it writes 16,748 cache files, and on this host the
    # fill's wall is too unsteady for a bound (ten runs spread by 0.34 to
    # 0.48 of their median), so it is timed and logged but not reported.
    # The third scan is the default one-shot path: an in-memory cache.
    cache = ["analyze", "--jobs", "1", "--cache-dir", ctx.path("cache")]
    walls, rss = batch_loop(ctx, tree, [
        ("cold", lambda: ["analyze", "--jobs", "1", "--no-cache"]),
        ("warm", lambda: cache),
        ("memory", lambda: ["analyze", "--jobs", "1"])], 3, first=[("fill", lambda: cache)])
    ctx.log("webapps: cache fill %.0f ms" % (walls["fill"][0] * 1e3))
    return e2e(setup, walls["cold"], walls["warm"], walls["memory"], rss)


def webapps_par(ctx, trace):
    tree = ctx.corpus("webapps")
    n = str(ctx.jobs)
    setup = setup_median(ctx, lambda: corpus(ctx), 1 if trace else 3)
    if trace:
        wall = reference(ctx, lambda k: ["analyze", "--jobs", n, "--no-cache", "--json", tree])
        return traced(ctx, "batchN", wall, files=php_files(tree))
    walls, rss = batch_loop(ctx, tree, [
        ("cold-jN", lambda: ["analyze", "--jobs", n, "--no-cache"]),
        ("cold-j1", lambda: ["analyze", "--jobs", "1", "--no-cache"]),
        ("default", lambda: ["analyze"])], 3)
    return e2e(setup, walls["cold-jN"], walls["cold-j1"], walls["default"], rss)


# ---------------------------------------------------------------------------
# lsp-edit


def edit_cycle(base):
    """(kind, text, 0-based line of the added XSS-R or None) — the same
    alternation the probe replays: add at top level, remove, add inside a
    new function (which changes the file's declarations), remove."""
    n = base.count("\n")
    return [("toplevel", base + "\necho $_GET['perfbench'];\n", n + 1),
            ("toplevel", base, None),
            ("function", base + "\nfunction perfbench_edit() {\n  echo $_GET['perfbench'];\n}\n",
             n + 2),
            ("function", base, None)]


def lsp_session(ctx, files, texts, seconds, min_cycles, rtts, t0):
    """Spawn `wap serve`, open every file, then edit files[0] in a closed
    loop until `seconds` after t0.  Returns (load seconds, peak RSS MB),
    or None if the server failed."""
    client = lsp.Client([ctx.wap, "serve", "--jobs", "1"], cwd=ctx.root, env=ctx.env)
    try:
        client.request("initialize", {"processId": os.getpid(), "capabilities": {}})
        client.notify("initialized", {})
        for path in files:
            client.open(path, texts[path])
        client.barrier()
        load = time.perf_counter() - t0
        ctx.tally.ok()
        target, base = files[0], texts[files[0]]
        version, cycles = 1, 0
        while time.perf_counter() - t0 < seconds or cycles < min_cycles:
            for kind, text, line in edit_cycle(base):
                version += 1
                s = time.perf_counter()
                client.change(target, version, text)
                client.barrier()
                rtts[kind].append(time.perf_counter() - s)
                ctx.tally.ok()
                if line is None:
                    shown = not any(d.get("code") == EDIT_CODE and
                                    d["range"]["start"]["line"] > base.count("\n")
                                    for d in client.diagnostics.get(lsp.uri_of(target), []))
                else:
                    shown = client.has_diagnostic(target, EDIT_CODE, line)
                ctx.tally.check(shown, "lsp %s edit %d: XSS-R %s not shown" % (
                    kind, version, "removal" if line is None else "at line %d" % line))
            cycles += 1
    except (EOFError, OSError) as e:
        status, _ = client.close()
        ctx.tally.fail("wap serve: %s (exit %s) %s" % (
            e, status, proc.first_error(client.stderr)))
        return None
    status, rss = client.close()
    if status != 0:
        ctx.tally.fail("wap serve exit %d: %s" % (status, proc.first_error(client.stderr)))
        return None
    return load, rss


def lsp_edit(ctx, trace):
    pkg = ctx.corpus("webapps", LSP_PACKAGE)
    setup = setup_median(ctx, lambda: corpus(ctx), 1 if trace else 3)
    files = php_files(pkg)
    texts = {}
    for p in files:
        with open(os.path.join(ctx.root, p), encoding="utf-8", errors="surrogateescape") as f:
            texts[p] = f.read()
    rtts = {"toplevel": [], "function": []}
    if trace:
        got = lsp_session(ctx, files, texts, 0, 0, rtts, time.perf_counter())
        need([got] if got else [], "reference load")
        return traced(ctx, "serve", got[0], files=files, edit_files=files, cycles=10)
    # three sessions share the run: each loads, then edits for the rest
    # of its third (at least 20 cycles)
    sessions = 3
    loads, rss = [], []
    t0 = time.perf_counter()
    for k in range(sessions):
        left = ctx.seconds * (k + 1) / sessions - (time.perf_counter() - t0)
        got = lsp_session(ctx, files, texts, left, 20, rtts, t0=time.perf_counter())
        if got:
            loads.append(got[0])
            rss.append(got[1])
    need(loads, "server session")
    ctx.log("lsp-edit: %d loads, %d top-level edits (%d beyond p90), %d function edits" % (
        len(loads), len(rtts["toplevel"]), beyond(rtts["toplevel"], 90), len(rtts["function"])))
    return e2e(setup, rtts["toplevel"], rtts["function"], loads, rss)


# ---------------------------------------------------------------------------
# fleet


def fleet(ctx, trace):
    roots = [ctx.corpus("plugins"), ctx.corpus("projects")]
    extra = ["--plugins", "--projects", str(FLEET_PROJECTS)]
    setup = setup_median(ctx, lambda: corpus(ctx, extra), 1 if trace else 3)
    n = str(ctx.jobs)
    dirs = sorted(os.path.join(r, d) for r in roots for d in os.listdir(os.path.join(ctx.root, r)))

    def fleet_args(workers, cache, out):
        return ["fleet", "--workers", workers, "--quiet", "--cache-dir", cache, "--out", out] + roots

    if trace:
        wall = reference(ctx, lambda k: fleet_args(n, ctx.path("ref-cache-%d" % k),
                                                   ctx.path("ref.ndjson")))
        return traced(ctx, "fleet", wall,
                      files=[f for r in roots for f in php_files(os.path.join(ctx.root, r))],
                      fleet_dirs=dirs, edit_files=php_files(os.path.join(ctx.root, dirs[0])))
    walls = {"fresh": [], "workers1": [], "warm": []}
    rss = []
    ref = None
    t0 = time.perf_counter()
    i = 0
    while until(ctx, t0, i, 3):
        c_n, c_1 = ctx.path("fc-%d" % i), ctx.path("fc1-%d" % i)
        for name, workers, cache in (("fresh", n, c_n), ("workers1", "1", c_1), ("warm", n, c_n)):
            out = ctx.path("fleet-%s-%d.ndjson" % (name, i))
            settle()
            r = ctx.timed(fleet_args(workers, cache, out))
            if not r.ok:
                continue
            walls[name].append(r.wall_s)
            if name == "fresh":
                rss.append(r.rss_mb)
            if ref is None:
                ref = out
                s = ctx.probe(["score-fleet", "--seed", str(ctx.seed), "--projects",
                               str(FLEET_PROJECTS), out])
                ctx.log("fleet verdicts: %s" % s)
                ctx.tally.check(s["unknown"] == 0 and
                                s["plugins"]["count"] + s["projects"]["count"] == s["expected"],
                                "fleet: %d projects missing from the merge" % (
                                    s["expected"] - s["plugins"]["count"] - s["projects"]["count"]))
                for part in ("plugins", "projects"):
                    for k in ("real_missed", "unmatched"):
                        ctx.tally.check(s[part][k] == 0, "fleet %s: %s = %d" % (part, k, s[part][k]))
                ctx.tally.check(s["projects"]["real_undetected"] == 0,
                                "fleet projects: real_undetected = %d" % s["projects"]["real_undetected"])
            else:
                with open(ref, "rb") as a, open(out, "rb") as b:
                    ctx.tally.check(a.read() == b.read(),
                                    "fleet %s merge %d differs from the first" % (name, i))
                os.remove(out)
        i += 1
    for k in walls:
        need(walls[k], "fleet run (%s)" % k)
    return e2e(setup, walls["fresh"], walls["workers1"], walls["warm"], rss)


# ---------------------------------------------------------------------------
# traced replay


def traced(ctx, kind, process_wall_s, files, edit_files=None, fleet_dirs=None, cycles=5):
    """Replay the workload's inputs in the probe, one span per layer call,
    and set the replayed process against the untraced one."""
    tree = ctx.corpus("webapps")
    if edit_files is None:
        edit_files = php_files(os.path.join(tree, LSP_PACKAGE))
    if fleet_dirs is None:
        fleet_dirs = sorted(os.path.join(tree, d) for d in os.listdir(os.path.join(ctx.root, tree)))[:8]
    spans = os.path.join(os.path.dirname(ctx.work), "spans-%s.json" % ctx.name)
    m = ctx.probe(["trace", "--proc", kind, "--jobs", str(ctx.jobs), "--work", ctx.work,
                   "--cycles", str(cycles), "--spans", spans,
                   "--files", write_list(ctx.path("files.list"), files),
                   "--edit-files", write_list(ctx.path("edit.list"), edit_files),
                   "--fleet-dirs", write_list(ctx.path("fleet.list"), fleet_dirs)])
    ctx.tally.ok()
    ctx.tally.check(m["fleet.failed"] == 0, "probe fleet: %d projects failed" % m["fleet.failed"])
    wall_ms = process_wall_s * 1e3
    m["trace.process_wall_ms"] = wall_ms
    m["trace.overhead_ms"] = m["trace.replay_wall_ms"] - wall_ms
    m["core.unattributed_ms"] = wall_ms - m["trace.layer_sum_ms"]
    m["core.unattributed_share"] = m["core.unattributed_ms"] / wall_ms
    if m["pool.warmed_j1"]:
        ctx.log("note: the replay ran Pool.map at jobs=1 before any jobs=%d call, "
                "which sidesteps the pool's lazy-metric race" % ctx.jobs)
    ctx.log("traced %s: process %.1f ms, replay %.1f ms, layers %.1f ms, unattributed %.1f%%" % (
        kind, wall_ms, m["trace.replay_wall_ms"], m["trace.layer_sum_ms"],
        100 * m["core.unattributed_share"]))
    return {k: (v, unit_of(k)) for k, v in m.items()}


def unit_of(name):
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s") and not name.endswith("per_s"):
        return "s"
    if name.endswith("tokens_per_s"):
        return "1/s"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith(("ratio", "share")):
        return "ratio"
    return "count"


WORKLOADS = {
    "oneshot": oneshot,
    "webapps": webapps,
    "webapps-par": webapps_par,
    "lsp-edit": lsp_edit,
    "fleet": fleet,
}

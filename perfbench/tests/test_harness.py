"""Tests of the benchmark harness: LSP framing and the barrier client,
percentiles, and failure accounting.

    python3 -m unittest discover -s perfbench/tests

The barrier tests drive a stand-in server; the last test drives the
real `wap serve` over the tiny fixture project when `wap` is built.
"""

import io
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

from harness import lsp, proc  # noqa: E402
from harness.stats import (Tally, beyond, median, percentile, spread,  # noqa: E402
                           tail_mean, trimmed_mean)
from harness.workloads import edit_cycle  # noqa: E402

FIXTURE = os.path.join(HERE, "fixture", "app")
WAP = os.path.join(ROOT, "_build", "default", "bin", "wap_cli.exe")


def fixture_texts():
    paths = sorted(os.path.join(FIXTURE, f) for f in os.listdir(FIXTURE))
    texts = {}
    for p in paths:
        with open(p) as f:
            texts[p] = f.read()
    return paths, texts


class Framing(unittest.TestCase):
    def test_round_trip(self):
        msgs = [{"jsonrpc": "2.0", "id": 1, "method": "initialize", "params": {}},
                {"jsonrpc": "2.0", "method": "x", "params": {"text": "café \r\n"}}]
        stream = io.BytesIO(b"".join(lsp.encode(m) for m in msgs))
        self.assertEqual([lsp.read_message(stream) for _ in msgs], msgs)
        self.assertIsNone(lsp.read_message(stream))

    def test_length_counts_bytes(self):
        frame = lsp.encode({"s": "é"})
        header, body = frame.split(b"\r\n\r\n")
        self.assertEqual(int(header.split(b":")[1]), len(body))

    def test_extra_headers_and_truncation(self):
        body = b'{"a":1}'
        stream = io.BytesIO(b"Content-Type: x\r\nContent-Length: 7\r\n\r\n" + body)
        self.assertEqual(lsp.read_message(stream), {"a": 1})
        self.assertIsNone(lsp.read_message(io.BytesIO(b"Content-Length: 9\r\n\r\n{}")))


class Barrier(unittest.TestCase):
    def client(self):
        return lsp.Client([sys.executable, os.path.join(HERE, "fake_server.py")])

    def test_edit_cycle_is_seen_after_each_barrier(self):
        paths, texts = fixture_texts()
        target = paths[0]
        c = self.client()
        c.request("initialize")
        for p in paths:
            c.open(p, texts[p])
        c.barrier()
        for version, (_, text, line) in enumerate(edit_cycle(texts[target]), start=2):
            c.change(target, version, text)
            reply = c.barrier()
            self.assertEqual(reply["error"]["code"], -32601)
            if line is None:
                self.assertFalse(c.diagnostics.get(lsp.uri_of(target)))
            else:
                self.assertTrue(c.has_diagnostic(target, "XSS-R", line))
        status, _ = c.close()
        self.assertEqual(status, 0)

    def test_server_death_is_reported(self):
        c = self.client()
        c.request("initialize")
        c.send({"jsonrpc": "2.0", "id": 99, "method": "$/crash"})
        with self.assertRaises(EOFError):
            c.barrier()
        status, _ = c.close()
        self.assertEqual(status, 7)


class Percentiles(unittest.TestCase):
    def test_interpolates_between_ranks(self):
        xs = list(range(1, 101))
        self.assertEqual(median(xs), 50.5)
        self.assertAlmostEqual(percentile(xs, 90), 90.1)
        self.assertEqual(percentile([3.0], 90), 3.0)
        self.assertEqual(beyond(xs, 90), 10)

    def test_order_does_not_matter(self):
        self.assertEqual(median([5, 1, 3]), 3)

    def test_spread_is_iqr_over_median(self):
        xs = [10.0] * 5 + [12.0] * 5
        self.assertGreater(spread(xs), 0.0)
        self.assertEqual(spread([7.0] * 10), 0.0)

    def test_trimmed_and_tail_means(self):
        xs = [1.0] * 8 + [100.0, 1000.0]
        self.assertEqual(trimmed_mean(xs), (7 * 1.0 + 100.0) / 8)
        self.assertEqual(tail_mean(xs), 550.0)
        self.assertEqual(tail_mean([4.0, 2.0]), 4.0)
        # a mode mix crossing the median moves the trimmed mean a little,
        # the median all the way
        fast, slow = [1.0] * 10, [2.0] * 10
        a, b = fast[:6] + slow[:4], fast[:4] + slow[:6]
        self.assertEqual((median(a), median(b)), (1.0, 2.0))
        self.assertLess(trimmed_mean(b) - trimmed_mean(a), 0.3)

    def test_no_values(self):
        with self.assertRaises(ValueError):
            percentile([], 50)


class Failures(unittest.TestCase):
    def test_tally_counts_failures_against_attempts(self):
        t = Tally()
        t.ok()
        t.ok()
        t.fail("wap analyze: exit 2")
        self.assertEqual((t.attempted, t.failed, t.correct), (3, 1, True))
        self.assertAlmostEqual(t.failure_share(), 1 / 3)
        t.check(False, "verdict")
        self.assertEqual((t.attempted, t.failed, t.correct), (3, 2, False))
        self.assertEqual(t.causes, ["wap analyze: exit 2", "verdict"])

    def test_process_exit_keeps_first_stderr_line(self):
        r = proc.run([sys.executable, "-c",
                      "import sys; sys.stderr.write('wap: internal error, uncaught exception:\\n"
                      "     CamlinternalLazy.Undefined\\n'); sys.exit(125)"])
        self.assertFalse(r.ok)
        self.assertEqual(r.status, 125)
        self.assertEqual(r.error,
                         "wap: internal error, uncaught exception: CamlinternalLazy.Undefined")

    def test_signal_death_is_a_failure(self):
        r = proc.run([sys.executable, "-c", "import os, signal; os.kill(os.getpid(), signal.SIGKILL)"])
        self.assertEqual(r.status, -9)
        self.assertFalse(r.ok)

    def test_success_measures_wall_and_rss(self):
        r = proc.run([sys.executable, "-c", "pass"])
        self.assertTrue(r.ok)
        self.assertGreater(r.wall_s, 0)
        self.assertGreater(r.rss_mb, 0)
        self.assertEqual(r.error, "")


@unittest.skipUnless(os.path.exists(WAP), "wap is not built (dune build)")
class RealServer(unittest.TestCase):
    def test_fixture_edits_through_wap_serve(self):
        paths, texts = fixture_texts()
        target = paths[0]
        c = lsp.Client([WAP, "serve", "--jobs", "1"])
        c.request("initialize", {"capabilities": {}})
        for p in paths:
            c.open(p, texts[p])
        c.barrier()
        for version, (_, text, line) in enumerate(edit_cycle(texts[target]) * 2, start=2):
            c.change(target, version, text)
            c.barrier()
            if line is not None:
                self.assertTrue(c.has_diagnostic(target, "XSS-R", line))
            else:
                self.assertFalse(any(d["range"]["start"]["line"] > texts[target].count("\n")
                                     for d in c.diagnostics.get(lsp.uri_of(target), [])))
        status, rss = c.close()
        self.assertEqual(status, 0)
        self.assertGreater(rss, 0)


if __name__ == "__main__":
    unittest.main()

"""Percentiles, spreads and the attempt/failure tally of one run."""

import statistics


def percentile(values, p):
    """The p-th percentile (0..100), interpolated between closest ranks."""
    if not values:
        raise ValueError("percentile of no values")
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values):
    return percentile(values, 50)


def trimmed_mean(values, cut=0.1):
    """Mean of the values left after dropping the lowest and highest
    `cut` share of them."""
    xs = sorted(values)
    k = int(len(xs) * cut)
    kept = xs[k:len(xs) - k]
    return sum(kept) / len(kept)


def tail_mean(values, share=0.2):
    """Mean of the slowest `share` of the values (at least one)."""
    xs = sorted(values)
    k = max(1, int(round(len(xs) * share)))
    return sum(xs[-k:]) / k


def spread(values):
    """Distance between the first and third quartile, as a share of the
    median (the steadiness measure of the benchmark's own bounds)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def beyond(values, p):
    """How many samples lie strictly above the p-th percentile."""
    cut = percentile(values, p)
    return sum(1 for v in values if v > cut)


class Tally:
    """Operations attempted and failed in one run.

    A failure is never retried or hidden: it counts once against the
    attempts and keeps its cause (a process's first stderr line, or the
    verdict check that did not hold).  A failed verdict check also makes
    the run incorrect."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.causes = []

    def ok(self):
        self.attempted += 1

    def fail(self, cause):
        self.attempted += 1
        self.failed += 1
        self.causes.append(cause)

    def check(self, cond, cause):
        """A verdict check on an operation already counted as attempted."""
        if not cond:
            self.failed += 1
            self.correct = False
            self.causes.append(cause)
        return cond

    def failure_share(self):
        return self.failed / self.attempted if self.attempted else 0.0

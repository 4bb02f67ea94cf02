"""Run one child process, timing its wall and reading its peak RSS from
the kernel's per-child accounting (wait4)."""

import os
import subprocess
import time
from dataclasses import dataclass


@dataclass
class Result:
    wall_s: float
    status: int  # exit code, or minus the signal number
    rss_mb: float  # peak resident set of the child and its reaped children
    error: str  # first stderr line(s) of a failed process, else ""

    @property
    def ok(self):
        return self.status == 0


def first_error(stderr):
    """The first stderr line, joined with the next when the first only
    announces an exception ("...uncaught exception:")."""
    lines = [l.strip() for l in stderr.decode("utf-8", "replace").splitlines() if l.strip()]
    if not lines:
        return ""
    if lines[0].endswith(":") and len(lines) > 1:
        return lines[0] + " " + lines[1]
    return lines[0]


def decode_status(raw):
    if os.WIFSIGNALED(raw):
        return -os.WTERMSIG(raw)
    return os.WEXITSTATUS(raw)


def run(argv, stdout_path=None, cwd=None, env=None):
    """Run argv to completion; stdout goes to stdout_path (or nowhere)."""
    with open(stdout_path or os.devnull, "wb") as out:
        t0 = time.perf_counter()
        p = subprocess.Popen(argv, stdout=out, stderr=subprocess.PIPE,
                             stdin=subprocess.DEVNULL, cwd=cwd, env=env)
        stderr = p.stderr.read()
        _, raw, usage = os.wait4(p.pid, 0)
        wall = time.perf_counter() - t0
        p.stderr.close()
        p.returncode = decode_status(raw)
    status = decode_status(raw)
    # Linux reports ru_maxrss in KiB
    return Result(wall, status, usage.ru_maxrss / 1024.0,
                  (first_error(stderr) or "exit %d" % status) if status else "")


def check_output(argv, cwd=None, env=None):
    """Run a helper to completion and return its stdout; raise on failure."""
    p = subprocess.run(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                       stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    if p.returncode != 0:
        raise RuntimeError("%s failed: %s" % (argv[0], first_error(p.stderr) or p.returncode))
    return p.stdout

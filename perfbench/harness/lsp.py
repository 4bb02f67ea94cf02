"""A minimal LSP client for `wap serve` over stdio.

The server publishes diagnostics only when they change, so an edit
alone has no reply to wait for.  It does answer messages in order,
though: after a notification the client sends a request the server
does not know (`$/perfbench/barrier`), and the server's error reply to
it arrives only after everything the notification caused.  That reply
is the barrier the round trip is timed to.
"""

import json
import os
import queue
import signal
import subprocess
import threading
import time

BARRIER = "$/perfbench/barrier"


def encode(msg):
    body = json.dumps(msg, separators=(",", ":")).encode("utf-8")
    return b"Content-Length: %d\r\n\r\n" % len(body) + body


def read_message(stream):
    """One framed message from a binary stream, or None at end of input."""
    length = None
    while True:
        line = stream.readline()
        if not line:
            return None
        line = line.strip()
        if not line:
            if length is None:
                continue
            break
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value.strip())
    body = stream.read(length)
    if len(body) < length:
        return None
    return json.loads(body)


def uri_of(path):
    return "file://" + os.path.abspath(path)


class Client:
    """One server process.  A reader thread drains its stdout into a queue,
    so large publishes can never block the server while the client writes."""

    def __init__(self, argv, cwd=None, env=None):
        self.proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        self.inbox = queue.Queue()
        self.diagnostics = {}  # uri -> latest published list
        self.next_id = 1
        self.stderr = b""
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        self._errs = threading.Thread(target=self._drain_stderr, daemon=True)
        self._errs.start()

    def _read(self):
        while True:
            msg = read_message(self.proc.stdout)
            self.inbox.put(msg)
            if msg is None:
                return

    def _drain_stderr(self):
        # keep only the head: a long session logs a line per request
        for line in self.proc.stderr:
            if len(self.stderr) < 4096:
                self.stderr += line

    def send(self, msg):
        self.proc.stdin.write(encode(msg))
        self.proc.stdin.flush()

    def notify(self, method, params):
        self.send({"jsonrpc": "2.0", "method": method, "params": params})

    def request(self, method, params=None, timeout=120):
        """Send a request and return its response; publishes seen while
        waiting update the client's view."""
        rid = self.next_id
        self.next_id += 1
        self.send({"jsonrpc": "2.0", "id": rid, "method": method, "params": params or {}})
        deadline = time.monotonic() + timeout
        while True:
            msg = self.inbox.get(timeout=max(0.0, deadline - time.monotonic()))
            if msg is None:
                raise EOFError("server closed its output")
            if msg.get("method") == "textDocument/publishDiagnostics":
                p = msg["params"]
                self.diagnostics[p["uri"]] = p["diagnostics"]
            elif msg.get("id") == rid:
                return msg

    def barrier(self):
        """Wait until the server has handled everything sent so far."""
        return self.request(BARRIER)

    def open(self, path, text):
        self.notify("textDocument/didOpen", {"textDocument": {
            "uri": uri_of(path), "languageId": "php", "version": 1, "text": text}})

    def change(self, path, version, text):
        self.notify("textDocument/didChange", {
            "textDocument": {"uri": uri_of(path), "version": version},
            "contentChanges": [{"text": text}]})

    def close(self):
        """shutdown + exit; returns (exit status, peak RSS in MB)."""
        try:
            self.request("shutdown", timeout=30)
            self.notify("exit", {})
            self.proc.stdin.close()
        except (OSError, EOFError, queue.Empty):
            # not Popen.kill: it polls first, which would reap the child
            # before wait4 can read its rusage
            try:
                os.kill(self.proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        _, raw, usage = os.wait4(self.proc.pid, 0)
        self.proc.returncode = raw
        self._reader.join(timeout=10)
        self._errs.join(timeout=10)
        self.proc.stdout.close()
        self.proc.stderr.close()
        status = -os.WTERMSIG(raw) if os.WIFSIGNALED(raw) else os.WEXITSTATUS(raw)
        return status, usage.ru_maxrss / 1024.0

    def has_diagnostic(self, path, code, line):
        """Does the client's view show a `code` diagnostic on 0-based `line`?"""
        return any(d.get("code") == code and d["range"]["start"]["line"] == line
                   for d in self.diagnostics.get(uri_of(path), []))

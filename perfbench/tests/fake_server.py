"""A stand-in for `wap serve` with the same ordering contract: it answers
messages in order, publishes diagnostics only when they change, and
answers unknown requests with a -32601 error.  Its one "detector" flags
every line holding `echo $_GET` as XSS-R.  A `$/crash` request makes it
exit without replying."""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))

from harness.lsp import encode, read_message  # noqa: E402


def diagnostics(text):
    return [{"range": {"start": {"line": i, "character": 0}, "end": {"line": i, "character": 4}},
             "severity": 1, "code": "XSS-R", "source": "fake", "message": "XSS-R"}
            for i, line in enumerate(text.split("\n")) if "echo $_GET" in line]


def main():
    stdin, stdout = sys.stdin.buffer, sys.stdout.buffer
    published = {}
    while True:
        msg = read_message(stdin)
        if msg is None or msg.get("method") == "exit":
            return
        method, params, rid = msg.get("method"), msg.get("params", {}), msg.get("id")
        out = []
        if method in ("textDocument/didOpen", "textDocument/didChange"):
            uri = params["textDocument"]["uri"]
            text = (params["textDocument"]["text"] if method.endswith("didOpen")
                    else params["contentChanges"][-1]["text"])
            diags = diagnostics(text)
            if published.get(uri) != diags:
                published[uri] = diags
                out.append({"jsonrpc": "2.0", "method": "textDocument/publishDiagnostics",
                            "params": {"uri": uri, "diagnostics": diags}})
        elif method == "$/crash":
            sys.exit(7)
        elif method in ("initialize", "shutdown"):
            out.append({"jsonrpc": "2.0", "id": rid, "result": {} if method == "initialize" else None})
        elif rid is not None:
            out.append({"jsonrpc": "2.0", "id": rid,
                        "error": {"code": -32601, "message": "method not found: " + method}})
        for m in out:
            stdout.write(encode(m))
        stdout.flush()


if __name__ == "__main__":
    main()

"""The serve tier as a subprocess, and a one-connection closed-loop client.

The server is ``python -m repro serve --port 0`` with default settings,
started from the checkout's ``src``.  The client holds one keep-alive
connection and sends the next request only after the previous reply has
been read in full; when the server closes the connection (its
``--max-requests-per-conn`` cap) the next request reconnects, which is
expected and not a failure.
"""

from __future__ import annotations

import collections
import http.client
import json
import os
import re
import subprocess
import sys
import threading
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple


class ServerProcess:
    """``python -m repro serve --port 0`` owned by the benchmark."""

    def __init__(self, root: Path) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            cwd=str(root), env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        self.stderr_tail: "collections.deque[str]" = collections.deque(maxlen=40)
        self._drain = threading.Thread(target=self._drain_stderr, daemon=True)
        self._drain.start()
        self.host, self.port = self._await_announce()

    def _drain_stderr(self) -> None:
        for line in self.proc.stderr:
            self.stderr_tail.append(line.rstrip())

    def _await_announce(self) -> Tuple[str, int]:
        # The CLI prints "serving on http://HOST:PORT" once bound.
        for line in self.proc.stdout:
            m = re.match(r"serving on http://([^:]+):(\d+)", line.strip())
            if m:
                return m.group(1), int(m.group(2))
        self.proc.wait(timeout=10)
        raise RuntimeError(
            "server exited before announcing its port:\n" + "\n".join(self.stderr_tail)
        )

    def peak_rss_mb(self) -> float:
        """The server's ``VmHWM`` (peak resident set) in MiB."""
        text = Path(f"/proc/{self.proc.pid}/status").read_text()
        kb = int(re.search(r"^VmHWM:\s+(\d+)\s+kB", text, re.M).group(1))
        return kb / 1024.0

    def stop(self, client: Optional["Client"] = None) -> None:
        """Ask for a clean shutdown; kill if it does not come."""
        try:
            if client is not None and self.proc.poll() is None:
                client.request("POST", "/shutdown", b"")
        except (OSError, http.client.HTTPException):
            pass
        try:
            self.proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=15)
        self.proc.stdout.close()
        self._drain.join(timeout=5)
        self.proc.stderr.close()


class Client:
    """One keep-alive HTTP/1.1 connection; reconnects when the server closes."""

    def __init__(self, host: str, port: int) -> None:
        self.host, self.port = host, port
        self.conn = http.client.HTTPConnection(host, port, timeout=120)

    def request(self, method: str, path: str, body: bytes,
                content_type: str = "application/json") -> Tuple[int, bytes]:
        self.conn.request(method, path, body=body,
                          headers={"Content-Type": content_type})
        resp = self.conn.getresponse()
        data = resp.read()
        if resp.will_close:
            self.conn.close()
        return resp.status, data

    def json(self, method: str, path: str, doc: Any = None) -> Tuple[int, Any]:
        body = b"" if doc is None else json.dumps(doc).encode()
        status, data = self.request(method, path, body)
        return status, json.loads(data) if data else None

    def close(self) -> None:
        self.conn.close()


def parse_stream(data: bytes) -> Dict[str, Any]:
    """Summarise one ``POST /query`` NDJSON reply.

    Returns per-(query, tau) counts from the ``result`` lines, the
    ``records`` lines' byte size and their list-length/count agreement,
    the ``batch-end`` cache stats, and whether every query succeeded.
    A stream without ``batch-end`` is truncated.
    """
    counts: Dict[Tuple[int, str], int] = {}
    ok = True
    truncated = True
    record_bytes = 0
    record_lines_consistent = True
    cache: Dict[str, Any] = {}
    for raw in data.splitlines():
        if not raw.strip():
            continue
        line = json.loads(raw)
        kind = line.get("type")
        if kind == "records":
            record_bytes += len(raw) + 1
            if len(line["records"]) != line["count"]:
                record_lines_consistent = False
        elif kind == "result":
            ok = ok and bool(line.get("ok"))
            for tau, n in line.get("counts", {}).items():
                counts[(int(line["query"]), tau)] = int(n)
        elif kind == "batch-end":
            truncated = False
            ok = ok and bool(line.get("ok"))
            cache = line.get("cache", {})
    return {
        "ok": ok and not truncated,
        "truncated": truncated,
        "counts": counts,
        "records": sum(counts.values()),
        "record_bytes": record_bytes,
        "record_lines_consistent": record_lines_consistent,
        "cache_builds": int(cache.get("builds", 0)),
    }


def collect_records(data: bytes, query: int) -> List[Dict[str, Any]]:
    """Every record the stream reported for one query (all taus)."""
    out: List[Dict[str, Any]] = []
    for raw in data.splitlines():
        if raw.strip():
            line = json.loads(raw)
            if line.get("type") == "records" and line.get("query") == query:
                out.extend(line["records"])
    return out


"""The out-of-process load generator: spawn the server, drive it, stop it.

The server runs as ``python -m repro.cli serve --http`` (or through
``launcher.py`` for the traced run) in its own process tree; this module
talks to it from the benchmark's single client process over one
keep-alive HTTP/1.1 connection, one request at a time (a closed loop).
"""

from __future__ import annotations

import http.client
import json
import math
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

_URL = re.compile(r"serving plans over http://([\w.\-]+):(\d+)")

#: Seconds a server may take to bind before the launch counts as failed.
STARTUP_TIMEOUT = 120.0
#: Seconds one request may take before it counts as a failed operation.
REQUEST_TIMEOUT = 60.0


class ServerError(RuntimeError):
    """The server did not start, or the connection to it broke."""


class Client:
    """One keep-alive connection; every call is one closed-loop round trip.

    ``deadline`` (a ``time.monotonic`` instant) bounds the whole run: past
    it every call fails at once instead of waiting on a stuck server.
    """

    def __init__(self, host: str, port: int, deadline: float = math.inf) -> None:
        self.host = host
        self.port = port
        self.deadline = deadline
        self._conn = http.client.HTTPConnection(host, port)

    def call(self, method: str, path: str, body: Optional[bytes] = None
             ) -> Tuple[int, bytes, float, float]:
        """``(status, raw body, start, round-trip seconds)``.

        The round trip runs from handing the request to the socket to
        having read the whole response body.  A broken connection is
        reopened once for the next call and raises :class:`ServerError`.
        """
        headers = {"Content-Type": "application/json"} if body is not None else {}
        timeout = min(REQUEST_TIMEOUT, self.deadline - time.monotonic())
        if timeout <= 0:
            raise ServerError(f"{method} {path}: the run's deadline has passed")
        if self._conn.sock is not None:
            self._conn.sock.settimeout(timeout)
        self._conn.timeout = timeout
        start = time.perf_counter()
        try:
            self._conn.request(method, path, body=body, headers=headers)
            reply = self._conn.getresponse()
            data = reply.read()
        except (OSError, http.client.HTTPException) as exc:
            self._conn.close()
            self._conn = http.client.HTTPConnection(self.host, self.port)
            raise ServerError(f"{method} {path}: {exc}") from exc
        return reply.status, data, start, time.perf_counter() - start

    def post(self, path: str, payload: Dict[str, Any]) -> Tuple[int, Any, float, float]:
        """POST a JSON payload; ``(status, decoded body, start, rtt)``."""
        status, data, start, rtt = self.call(
            "POST", path, json.dumps(payload).encode("utf-8"))
        return status, _decode(data), start, rtt

    def get(self, path: str) -> Any:
        """GET a JSON document (used outside the timed phase)."""
        status, data, _start, _rtt = self.call("GET", path)
        if status != 200:
            raise ServerError(f"GET {path} answered {status}")
        return _decode(data)

    def close(self) -> None:
        """Close the connection."""
        self._conn.close()


def _decode(data: bytes) -> Any:
    try:
        return json.loads(data)
    except ValueError:
        return None


def _descendants(pid: int) -> List[int]:
    """Every live process below ``pid``, from ``/proc``."""
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as fh:
                stat = fh.read()
        except OSError:
            continue
        # Field 4 (ppid) follows the parenthesised command name.
        ppid = int(stat[stat.rindex(b")") + 2:].split()[1])
        children.setdefault(ppid, []).append(int(entry))
    out: List[int] = []
    stack = [pid]
    while stack:
        for child in children.get(stack.pop(), []):
            out.append(child)
            stack.append(child)
    return out


def _hwm_kb(pid: int) -> int:
    """Peak resident set (``VmHWM``) of one process, in KiB (0 if gone)."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class ServerProcess:
    """One ``fupermod serve --http`` process tree.

    Args:
        root: the checkout root (``src/`` is put on the server's path).
        args: the ``serve`` arguments after ``--http --port 0``.
        trace_dir: when given, launch through ``launcher.py`` and write
            spans to this directory.
        deadline: ``time.monotonic`` instant bounding start-up and every
            client call.
    """

    def __init__(self, root: Path, args: Sequence[str],
                 trace_dir: Optional[Path] = None, deadline: float = math.inf) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        if trace_dir is not None:
            env["PERFBENCH_TRACE_DIR"] = str(trace_dir)
            head = [sys.executable, str(Path(__file__).resolve().parent / "launcher.py")]
        else:
            head = [sys.executable, "-m", "repro.cli"]
        self.cmd = head + ["serve", "--http", "--port", "0", *args]
        self.env = env
        self.deadline = deadline
        self.proc: Optional[subprocess.Popen] = None
        self.started_at = 0.0
        self.log: List[str] = []
        self._bound = threading.Event()
        self.address: Optional[Tuple[str, int]] = None
        self._reader: Optional[threading.Thread] = None

    def start(self, tick: Optional[Callable[[], Any]] = None) -> "ServerProcess":
        """Spawn and wait until the server announces its bound port,
        calling ``tick`` every 50 ms of the wait."""
        self.started_at = time.perf_counter()
        self.proc = subprocess.Popen(
            self.cmd, env=self.env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        self._reader = threading.Thread(target=self._read_stderr, daemon=True)
        self._reader.start()
        deadline = min(self.deadline, time.monotonic() + STARTUP_TIMEOUT)
        while not self._bound.wait(0.05):
            if tick is not None:
                tick()
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                tail = " | ".join(self.log[-5:])
                raise ServerError(f"server did not start: {tail}")
        return self

    def _read_stderr(self) -> None:
        # Keep draining so the server never blocks on a full pipe.
        assert self.proc is not None and self.proc.stderr is not None
        for line in self.proc.stderr:
            self.log.append(line.rstrip())
            if self.address is None:
                match = _URL.search(line)
                if match:
                    self.address = (match.group(1), int(match.group(2)))
                    self._bound.set()

    def client(self) -> Client:
        """A fresh keep-alive client of this server."""
        assert self.address is not None
        return Client(*self.address, deadline=self.deadline)

    def rss_mb(self) -> float:
        """Summed peak RSS of the server and all its descendants, in MB."""
        assert self.proc is not None
        pids = [self.proc.pid, *_descendants(self.proc.pid)]
        return sum(_hwm_kb(pid) for pid in pids) * 1024 / 1e6

    def stop(self, timeout: float = 20.0) -> int:
        """SIGTERM the tree's root, wait for every process to end."""
        if self.proc is None:
            return 0
        stragglers = _descendants(self.proc.pid)
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait()
        for pid in stragglers:
            _reap(pid)
        if self._reader is not None:
            self._reader.join(timeout=5.0)
        return code


def _ended(pid: int) -> bool:
    """True once ``pid`` is gone or a zombie awaiting its reaper."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as fh:
            stat = fh.read()
    except OSError:
        return True
    return stat[stat.rindex(b")") + 2:].split()[0] == b"Z"


def _reap(pid: int, grace: float = 10.0) -> None:
    """Wait for a grandchild to exit; kill it if it outstays ``grace``."""
    deadline = time.monotonic() + grace
    while time.monotonic() < deadline:
        if _ended(pid):
            return
        time.sleep(0.02)
    try:
        os.kill(pid, signal.SIGKILL)
    except OSError:
        pass

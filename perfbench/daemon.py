"""A ``reg-cluster serve`` daemon in a subprocess, and a keep-alive client.

The benchmark drives the daemon exactly as a user would: over HTTP, on
one persistent connection.  Everything here is stdlib only.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

#: 429 retries before a request counts as failed.
MAX_RETRIES = 5


class HttpError(RuntimeError):
    """A request that still failed after client retries."""


class Client:
    """One persistent HTTP/1.1 connection to the daemon."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)

    def request(
        self, method: str, path: str, body: Optional[bytes] = None
    ) -> Tuple[int, bytes]:
        headers = {"Content-Type": "application/json"} if body else {}
        for attempt in range(MAX_RETRIES + 1):
            try:
                self.conn.request(method, path, body=body, headers=headers)
                response = self.conn.getresponse()
                data = response.read()
            except (OSError, http.client.HTTPException):
                # The daemon may close an idle keep-alive socket: reconnect
                # once per attempt.
                self.conn.close()
                self.conn = http.client.HTTPConnection(
                    "127.0.0.1", self.port, timeout=120
                )
                if attempt == MAX_RETRIES:
                    raise
                continue
            if response.status == 429 and attempt < MAX_RETRIES:
                time.sleep(min(1.0, float(response.getheader("Retry-After") or 0.1)))
                continue
            return response.status, data
        raise HttpError(f"{method} {path}: retries exhausted")

    def json(
        self, method: str, path: str, body: Optional[bytes] = None
    ) -> Dict[str, Any]:
        status, data = self.request(method, path, body)
        if status >= 400:
            raise HttpError(f"{method} {path} -> {status}: {data[:200]!r}")
        return json.loads(data)

    def close(self) -> None:
        self.conn.close()


def _proc_status_kb(pid: int, field: str) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _children(pid: int) -> List[int]:
    kids: List[int] = []
    try:
        tids = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return kids
    for tid in tids:
        try:
            with open(f"/proc/{pid}/task/{tid}/children", encoding="ascii") as f:
                kids.extend(int(k) for k in f.read().split())
        except OSError:
            continue
    return kids


class Daemon:
    """``python -m repro.cli serve`` on an ephemeral port and a fresh store.

    The daemon runs in its own process group so that stopping it also
    reaps any worker processes its pool left behind.
    """

    def __init__(
        self,
        src: Path,
        store: Path,
        *,
        workers: int = 1,
        trace_dir: Optional[Path] = None,
    ) -> None:
        argv = [
            sys.executable, "-m", "repro.cli", "serve", "--port", "0",
            "--store", str(store), "--workers", str(workers),
        ]
        if trace_dir is not None:
            argv += ["--trace-dir", str(trace_dir)]
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONUNBUFFERED="1")
        self.proc = subprocess.Popen(
            argv,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=env,
            start_new_session=True,
            text=True,
        )
        line = self.proc.stdout.readline() if self.proc.stdout else ""
        if not line.startswith("serving on http://"):
            self.stop()
            raise RuntimeError(f"daemon did not start: {line!r}")
        self.port = int(line.split()[2].rsplit(":", 1)[1])
        self.client = Client(self.port)
        deadline = time.monotonic() + 60
        while True:
            try:
                if self.client.json("GET", "/healthz").get("status") == "ok":
                    break
            except (OSError, HttpError, http.client.HTTPException):
                pass
            if time.monotonic() > deadline:
                self.stop()
                raise RuntimeError("daemon never became healthy")
            time.sleep(0.02)

    def rss_kb(self) -> int:
        """Resident set of the daemon plus its worker processes, now."""
        pid = self.proc.pid
        total = _proc_status_kb(pid, "VmRSS")
        return total + sum(_proc_status_kb(k, "VmRSS") for k in _children(pid))

    def metrics(self) -> Dict[str, float]:
        """The daemon's ``/metrics`` samples, keyed by name + labels."""
        status, data = self.client.request("GET", "/metrics")
        if status != 200:
            raise HttpError(f"/metrics -> {status}")
        samples: Dict[str, float] = {}
        for line in data.decode("utf-8").splitlines():
            if line and not line.startswith("#"):
                key, __, value = line.rpartition(" ")
                samples[key] = float(value)
        return samples

    def stop(self) -> None:
        """Interrupt the daemon, then make sure its whole group is gone."""
        if getattr(self, "client", None) is not None:
            self.client.close()
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except OSError:
            pass
        self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        _wait_group_gone(self.proc.pid)


def _wait_group_gone(pgid: int, timeout: float = 15.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        alive = False
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                with open(f"/proc/{entry}/stat", encoding="ascii") as f:
                    fields = f.read().rsplit(")", 1)[1].split()
            except OSError:
                continue
            # fields[0] is the state, fields[2] the process group id.
            if int(fields[2]) == pgid and fields[0] != "Z":
                alive = True
                break
        if not alive:
            return
        time.sleep(0.05)

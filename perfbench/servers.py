"""Start, probe, measure and stop ``repro serve --http`` processes."""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

import procmem
from client import Connection

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: how long a server may take to answer its first request
READY_TIMEOUT_S = 120.0
#: how long a server may take to drain and exit after SIGINT
STOP_TIMEOUT_S = 30.0


def child_env(work: Path) -> Dict[str, str]:
    """Environment for every process the benchmark starts: the program
    from this checkout's ``src/``, temporary files inside the checkout."""
    tmp = work / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["TMPDIR"] = str(tmp)
    return env


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class ServerError(RuntimeError):
    pass


class Server:
    """One ``repro serve --http`` process (traced through
    ``launch.py`` when ``spans_path`` is given)."""

    def __init__(self, serve_args: List[str], work: Path,
                 spans_path: Optional[Path] = None):
        self.port = free_port()
        args = [*serve_args, "--http", str(self.port)]
        if spans_path is None:
            command = [sys.executable, "-m", "repro", "serve", *args]
        else:
            command = [sys.executable, str(HERE / "launch.py"),
                       str(spans_path), "serve", *args]
        logs = work / "logs"
        logs.mkdir(parents=True, exist_ok=True)
        self.log_path = logs / f"server-{self.port}.log"
        self._log = open(self.log_path, "wb")
        self.spawned = time.monotonic()
        self.process = subprocess.Popen(
            command, cwd=str(ROOT), env=child_env(work),
            stdin=subprocess.DEVNULL, stdout=self._log,
            stderr=subprocess.STDOUT)

    def wait_ready(self, probe: bytes,
                   check: Callable[[int, Optional[bytes]], Optional[str]]
                   ) -> float:
        """Seconds from spawn to the first 200 that passes ``check``."""
        deadline = self.spawned + READY_TIMEOUT_S
        conn = Connection(self.port, timeout=READY_TIMEOUT_S)
        try:
            while time.monotonic() < deadline:
                if self.process.poll() is not None:
                    raise ServerError(
                        f"server exited with {self.process.returncode}; "
                        f"see {self.log_path}")
                status, body = conn.request(probe)
                if status == 0:
                    time.sleep(0.01)
                    continue
                problem = check(status, body)
                if problem is not None:
                    raise ServerError(f"first answer is wrong: {problem}")
                return time.monotonic() - self.spawned
        finally:
            conn.close()
        raise ServerError(f"server not ready after {READY_TIMEOUT_S} s")

    def memory(self) -> Dict[str, object]:
        """``/proc`` readings of the server and each shard worker (MB)."""
        return {"server": procmem.read_status(self.process.pid),
                "workers": [procmem.read_status(pid) for pid in
                            procmem.worker_pids(self.process.pid)]}

    def stop(self) -> None:
        """SIGINT (graceful drain), then SIGKILL if it hangs; returns once
        the server and every process it started (shard workers, the
        multiprocessing resource tracker) are gone."""
        descendants = procmem.children(self.process.pid)
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        for pid in descendants:
            _wait_gone(pid, STOP_TIMEOUT_S)
            if procmem.alive(pid):
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                _wait_gone(pid, STOP_TIMEOUT_S)
        self._log.close()


def _wait_gone(pid: int, timeout: float) -> None:
    deadline = time.monotonic() + timeout
    while procmem.alive(pid) and time.monotonic() < deadline:
        time.sleep(0.02)

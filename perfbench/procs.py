"""Start and stop the program's server processes from a source checkout."""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import threading
import time
from collections import deque
from typing import List, Optional, Tuple

#: How long a process may take to print its listening address.
READY_TIMEOUT_S = 120.0

_ADDRESS = re.compile(r"(?:listening on http://|cache listening on )([^\s:]+):(\d+)")


def program_env() -> dict:
    """The environment the program runs in: its sources on the path."""
    env = dict(os.environ)
    src = os.path.join(os.getcwd(), "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONUNBUFFERED"] = "1"
    return env


class Process:
    """A child process that announces ``host:port`` on stderr when ready."""

    def __init__(self, argv: List[str], label: str) -> None:
        self.label = label
        self.started = time.monotonic()
        self.proc = subprocess.Popen(
            argv,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            env=program_env(),
        )
        self._tail: deque = deque(maxlen=40)
        self._ready = threading.Event()
        self.address: Optional[Tuple[str, int]] = None
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()

    def _drain(self) -> None:
        assert self.proc.stderr is not None
        for raw in self.proc.stderr:
            line = raw.decode("utf-8", "replace").rstrip()
            self._tail.append(line)
            if self.address is None:
                match = _ADDRESS.search(line)
                if match:
                    self.address = (match.group(1), int(match.group(2)))
                    self._ready.set()
        self._ready.set()

    def wait_ready(self) -> Tuple[str, int]:
        self._ready.wait(READY_TIMEOUT_S)
        if self.address is None:
            self.stop()
            raise RuntimeError(
                f"{self.label} did not start:\n" + "\n".join(self._tail)
            )
        return self.address

    def peak_rss_mb(self) -> float:
        """Peak resident set size (``VmHWM``) of the live process, in MB."""
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM not reported")

    def signal(self, signum: int) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signum)

    def stop(self) -> int:
        """SIGTERM, wait for the drain, SIGKILL if it hangs; returns the code."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._reader.join(timeout=5)
        return self.proc.returncode

    def tail(self) -> str:
        return "\n".join(self._tail)


def start_serve(serve_args: List[str], trace_path: Optional[str] = None) -> Process:
    """``repro serve --http 127.0.0.1:0 <serve_args>``, traced when asked."""
    args = ["serve", "--http", "127.0.0.1:0", *serve_args]
    if trace_path is None:
        argv = [sys.executable, "-m", "repro", *args]
    else:
        here = os.path.dirname(os.path.abspath(__file__))
        argv = [sys.executable, os.path.join(here, "traced_serve.py"), trace_path, *args]
    return Process(argv, "repro serve")


def start_cached() -> Process:
    """One ``repro cached`` plan-cache server on a free port."""
    return Process([sys.executable, "-m", "repro", "cached", "127.0.0.1:0"],
                   "repro cached")

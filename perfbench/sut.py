"""Systems under test that run in their own processes.

The TCP front end runs as ``python -m repro serve --tcp`` and the stdin
tier as ``python -m repro serve``, each a child of the benchmark, so the
load generator never shares an event loop or interpreter lock with the
code it measures.  Their standard error goes to ``.perfbench/`` in the
checkout for post-mortems.
"""

from __future__ import annotations

import json
import socket
import subprocess
import sys
import time

from common import ROOT, child_env, free_port, stop_process

LOG_DIR = ROOT / ".perfbench"
START_TIMEOUT_S = 60.0
#: Trial-pool workers per service process, one per core of the host.
JOBS = 2


def _log(name: str):
    LOG_DIR.mkdir(exist_ok=True)
    return open(LOG_DIR / f"{name}.log", "ab")


class ServeTcp:
    """``serve --tcp`` with one shard.

    :meth:`start` returns the set-up seconds and the raw answer to
    *probe* (one request line).  Set-up runs from process start to that
    answer, so it covers interpreter start, imports, the shard's own
    start and the first pool spawn.
    """

    def __init__(self, name: str = "serve-tcp") -> None:
        self.name = name
        self.proc: subprocess.Popen | None = None
        self.port = 0

    def start(self, probe: bytes) -> tuple[float, bytes]:
        self.port = free_port()
        argv = [
            sys.executable, "-m", "repro", "serve",
            "--tcp", f"127.0.0.1:{self.port}",
            "--shards", "1", "--shard-jobs", str(JOBS),
        ]
        with _log(self.name) as err:
            t0 = time.perf_counter()
            self.proc = subprocess.Popen(
                argv, cwd=ROOT, env=child_env(),
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
            )
        deadline = t0 + START_TIMEOUT_S
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"{self.name} exited with {self.proc.returncode}")
            try:
                with socket.create_connection(("127.0.0.1", self.port), timeout=5) as s:
                    s.settimeout(START_TIMEOUT_S)
                    s.sendall(probe)
                    reply = s.makefile("rb").readline()
                break
            except OSError:
                if time.perf_counter() > deadline:
                    raise RuntimeError(f"{self.name} never accepted a connection")
                time.sleep(0.02)
        setup = time.perf_counter() - t0
        obj = json.loads(reply)
        if "error" in obj:
            raise RuntimeError(f"{self.name} probe failed: {obj['error']}")
        return setup, reply

    def stop(self) -> None:
        if self.proc is not None:
            stop_process(self.proc)
            self.proc = None


class ServeStdin:
    """``python -m repro serve`` driven one line at a time over its pipes."""

    def __init__(self) -> None:
        with _log("serve-stdin") as err:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--jobs", str(JOBS)],
                cwd=ROOT, env=child_env(),
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err,
            )

    def request(self, line: bytes) -> bytes:
        assert self.proc.stdin is not None and self.proc.stdout is not None
        self.proc.stdin.write(line)
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("serve exited mid-request")
        return reply

    def stop(self) -> None:
        if self.proc.stdin is not None and not self.proc.stdin.closed:
            try:
                self.proc.stdin.close()
            except OSError:
                pass
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            pass
        stop_process(self.proc)

    def __enter__(self) -> "ServeStdin":
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()


class TcpClient:
    """A blocking line client for paired (closed-loop) requests."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=60)
        self.file = self.sock.makefile("rb")

    def request(self, line: bytes) -> bytes:
        self.sock.sendall(line)
        return self.file.readline()

    def close(self) -> None:
        self.file.close()
        self.sock.close()

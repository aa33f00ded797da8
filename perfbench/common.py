"""Shared plumbing for the benchmark: paths, processes, memory, statistics.

Everything here is independent of :mod:`repro`; the benchmark imports the
package only after :func:`require_source` has confirmed the checkout
holds it, so a directory with nothing but the benchmark fails fast.
"""

from __future__ import annotations

import ctypes
import json
import math
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
_PAGE = os.sysconf("SC_PAGE_SIZE")
_HZ = os.sysconf("SC_CLK_TCK")
#: RSS sampling period; long enough that sampling costs the load
#: generator next to nothing.
RSS_INTERVAL_S = 0.1
#: Grace period for a process (tree) to exit after SIGTERM, then SIGKILL.
STOP_TIMEOUT_S = 10.0


def require_source() -> None:
    """Exit with status 2 unless the checkout holds ``src/repro``."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict[str, str]:
    """The environment for a system-under-test process (``src`` importable)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    return env


def free_port() -> int:
    """An ephemeral TCP port on 127.0.0.1 that was free a moment ago.

    ``serve --tcp 127.0.0.1:0`` does not report the port it bound, so the
    benchmark picks one and passes it explicitly.
    """
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


# ---------------------------------------------------------------------- #
# process trees and memory
# ---------------------------------------------------------------------- #
def _children(pid: int) -> list[int]:
    out: list[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return out
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as fh:
                out.extend(int(c) for c in fh.read().split())
        except OSError:
            continue
    return out


def process_tree(pid: int) -> list[int]:
    """*pid* and every live descendant."""
    seen, stack = [], [pid]
    while stack:
        p = stack.pop()
        seen.append(p)
        stack.extend(_children(p))
    return seen


def _rss_bytes(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/statm") as fh:
            return int(fh.read().split()[1]) * _PAGE
    except (OSError, IndexError, ValueError):
        return 0


def tree_cpu_s(pid: int) -> float:
    """CPU seconds used so far by *pid*'s process tree.

    Sums the CPU clock (nanosecond resolution, dead threads included) of
    *pid* and each live descendant, plus the user and system time of every
    child they have already reaped.  Time the hypervisor stole from the VM
    is not charged to a process, which is why the benchmark's gated
    figures are CPU seconds rather than wall seconds.
    """
    total = 0.0
    for p in process_tree(pid):
        try:
            with open(f"/proc/{p}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
            # cutime and cstime (fields 16-17 of proc(5)), in clock ticks.
            reaped = (int(fields[13]) + int(fields[14])) / _HZ
            total += time.clock_gettime(_process_clock(p)) + reaped
        except (OSError, IndexError, ValueError):
            continue
    return total


def _process_clock(pid: int) -> int:
    """The clock id of *pid*'s whole-process CPU clock (clock_getcpuclockid)."""
    return ((~pid) << 3) | 2


class RssSampler:
    """Samples the summed RSS of a process tree on a background thread.

    The peak is the largest sum seen at one sampling instant, so it is a
    lower bound on the true peak.
    """

    def __init__(self, pid: int) -> None:
        self.pid = pid
        self.peak_bytes = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def sample(self) -> None:
        total = sum(_rss_bytes(p) for p in process_tree(self.pid))
        self.peak_bytes = max(self.peak_bytes, total)

    def _run(self) -> None:
        while not self._stop.wait(RSS_INTERVAL_S):
            self.sample()

    def __enter__(self) -> "RssSampler":
        self.sample()
        self._thread.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self._stop.set()
        self._thread.join(timeout=5)

    @property
    def peak_mb(self) -> float:
        return self.peak_bytes / (1 << 20)


def stop_process(proc: subprocess.Popen) -> None:
    """SIGTERM *proc* (then SIGKILL) and wait for its whole tree to end."""
    tree = process_tree(proc.pid) if proc.poll() is None else []
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=STOP_TIMEOUT_S)
    # Orphaned descendants (a shard or pool worker) are reaped by init;
    # wait until every one has gone so the run leaves nothing behind.
    deadline = time.monotonic() + STOP_TIMEOUT_S
    rest = [p for p in tree if p != proc.pid]
    while rest and time.monotonic() < deadline:
        rest = [p for p in rest if _alive(p)]
        if rest:
            time.sleep(0.05)
    for p in rest:
        try:
            os.kill(p, 9)
        except OSError:
            pass


def become_subreaper() -> None:
    """Adopt every orphaned descendant of this process (Linux prctl).

    A system under test that exits while its pool workers, shards or
    resource tracker are still winding down leaves them orphaned; as a
    subreaper the benchmark inherits them, so :func:`reap_children` can
    wait for each one instead of leaving it to outlive the run.
    """
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER) failed")


_PR_SET_CHILD_SUBREAPER = 36


def reap_children() -> None:
    """Wait for every child process (adopted orphans included) to end.

    Children still running after :data:`STOP_TIMEOUT_S` are killed.  Call
    it only when no ``subprocess.Popen`` child is still being waited on.
    """
    _stop_resource_tracker()
    deadline = time.monotonic() + STOP_TIMEOUT_S
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() > deadline:
            for child in _children(os.getpid()):
                try:
                    os.kill(child, signal.SIGKILL)
                except OSError:
                    pass
        time.sleep(0.02)


def _stop_resource_tracker() -> None:
    """Stop this process's multiprocessing resource tracker, if it runs.

    Shared-memory graph transport starts one in whichever process creates
    a segment; it would otherwise exit only after the benchmark does.
    """
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    stop = getattr(getattr(tracker, "_resource_tracker", None), "_stop", None)
    if stop is not None:
        stop()


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except (OSError, IndexError):
        return False


# ---------------------------------------------------------------------- #
# statistics
# ---------------------------------------------------------------------- #
def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile of raw samples (no bucket interpolation)."""
    if not values:
        return math.nan
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def median(values: list[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if not n:
        return math.nan
    mid = n // 2
    return ordered[mid] if n % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


def beyond(n: int, q: float) -> int:
    """How many of *n* samples lie beyond the nearest-rank *q* quantile."""
    return n - max(1, math.ceil(q * n))


# ---------------------------------------------------------------------- #
# result line
# ---------------------------------------------------------------------- #
class Report:
    """Collects metrics (with sample counts and notes) and prints them.

    The human-readable table goes first; the JSON result object is
    always the last line of standard output.
    """

    def __init__(self, workload: str, trace: bool) -> None:
        self.workload = workload
        self.trace = trace
        self.metrics: dict[str, tuple[float, str, str]] = {}
        self.failures: list[str] = []
        self.notes: list[str] = []
        self.attempted = 0
        self.failed = 0

    def metric(self, name: str, value: float, unit: str, note: str = "") -> None:
        self.metrics[name] = (float(value), unit, note)

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def note(self, message: str) -> None:
        self.notes.append(message)

    def emit(self, expected: list[str]) -> None:
        missing = [m for m in expected if m not in self.metrics]
        for name in missing:
            self.fail(f"metric {name} was not measured")
        bad = [n for n, (v, _, _) in self.metrics.items() if not math.isfinite(v)]
        for name in bad:
            self.fail(f"metric {name} is not finite")
        tag = "traced" if self.trace else "untraced"
        print(f"# {self.workload} ({tag})")
        for name, (value, unit, note) in self.metrics.items():
            print(f"  {name:<40} {value:>14.6g} {unit:<8} {note}")
        for message in self.notes:
            print(f"  note: {message}")
        for message in self.failures:
            print(f"  CHECK FAILED: {message}")
        if self.failures:
            for message in self.failures:
                print(f"perfbench: check failed: {message}", file=sys.stderr)
        result = {
            "correct": not self.failures,
            "attempted": max(1, int(self.attempted)),
            "failed": int(self.failed),
            "metrics": {
                name: {"value": value if math.isfinite(value) else -1.0, "unit": unit}
                for name, (value, unit, _) in self.metrics.items()
                if name in expected
            },
        }
        print(json.dumps(result), flush=True)

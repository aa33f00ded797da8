"""Open-loop load generation against the TCP front end.

``repro loadgen`` (and the ``frontend`` bench case) drive the front end
the way real traffic does: requests depart on a fixed-rate **open-loop**
schedule — arrival times do not wait for responses, so a slow server
faces a growing backlog exactly as it would in production (closed-loop
clients accidentally rate-limit themselves to the server's speed and
hide overload).  Responses are matched to requests by ``id``; the
report separates goodput (successful responses inside the SLO) from
sheds, rate limits, and other structured errors, and summarizes the
latency distribution of *admitted* requests — the population the SLO
is a promise about.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field
from typing import Any

__all__ = ["LoadReport", "run_loadgen"]

_SHED_CODES = frozenset({"overloaded", "rate_limited"})

#: Answer lines carry per-node count vectors, far past asyncio's default
#: 64 KiB line limit on large graphs.
_MAX_ANSWER_BYTES = 64 * 1024 * 1024


def _percentile(sorted_vals: list[float], q: float) -> float:
    if not sorted_vals:
        return 0.0
    idx = min(len(sorted_vals) - 1, int(q * (len(sorted_vals) - 1) + 0.5))
    return sorted_vals[idx]


@dataclass
class LoadReport:
    """Outcome of one open-loop run."""

    offered: int = 0
    completed: int = 0
    ok: int = 0
    shed: int = 0
    rate_limited: int = 0
    errors: int = 0
    cached: int = 0
    duration_s: float = 0.0
    slo_ms: float = 0.0
    latencies_ms: list[float] = field(default_factory=list)
    shards_seen: dict[str, int] = field(default_factory=dict)

    @property
    def goodput_rps(self) -> float:
        """Successful responses inside the SLO, per second."""
        if self.duration_s <= 0:
            return 0.0
        if not self.slo_ms:
            return self.ok / self.duration_s
        within = sum(1 for ms in self.latencies_ms if ms <= self.slo_ms)
        return within / self.duration_s

    @property
    def shed_rate(self) -> float:
        """Sheds (overloaded + rate_limited) over offered requests."""
        denied = self.shed + self.rate_limited
        return denied / self.offered if self.offered else 0.0

    def latency_ms(self, q: float) -> float:
        return _percentile(sorted(self.latencies_ms), q)

    @property
    def slo_attainment(self) -> float:
        """Fraction of successful responses inside the SLO."""
        if not self.latencies_ms or not self.slo_ms:
            return 1.0
        within = sum(1 for ms in self.latencies_ms if ms <= self.slo_ms)
        return within / len(self.latencies_ms)

    def to_json(self) -> dict[str, Any]:
        return {
            "offered": self.offered,
            "completed": self.completed,
            "ok": self.ok,
            "shed": self.shed,
            "rate_limited": self.rate_limited,
            "errors": self.errors,
            "cached": self.cached,
            "duration_s": round(self.duration_s, 4),
            "goodput_rps": round(self.goodput_rps, 2),
            "shed_rate": round(self.shed_rate, 4),
            "slo_ms": self.slo_ms,
            "slo_attainment": round(self.slo_attainment, 4),
            "latency_p50_ms": round(self.latency_ms(0.50), 2),
            "latency_p95_ms": round(self.latency_ms(0.95), 2),
            "latency_p99_ms": round(self.latency_ms(0.99), 2),
            "shards_seen": dict(sorted(self.shards_seen.items())),
        }

    def format(self) -> str:
        j = self.to_json()
        lines = [
            f"offered {j['offered']} requests over {j['duration_s']:.2f}s "
            f"({j['offered'] / max(j['duration_s'], 1e-9):.1f} rps offered)",
            f"ok {j['ok']}  shed {j['shed']}  rate-limited "
            f"{j['rate_limited']}  errors {j['errors']}  cached {j['cached']}",
            f"goodput {j['goodput_rps']:.1f} rps  shed-rate "
            f"{100 * j['shed_rate']:.1f}%  SLO {j['slo_ms']:g} ms "
            f"(attained {100 * j['slo_attainment']:.1f}%)",
            f"latency p50/p95/p99: {j['latency_p50_ms']:.1f} / "
            f"{j['latency_p95_ms']:.1f} / {j['latency_p99_ms']:.1f} ms",
        ]
        if j["shards_seen"]:
            spread = "  ".join(
                f"shard{k}:{v}" for k, v in j["shards_seen"].items()
            )
            lines.append(f"responses by shard: {spread}")
        return "\n".join(lines)


def _classify(report: LoadReport, obj: dict[str, Any]) -> None:
    err = obj.get("error")
    if err is None:
        report.ok += 1
        if obj.get("cached"):
            report.cached += 1
        if "shard" in obj:
            key = str(obj["shard"])
            report.shards_seen[key] = report.shards_seen.get(key, 0) + 1
        return
    code = err.get("code") if isinstance(err, dict) else obj.get("code")
    if code == "overloaded":
        report.shed += 1
    elif code == "rate_limited":
        report.rate_limited += 1
    else:
        report.errors += 1


async def run_loadgen(
    host: str,
    port: int,
    requests: list[dict[str, Any]],
    *,
    rate: float,
    slo_ms: float = 250.0,
    timeout_s: float = 60.0,
) -> LoadReport:
    """Fire *requests* at *rate* req/s (open loop) and collect the report.

    Each request is stamped with a unique ``id`` (``lg-<n>``) so the
    pipelined responses — which may arrive out of order — are matched
    back to their due times.  Latency runs from when a request was due
    (``start + i / rate``), not from when it was sent, so a stall that
    delays sending still shows in the requests queued behind it.
    """
    if rate <= 0:
        raise ValueError("rate must be positive")
    reader, writer = await asyncio.open_connection(
        host, port, limit=_MAX_ANSWER_BYTES
    )
    report = LoadReport(slo_ms=slo_ms)
    due: dict[str, float] = {}
    done = asyncio.Event()

    async def receive() -> None:
        while len(due) < len(requests) or report.completed < len(due):
            line = await reader.readline()
            if not line:
                break
            try:
                obj = json.loads(line)
            except json.JSONDecodeError:
                report.errors += 1
                report.completed += 1
                continue
            rid = str(obj.get("id", ""))
            t0 = due.get(rid)
            if t0 is not None and "error" not in obj:
                report.latencies_ms.append(
                    (time.perf_counter() - t0) * 1e3
                )
            report.completed += 1
            _classify(report, obj)
        done.set()

    receiver = asyncio.create_task(receive())
    start = time.perf_counter()
    interval = 1.0 / rate
    for i, req in enumerate(requests):
        target = start + i * interval
        delay = target - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        rid = f"lg-{i}"
        stamped = {**req, "id": rid}
        due[rid] = target
        writer.write((json.dumps(stamped) + "\n").encode())
        await writer.drain()
        report.offered += 1

    try:
        await asyncio.wait_for(done.wait(), timeout=timeout_s)
    except asyncio.TimeoutError:
        pass
    finally:
        receiver.cancel()
        try:
            await receiver
        except (asyncio.CancelledError, ConnectionError):
            pass
        report.duration_s = time.perf_counter() - start
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    return report

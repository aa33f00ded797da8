"""Output checks and per-phase latency analysis for the serving workloads."""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from common import beyond, quantile
from loadgen import Outcome
from workloads import request_key

def digest(counts) -> str:
    return hashlib.blake2b(
        np.asarray(counts, dtype=np.int64).tobytes(), digest_size=12
    ).hexdigest()


class Checker:
    """Checks every response and remembers one counts digest per request.

    A seeded request must hash to the same digest every time it is
    answered in a run, whether it was recomputed or served from a cache.
    Only fixed-budget (v1) requests are compared: a precision request's
    answer depends on how much evidence its pair had pooled before it.
    """

    def __init__(self) -> None:
        from repro.frontend.protocol import ERROR_CODES

        self.error_codes = frozenset(ERROR_CODES)
        self.digests: dict[str, str] = {}
        self.problems: list[str] = []
        self.compared = 0

    def error_code(self, obj: dict) -> str | None:
        """The structured code of an error response, or ``None`` if missing."""
        err = obj.get("error")
        code = err.get("code") if isinstance(err, dict) else obj.get("code")
        return code if code in self.error_codes else None

    def check(self, request: dict, raw: bytes | None) -> dict | None:
        """The decoded success object, or ``None`` for any failure."""
        if raw is None:
            return None
        try:
            obj = json.loads(raw)
        except json.JSONDecodeError:
            self.problems.append(f"{request['id']}: undecodable response")
            return None
        if "error" in obj:
            if self.error_code(obj) is None:
                self.problems.append(f"{request['id']}: unstructured error {obj!r:.200}")
            return None
        counts = obj.get("counts")
        trials = obj.get("trials")
        if counts is None or not isinstance(trials, int):
            self.problems.append(f"{request['id']}: response without counts")
            return None
        arr = np.asarray(counts, dtype=np.int64)
        if arr.size and (arr.min() < 0 or arr.max() > trials):
            self.problems.append(f"{request['id']}: counts outside [0, {trials}]")
            return None
        if request.get("v", 1) == 1 and request.get("seed") is not None:
            key = request_key(request)
            d = digest(arr)
            seen = self.digests.setdefault(key, d)
            if seen != d:
                self.problems.append(f"{request['id']}: counts digest changed between answers")
                return None
            self.compared += 1
        return obj


@dataclass
class Phase:
    """Latency and failure figures of one open-loop phase."""

    rate: float
    sent: int
    ok: int
    failed: int
    shed: int
    p50_ms: float
    tail_ms: float
    tail_q: float
    tail_beyond: int
    lag_p99_ms: float

    def describe(self) -> str:
        return (
            f"{self.rate:g} rps: n={self.sent} p50={self.p50_ms:.2f}ms "
            f"p{self.tail_q * 100:g}={self.tail_ms:.2f}ms "
            f"({self.tail_beyond} beyond) failed={self.failed} "
            f"lag_p99={self.lag_p99_ms:.2f}ms"
        )


def analyse(
    requests: list[dict],
    outcomes: list[Outcome],
    rate: float,
    tail_q: float,
    checker: Checker,
    timeout_ms: float,
) -> Phase:
    """Latency from due time; a failure counts as the longest latency."""
    lat_ms: list[float] = []
    ok = shed = 0
    for req, out in zip(requests, outcomes):
        obj = checker.check(req, out.raw)
        if obj is None:
            lat_ms.append(math.inf)
            if out.raw is not None and b'"overloaded"' in out.raw:
                shed += 1
            continue
        ok += 1
        ms = out.latency_s * 1e3
        lat_ms.append(ms)
    n = len(outcomes)

    def finite(v: float) -> float:
        return v if math.isfinite(v) else timeout_ms

    return Phase(
        rate=rate,
        sent=n,
        ok=ok,
        failed=n - ok,
        shed=shed,
        p50_ms=finite(quantile(lat_ms, 0.5)),
        tail_ms=finite(quantile(lat_ms, tail_q)),
        tail_q=tail_q,
        tail_beyond=beyond(n, tail_q),
        lag_p99_ms=quantile([o.lag_s * 1e3 for o in outcomes], 0.99),
    )

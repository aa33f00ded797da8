"""Content-addressed cache: exact-key results plus accumulating evidence.

Two planes share one LRU budget discipline:

* **Exact plane** (legacy, fixed-budget requests) — keys are ``(graph
  content hash, algorithm+params, seed, trials, mode)``: everything that
  determines the count vector bit-for-bit.  A repeated identical request
  is served verbatim.  Requests with ``seed=None`` never touch this
  plane.
* **Evidence plane** (v2, precision-targeted requests) — keyed by
  ``(graph content hash, algorithm+params)`` only.  Every executed trial
  chunk *deposits* its counts; a precision request *reads* the pooled
  evidence as a prior, so its confidence interval starts partially (or
  fully) closed and warm requests finish in a fraction of a cold
  budget.

Beside each evidence entry lives its **ledger**: the spawn indices,
per seed root, that the pooled trials were drawn from.  A chunk is named
by its seed root and the run of spawn indices it used (one per chunk in
vectorized mode, one per trial in exact mode; an index counts as used
whichever mode drew it, since both seed a generator from that child).  A
deposit touching an index the ledger already holds is refused, so the
pool never holds the same trial twice, and the scheduler draws new
trials from indices the ledger does not hold.  The ledger goes with its
entry on purge, LRU eviction and :meth:`ResultCache.clear`.

Hit/miss/eviction/deposit totals are reported through the shared
:class:`repro.runtime.metrics.ServiceCounters` instance.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from ..analysis.fairness import JoinEstimate, z_for_confidence
from ..obs.logging import get_logger
from ..obs.metrics import AGE_BUCKETS, MetricsRegistry
from ..runtime.metrics import ServiceCounters

__all__ = ["ResultCache", "SpawnRanges", "cache_key", "evidence_key"]

_log = get_logger("repro.service.cache")


def cache_key(
    graph_hash: str,
    algorithm_key: str,
    seed: int | None,
    trials: int,
    mode: str,
) -> tuple | None:
    """The exact-plane key for a resolved request, or ``None`` if
    uncacheable."""
    if seed is None:
        return None
    return (graph_hash, algorithm_key, int(seed), int(trials), mode)


def evidence_key(graph_hash: str, algorithm_key: str) -> tuple:
    """The evidence-plane key: graph content and algorithm identity only."""
    return (graph_hash, algorithm_key)


class SpawnRanges:
    """A set of spawn indices, kept as sorted disjoint ``[lo, hi)`` runs.

    Trials are drawn from consecutive indices, so a root's used indices
    almost always form one or two runs however many trials they hold.
    """

    __slots__ = ("runs",)

    def __init__(self) -> None:
        self.runs: list[tuple[int, int]] = []

    def __len__(self) -> int:
        return sum(hi - lo for lo, hi in self.runs)

    def copy(self) -> "SpawnRanges":
        other = SpawnRanges()
        other.runs = list(self.runs)
        return other

    def overlaps(self, indices: range) -> bool:
        return any(
            lo < indices.stop and indices.start < hi for lo, hi in self.runs
        )

    def add(self, indices: range) -> None:
        lo, hi = indices.start, indices.stop
        keep = []
        for a, b in self.runs:
            if b < lo or hi < a:
                keep.append((a, b))
            else:
                lo, hi = min(a, lo), max(b, hi)
        keep.append((lo, hi))
        keep.sort()
        self.runs = keep

    def update(self, other: "SpawnRanges") -> None:
        for lo, hi in other.runs:
            self.add(range(lo, hi))

    def first_free(self, width: int) -> range:
        """The lowest run of *width* indices that holds no member."""
        lo = 0
        for a, b in self.runs:
            if a - lo >= width:
                break
            lo = max(lo, b)
        return range(lo, lo + width)


@dataclass
class _Evidence:
    """Accumulated join counts for one ``(graph, algorithm)`` pair, with
    the ledger of spawn indices (per seed root) they were drawn from."""

    counts: np.ndarray
    trials: int = 0
    inserted_at: float = 0.0
    ledger: dict[int, SpawnRanges] = field(default_factory=dict)

    def estimate(self) -> JoinEstimate:
        return JoinEstimate(counts=self.counts.copy(), trials=self.trials)

    def used(self, root: int) -> SpawnRanges:
        ranges = self.ledger.get(root)
        return ranges.copy() if ranges is not None else SpawnRanges()


class ResultCache:
    """Thread-safe LRU over both cache planes.

    ``capacity`` bounds each plane independently (an exact entry and an
    evidence entry are different granularities; sharing one budget would
    let high-cardinality exact keys evict the far more valuable pooled
    evidence).  ``capacity=0`` disables caching entirely (every lookup
    is a miss and nothing is stored), which the benchmarks use to time
    pure execution.
    """

    def __init__(
        self,
        capacity: int = 128,
        counters: ServiceCounters | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self.capacity = capacity
        self.counters = counters if counters is not None else ServiceCounters()
        if registry is None:
            registry = self.counters.registry
        self._h_age = registry.histogram(
            "service_cache_age_seconds",
            "Age of the cached entry at the moment it served a hit",
            buckets=AGE_BUCKETS,
        )
        self._g_evidence_trials = registry.gauge(
            "service_evidence_trials_resident",
            "Total pooled trials currently held in the evidence store",
        )
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple, tuple[JoinEstimate, float]] = (
            OrderedDict()
        )
        self._evidence: OrderedDict[tuple, _Evidence] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------ #
    # exact plane (legacy fixed-budget requests)
    # ------------------------------------------------------------------ #
    def get(self, key: tuple | None) -> JoinEstimate | None:
        """Look *key* up, recording a hit or miss; ``None`` keys miss.

        Hits additionally observe the entry's age (time since insertion)
        into the ``service_cache_age_seconds`` histogram.
        """
        if key is None:
            self.counters.increment("cache_misses")
            return None
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
        if entry is None:
            self.counters.increment("cache_misses")
            return None
        est, inserted_at = entry
        age = time.monotonic() - inserted_at
        self._h_age.observe(age)
        self.counters.increment("cache_hits")
        _log.debug("cache_hit", age_s=round(age, 6))
        return est

    def put(self, key: tuple | None, estimate: JoinEstimate) -> None:
        """Insert, evicting least-recently-used entries beyond capacity."""
        if key is None or self.capacity == 0:
            return
        evictions = 0
        with self._lock:
            self._entries[key] = (estimate, time.monotonic())
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                evictions += 1
        if evictions:
            self.counters.increment("cache_evictions", evictions)
            _log.debug("cache_evicted", evictions=evictions)

    # ------------------------------------------------------------------ #
    # evidence plane (v2 precision-targeted requests)
    # ------------------------------------------------------------------ #
    def evidence(
        self, graph_hash: str, algorithm_key: str, root: int
    ) -> tuple[JoinEstimate | None, SpawnRanges]:
        """Pooled evidence for a pair (or ``None``) and the spawn indices
        of *root* it already holds, read in one locked snapshot; counts
        hits/misses."""
        key = evidence_key(graph_hash, algorithm_key)
        with self._lock:
            entry = self._evidence.get(key)
            used = entry.used(root) if entry is not None else SpawnRanges()
            if entry is not None and entry.trials > 0:
                self._evidence.move_to_end(key)
                est = entry.estimate()
                age = time.monotonic() - entry.inserted_at
            else:
                est = None
        if est is None:
            self.counters.increment("evidence_misses")
            return None, used
        self._h_age.observe(age)
        self.counters.increment("evidence_hits")
        self.counters.increment("evidence_trials_reused", est.trials)
        _log.debug(
            "evidence_hit", trials=est.trials, algorithm=algorithm_key
        )
        return est, used

    def used_indices(
        self, graph_hash: str, algorithm_key: str, root: int
    ) -> SpawnRanges:
        """The spawn indices of *root* the pair's ledger holds (a copy);
        no counters, no recency."""
        with self._lock:
            entry = self._evidence.get(evidence_key(graph_hash, algorithm_key))
            return entry.used(root) if entry is not None else SpawnRanges()

    def forget_root(self, graph_hash: str, algorithm_key: str, root: int) -> None:
        """Drop *root*'s row from the pair's ledger; its pooled counts
        stay.  Only for a root whose entropy is never drawn again (a
        retired seedless root), so no later deposit can repeat it."""
        with self._lock:
            entry = self._evidence.get(evidence_key(graph_hash, algorithm_key))
            if entry is not None:
                entry.ledger.pop(root, None)

    def add_evidence(
        self,
        graph_hash: str,
        algorithm_key: str,
        estimate: JoinEstimate,
        root: int,
        indices: range,
    ) -> bool:
        """Merge one chunk's counts into the pair's pooled evidence.

        The chunk is named by its seed *root* and the spawn *indices* it
        drew from.  If the ledger already holds any of them the deposit
        is refused and ``False`` returned: those samples (or samples
        seeded from the same children) are already pooled.
        """
        if self.capacity == 0 or estimate.trials <= 0:
            return False
        key = evidence_key(graph_hash, algorithm_key)
        evictions = 0
        with self._lock:
            entry = self._evidence.get(key)
            if entry is None:
                entry = _Evidence(
                    counts=np.zeros_like(np.asarray(estimate.counts)),
                    inserted_at=time.monotonic(),
                )
                self._evidence[key] = entry
            ranges = entry.ledger.setdefault(root, SpawnRanges())
            if ranges.overlaps(indices):
                return False
            if entry.counts.shape != estimate.counts.shape:
                # A different graph collapsed onto this hash is impossible
                # (content-addressed); shape drift means caller error.
                raise ValueError("evidence counts cover a different node set")
            ranges.add(indices)
            entry.counts += estimate.counts
            entry.trials += estimate.trials
            self._evidence.move_to_end(key)
            while len(self._evidence) > self.capacity:
                self._evidence.popitem(last=False)
                evictions += 1
            resident = sum(e.trials for e in self._evidence.values())
        self._g_evidence_trials.set(resident)
        self.counters.increment("evidence_deposits")
        if evictions:
            self.counters.increment("cache_evictions", evictions)
            _log.debug("evidence_evicted", evictions=evictions)
        return True

    def evidence_trials(self, graph_hash: str, algorithm_key: str) -> int:
        """Pooled trial count for a pair (0 when absent); no counters."""
        with self._lock:
            entry = self._evidence.get(evidence_key(graph_hash, algorithm_key))
            return entry.trials if entry is not None else 0

    def evidence_entries(self, confidence: float = 0.95) -> list[dict]:
        """Introspection snapshot of the evidence plane (LRU order,
        coldest first); does not touch hit/miss counters or recency.

        Each row reports the pair identity, pooled trials, node count,
        resident bytes, seconds since first deposit, the number of spawn
        indices its ledger holds, and the half-width the pooled evidence can already achieve at
        the given *confidence* — i.e. what a precision request would
        start from.  Backs ``repro evidence ls``/``show``.
        """
        z = z_for_confidence(confidence)
        with self._lock:
            items = [
                (key, entry.estimate(), entry) for key, entry in self._evidence.items()
            ]
        now = time.monotonic()
        rows = []
        for (graph_hash, algorithm_key), est, entry in items:
            rows.append(
                {
                    "graph_hash": graph_hash,
                    "algorithm": algorithm_key,
                    "trials": entry.trials,
                    "nodes": int(est.counts.shape[0]),
                    "bytes": int(entry.counts.nbytes),
                    "age_s": now - entry.inserted_at,
                    "used_indices": sum(len(r) for r in entry.ledger.values()),
                    "achievable_halfwidth": float(est.max_halfwidth(z)),
                }
            )
        return rows

    def purge_evidence(
        self,
        graph_hash: str | None = None,
        algorithm_key: str | None = None,
    ) -> int:
        """Drop matching evidence entries; returns how many were purged.

        ``None`` filters match everything, so ``purge_evidence()`` empties
        the plane.  An entry's ledger goes with it — a purge is a statement
        that the pooled samples are unwanted, so later runs may draw and
        deposit the same spawn indices again.
        """
        with self._lock:
            victims = [
                key
                for key in self._evidence
                if (graph_hash is None or key[0] == graph_hash)
                and (algorithm_key is None or key[1] == algorithm_key)
            ]
            for key in victims:
                del self._evidence[key]
            resident = sum(e.trials for e in self._evidence.values())
        self._g_evidence_trials.set(resident)
        if victims:
            self.counters.increment("cache_evictions", len(victims))
            _log.debug("evidence_purged", purged=len(victims))
        return len(victims)

    def clear(self) -> None:
        """Drop every entry in both planes (counters are preserved)."""
        with self._lock:
            self._entries.clear()
            self._evidence.clear()
        self._g_evidence_trials.set(0)

"""Execution metrics collected by the synchronous network and the service.

The paper's complexity claims are in rounds; the model also constrains
per-message size.  The runtime therefore tracks, per round and in total:
round count, message count, and slot volume — enough to empirically verify
the ``O(log* n)`` / ``O(log n)`` / ``O(log^2 n)`` claims (experiment E11).

The estimation service (:mod:`repro.service`) reports through the same
module: :class:`ServiceCounters` aggregates request/cache/trial totals and
:class:`RequestRecord` captures per-request latency and throughput, so
``benchmarks/test_engine_speed.py`` can regress amortized-vs-cold serving.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..obs.metrics import MetricsRegistry

__all__ = ["RoundRecord", "RunMetrics", "ServiceCounters", "RequestRecord"]


@dataclass(frozen=True, slots=True)
class RoundRecord:
    """Traffic observed in one synchronous round."""

    round_index: int
    messages: int
    slots: int
    active_nodes: int


@dataclass
class RunMetrics:
    """Aggregated metrics for one complete execution."""

    rounds: int = 0
    total_messages: int = 0
    total_slots: int = 0
    max_slots_per_message: int = 0
    per_round: list[RoundRecord] = field(default_factory=list)

    def record_round(
        self, round_index: int, messages: int, slots: int, active_nodes: int
    ) -> None:
        """Append one round's traffic and update the running totals.

        ``rounds`` tracks the highest index seen (not the last recorded),
        so out-of-order recording — or a restart at round 0 — can never
        silently under-count the run.
        """
        self.rounds = max(self.rounds, round_index)
        self.total_messages += messages
        self.total_slots += slots
        self.per_round.append(
            RoundRecord(
                round_index=round_index,
                messages=messages,
                slots=slots,
                active_nodes=active_nodes,
            )
        )

    def observe_message(self, slots: int) -> None:
        """Track the largest single message seen (slot-budget audits)."""
        if slots > self.max_slots_per_message:
            self.max_slots_per_message = slots

    @property
    def mean_messages_per_round(self) -> float:
        """Average messages per round (0.0 for an empty run)."""
        if not self.per_round:
            return 0.0
        return self.total_messages / len(self.per_round)


@dataclass(frozen=True, slots=True)
class RequestRecord:
    """Latency/throughput of one estimation-service request.

    ``trials_run`` is the number of *new* trials executed for this request
    (0 when served from cache; less than ``trials`` when coalesced chunks
    were shared with concurrent requests, or when a precision-targeted
    request stopped early).  ``trials`` is the request's budget — the
    fixed count for v1 requests, the hard cap for precision requests —
    and ``realized_trials`` the total evidence behind the returned
    estimate (new trials plus cached prior).
    """

    request_id: str
    algorithm: str
    graph_hash: str
    trials: int
    trials_run: int
    mode: str
    cached: bool
    coalesced: bool
    latency_s: float
    realized_trials: int = 0
    stopped_early: bool = False

    @property
    def throughput(self) -> float:
        """Trials executed per second (0.0 for cache hits)."""
        if self.latency_s <= 0.0 or self.trials_run <= 0:
            return 0.0
        return self.trials_run / self.latency_s


class ServiceCounters:
    """Thread-safe monotonic counters for the estimation service.

    The scheduler, cache, and worker pools all increment through one
    instance, so a single snapshot describes a service's lifetime traffic.

    Each field is backed by a :class:`repro.obs.metrics.MetricsRegistry`
    counter named ``service_<field>_total``, so the same totals appear in
    the Prometheus/JSON expositions without double bookkeeping.  Read
    them through :meth:`snapshot`.
    """

    _FIELDS = (
        "requests",
        "cache_hits",
        "cache_misses",
        "cache_evictions",
        "coalesced_requests",
        "chunks_executed",
        "trials_executed",
        "pools_created",
        "pools_evicted",
        "precision_requests",
        "early_stops",
        "evidence_hits",
        "evidence_misses",
        "evidence_deposits",
        "evidence_trials_reused",
    )

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self._registry = registry if registry is not None else MetricsRegistry()
        self._counters = {
            name: self._registry.counter(
                f"service_{name}_total",
                f"Estimation-service lifetime total: {name.replace('_', ' ')}",
            )
            for name in self._FIELDS
        }

    @property
    def registry(self) -> MetricsRegistry:
        """The backing metrics registry."""
        return self._registry

    def increment(self, name: str, amount: int = 1) -> None:
        """Add *amount* to counter *name* (must be a known field).

        Validation and update are a single atomic step: the dictionary
        lookup either yields the live counter (whose own lock serializes
        the add) or fails immediately — there is no window in which an
        unknown name can partially update state.
        """
        counter = self._counters.get(name)
        if counter is None:
            raise AttributeError(f"unknown service counter {name!r}")
        counter.inc(amount)

    def reset(self) -> None:
        """Zero every counter (test isolation)."""
        for counter in self._counters.values():
            counter.reset()

    def snapshot(self) -> dict[str, int]:
        """A consistent copy of all counters."""
        return {name: int(c.value) for name, c in self._counters.items()}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(f"{k}={v}" for k, v in self.snapshot().items())
        return f"ServiceCounters({inner})"

"""The declarative benchmark suite behind ``repro bench``.

Every benchmark is a :class:`BenchCase` whose ``fn(config)`` returns one
or more *metric entries* (flat dicts, see :mod:`repro.bench.artifact`).
Two kinds coexist:

``timing``
    Wall-clock-derived (throughput, latency percentiles, speedups).
    Machine-dependent, so comparisons treat them as advisory unless
    explicitly gated (``repro bench --compare --strict-timing``).

``count``
    Deterministic given the pinned seeds — synchronous rounds and
    message totals from :class:`~repro.runtime.metrics.RunMetrics`, fast
    engine iteration counts.  Any deviation from baseline is a real
    behavioural change and gates by default.

Count cases use *fixed* graph sizes and seeds independent of the scale
knobs, so a ``--quick`` baseline stays valid for full runs.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

__all__ = ["BenchCase", "BenchConfig", "build_cases", "run_suite"]

#: Advisory tolerance for timing metrics (percent) before a comparison
#: even mentions the delta as a regression candidate.
TIMING_TOLERANCE_PCT = 25.0

# Pinned inputs for deterministic count metrics — never scaled by knobs.
_COUNT_N = 60
_COUNT_SEED = 12345


def _env_int(name: str, default: int) -> int:
    try:
        return int(os.environ.get(name, default))
    except ValueError:
        return default


@dataclass
class BenchConfig:
    """Scale knobs for one suite run.

    ``quick`` pins a small deterministic workload for CI smoke gates;
    otherwise ``REPRO_BENCH_TRIALS`` / ``REPRO_BENCH_CITY_N`` (the same
    knobs as ``benchmarks/conftest.py``) set the scale.
    """

    quick: bool = False
    trials: int = field(default=0)
    tree_n: int = field(default=0)
    service_requests: int = field(default=0)
    graph_side: int = field(default=0)
    only: str | None = None

    def __post_init__(self) -> None:
        if self.trials <= 0:
            self.trials = 200 if self.quick else _env_int("REPRO_BENCH_TRIALS", 400)
        if self.tree_n <= 0:
            self.tree_n = 120 if self.quick else _env_int("REPRO_BENCH_CITY_N", 400)
        if self.service_requests <= 0:
            self.service_requests = 6 if self.quick else 16
        if self.graph_side <= 0:
            # side of the construction/IO benchmark grid (n = side**2);
            # REPRO_BENCH_GRAPH_SIDE=1000 reproduces the million-node
            # acceptance measurement.
            self.graph_side = (
                60 if self.quick else _env_int("REPRO_BENCH_GRAPH_SIDE", 250)
            )

    def as_dict(self) -> dict[str, Any]:
        return {
            "quick": self.quick,
            "trials": self.trials,
            "tree_n": self.tree_n,
            "service_requests": self.service_requests,
            "graph_side": self.graph_side,
            "count_n": _COUNT_N,
            "count_seed": _COUNT_SEED,
        }


@dataclass(frozen=True)
class BenchCase:
    """One named benchmark producing one or more metric entries."""

    name: str
    fn: Callable[[BenchConfig], dict[str, dict[str, Any]]]
    description: str = ""


def _entry(
    value: float,
    unit: str,
    kind: str,
    higher_is_better: bool,
    gate: bool,
    tolerance_pct: float,
    details: dict[str, Any] | None = None,
) -> dict[str, Any]:
    out: dict[str, Any] = {
        "value": float(value),
        "unit": unit,
        "kind": kind,
        "higher_is_better": higher_is_better,
        "gate": gate,
        "tolerance_pct": tolerance_pct,
    }
    if details:
        out["details"] = details
    return out


def _timing(value: float, unit: str, higher_is_better: bool, **kw: Any):
    return _entry(
        value, unit, "timing", higher_is_better,
        gate=False, tolerance_pct=TIMING_TOLERANCE_PCT, **kw,
    )


def _count(value: float, unit: str, **kw: Any):
    return _entry(
        value, unit, "count", higher_is_better=False,
        gate=True, tolerance_pct=0.0, **kw,
    )


def _bench_tree(n: int, seed: int = 7):
    from ..graphs.generators import random_tree

    return random_tree(n, seed=seed).graph


# --------------------------------------------------------------------- #
# timing cases
# --------------------------------------------------------------------- #
def _engine_throughput(config: BenchConfig) -> dict[str, dict[str, Any]]:
    """Exact per-trial throughput (trials/sec) for the fast engines."""
    from ..fast.fair_tree import FastFairTree
    from ..fast.luby import FastLuby
    from ..runtime.rng import generator_from

    graph = _bench_tree(config.tree_n)
    trials = max(1, config.trials // 4)
    out: dict[str, dict[str, Any]] = {}
    for algorithm in (FastLuby(), FastFairTree()):
        rng = generator_from(0)
        started = time.perf_counter()
        for _ in range(trials):
            algorithm.run(graph, rng)
        elapsed = time.perf_counter() - started
        out[f"engine.{algorithm.name}.throughput"] = _timing(
            trials / elapsed, "trials/s", higher_is_better=True,
            details={"trials": trials, "n": config.tree_n},
        )
    return out


def _batched_throughput(config: BenchConfig) -> dict[str, dict[str, Any]]:
    """Disjoint-union batched throughput (trials/sec), all five engines."""
    from ..fast.batched import (
        batched_color_mis_trials,
        batched_fair_bipart_trials,
        batched_fair_rooted_trials,
        batched_fair_tree_trials,
        batched_luby_trials,
    )

    graph = _bench_tree(config.tree_n)
    out: dict[str, dict[str, Any]] = {}
    for name, runner in (
        ("batched_luby", batched_luby_trials),
        ("batched_fair_tree", batched_fair_tree_trials),
        ("batched_fair_rooted", batched_fair_rooted_trials),
        ("batched_fair_bipart", batched_fair_bipart_trials),
        ("batched_color_mis", batched_color_mis_trials),
    ):
        started = time.perf_counter()
        runner(graph, config.trials, seed=0)
        elapsed = time.perf_counter() - started
        out[f"engine.{name}.throughput"] = _timing(
            config.trials / elapsed, "trials/s", higher_is_better=True,
            details={"trials": config.trials, "n": config.tree_n},
        )
    return out


def _shm_transport(config: BenchConfig) -> dict[str, dict[str, Any]]:
    """Zero-copy transport: bytes shipped per pool handle vs a pickled
    graph, and the cold attach latency on the worker side.

    Byte counts are reported as advisory (``timing``) entries: pickle
    framing differs across interpreter versions, so gating them would
    make the baseline interpreter-specific.
    """
    import pickle

    from ..graphs.shm import (
        ShmUnavailable,
        detach_graph,
        export_graph,
        shm_enabled,
    )
    from ..graphs.shm import attach_graph as _attach

    graph = _bench_tree(config.tree_n)
    graph_bytes = len(pickle.dumps(graph))
    if not shm_enabled():
        return {}
    try:
        shared = export_graph(graph)
    except ShmUnavailable:
        return {}
    try:
        handle_bytes = len(pickle.dumps(shared.handle))
        started = time.perf_counter()
        _attach(shared.handle)
        attach_ms = (time.perf_counter() - started) * 1e3
        detach_graph(shared.handle.content_hash)
    finally:
        shared.close()
    details = {
        "n": config.tree_n,
        "graph_pickle_bytes": graph_bytes,
        "shared_bytes": shared.handle.nbytes_shared,
    }
    return {
        "shm.handle_bytes": _timing(
            handle_bytes, "bytes", higher_is_better=False, details=details,
        ),
        "shm.bytes_shipped_ratio": _timing(
            graph_bytes / handle_bytes, "x", higher_is_better=True,
            details=details,
        ),
        "shm.attach_ms": _timing(
            attach_ms, "ms", higher_is_better=False, details=details,
        ),
    }


def _service_latency(config: BenchConfig) -> dict[str, dict[str, Any]]:
    """Submit→complete latency percentiles through the estimation service."""
    from ..service.estimator import Estimator

    graph = _bench_tree(max(40, config.tree_n // 4))
    trials = max(8, config.trials // 8)
    with Estimator(n_jobs=1) as service:
        handles = [
            service.submit(
                graph=graph,
                algorithm="fair_tree_fast",
                trials=trials,
                seed=1000 + i,  # distinct seeds: no cache coalescing
            )
            for i in range(config.service_requests)
        ]
        for handle in handles:
            handle.result(timeout=120.0)
        summaries = service.registry.quantiles("service_request_latency_seconds")
    out: dict[str, dict[str, Any]] = {}
    for labels, summary in summaries.items():
        if summary["count"] == 0:  # empty histogram → None quantiles
            continue
        for pct in ("p50", "p95", "p99"):
            value = summary[pct]
            if value is None:
                continue
            out[f"service.latency_ms.{pct}"] = _timing(
                value * 1e3, "ms", higher_is_better=False,
                details={
                    "labels": labels,
                    "count": summary["count"],
                    "mean_ms": summary["mean"] * 1e3,
                },
            )
        break  # single algorithm submitted → single label set
    return out


def _cache_speedup(config: BenchConfig) -> dict[str, dict[str, Any]]:
    """Warm-vs-cold speedup of an identical repeated request."""
    from ..service.estimator import Estimator

    graph = _bench_tree(max(40, config.tree_n // 4))
    trials = max(8, config.trials // 4)
    with Estimator(n_jobs=1) as service:
        started = time.perf_counter()
        service.estimate(graph=graph, algorithm="fair_tree_fast",
                         trials=trials, seed=0, timeout=120.0)
        cold = time.perf_counter() - started
        started = time.perf_counter()
        service.estimate(graph=graph, algorithm="fair_tree_fast",
                         trials=trials, seed=0, timeout=120.0)
        warm = time.perf_counter() - started
    return {
        "cache.warm_cold_speedup": _timing(
            cold / warm if warm > 0 else float("inf"), "x",
            higher_is_better=True,
            details={"cold_ms": cold * 1e3, "warm_ms": warm * 1e3,
                     "trials": trials},
        )
    }


def _sequential_stopping(config: BenchConfig) -> dict[str, dict[str, Any]]:
    """Precision-request economics: evidence reuse and realized trials.

    The acceptance workload is pinned (tree:500, ``fair_tree_fast``,
    2000-trial fixed budget) independent of the scale knobs, so the gated
    counts stay valid between ``--quick`` and full runs.  One fixed
    request deposits evidence; the following default-precision request
    must satisfy its CI from that evidence alone (``warm_new_trials``
    gates at 0 — any regression in the evidence plane or the stopping
    rule shows up as new trials executed).  A cold seeded sweep then
    records the realized-trials distribution of default-precision
    requests (p50/p95, gated with slack for stopping-boundary wobble).

    ``duplicate_trials`` checks trial identity from the results alone:
    same-seed v1→v2 pairs (vectorized and exact), a seeded v2 → larger-cap
    v2 pair and two concurrent seedless v1 requests.  A follow-up whose
    new counts equal its earlier request's T-trial counts adds T, as do
    pooled trials beyond what the two seedless requests executed.
    """
    import warnings as _warnings

    import numpy as np

    from ..service.estimator import Estimator
    from ..service.precision import Precision

    graph = _bench_tree(500, seed=_COUNT_SEED)
    fixed_trials = 2000
    with Estimator(n_jobs=1) as service:
        with _warnings.catch_warnings():
            _warnings.simplefilter("ignore", DeprecationWarning)
            started = time.perf_counter()
            service.estimate(
                graph=graph, algorithm="fair_tree_fast",
                trials=fixed_trials, seed=_COUNT_SEED, timeout=300.0,
            )
            cold_s = time.perf_counter() - started
        started = time.perf_counter()
        warm = service.estimate(
            graph=graph, algorithm="fair_tree_fast",
            precision=Precision.default(), seed=_COUNT_SEED + 1,
            timeout=300.0,
        )
        warm_s = time.perf_counter() - started
        warm_new = warm.realized_trials - warm.prior_trials

        sweep_graph = _bench_tree(150, seed=_COUNT_SEED)
        sweep_realized: list[int] = []
        for i in range(5):
            service.cache.clear()  # each sweep request starts cold
            result = service.estimate(
                graph=sweep_graph, algorithm="fair_tree_fast",
                precision=Precision.default(), seed=3000 + i,
                timeout=300.0,
            )
            sweep_realized.append(result.realized_trials)
        duplicates, dup_details = _duplicate_trials(service)
    p50 = float(np.percentile(sweep_realized, 50))
    p95 = float(np.percentile(sweep_realized, 95))
    details = {
        "n": 500, "fixed_trials": fixed_trials,
        "prior_trials": warm.prior_trials,
        "realized_trials": warm.realized_trials,
        "stopped_early": warm.stopped_early,
    }
    sweep_details = {
        "n": 150, "requests": len(sweep_realized),
        "realized": sweep_realized,
        "precision": Precision.default().to_json(),
    }
    return {
        "sequential.warm_new_trials": _count(
            warm_new, "trials", details=details,
        ),
        "sequential.warm_speedup": _timing(
            cold_s / warm_s if warm_s > 0 else float("inf"), "x",
            higher_is_better=True,
            details={"cold_ms": cold_s * 1e3, "warm_ms": warm_s * 1e3,
                     **details},
        ),
        "sequential.duplicate_trials": _count(
            duplicates, "trials", details=dup_details,
        ),
        "sequential.realized_trials.p50": _entry(
            p50, "trials", "count", higher_is_better=False,
            gate=True, tolerance_pct=10.0, details=sweep_details,
        ),
        "sequential.realized_trials.p95": _entry(
            p95, "trials", "count", higher_is_better=False,
            gate=True, tolerance_pct=10.0, details=sweep_details,
        ),
    }


def _duplicate_trials(service) -> tuple[int, dict[str, Any]]:
    """Trials a follow-up request counted again (see ``_sequential_stopping``)."""
    import warnings as _warnings

    import numpy as np

    from ..service.precision import Precision

    graph = _bench_tree(150, seed=_COUNT_SEED)
    t = 64

    def capped(trials: int) -> Precision:
        return Precision(node_ci=0.001, min_trials=trials, max_trials=trials)

    def submit(**kwargs):
        with _warnings.catch_warnings():
            _warnings.simplefilter("ignore", DeprecationWarning)
            return service.submit(graph=graph, algorithm="luby_fast", **kwargs)

    def run(**kwargs):
        return submit(**kwargs).result(300.0)

    pairs = {
        "v1-v2-vectorized": (dict(trials=t, seed=11, mode="vectorized"),
                             dict(precision=capped(2 * t), seed=11,
                                  mode="vectorized")),
        "v1-v2-exact": (dict(trials=t, seed=12, mode="exact"),
                        dict(precision=capped(2 * t), seed=12, mode="exact")),
        "v2-v2-larger-cap": (dict(precision=capped(t), seed=13),
                             dict(precision=capped(2 * t), seed=13)),
    }
    found: dict[str, int] = {}
    for name, (first_kw, follow_kw) in pairs.items():
        service.cache.clear()  # the follow-up's prior is the first's trials
        first = run(**first_kw)
        follow = run(**follow_kw)
        new = follow.estimate.counts - first.estimate.counts
        found[name] = t if np.array_equal(new, first.estimate.counts) else 0
    service.cache.clear()
    handles = [submit(trials=t, seed=None) for _ in range(2)]
    executed = sum(h.result(300.0).trials_run for h in handles)
    follow = run(precision=capped(4 * t), seed=None)
    found["seedless-concurrent"] = max(0, follow.prior_trials - executed)
    return sum(found.values()), {"n": 150, "trials": t, "pairs": found}


def _remote_telemetry(config: BenchConfig) -> dict[str, dict[str, Any]]:
    """Cross-process telemetry plane: merge completeness and overhead.

    A real 2-worker pool runs the same seeded workload twice — once with
    the plane attached (worker registries + span capture piggybacked on
    every chunk) and once bare.  The gated counts assert the plane's
    contract, not the clock: every dispatched chunk's telemetry must be
    merged exactly once (``unmerged_chunks`` and ``duplicate_chunks``
    both 0) and the merged registry must carry per-worker labeled
    series.  The on/off wall-clock ratio is advisory; the hard <5%
    bound lives in ``benchmarks/test_engine_speed.py``.
    """
    from ..analysis.montecarlo import TrialPool
    from ..fast.luby import FastLuby
    from ..obs.metrics import MetricsRegistry, parse_label_key
    from ..obs.remote import RemoteTelemetry, telemetry_enabled

    if not telemetry_enabled():  # REPRO_TELEMETRY=0 → nothing to measure
        return {}
    graph = _bench_tree(max(40, config.tree_n // 4))
    trials = max(16, config.trials // 4)
    workers = 2
    registry = MetricsRegistry()
    telemetry = RemoteTelemetry(registry)

    pool = TrialPool(FastLuby(), graph, workers=workers, telemetry=telemetry)
    try:
        started = time.perf_counter()
        pool.run(trials, seed=0)
        on_s = time.perf_counter() - started
    finally:
        pool.close()
    # pool.run partitions seeds over workers*4 chunks, dropping empties
    dispatched = min(workers * 4, trials)
    merged = registry.counter("telemetry_chunks_merged_total").value
    duplicates = registry.counter("telemetry_chunks_duplicate_total").value
    chunk_hist = registry.snapshot()["histograms"].get("worker_chunk_seconds", {})
    worker_labels = {
        parse_label_key(key).get("worker", "") for key in chunk_hist
    }
    missing_series = 0 if worker_labels - {""} else 1

    bare = TrialPool(FastLuby(), graph, workers=workers)
    try:
        started = time.perf_counter()
        bare.run(trials, seed=0)
        off_s = time.perf_counter() - started
    finally:
        bare.close()

    details = {
        "trials": trials, "workers": workers, "n": graph.n,
        "dispatched": dispatched, "merged": merged,
        "worker_series": sorted(worker_labels),
        "on_ms": on_s * 1e3, "off_ms": off_s * 1e3,
    }
    return {
        "telemetry.unmerged_chunks": _count(
            dispatched - merged, "chunks", details=details,
        ),
        "telemetry.duplicate_chunks": _count(
            duplicates, "chunks", details=details,
        ),
        "telemetry.missing_worker_series": _count(
            missing_series, "series", details=details,
        ),
        "telemetry.plane_overhead": _timing(
            on_s / off_s if off_s > 0 else float("inf"), "x",
            higher_is_better=False, details=details,
        ),
    }


def _profiled_run(config: BenchConfig) -> dict[str, dict[str, Any]]:
    """One profiled FastFairTree run; per-phase breakdown in details."""
    from ..fast.fair_tree import FastFairTree
    from ..obs.profile import use_profiler
    from ..runtime.rng import generator_from

    graph = _bench_tree(config.tree_n)
    with use_profiler() as prof:
        started = time.perf_counter()
        FastFairTree().run(graph, generator_from(0))
        elapsed = time.perf_counter() - started
    report = prof.report()
    return {
        "profile.fair_tree_fast.run_ms": _timing(
            elapsed * 1e3, "ms", higher_is_better=False,
            details={"phases": report["phases"], "counts": report["counts"]},
        )
    }


def _grid_edge_tuples(rows: int, cols: int) -> list[tuple[int, int]]:
    """Nested-loop grid edges — the pre-array construction reference."""
    edges: list[tuple[int, int]] = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return edges


def _graph_build(config: BenchConfig) -> dict[str, dict[str, Any]]:
    """Array-native construction vs the tuple-of-tuples reference path.

    The gated metric is a *hash-mismatch count*: every generator family
    in the pinned sweep must produce bit-identical ``content_hash`` to an
    independently-written tuple-path reference (nested loops feeding
    ``from_edges`` with a Python list), and a shuffled/reversed tuple
    round-trip of a random tree must re-canonicalize to the same hash.
    Any nonzero value means the vectorized canonicalization changed graph
    content.  The speedup itself is wall-clock and therefore advisory.
    """
    import numpy as np

    from ..graphs.generators import (
        complete_graph,
        cycle_graph,
        grid_graph,
        path_graph,
        random_tree,
        star_graph,
        triangulated_grid,
    )
    from ..graphs.graph import StaticGraph

    mismatches = 0
    checked: list[str] = []

    def check(name: str, graph: StaticGraph, reference: StaticGraph) -> None:
        nonlocal mismatches
        checked.append(name)
        if graph.content_hash() != reference.content_hash():
            mismatches += 1

    n = _COUNT_N
    check("path", path_graph(n),
          StaticGraph.from_edges(n, [(i, i + 1) for i in range(n - 1)]))
    check("cycle", cycle_graph(n),
          StaticGraph.from_edges(
              n, [(i, (i + 1) % n) for i in range(n)]))
    check("star", star_graph(n),
          StaticGraph.from_edges(n, [(0, i) for i in range(1, n)]))
    check("complete", complete_graph(12),
          StaticGraph.from_edges(
              12, [(i, j) for i in range(12) for j in range(i + 1, 12)]))
    check("grid", grid_graph(12, 9),
          StaticGraph.from_edges(12 * 9, _grid_edge_tuples(12, 9)))
    tri_ref = _grid_edge_tuples(7, 5) + [
        (r * 5 + c, (r + 1) * 5 + c + 1)
        for r in range(6) for c in range(4)
    ]
    check("triangulated_grid", triangulated_grid(7, 5),
          StaticGraph.from_edges(7 * 5, tri_ref))
    # Canonicalization equivalence: feed the canonical edges back as a
    # shuffled, endpoint-swapped Python tuple list; the slow path must
    # reproduce the same canonical form.
    tree = random_tree(n, seed=_COUNT_SEED).graph
    scrambled = [(int(v), int(u)) for u, v in tree.edges.tolist()]
    np.random.default_rng(_COUNT_SEED).shuffle(scrambled)  # type: ignore[arg-type]
    check("random_tree_scrambled", tree,
          StaticGraph.from_edges(n, scrambled))

    side = config.graph_side
    started = time.perf_counter()
    fast = grid_graph(side, side)
    array_s = time.perf_counter() - started
    started = time.perf_counter()
    slow = StaticGraph.from_edges(side * side, _grid_edge_tuples(side, side))
    tuple_s = time.perf_counter() - started
    if fast.content_hash() != slow.content_hash():
        mismatches += 1
        checked.append("grid_timing_pair")

    started = time.perf_counter()
    random_tree(side * side, seed=_COUNT_SEED)
    tree_s = time.perf_counter() - started

    details = {"side": side, "n": side * side, "m": fast.m,
               "array_ms": array_s * 1e3, "tuple_ms": tuple_s * 1e3}
    return {
        "graph.build.hash_mismatches": _count(
            mismatches, "graphs", details={"checked": checked},
        ),
        "graph.build.grid_speedup": _timing(
            tuple_s / array_s if array_s > 0 else float("inf"), "x",
            higher_is_better=True, details=details,
        ),
        "graph.build.grid_ms": _timing(
            array_s * 1e3, "ms", higher_is_better=False, details=details,
        ),
        "graph.build.random_tree_ms": _timing(
            tree_s * 1e3, "ms", higher_is_better=False,
            details={"n": side * side, "seed": _COUNT_SEED},
        ),
    }


def _graph_load(config: BenchConfig) -> dict[str, dict[str, Any]]:
    """On-disk formats: memmap open latency vs the ``.npz`` decompress path.

    The gated metric counts round-trip hash mismatches across all three
    loaders (``.reprograph`` with verification, ``.npz``, and a SNAP
    edge-list rendering that includes duplicate reversed rows and a
    self-loop) plus a check that a memmapped load arrives with its CSR
    pre-materialized.  Timings are advisory: memmap open cost is a
    header read, so it is reported at whatever scale ``graph_side``
    pins.
    """
    import tempfile
    from pathlib import Path

    from ..graphs.diskgraph import load_reprograph, save_reprograph
    from ..graphs.generators import grid_graph, random_tree
    from ..graphs.io import load_graph, save_graph
    from ..graphs.snap import load_snap_edgelist

    side = config.graph_side
    graph = grid_graph(side, side)
    mismatches = 0
    checked: list[str] = []
    with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
        root = Path(tmp)
        disk = root / "g.reprograph"
        file_bytes = save_reprograph(disk, graph)
        started = time.perf_counter()
        loaded = load_reprograph(disk)
        memmap_s = time.perf_counter() - started
        checked.append("reprograph")
        if load_reprograph(disk, verify=True).content_hash() != graph.content_hash():
            mismatches += 1
        checked.append("reprograph_csr_premat")
        if "_csr" not in loaded.__dict__:
            mismatches += 1

        npz = root / "g.npz"
        save_graph(npz, graph)
        started = time.perf_counter()
        npz_graph = load_graph(npz)
        npz_s = time.perf_counter() - started
        checked.append("npz")
        if npz_graph.content_hash() != graph.content_hash():
            mismatches += 1

        # SNAP text round-trip on a pinned small graph: both directions
        # of every edge, a comment, and a self-loop to exercise parsing.
        small = random_tree(_COUNT_N, seed=_COUNT_SEED).graph
        lines = ["# bench snap roundtrip"]
        for u, v in small.edges.tolist():
            lines.append(f"{u}\t{v}")
            lines.append(f"{v} {u}")
        lines.append("3 3")
        text = root / "g.txt"
        text.write_text("\n".join(lines) + "\n", encoding="utf-8")
        snap = load_snap_edgelist(text)
        checked.append("snap")
        if (
            snap.graph.content_hash() != small.content_hash()
            or snap.self_loops_dropped != 1
        ):
            mismatches += 1

    details = {"side": side, "n": graph.n, "m": graph.m,
               "file_mb": file_bytes / 1e6,
               "memmap_ms": memmap_s * 1e3, "npz_ms": npz_s * 1e3}
    return {
        "graph.load.roundtrip_mismatches": _count(
            mismatches, "graphs", details={"checked": checked},
        ),
        "graph.load.reprograph_ms": _timing(
            memmap_s * 1e3, "ms", higher_is_better=False, details=details,
        ),
        "graph.load.npz_vs_reprograph": _timing(
            npz_s / memmap_s if memmap_s > 0 else float("inf"), "x",
            higher_is_better=True, details=details,
        ),
    }


# --------------------------------------------------------------------- #
# count cases (deterministic; gate on any deviation)
# --------------------------------------------------------------------- #
def _faithful_counts(config: BenchConfig) -> dict[str, dict[str, Any]]:
    """Rounds/messages of the faithful engines on a pinned seeded run."""
    from ..algorithms.fair_tree import FairTree
    from ..algorithms.luby import LubyMIS
    from ..runtime.rng import generator_from

    graph = _bench_tree(_COUNT_N, seed=_COUNT_SEED)
    out: dict[str, dict[str, Any]] = {}
    for algorithm in (LubyMIS(), FairTree()):
        result = algorithm.run(graph, generator_from(_COUNT_SEED))
        metrics = result.metrics
        assert metrics is not None
        out[f"faithful.{algorithm.name}.rounds"] = _count(
            metrics.rounds, "rounds", details={"n": _COUNT_N, "seed": _COUNT_SEED}
        )
        out[f"faithful.{algorithm.name}.messages"] = _count(
            metrics.total_messages, "messages",
            details={"n": _COUNT_N, "seed": _COUNT_SEED},
        )
    return out


def _fast_counts(config: BenchConfig) -> dict[str, dict[str, Any]]:
    """Iteration counts of the fast engines on a pinned seeded run."""
    from ..fast.luby import FastLuby
    from ..runtime.rng import generator_from

    graph = _bench_tree(_COUNT_N, seed=_COUNT_SEED)
    out: dict[str, dict[str, Any]] = {}
    for variant in ("priority", "degree"):
        algorithm = FastLuby(variant=variant)
        result = algorithm.run(graph, generator_from(_COUNT_SEED))
        out[f"fast.{algorithm.name}.iterations"] = _count(
            result.info["iterations"], "iterations",
            details={"n": _COUNT_N, "seed": _COUNT_SEED},
        )
    return out


def _frontend_load(config: BenchConfig) -> dict[str, dict[str, Any]]:
    """Closed-loop load through the sharded TCP front end.

    Structure over speed: wall-clock throughput depends on the host's
    core count (a 1-core runner cannot show a shard speedup), so the
    *gated* metrics are the structural invariants that must hold on any
    machine — warm requests route to the same shard and cost zero new
    trials, nominal (self-calibrated, half-capacity) load sheds nothing,
    and overload sheds *structurally*: at least one shed, every
    non-success carrying a machine-readable error code.  The goodput
    numbers (nominal rps, 4-vs-1-shard ratio, overloaded-admitted p99)
    are recorded as advisory timing metrics with the host's cpu count in
    the details.
    """
    import asyncio
    import contextlib

    from ..frontend import Frontend, FrontendConfig, run_loadgen, run_tcp_server
    from ..obs.metrics import MetricsRegistry

    nominal_spec = f"tree:120:{_COUNT_SEED}"
    warm_specs = [f"tree:{80 + i}:1" for i in range(6)]
    cmp_specs = [f"tree:{90 + i}:2" for i in range(8)]
    overload_specs = [f"tree:{130 + i}:3" for i in range(10)]
    evidence_spec = f"tree:500:{_COUNT_SEED}"

    def v1(spec: str, **kw: Any) -> dict[str, Any]:
        return {
            "graph": spec, "algorithm": "luby_fast", "trials": 40,
            "seed": 0, **kw,
        }

    async def start(shards: int, queue_limit: int = 128):
        cfg = FrontendConfig(
            shards=shards, shard_jobs=1, include_counts=False,
            queue_limit=queue_limit,
        )
        fe = Frontend(cfg, registry=MetricsRegistry())
        ready = asyncio.Event()
        task = asyncio.create_task(
            run_tcp_server(fe, "127.0.0.1", 0, ready=ready)
        )
        await asyncio.wait_for(ready.wait(), timeout=180)
        return fe, task

    async def stop(task) -> None:
        task.cancel()
        with contextlib.suppress(asyncio.CancelledError):
            await task

    async def rpc(port: int, obj: dict[str, Any]) -> dict[str, Any]:
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        try:
            writer.write((json.dumps(obj) + "\n").encode())
            await writer.drain()
            line = await asyncio.wait_for(reader.readline(), timeout=300)
            return json.loads(line)
        finally:
            writer.close()
            with contextlib.suppress(ConnectionError, OSError):
                await writer.wait_closed()

    async def bench() -> dict[str, dict[str, Any]]:
        (fe1, t1), (fe4, t4) = await asyncio.gather(start(1), start(4))
        port1, port4 = fe1.bound_port, fe4.bound_port
        try:
            # -- warm path on 4 shards: same graph → same shard, cached.
            warm_errors = warm_route_changes = warm_trials_run = 0
            for i, spec in enumerate(warm_specs):
                first = await rpc(port4, v1(spec, id=f"w{i}a"))
                repeat = await rpc(port4, v1(spec, id=f"w{i}b"))
                if "error" in first or "error" in repeat:
                    warm_errors += 1
                    continue
                if repeat.get("shard") != first.get("shard"):
                    warm_route_changes += 1
                if not repeat.get("cached"):
                    warm_trials_run += int(repeat.get("trials_run", 1)) or 1

            # -- sharded evidence economics (mirrors sequential_stopping
            #    at the wire): a fixed deposit, then a default-precision
            #    request with a fresh seed must cost zero new trials.
            deposit = await rpc(port4, {
                "graph": evidence_spec, "algorithm": "fair_tree_fast",
                "trials": 2000, "seed": _COUNT_SEED, "id": "ev-cold",
            })
            warm_v2 = await rpc(port4, {
                "v": 2, "graph": evidence_spec, "algorithm": "fair_tree_fast",
                "seed": _COUNT_SEED + 1, "id": "ev-warm",
            })
            if "error" in deposit or "error" in warm_v2:
                warm_errors += 1
                warm_new_trials = -1
            else:
                if warm_v2.get("shard") != deposit.get("shard"):
                    warm_route_changes += 1
                warm_new_trials = int(warm_v2["realized_trials"]) - int(
                    warm_v2["prior_trials"]
                )

            # -- calibrate: warm mean latency of the nominal request.
            lat: list[float] = []
            for i in range(6):
                t0 = time.perf_counter()
                probe = await rpc(port1, v1(nominal_spec, id=f"cal{i}"))
                lat.append(time.perf_counter() - t0)
                if "error" in probe:
                    warm_errors += 1
            mean_lat = sum(lat[1:]) / len(lat[1:])  # drop the cold first

            # -- nominal: half the measured capacity must shed nothing.
            nominal_rate = max(2.0, 0.5 / mean_lat)
            nominal = await run_loadgen(
                "127.0.0.1", port1, [v1(nominal_spec)] * 30,
                rate=nominal_rate, slo_ms=10_000.0, timeout_s=300,
            )

            # -- 1 vs 4 shards at the same super-capacity offered load.
            for spec in cmp_specs:  # pre-warm both frontends
                await rpc(port1, v1(spec))
                await rpc(port4, v1(spec))
            cmp_rate = 3.0 / mean_lat
            cmp_requests = [v1(cmp_specs[i % len(cmp_specs)]) for i in range(48)]
            cmp1 = await run_loadgen(
                "127.0.0.1", port1, cmp_requests,
                rate=cmp_rate, slo_ms=10_000.0, timeout_s=300,
            )
            cmp4 = await run_loadgen(
                "127.0.0.1", port4, cmp_requests,
                rate=cmp_rate, slo_ms=10_000.0, timeout_s=300,
            )

            # -- overload: shrink the shard queue and slam it 4x over
            #    capacity with uncached graphs; shedding must happen and
            #    every non-success must carry a structured code.
            fe1.config.queue_limit = 2
            overload_rate = max(50.0, 4.0 / mean_lat)
            overload = await run_loadgen(
                "127.0.0.1", port1,
                [v1(overload_specs[i % len(overload_specs)], seed=i)
                 for i in range(30)],
                rate=overload_rate, slo_ms=10_000.0, timeout_s=300,
            )
        finally:
            await asyncio.gather(stop(t1), stop(t4))

        details = {
            "cpu_count": os.cpu_count(),
            "calibrated_latency_ms": round(mean_lat * 1e3, 3),
            "nominal_rate_rps": round(nominal_rate, 2),
            "cmp_rate_rps": round(cmp_rate, 2),
            "overload_rate_rps": round(overload_rate, 2),
            "nominal": nominal.to_json(),
            "cmp_1shard": cmp1.to_json(),
            "cmp_4shard": cmp4.to_json(),
            "overload": overload.to_json(),
        }
        ratio = (
            cmp4.goodput_rps / cmp1.goodput_rps
            if cmp1.goodput_rps > 0 else float("inf")
        )
        return {
            "frontend.warm_errors": _count(
                warm_errors, "requests", details=details),
            "frontend.warm_route_changes": _count(
                warm_route_changes, "requests", details=details),
            "frontend.warm_trials_run": _count(
                warm_trials_run, "trials", details=details),
            "frontend.warm_new_trials": _count(
                warm_new_trials, "trials", details=details),
            "frontend.nominal_shed": _count(
                nominal.shed + nominal.rate_limited, "requests",
                details=details),
            "frontend.overload_shed_missing": _count(
                0 if overload.shed > 0 else 1, "flag", details=details),
            "frontend.overload_unstructured_errors": _count(
                overload.errors, "requests", details=details),
            "frontend.nominal_goodput_rps": _timing(
                nominal.goodput_rps, "rps", higher_is_better=True,
                details=details),
            "frontend.shard_goodput_ratio": _timing(
                ratio, "x", higher_is_better=True, details=details),
            "frontend.overload_admitted_p99_ms": _timing(
                overload.latency_ms(0.99), "ms", higher_is_better=False,
                details=details),
        }

    return asyncio.run(bench())


def build_cases(config: BenchConfig) -> list[BenchCase]:
    """The suite, optionally filtered by ``config.only`` (substring)."""
    cases = [
        BenchCase("engine_throughput", _engine_throughput,
                  "exact per-trial fast-engine throughput"),
        BenchCase("batched_throughput", _batched_throughput,
                  "disjoint-union batched throughput"),
        BenchCase("shm_transport", _shm_transport,
                  "zero-copy graph transport bytes and attach latency"),
        BenchCase("service_latency", _service_latency,
                  "service submit→complete latency percentiles"),
        BenchCase("cache_speedup", _cache_speedup,
                  "result-cache warm vs cold speedup"),
        BenchCase("sequential_stopping", _sequential_stopping,
                  "precision-request evidence reuse and realized trials"),
        BenchCase("remote_telemetry", _remote_telemetry,
                  "cross-process telemetry merge completeness + overhead"),
        BenchCase("profiled_run", _profiled_run,
                  "per-phase profile of one FAIRTREE run"),
        BenchCase("graph_build", _graph_build,
                  "array-native construction speedup + hash equivalence"),
        BenchCase("graph_load", _graph_load,
                  "memmap open latency + on-disk round-trip equivalence"),
        BenchCase("faithful_counts", _faithful_counts,
                  "faithful-engine rounds/messages (deterministic)"),
        BenchCase("fast_counts", _fast_counts,
                  "fast-engine iteration counts (deterministic)"),
        BenchCase("frontend", _frontend_load,
                  "sharded front end: warm routing, admission, overload"),
    ]
    if config.only:
        needle = config.only.lower()
        cases = [c for c in cases if needle in c.name.lower()]
    return cases


def run_suite(
    config: BenchConfig,
    progress: Callable[[str], None] | None = None,
    cases: Iterable[BenchCase] | None = None,
) -> dict[str, dict[str, Any]]:
    """Execute the suite; returns ``{metric_name: entry}`` for the artifact."""
    metrics: dict[str, dict[str, Any]] = {}
    for case in cases if cases is not None else build_cases(config):
        if progress is not None:
            progress(f"bench: {case.name} ({case.description})")
        started = time.perf_counter()
        produced = case.fn(config)
        elapsed = time.perf_counter() - started
        for name, entry in produced.items():
            if name in metrics:
                raise ValueError(f"duplicate bench metric name {name!r}")
            metrics[name] = entry
        if progress is not None:
            progress(f"bench: {case.name} done in {elapsed:.2f}s "
                     f"({len(produced)} metrics)")
    return metrics

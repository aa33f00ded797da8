"""The traced run: per-layer numbers from spans around each layer's calls.

Each workload's request stream is replayed, one request at a time,
through three tiers — an in-process ``Estimator``, the stdin ``python -m
repro serve`` loop, and the ``serve --tcp`` front end — and the
benchmark also calls single layers' public functions directly (request
parsing, routing, graph builds, shared-memory export, trial pools, the
fast engines).  Every such call is wrapped in a span recorded by this
file; the program itself is not instrumented further.  Spans stay in
memory and are written to ``.perfbench/trace-<workload>.jsonl`` at the
end.  End-to-end figures never come from this run.
"""

from __future__ import annotations

import itertools
import json
import os
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np

import workloads as W
from checks import Checker, analyse, digest
from common import ROOT, Report, median
from loadgen import open_loop
from sut import LOG_DIR, ServeStdin, ServeTcp, TcpClient

#: Requests in the replayed serve-warm stream.
WARM_REPLAY = 200
#: Paired warm requests per tier for the hop figures.
HOP_PAIRS = 40
#: Trials per direct engine measurement (one vectorized batch).
ENGINE_TRIALS = 64
EXACT_TRIALS = 32
ENGINE_REPEATS = 3


class Tracer:
    """In-memory spans: name, start, end, parent span and request id."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._ids = itertools.count(1)

    @contextmanager
    def span(self, name: str, request: str | None = None):
        sid = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append({"id": sid, "parent": parent, "name": name,
                               "request": request, "start": start, "end": end})

    def self_times(self) -> dict[str, float]:
        """Total self time per span name (duration minus direct children)."""
        child: dict[int, float] = {}
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] = child.get(s["parent"], 0.0) + s["end"] - s["start"]
        out: dict[str, float] = {}
        for s in self.spans:
            own = s["end"] - s["start"] - child.get(s["id"], 0.0)
            out[s["name"]] = out.get(s["name"], 0.0) + own
        return out

    def write(self, path) -> None:
        path.parent.mkdir(exist_ok=True)
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


# ---------------------------------------------------------------------- #
# streams
# ---------------------------------------------------------------------- #
def _streams(workload: str, rng):
    """``(warmup, replay, paired)`` request lists for *workload*.

    *warmup* runs first and is not measured; *paired* are requests that
    are hits after the replay, used for the per-tier hop figures.
    """
    if workload == "table1-city":
        seed = int(rng.integers(1 << 30))
        replay = [{"v": 2, "graph": W.CITY_SPEC, "algorithm": alg, "seed": seed,
                   "precision": {"node_ci": W.CITY_NODE_CI}} for alg in W.CITY_ALGORITHMS]
        return [], replay, replay
    hot = W.warm_hot_set(rng)
    replay = W.warm_stream(rng, hot, WARM_REPLAY, "t").objs
    return hot + hot, replay, hot


def _wire(obj: dict, rid: str) -> bytes:
    return W.wire_line({**obj, "id": rid})


def _request_obj(obj: dict, graph=None):
    """An ``EstimateRequest`` for the in-process tier (graph reused if given)."""
    from repro.service.requests import EstimateRequest

    req = EstimateRequest.from_json({k: v for k, v in obj.items() if k != "id"})
    return req if graph is None else replace(req, graph=graph, graph_spec=None)


# ---------------------------------------------------------------------- #
# tiers
# ---------------------------------------------------------------------- #
def _chunk_seconds(registry) -> float:
    """Seconds workers spent in chunks, summed over every worker series."""
    series = registry.snapshot()["histograms"].get("worker_chunk_seconds", {})
    return sum(v["sum"] for v in series.values())


def _inprocess(tr: Tracer, warmup, replay, paired, graph, rep: Report):
    from repro.service import Estimator

    digests: list[str] = []
    with Estimator(n_jobs=2) as svc:
        for k, obj in enumerate(warmup):
            svc.estimate(_request_obj(obj, graph))
        base = svc.counters.snapshot()
        busy0 = _chunk_seconds(svc.registry)
        t0 = time.perf_counter()
        rounds, new_trials = [], 0
        for k, obj in enumerate(replay):
            rid = f"inproc-{k}"
            with tr.span("request", rid), tr.span("service.estimate", rid):
                res = svc.estimate(_request_obj(obj, graph))
            digests.append(digest(res.estimate.counts))
            new_trials += res.trials_run
            if obj.get("v") == 2 and res.convergence is not None:
                rounds.append(len(res.convergence.frames))
        wall = time.perf_counter() - t0
        counters = svc.counters.snapshot()
        busy = _chunk_seconds(svc.registry) - busy0
        qd = svc.registry.quantiles("service_queue_depth", (0.9,))
        # Tracing overhead: the same warm hits with and without a span.
        timed = {True: [], False: []}
        for k in range(HOP_PAIRS):
            for on in (k % 2 == 0, k % 2 == 1):
                req = _request_obj(paired[k % len(paired)], graph)
                t = time.perf_counter()
                if on:
                    with tr.span("request", f"overhead-{k}"), tr.span("service.estimate"):
                        svc.estimate(req)
                else:
                    svc.estimate(req)
                timed[on].append(time.perf_counter() - t)
        hit_s = timed[False]
    n = len(replay)
    delta = {k: counters[k] - base.get(k, 0) for k in counters}
    rep.metric("service.hit_ms", median(hit_s) * 1e3, "ms", f"n={len(hit_s)} warm hits")
    rep.metric("service.cache_hit_frac",
               (delta["cache_hits"] + delta["evidence_hits"]) / n, "ratio",
               f"over {n} replayed requests")
    rep.metric("service.new_trials_per_req", new_trials / n, "count")
    rep.metric("service.rounds_per_req", float(np.mean(rounds)) if rounds else 0.0, "count",
               f"n={len(rounds)} precision requests")
    p90 = next(iter(qd.values()), {}).get("p90") if qd else None
    rep.metric("service.queue_depth_p90", float(p90 or 0.0), "count", "bucketed histogram")
    rep.metric("montecarlo.pools_created_per_req", delta["pools_created"] / n, "count")
    rep.metric("montecarlo.worker_busy_frac", busy / (2 * wall), "ratio",
               f"worker chunk seconds over 2 workers x {wall:.2f}s")
    rep.metric("bench.trace_overhead_frac",
               median(timed[True]) / median(timed[False]) - 1, "ratio",
               f"n={HOP_PAIRS} alternating hits")
    return digests, median(hit_s)


def _stdin_tier(tr: Tracer, warmup, replay, paired, checker: Checker, rep: Report):
    digests: list[str] = []
    with ServeStdin() as serve:
        for k, obj in enumerate(warmup):
            serve.request(_wire(obj, f"sw{k}"))
        for k, obj in enumerate(replay):
            rid = f"stdin-{k}"
            with tr.span("request", rid), tr.span("serve.request", rid):
                raw = serve.request(_wire(obj, rid))
            ok = checker.check({**obj, "id": rid}, raw)
            digests.append(digest(ok["counts"]) if ok else "failed")
        rtt, sizes = [], []
        for k in range(HOP_PAIRS):
            obj = paired[k % len(paired)]
            t = time.perf_counter()
            raw = serve.request(_wire(obj, f"sh{k}"))
            rtt.append(time.perf_counter() - t)
            sizes.append(len(raw))
    rep.metric("serve.response_bytes", median(sizes), "bytes", f"n={len(sizes)} paired hits")
    return digests, median(rtt)


def _tcp_tier(tr: Tracer, warmup, replay, paired, checker: Checker, rep: Report,
              workload: str, rng):
    digests: list[str] = []
    sut = ServeTcp(name="serve-tcp-traced")
    try:
        sut.start(W.wire_line(W.probe_request(rng)))
        client = TcpClient(sut.port)
        try:
            for k, obj in enumerate(warmup):
                client.request(_wire(obj, f"tw{k}"))
            for k, obj in enumerate(replay):
                rid = f"tcp-{k}"
                with tr.span("request", rid), tr.span("frontend.request", rid):
                    raw = client.request(_wire(obj, rid))
                ok = checker.check({**obj, "id": rid}, raw)
                digests.append(digest(ok["counts"]) if ok else "failed")
            rtt = []
            for k in range(HOP_PAIRS):
                obj = paired[k % len(paired)]
                t = time.perf_counter()
                client.request(_wire(obj, f"th{k}"))
                rtt.append(time.perf_counter() - t)
        finally:
            client.close()
        shed_frac, lag = 0.0, 0.0
        if workload == "serve-warm":
            cfg = W.WARM
            stream = W.warm_stream(rng, paired, cfg["rounds"] * cfg["block_n"], "o")
            with tr.span("loadgen.heavy"):
                outcomes = open_loop("127.0.0.1", sut.port, stream.lines, stream.ids,
                                     cfg["heavy_rps"])
            phase = analyse(stream.objs, outcomes, cfg["heavy_rps"], cfg["tail_q"],
                            checker, timeout_ms=1e4)
            shed_frac, lag = phase.shed / phase.sent, phase.lag_p99_ms
    finally:
        sut.stop()
    rep.metric("frontend.shed_frac", shed_frac, "ratio", "heavy-rate open loop")
    rep.metric("bench.lag_p99_ms", lag, "ms", "generator lateness at the heavy rate")
    return digests, median(rtt)


# ---------------------------------------------------------------------- #
# direct layer calls
# ---------------------------------------------------------------------- #
def _frontend_calls(tr: Tracer, replay, rep: Report) -> None:
    from repro.frontend.protocol import parse_request_line
    from repro.frontend.routing import RendezvousRouter

    lines = [_wire(o, f"p{k}").decode() for k, o in enumerate(replay)]
    router = RendezvousRouter(1)
    parse, route = [], []
    for _ in range(max(1, 2000 // len(lines))):
        for line in lines:
            with tr.span("frontend.parse_request_line"):
                parsed = parse_request_line(line)
            with tr.span("frontend.shard_for"):
                router.shard_for(parsed.request.graph_spec)
            parse.append(tr.spans[-2]["end"] - tr.spans[-2]["start"])
            route.append(tr.spans[-1]["end"] - tr.spans[-1]["start"])
    rep.metric("frontend.parse_us", median(parse) * 1e6, "us", f"n={len(parse)}")
    rep.metric("frontend.route_us", median(route) * 1e6, "us", f"n={len(route)}")


def _graph_calls(tr: Tracer, replay, rep: Report):
    """Build each distinct graph (up to 12) and export it to shared memory."""
    from repro.graphs.shm import export_graph
    from repro.graphs.spec import GraphSpec

    specs = list(dict.fromkeys(o["graph"] for o in replay))[:12]
    built, build, export = {}, [], []
    for spec in specs:
        with tr.span("graphs.build"):
            built[spec] = GraphSpec.parse(spec).build()
        build.append(tr.spans[-1]["end"] - tr.spans[-1]["start"])
        with tr.span("graphs.export_graph"):
            shared = export_graph(built[spec])
        export.append(tr.spans[-1]["end"] - tr.spans[-1]["start"])
        shared.close()
    rep.metric("graphs.build_ms", median(build) * 1e3, "ms", f"n={len(build)} specs")
    rep.metric("graphs.shm_export_ms", median(export) * 1e3, "ms", f"n={len(export)} specs")
    return built


def _engine_calls(tr: Tracer, graph, rep: Report, rng) -> list[str]:
    """Engine-path table and phase shares on the workload's largest graph."""
    from repro.analysis.montecarlo import chunk_counts, spawn_trial_seeds, vector_chunk_counts
    from repro.core.registry import make
    from repro.obs.profile import use_profiler

    rows = []
    seed = int(rng.integers(1 << 30))
    for alg in W.CITY_ALGORITHMS:
        algorithm = make(alg)
        short = alg.removesuffix("_fast")
        seeds = spawn_trial_seeds(seed, EXACT_TRIALS)
        vec_s, exact_s = [], []
        for rep_k in range(ENGINE_REPEATS):
            # Phase shares come from the last repeat, after caches filled.
            with use_profiler() as prof, tr.span(f"fast.{short}.vectorized"):
                vector_chunk_counts(algorithm, graph, np.random.SeedSequence(seed + rep_k),
                                    ENGINE_TRIALS)
            vec_s.append(tr.spans[-1]["end"] - tr.spans[-1]["start"])
            with tr.span(f"fast.{short}.exact"):
                chunk_counts(algorithm, graph, seeds)
            exact_s.append(tr.spans[-1]["end"] - tr.spans[-1]["start"])
        vec = ENGINE_TRIALS / median(vec_s)
        exact = EXACT_TRIALS / median(exact_s)
        rep.metric(f"fast.{short}.vectorized_trials_per_s", vec, "1/s", f"n={graph.n}")
        rep.metric(f"fast.{short}.exact_trials_per_s", exact, "1/s", f"n={graph.n}")
        report = prof.report()
        phases = {k: v["total_s"] for k, v in report["phases"].items()}
        chunk = sum(phases.get(f"batched.{p}", 0.0) for p in ("union", "sweep", "fold"))
        sweep = phases.get("batched.sweep", 0.0)
        shares = {}
        if alg == "luby_fast":
            luby = report["rounds"].get("luby.sweep", {})
            batches = -(-ENGINE_TRIALS // 64)
            rep.metric("fast.luby.iterations", luby.get("rounds", 0) / batches, "count",
                       "rounds per batched sweep")
        else:
            shares = {
                "union": phases.get("batched.union", 0.0) / chunk,
                "fold": phases.get("batched.fold", 0.0) / chunk,
                **{s: phases.get(f"fair_tree.{s}", 0.0) / sweep
                   for s in ("stage1_cut", "stage2_resolve", "stage3_maximalize",
                             "stage4_fallback")},
                "cfb_election": phases.get("cfb.election", 0.0) / sweep,
                "cfb_bfs": phases.get("cfb.bfs", 0.0) / sweep,
            }
            for name, value in shares.items():
                rep.metric(f"fast.phase.{name}_share", value, "ratio",
                           "of the chunk" if name in ("union", "fold") else "of the sweep")
        rows.append(f"{alg:<15} n={graph.n:<6} vectorized {vec:9.1f}/s  exact {exact:9.1f}/s"
                    f"  vectorized/exact {vec / exact:.2f}x")
    return rows


@contextmanager
def _telemetry_off():
    previous = os.environ.get("REPRO_TELEMETRY")
    os.environ["REPRO_TELEMETRY"] = "0"
    try:
        yield
    finally:
        if previous is None:
            del os.environ["REPRO_TELEMETRY"]
        else:
            os.environ["REPRO_TELEMETRY"] = previous


def _pool_calls(tr: Tracer, graph, rep: Report, rng) -> None:
    from repro.analysis.montecarlo import TrialPool, vector_chunk_counts
    from repro.core.registry import make
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.remote import RemoteTelemetry

    algorithm = make("luby_fast")
    spawn = []
    for _ in range(3):
        with tr.span("montecarlo.TrialPool"):
            pool = TrialPool(algorithm, graph, workers=2)
        spawn.append(tr.spans[-1]["end"] - tr.spans[-1]["start"])
        pool.close()
    rep.metric("montecarlo.pool_spawn_ms", median(spawn) * 1e3, "ms", "n=3, 2 workers")

    seed = np.random.SeedSequence(int(rng.integers(1 << 30)))
    pool = TrialPool(algorithm, graph, workers=2,
                     telemetry=RemoteTelemetry(MetricsRegistry()))
    try:
        pool.run_vector_chunk(seed, ENGINE_TRIALS)  # worker warm-up
        times = {"pool": [], "inline": [], "off": []}
        for _ in range(5):
            with tr.span("montecarlo.run_vector_chunk"):
                pool.run_vector_chunk(seed, ENGINE_TRIALS)
            times["pool"].append(tr.spans[-1]["end"] - tr.spans[-1]["start"])
            with _telemetry_off():
                t = time.perf_counter()
                pool.run_vector_chunk(seed, ENGINE_TRIALS)
                times["off"].append(time.perf_counter() - t)
            with tr.span("fast.vector_chunk_counts"):
                vector_chunk_counts(algorithm, graph, seed, ENGINE_TRIALS)
            times["inline"].append(tr.spans[-1]["end"] - tr.spans[-1]["start"])
    finally:
        pool.close()
    pool_s, inline_s, off_s = (median(times[k]) for k in ("pool", "inline", "off"))
    rep.metric("montecarlo.chunk_overhead_ms", (pool_s - inline_s) * 1e3, "ms",
               f"pool chunk minus inline chunk, {ENGINE_TRIALS} Luby trials")
    rep.metric("obs.telemetry_overhead_frac", pool_s / off_s - 1, "ratio",
               "same pool chunk, telemetry on vs REPRO_TELEMETRY=0")


# ---------------------------------------------------------------------- #
# entry point
# ---------------------------------------------------------------------- #
def run(args, rep: Report, deadline: float) -> None:
    from repro.graphs.spec import GraphSpec

    rng = np.random.default_rng(args.seed)
    tr = Tracer()
    warmup, replay, paired = _streams(args.workload, rng)
    checker = Checker()

    _frontend_calls(tr, replay, rep)
    built = _graph_calls(tr, replay, rep)
    largest = max(built.values(), key=lambda g: g.n)
    rep.note(f"largest graph n={largest.n} m={largest.m}")
    for row in _engine_calls(tr, largest, rep, rng):
        rep.note(row)
    _pool_calls(tr, largest, rep, rng)

    city = largest if args.workload == "table1-city" else None
    inproc, hit_s = _inprocess(tr, warmup, replay, paired, city, rep)
    del built, largest, city
    stdin, stdin_s = _stdin_tier(tr, warmup, replay, paired, checker, rep)
    tcp, tcp_s = _tcp_tier(tr, warmup, replay, paired, checker, rep, args.workload, rng)
    rep.metric("serve.hop_ms", (stdin_s - hit_s) * 1e3, "ms",
               "stdin serve round trip minus in-process hit")
    rep.metric("frontend.hop_ms", (tcp_s - stdin_s) * 1e3, "ms",
               "TCP round trip minus stdin serve round trip")

    rep.attempted += 3 * len(replay)
    for tier, got in (("stdin serve", stdin), ("TCP", tcp)):
        mismatched = sum(a != b for a, b in zip(inproc, got))
        if mismatched:
            rep.fail(f"{mismatched} {tier} answers differ from the in-process tier")
            rep.failed += mismatched
    for problem in checker.problems[:10]:
        rep.fail(problem)
    selfs = sorted(tr.self_times().items(), key=lambda kv: -kv[1])[:6]
    rep.note("largest self times: " + ", ".join(f"{k} {v:.2f}s" for k, v in selfs))
    path = LOG_DIR / f"trace-{args.workload}.jsonl"
    tr.write(path)
    rep.note(f"{len(tr.spans)} spans written to {path.relative_to(ROOT)}")

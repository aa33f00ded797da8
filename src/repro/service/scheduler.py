"""Batched request scheduler: one round loop over identified trial chunks.

One daemon dispatcher thread drains a FIFO of trial *chunks* and submits
each to a persistent :class:`~repro.analysis.montecarlo.TrialPool`.  A
chunk has an identity — its ``(graph, algorithm)`` pair, its seed root,
the run of spawn indices it draws from that root, its trial count and
its mode — and every request, whatever its kind, runs one state
machine: plan a round of chunks, merge their counts as they land, and
when the round is complete either finish or plan the next round.

* **v1 (fixed budget)** — one round over spawn indices ``0…k−1`` of
  ``SeedSequence(seed)``, with no prior, so a seeded result is a pure
  function of the request and ``chunk_trials``.
* **v2 (precision)** — rounds over the lowest spawn indices of the seed
  root that are neither used (in the cache's evidence ledger) nor in
  flight.  The request reads its prior and those indices in one locked
  snapshot; between rounds its
  :class:`~repro.service.precision.StoppingRule` is evaluated on prior +
  new counts, stopping the request the moment the requested CI closes
  or at the hard trial cap.
* **seedless** — requests on one ``(graph, algorithm, mode)`` share one
  fresh root while any of them, or a chunk of that root, is in flight;
  a retired root's ledger row is dropped, since its entropy is never
  drawn again.

Coalescing is a lookup of in-flight chunk identities: a request whose
round needs a chunk that is already running subscribes to it instead of
running it again.  An identical seeded v1 request finds every chunk it
needs in flight; seedless and precision requests take any in-flight
chunk of their root that fits their round and overlaps no index they
already hold.  Every executed chunk deposits its counts into the
evidence plane once, guarded by the ledger, so pooled evidence never
holds the same trial twice and warm precision traffic typically
executes few or zero new trials.

Pools are kept resident per ``(graph, algorithm)`` pair (LRU-capped), so
repeated traffic for the same pair never pays spin-up or graph pickling
again — the amortization the ROADMAP's throughput goal asks for.
"""

from __future__ import annotations

import math
import queue
import threading
import time
from collections import OrderedDict, deque
from concurrent.futures import Future
from typing import Any

import numpy as np

from ..analysis.fairness import JoinEstimate, z_for_confidence
from ..analysis.montecarlo import TrialPool, normalize_jobs
from ..core.registry import make
from ..core.result import MISAlgorithm
from ..fast.batched import vector_runner_for
from ..graphs.graph import StaticGraph
from ..obs.logging import get_logger
from ..obs.metrics import (
    COUNT_BUCKETS,
    LATENCY_BUCKETS,
    MetricsRegistry,
    use_registry,
)
from ..obs.remote import RemoteTelemetry
from ..obs.spans import bind_trace, current_span_id, current_trace_id, new_trace_id, span
from ..runtime.metrics import RequestRecord, ServiceCounters
from ..runtime.rng import as_seed_sequence, spawn_trial_seeds
from .cache import ResultCache, SpawnRanges, cache_key
from .journal import ConvergenceTrace, RequestJournal, TraceFrame
from .precision import StopDecision, StoppingRule
from .requests import EstimateRequest, EstimateResult

__all__ = ["BatchScheduler", "EstimateTimeout", "EstimateCancelled", "Ticket"]


class EstimateTimeout(TimeoutError):
    """Waiting on a request exceeded the caller's deadline (it may still
    complete; poll again or cancel)."""


class EstimateCancelled(RuntimeError):
    """The request was cancelled before completion (shutdown or caller)."""


class Ticket:
    """Tracks one submitted request from submission to completion."""

    def __init__(
        self,
        request: EstimateRequest,
        graph: StaticGraph,
        graph_hash: str,
        algorithm: MISAlgorithm,
        mode: str,
        key: tuple | None,
        root: int,
        stopping: StoppingRule | None = None,
        prior: JoinEstimate | None = None,
        used: SpawnRanges | None = None,
    ) -> None:
        self.request = request
        self.graph = graph
        self.graph_hash = graph_hash
        self.algorithm = algorithm
        self.mode = mode
        self.key = key
        self.pair = (graph_hash, request.algorithm_key())
        # Trace continuation: tickets join the submitting context's trace
        # (e.g. the Estimator.submit span) or start a fresh one, so every
        # scheduler/pool/chunk event for this request shares one trace_id.
        self.trace_id = current_trace_id() or new_trace_id()
        self.parent_span_id = current_span_id()
        # Sequential-stopping state: the rule, the cached prior seeding the
        # CI, and the target = fixed budget (v1) or hard cap minus prior
        # (v2, prior trials already count toward the cap).
        self.stopping = stopping
        self.prior = prior
        prior_trials = prior.trials if prior is not None else 0
        if stopping is None:
            assert request.trials is not None
            self.target = request.trials
        else:
            self.target = max(0, stopping.max_trials - prior_trials)
        # Trial identity: the seed root (entropy) this request draws from
        # and the spawn indices it may not draw — those its prior holds
        # plus every chunk it has run or subscribed to.  A seeded v1
        # request always draws indices 0…k−1 instead.
        self.root = root
        self.fixed = stopping is None and request.seed is not None
        self.used = used if used is not None else SpawnRanges()
        self.rounds = 0
        self.pending = 0
        self.round_chunks = 0
        self.round_start_trials = 0
        self.frames: list[TraceFrame] = []
        self.stopped_early = False
        self.achieved: dict[str, float] | None = None
        self.counts = np.zeros(graph.n, dtype=np.int64)
        self.trials_done = 0
        self.trials_run = 0
        self.coalesced = False
        self.submitted_at = time.perf_counter()
        self._event = threading.Event()
        self._result: EstimateResult | None = None
        self._error: BaseException | None = None
        self._cancelled = False

    @property
    def prior_trials(self) -> int:
        return self.prior.trials if self.prior is not None else 0

    def combined(self) -> tuple[np.ndarray, int]:
        """Prior + accumulated counts — the evidence the rule sees."""
        if self.prior is None:
            return self.counts, self.trials_done
        return (
            self.prior.counts + self.counts,
            self.prior.trials + self.trials_done,
        )

    # ---- caller-facing ------------------------------------------------ #
    def done(self) -> bool:
        """True once a result or error is available."""
        return self._event.is_set()

    def cancel(self) -> None:
        """Stop executing further chunks for this request."""
        self._cancelled = True

    def result(self, timeout: float | None = None) -> EstimateResult:
        """Block until complete; raise :class:`EstimateTimeout` on expiry."""
        if not self._event.wait(timeout):
            raise EstimateTimeout(
                f"request {self.request.id or self.request.algorithm!r} "
                f"not complete within {timeout}s"
            )
        if self._error is not None:
            raise self._error
        assert self._result is not None
        return self._result

    def poll(self) -> EstimateResult | None:
        """The result if complete, else ``None`` (errors re-raise)."""
        if not self._event.is_set():
            return None
        return self.result(timeout=0)

    # ---- scheduler-facing --------------------------------------------- #
    @property
    def dead(self) -> bool:
        return self._cancelled or self._event.is_set()

    def _complete(self, result: EstimateResult) -> None:
        self._result = result
        self._event.set()

    def _fail(self, error: BaseException) -> None:
        self._error = error
        self._event.set()


class _Chunk:
    """One run of trials in flight, named by its ledger identity.

    ``indices`` is the run of spawn indices of ``root`` it draws from:
    one index seeding all ``trials`` in vectorized mode, one index per
    trial in exact mode.  The first subscriber is the request that
    planned it; later ones coalesced onto it.
    """

    __slots__ = ("key", "pair", "root", "indices", "trials", "mode", "subscribers")

    def __init__(self, key: tuple, owner: Ticket) -> None:
        self.key = key
        self.pair, self.root, self.indices, self.trials, self.mode = key
        self.subscribers = [owner]

    def payload(self) -> Any:
        if self.mode == "vectorized":
            (seed,) = spawn_trial_seeds(self.root, 1, start=self.indices.start)
            return seed, self.trials
        return spawn_trial_seeds(self.root, self.trials, start=self.indices.start)


class BatchScheduler:
    """Owns the dispatcher thread, resident pools, cache, and records.

    Most callers should use :class:`repro.service.Estimator`, which wraps
    this with a friendlier construction/submission surface.
    """

    def __init__(
        self,
        workers: int = 1,
        cache: ResultCache | None = None,
        counters: ServiceCounters | None = None,
        chunk_trials: int = 64,
        max_pools: int = 2,
        max_records: int = 1024,
        context: str | None = None,
        registry: MetricsRegistry | None = None,
        shm: bool = True,
        journal: RequestJournal | None = None,
    ) -> None:
        if chunk_trials <= 0:
            raise ValueError("chunk_trials must be positive")
        if max_pools <= 0:
            raise ValueError("max_pools must be positive")
        self.workers = normalize_jobs(workers)
        self.counters = (
            counters
            if counters is not None
            else (
                cache.counters
                if cache is not None
                else ServiceCounters(registry=registry)
            )
        )
        self.registry = (
            registry if registry is not None else self.counters.registry
        )
        self.cache = (
            cache
            if cache is not None
            else ResultCache(counters=self.counters, registry=self.registry)
        )
        self._log = get_logger("repro.service.scheduler")
        self._h_latency = self.registry.histogram(
            "service_request_latency_seconds",
            "Submit-to-completion latency of estimation requests",
            buckets=LATENCY_BUCKETS,
            labelnames=("algorithm",),
        )
        self._h_chunk = self.registry.histogram(
            "service_trials_per_chunk",
            "Trials executed per scheduled chunk",
            buckets=COUNT_BUCKETS,
        )
        self._h_queue = self.registry.histogram(
            "service_queue_depth",
            "Open requests ahead of each submission",
            buckets=COUNT_BUCKETS,
        )
        self._g_queue = self.registry.gauge(
            "service_queue_depth_current",
            "Requests admitted and not yet complete",
        )
        self._g_pools = self.registry.gauge(
            "service_pools_resident", "Worker pools currently kept warm"
        )
        self._c_fallback = self.registry.counter(
            "service_vectorized_fallback_total",
            "Auto-mode requests that fell back to exact per-trial chunks "
            "because the algorithm has no vectorized runner",
            labelnames=("algorithm",),
        )
        self._h_realized = self.registry.histogram(
            "service_realized_trials",
            "New trials executed per completed request (0 = served "
            "entirely from cache or pooled evidence)",
            buckets=COUNT_BUCKETS,
            labelnames=("algorithm",),
        )
        self._c_early = self.registry.counter(
            "service_precision_early_stops_total",
            "Precision requests whose stopping rule fired before the "
            "hard trial cap",
            labelnames=("algorithm",),
        )
        self._c_capped = self.registry.counter(
            "service_precision_capped_total",
            "Precision requests that exhausted their hard trial cap "
            "before the requested CI closed",
            labelnames=("algorithm",),
        )
        self.chunk_trials = chunk_trials
        self.max_pools = max_pools
        self.records: deque[RequestRecord] = deque(maxlen=max_records)
        # Decision-audit plane: every primary request's convergence trace
        # lands here (bounded ring) for `repro explain` / EstimateResult.
        self.journal = journal if journal is not None else RequestJournal()
        self._context = context
        self._shm = shm
        # Cross-process plane: every pool this scheduler creates ships
        # trace context with its chunks and pipes worker metric deltas +
        # span records back through this merge point (repro.obs.remote).
        self.telemetry = RemoteTelemetry(self.registry)
        self._lock = threading.RLock()
        self._queue: queue.Queue[Any] = queue.Queue()
        self._open: set[Ticket] = set()
        self._flight: dict[tuple, _Chunk] = {}
        self._roots: dict[tuple, int] = {}
        self._pools: OrderedDict[tuple, TrialPool] = OrderedDict()
        self._pool_busy: dict[tuple, int] = {}
        self._graph_memo: OrderedDict[str, StaticGraph] = OrderedDict()
        #: spec → the build in progress, so concurrent cold requests for
        #: one spec build it once.
        self._building: dict[str, Future[StaticGraph]] = {}
        self._sem = threading.BoundedSemaphore(self.workers * 2)
        self._closed = False
        self._hard_stop = False
        self._thread = threading.Thread(
            target=self._loop, name="repro-service-scheduler", daemon=True
        )
        self._thread.start()

    # ------------------------------------------------------------------ #
    # submission
    # ------------------------------------------------------------------ #
    def submit(self, request: EstimateRequest) -> Ticket:
        """Register *request*; returns a :class:`Ticket` immediately.

        Exact-cache hits, and precision requests whose pooled evidence
        already satisfies the stopping rule, complete before this
        returns.  Anything else plans its first round here, subscribing
        to chunks already in flight where it can.
        """
        if self._closed:
            raise RuntimeError("scheduler is shut down")
        self.counters.increment("requests")
        graph = self._resolve_graph(request)
        algorithm = make(request.algorithm, **dict(request.params))
        mode = self._resolve_mode(request.mode, algorithm)
        graph_hash = graph.content_hash()
        algorithm_key = request.algorithm_key()
        precision = request.resolved_precision()
        key = rule = None
        if precision is None:
            assert request.trials is not None
            key = cache_key(
                graph_hash, algorithm_key, request.seed, request.trials, mode
            )
        else:
            self.counters.increment("precision_requests")
            rule = precision.rule()
        hit = None
        with self._lock:
            # One locked snapshot: the seed root, the prior pooled for the
            # pair and the indices of that root it holds, and the plan of
            # the first round.
            if request.seed is not None:
                root = as_seed_sequence(request.seed).entropy
            else:
                root = self._roots.setdefault(
                    (graph_hash, algorithm_key, mode),
                    as_seed_sequence(None).entropy,
                )
            prior = used = None
            if rule is not None:
                prior, used = self.cache.evidence(graph_hash, algorithm_key, root)
            ticket = Ticket(
                request, graph, graph_hash, algorithm, mode, key, root,
                stopping=rule, prior=prior, used=used,
            )
            depth = len(self._open)
            self._h_queue.observe(depth)
            self._log.info(
                "request_submitted",
                trace_id=ticket.trace_id,
                request_id=request.id,
                algorithm=request.algorithm,
                trials=request.trials,
                mode=mode,
                seeded=request.seed is not None,
                precision=precision.to_json() if precision else None,
                prior_trials=ticket.prior_trials,
                queue_depth=depth,
            )
            if key is not None:
                hit = self.cache.get(key)
            elif prior is not None:
                hit = self._check_prior(ticket)
            if hit is None and self._closed:
                # Shutdown ran while this request built its graph; no
                # dispatcher is left to run it or fail it later.
                ticket._fail(EstimateCancelled("service shut down"))
                return ticket
            if hit is None:
                self._open.add(ticket)
                self._g_queue.set(len(self._open))
                self._start_round(ticket)
        if hit is not None:
            self._finish(ticket, hit, cached=True)
        return ticket

    def _check_prior(self, ticket: Ticket) -> JoinEstimate | None:
        """The prior if it alone satisfies the rule (or hits the cap)."""
        assert ticket.stopping is not None and ticket.prior is not None
        prior = ticket.prior
        decision = ticket.stopping.check(prior.counts, prior.trials)
        stop = decision.should_stop
        ticket.frames.append(
            self._precision_frame(
                ticket,
                decision,
                chunks=0,
                new_trials=0,
                predicted=0 if stop else self._round_budget(ticket),
            )
        )
        if not stop:
            return None
        self._conclude(ticket, decision)
        return prior

    # ------------------------------------------------------------------ #
    # resolution helpers
    # ------------------------------------------------------------------ #
    def _resolve_graph(self, request: EstimateRequest) -> StaticGraph:
        if request.graph is not None:
            return request.graph
        spec = request.graph_spec
        assert spec is not None
        with self._lock:
            memo = self._graph_memo.get(spec)
            if memo is not None:
                self._graph_memo.move_to_end(spec)
                return memo
            waiting = self._building.get(spec)
            if waiting is None:
                build: Future[StaticGraph] = Future()
                self._building[spec] = build
        if waiting is not None:
            return waiting.result()
        try:
            graph = request.resolve_graph()
        except BaseException as exc:
            with self._lock:
                del self._building[spec]
            build.set_exception(exc)
            raise
        with self._lock:
            del self._building[spec]
            self._graph_memo[spec] = graph
            while len(self._graph_memo) > 8:
                self._graph_memo.popitem(last=False)
        build.set_result(graph)
        return graph

    def _resolve_mode(self, mode: str, algorithm: MISAlgorithm) -> str:
        runner = vector_runner_for(algorithm)
        if mode == "auto":
            if runner is not None:
                return "vectorized"
            # The fallback is a silent throughput cliff (per-trial python
            # loop instead of the batched kernel) — make it observable.
            self._c_fallback.labels(algorithm=algorithm.name).inc()
            self._log.warning(
                "vectorized_fallback",
                algorithm=algorithm.name,
                reason="no vectorized runner registered",
            )
            return "exact"
        if mode == "vectorized" and runner is None:
            raise ValueError(
                f"algorithm {algorithm.name!r} has no vectorized runner; "
                "use mode='exact' or 'auto'"
            )
        return mode

    # ------------------------------------------------------------------ #
    # rounds
    # ------------------------------------------------------------------ #
    def _start_round(self, ticket: Ticket) -> None:
        """Plan the ticket's next round; queue the chunks it must run.

        A seeded v1 request wants its fixed chunks over indices 0…k−1.
        Every other request first takes in-flight chunks of its root
        (same mode, fitting the round, no index it may not use), then
        new chunks on the lowest indices neither used nor in flight, in
        ``chunk_trials`` pieces.  A wanted chunk already in flight gets a
        subscriber instead of a second run.
        """
        budget = (
            ticket.target if ticket.stopping is None
            else self._round_budget(ticket)
        )
        size = self.chunk_trials
        vectorized = ticket.mode == "vectorized"
        wanted: list[tuple[range, int]] = []
        with self._lock:
            if ticket.fixed:
                for i in range(math.ceil(budget / size)):
                    n = min(size, budget - i * size)
                    lo = i if vectorized else i * size
                    wanted.append((range(lo, lo + (1 if vectorized else n)), n))
            else:
                barred = ticket.used.copy()
                barred.update(self.cache.used_indices(*ticket.pair, ticket.root))
                taken = barred.copy()
                left = budget
                shared = sorted(
                    (
                        c for c in self._flight.values()
                        if c.pair == ticket.pair and c.root == ticket.root
                    ),
                    key=lambda c: c.indices.start,
                )
                for chunk in shared:
                    taken.add(chunk.indices)
                    if (
                        chunk.mode == ticket.mode
                        and chunk.trials <= left
                        and not barred.overlaps(chunk.indices)
                    ):
                        # Bar its indices too: fixed-budget chunks of
                        # one root can overlap (exact [0,50) and [0,64)).
                        barred.add(chunk.indices)
                        wanted.append((chunk.indices, chunk.trials))
                        left -= chunk.trials
                while left > 0:
                    n = min(size, left)
                    indices = taken.first_free(1 if vectorized else n)
                    taken.add(indices)
                    wanted.append((indices, n))
                    left -= n
            ticket.rounds += 1
            ticket.pending = ticket.round_chunks = len(wanted)
            ticket.round_start_trials = ticket.trials_done
            for indices, n in wanted:
                key = (ticket.pair, ticket.root, indices, n, ticket.mode)
                ticket.used.add(indices)
                chunk = self._flight.get(key)
                if chunk is None:
                    self._flight[key] = chunk = _Chunk(key, ticket)
                    self._queue.put(chunk)
                    continue
                chunk.subscribers.append(ticket)
                if not ticket.coalesced:
                    ticket.coalesced = True
                    self.counters.increment("coalesced_requests")
                    self._log.info(
                        "request_coalesced",
                        trace_id=ticket.trace_id,
                        primary_trace_id=chunk.subscribers[0].trace_id,
                        request_id=ticket.request.id,
                    )

    def _round_done(self, ticket: Ticket) -> None:
        """Every chunk of the ticket's round has landed: finish or go on."""
        if ticket.dead:
            if not ticket.done():
                self._abort(ticket, EstimateCancelled("request cancelled"))
            return
        if ticket.stopping is None:
            est = JoinEstimate(
                counts=ticket.counts.copy(), trials=ticket.trials_done
            )
            self.cache.put(ticket.key, est)
            self._finish(ticket, est, cached=False)
            return
        counts, trials = ticket.combined()
        decision = ticket.stopping.check(counts, trials)
        self._log.debug(
            "round_completed",
            trace_id=ticket.trace_id,
            round=ticket.rounds,
            trials=trials,
            node_halfwidth=round(decision.node_halfwidth, 6),
            satisfied=decision.satisfied,
        )
        stop = decision.should_stop or ticket.trials_done >= ticket.target
        ticket.frames.append(
            self._precision_frame(
                ticket,
                decision,
                chunks=ticket.round_chunks,
                new_trials=ticket.trials_done - ticket.round_start_trials,
                predicted=0 if stop else self._round_budget(ticket),
            )
        )
        if not stop:
            self._start_round(ticket)
            return
        self._conclude(ticket, decision)
        est = JoinEstimate(counts=counts.copy(), trials=trials)
        self._finish(ticket, est, cached=False)

    def _conclude(self, ticket: Ticket, decision: StopDecision) -> None:
        ticket.stopped_early = decision.satisfied
        ticket.achieved = decision.achieved()
        if decision.satisfied:
            self.counters.increment("early_stops")
            self._c_early.labels(algorithm=ticket.request.algorithm).inc()
        else:
            self._c_capped.labels(algorithm=ticket.request.algorithm).inc()

    def _round_budget(self, ticket: Ticket) -> int:
        """Trials to execute in the next round of a precision request.

        The first round is one scheduling quantum (enough chunks to keep
        every worker busy); later rounds jump to the trial count the
        normal approximation predicts the bottleneck node still needs,
        so a cold request typically converges in two or three rounds
        instead of dozens of tiny ones.  Always clamped to the remaining
        cap budget.
        """
        assert ticket.stopping is not None
        remaining = ticket.target - ticket.trials_done
        base = self.chunk_trials * max(1, self.workers)
        counts, trials = ticket.combined()
        budget = base
        if trials > 0 and ticket.stopping.node_ci is not None:
            est = JoinEstimate(counts=counts.copy(), trials=trials)
            hw = est.halfwidths(ticket.stopping.z)
            p = est.probabilities[int(np.argmax(hw))]
            z, ci = ticket.stopping.z, ticket.stopping.node_ci
            needed = z * z * max(p * (1.0 - p), 1e-4) / (ci * ci) - trials
            budget = max(base, int(needed * 1.05))
        return max(0, min(remaining, budget))

    def _precision_frame(
        self,
        ticket: Ticket,
        decision: StopDecision,
        *,
        chunks: int,
        new_trials: int,
        predicted: int,
    ) -> TraceFrame:
        """One convergence-trace frame from a stopping-rule evaluation."""
        assert ticket.stopping is not None
        rule = ticket.stopping
        return TraceFrame(
            round=ticket.rounds,
            chunks=chunks,
            new_trials=new_trials,
            total_new_trials=ticket.trials_done,
            prior_trials=ticket.prior_trials,
            trials=decision.trials,
            node_halfwidth=decision.node_halfwidth,
            node_target=rule.node_ci,
            inequality_halfwidth=decision.inequality_halfwidth,
            inequality_target=rule.inequality_ci,
            predicted_remaining=predicted,
            satisfied=decision.satisfied,
            capped=decision.capped,
            wall_s=time.perf_counter() - ticket.submitted_at,
        )

    def _build_trace(
        self, ticket: Ticket, estimate: JoinEstimate, cached: bool
    ) -> ConvergenceTrace:
        """The request's decision audit (see :mod:`repro.service.journal`).

        Precision tickets carry the frames accumulated between rounds;
        fixed-budget (and exact-cache-hit) requests get a single
        synthetic frame so the achieved half-widths are still auditable,
        with stop reason ``fixed-budget``.
        """
        if ticket.stopping is not None:
            precision = ticket.request.resolved_precision()
            return ConvergenceTrace(
                request_id=ticket.request.id,
                algorithm=ticket.request.algorithm,
                graph_hash=ticket.graph_hash,
                mode=ticket.mode,
                stop_reason="satisfied" if ticket.stopped_early else "capped",
                prior_trials=ticket.prior_trials,
                new_trials=ticket.trials_run,
                cached=cached,
                precision=precision.to_json() if precision is not None else None,
                frames=tuple(ticket.frames),
            )
        z = z_for_confidence(0.95)
        frame = TraceFrame(
            round=0 if cached else 1,
            chunks=0 if cached else math.ceil(ticket.target / self.chunk_trials),
            new_trials=ticket.trials_run if not cached else 0,
            total_new_trials=ticket.trials_run if not cached else 0,
            prior_trials=0,
            trials=estimate.trials,
            node_halfwidth=estimate.max_halfwidth(z),
            node_target=None,
            inequality_halfwidth=None,
            inequality_target=None,
            predicted_remaining=0,
            satisfied=False,
            capped=False,
            wall_s=time.perf_counter() - ticket.submitted_at,
        )
        return ConvergenceTrace(
            request_id=ticket.request.id,
            algorithm=ticket.request.algorithm,
            graph_hash=ticket.graph_hash,
            mode=ticket.mode,
            stop_reason="fixed-budget",
            prior_trials=0,
            new_trials=frame.new_trials,
            cached=cached,
            precision=None,
            frames=(frame,),
        )

    # ------------------------------------------------------------------ #
    # dispatcher
    # ------------------------------------------------------------------ #
    def _loop(self) -> None:
        while True:
            chunk = self._queue.get()
            if chunk is None:
                break
            try:
                self._dispatch(chunk)
            except BaseException as exc:  # noqa: BLE001 - fail the requests
                self._fail_chunk(chunk, exc)

    def _acquire_slot(self) -> bool:
        """Bounded-concurrency gate; gives up when hard-stopped."""
        while not self._sem.acquire(timeout=0.05):
            if self._hard_stop:
                return False
        if self._hard_stop:
            self._sem.release()
            return False
        return True

    def _pool_for(self, ticket_pair: tuple, algorithm, graph) -> TrialPool:
        with self._lock:
            pool = self._pools.get(ticket_pair)
            if pool is not None:
                self._pools.move_to_end(ticket_pair)
                return pool
        pool = TrialPool(
            algorithm,
            graph,
            workers=self.workers,
            context=self._context,
            shm=self._shm,
            telemetry=self.telemetry,
        )
        self.counters.increment("pools_created")
        with self._lock:
            self._pools[ticket_pair] = pool
            self._pool_busy.setdefault(ticket_pair, 0)
            victims = []
            if len(self._pools) > self.max_pools:
                for key in list(self._pools):
                    if len(self._pools) <= self.max_pools:
                        break
                    if key != ticket_pair and self._pool_busy.get(key, 0) == 0:
                        victims.append((key, self._pools.pop(key)))
                        self._pool_busy.pop(key, None)
        for _key, victim in victims:
            victim.close(wait=True)
            self.counters.increment("pools_evicted")
        with self._lock:
            self._g_pools.set(len(self._pools))
        return pool

    def _dispatch(self, chunk: _Chunk) -> None:
        """Submit one chunk to its pair's pool, unless nobody wants it."""
        with self._lock:
            subscribers = list(chunk.subscribers)
            live = [t for t in subscribers if not t.dead]
            if not live:
                self._retire(chunk)
        for ticket in subscribers:
            if ticket._cancelled and not ticket.done():
                self._abort(ticket, EstimateCancelled("request cancelled"))
        if not live:
            return
        owner = live[0]
        # Re-enter the owner's trace on the dispatcher thread and bind
        # the service registry so pool/engine observations land here.
        with bind_trace(owner.trace_id, owner.parent_span_id), use_registry(
            self.registry
        ), span(
            "scheduler.dispatch",
            algorithm=owner.request.algorithm,
            round=owner.rounds,
            trials=chunk.trials,
            mode=chunk.mode,
        ):
            pool = self._pool_for(chunk.pair, owner.algorithm, owner.graph)
            if not self._acquire_slot():
                self._fail_chunk(chunk, EstimateCancelled("scheduler stopped"))
                return
            with self._lock:
                self._pool_busy[chunk.pair] = (
                    self._pool_busy.get(chunk.pair, 0) + 1
                )
            pool.submit_chunk(
                chunk.payload(),
                chunk.mode == "vectorized",
                callback=lambda counts, c=chunk: self._on_chunk(c, counts),
                error_callback=lambda exc, c=chunk: self._on_chunk_error(c, exc),
            )

    def _on_chunk(self, chunk: _Chunk, counts: np.ndarray) -> None:
        """Merge a landed chunk into the pool and into every subscriber."""
        self._release_slot(chunk.pair)
        self.counters.increment("chunks_executed")
        self.counters.increment("trials_executed", chunk.trials)
        self._h_chunk.observe(chunk.trials)
        settled: list[Ticket] = []
        with self._lock:
            self.cache.add_evidence(
                *chunk.pair,
                JoinEstimate(counts=counts, trials=chunk.trials),
                chunk.root,
                chunk.indices,
            )
            self._retire(chunk)
            charged = False
            for ticket in chunk.subscribers:
                if ticket.done():
                    continue
                ticket.pending -= 1
                if not ticket._cancelled:
                    ticket.counts += counts
                    ticket.trials_done += chunk.trials
                    if not charged:
                        ticket.trials_run += chunk.trials
                        charged = True
                if ticket.pending == 0:
                    settled.append(ticket)
        self._log.debug(
            "chunk_completed",
            trace_id=chunk.subscribers[0].trace_id,
            trials=chunk.trials,
            algorithm=chunk.pair[1],
            subscribers=len(chunk.subscribers),
        )
        for ticket in settled:
            try:
                self._round_done(ticket)
            except BaseException as exc:  # noqa: BLE001 - fail the request
                self._abort(ticket, exc)

    def _on_chunk_error(self, chunk: _Chunk, exc: BaseException) -> None:
        self._release_slot(chunk.pair)
        self._fail_chunk(chunk, exc)

    def _fail_chunk(self, chunk: _Chunk, exc: BaseException) -> None:
        with self._lock:
            self._retire(chunk)
            subscribers = list(chunk.subscribers)
        for ticket in subscribers:
            if not ticket.done():
                self._abort(ticket, exc)

    def _retire(self, chunk: _Chunk) -> None:
        """Drop *chunk* from the in-flight table (caller holds the lock)."""
        if self._flight.get(chunk.key) is chunk:
            del self._flight[chunk.key]
        self._release_root(chunk.pair, chunk.mode, chunk.root)

    def _release_root(self, pair: tuple, mode: str, root: int) -> None:
        """Retire a seedless root once no open request and no in-flight
        chunk uses it (caller holds the lock).

        Its entropy is never drawn again, so its ledger row goes too;
        the counts it pooled stay.
        """
        shared = (*pair, mode)
        if self._roots.get(shared) != root:
            return
        if any(t.root == root for t in self._open) or any(
            c.root == root for c in self._flight.values()
        ):
            return
        del self._roots[shared]
        self.cache.forget_root(*pair, root)

    def _release_slot(self, pair: tuple) -> None:
        with self._lock:
            self._pool_busy[pair] = max(0, self._pool_busy.get(pair, 0) - 1)
        try:
            self._sem.release()
        except ValueError:  # pragma: no cover - defensive
            pass

    # ------------------------------------------------------------------ #
    # completion / records
    # ------------------------------------------------------------------ #
    def _finish(
        self, ticket: Ticket, estimate: JoinEstimate, cached: bool
    ) -> None:
        latency = time.perf_counter() - ticket.submitted_at
        trials_run = 0 if cached else ticket.trials_run
        self._h_latency.labels(algorithm=ticket.request.algorithm).observe(
            latency
        )
        self._h_realized.labels(algorithm=ticket.request.algorithm).observe(
            trials_run
        )
        self._close(ticket)
        self._log.info(
            "request_completed",
            trace_id=ticket.trace_id,
            request_id=ticket.request.id,
            algorithm=ticket.request.algorithm,
            cached=cached,
            coalesced=ticket.coalesced,
            trials_run=trials_run,
            realized_trials=estimate.trials,
            stopped_early=ticket.stopped_early,
            latency_s=round(latency, 6),
        )
        trace = self._build_trace(ticket, estimate, cached)
        result = EstimateResult(
            request=ticket.request,
            estimate=estimate,
            graph_hash=ticket.graph_hash,
            mode=ticket.mode,
            cached=cached,
            coalesced=ticket.coalesced,
            trials_run=trials_run,
            latency_s=latency,
            stopped_early=ticket.stopped_early,
            prior_trials=ticket.prior_trials,
            precision_achieved=ticket.achieved,
            convergence=trace,
        )
        ticket._complete(result)
        self.journal.record(trace)
        self._record(ticket, result)

    def _record(self, ticket: Ticket, result: EstimateResult) -> None:
        self.records.append(
            RequestRecord(
                request_id=ticket.request.id or "",
                algorithm=ticket.request.algorithm,
                graph_hash=ticket.graph_hash,
                trials=(
                    ticket.request.trials
                    if ticket.request.trials is not None
                    else ticket.target
                ),
                trials_run=result.trials_run,
                mode=result.mode,
                cached=result.cached,
                coalesced=result.coalesced,
                latency_s=result.latency_s,
                realized_trials=result.realized_trials,
                stopped_early=result.stopped_early,
            )
        )

    def _abort(self, ticket: Ticket, exc: BaseException) -> None:
        self._log.error(
            "request_failed",
            trace_id=ticket.trace_id,
            request_id=ticket.request.id,
            algorithm=ticket.request.algorithm,
            error=f"{type(exc).__name__}: {exc}",
        )
        self._close(ticket)
        if not ticket.done():
            ticket._fail(exc)

    def _close(self, ticket: Ticket) -> None:
        """Forget an ending request; retire its seedless root if unused."""
        with self._lock:
            self._open.discard(ticket)
            self._g_queue.set(len(self._open))
            self._release_root(ticket.pair, ticket.mode, ticket.root)

    # ------------------------------------------------------------------ #
    # shutdown
    # ------------------------------------------------------------------ #
    def worker_processes(self) -> list:
        """Live worker ``Process`` objects across all resident pools.

        Empty when every pool is inline (workers == 1).  Diagnostics and
        the shutdown tests use this to assert no process outlives
        :meth:`shutdown`.
        """
        with self._lock:
            pools = list(self._pools.values())
        procs = []
        for pool in pools:
            procs.extend(pool.processes)
        return procs

    def shutdown(self, wait: bool = True, timeout: float | None = None) -> None:
        """Stop the scheduler and its worker pools.

        With ``wait=True`` (graceful) queued requests finish first; with
        ``wait=False`` pending work is cancelled and worker processes are
        terminated immediately.  Idempotent.
        """
        if self._closed and not self._thread.is_alive():
            return
        self._closed = True
        self._log.info("scheduler_shutdown", graceful=wait)
        if not wait:
            self._hard_stop = True
            with self._lock:
                open_tickets = list(self._open)
            for ticket in open_tickets:
                ticket.cancel()
        else:
            # Requests plan their next round as the last one lands, so
            # the dispatcher must keep draining until every open request
            # settles; only then may the stop sentinel go in.
            deadline = (
                time.monotonic() + timeout if timeout is not None else None
            )
            while True:
                with self._lock:
                    waiting = [t for t in self._open if not t.done()]
                if not waiting or not self._thread.is_alive():
                    break
                if deadline is not None and time.monotonic() >= deadline:
                    break
                waiting[0]._event.wait(0.05)
        self._queue.put(None)
        self._thread.join(timeout)
        with self._lock:
            pools = list(self._pools.values())
            self._pools.clear()
            self._pool_busy.clear()
        for pool in pools:
            pool.close(wait=wait)
        if not wait:
            with self._lock:
                open_tickets = list(self._open)
                self._open.clear()
                self._flight.clear()
            exc = EstimateCancelled("service shut down")
            for ticket in open_tickets:
                if not ticket.done():
                    ticket._fail(exc)

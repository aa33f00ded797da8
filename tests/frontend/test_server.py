"""Front-end pipeline and TCP plane.

The unit tests drive :meth:`Frontend.handle_line` directly against
real in-process shards with ``shard_jobs=1``, so trials run inline and
no worker process starts.  The end-to-end test puts two shards behind
a TCP socket and checks the sharded warm path.
"""

import asyncio
import contextlib
import json
import os
import threading
import time

import numpy as np
import pytest

from repro.core.registry import _REGISTRY, register
from repro.core.result import MISResult
from repro.frontend import (
    Frontend,
    FrontendConfig,
    LoadReport,
    run_http_server,
    run_loadgen,
    run_tcp_server,
)
from repro.frontend.server import _PLANE_SOCKETS, _LineReader
from repro.graphs.spec import GraphSpec
from repro.service import EstimateRequest
from repro.obs.metrics import MetricsRegistry

GATED_NAME = "frontend_test_gated"


class GatedGreedy:
    """Greedy-by-index MIS whose runs wait for the test to open a gate."""

    started = threading.Event()
    gate = threading.Event()

    @property
    def name(self) -> str:
        return GATED_NAME

    def run(self, graph, rng) -> MISResult:
        self.started.set()
        self.gate.wait(timeout=30)
        member = np.zeros(graph.n, dtype=bool)
        for v in range(graph.n):
            member[v] = not member[graph.neighbors(v)].any()
        return MISResult(membership=member, rounds=1)


if GATED_NAME not in _REGISTRY:
    register(GATED_NAME)(GatedGreedy)


def _run(coro):
    return asyncio.run(coro)


@pytest.fixture
def frontend():
    """Factory for front ends whose shards are shut down after the test."""
    made: list[Frontend] = []

    def make(**kwargs) -> Frontend:
        fe = Frontend(FrontendConfig(**kwargs), registry=MetricsRegistry())
        made.append(fe)
        return fe

    yield make
    for fe in made:
        fe.close()


_SMALL = '{"graph": "tree:10", "trials": 5, "seed": 0}'
#: Estimation raises: the gated algorithm has no vectorized runner.
_NO_VECTOR_RUNNER = json.dumps({
    "v": 2, "graph": "tree:10", "algorithm": GATED_NAME,
    "mode": "vectorized", "id": "e",
})


class TestHandleLine:
    def test_parse_error_is_structured(self, frontend):
        fe = frontend()
        out = _run(fe.handle_line("{nope", lineno=1))
        assert out["code"] == "bad_json"
        assert out["line"] == 1

    def test_unsupported_version_v2_shape(self, frontend):
        fe = frontend()
        out = _run(fe.handle_line('{"v": 9, "graph": "tree:10"}'))
        assert out["error"]["code"] == "unsupported_version"

    def test_oversized_line(self, frontend):
        fe = frontend(max_line_bytes=64)
        raw = json.dumps({"graph": "tree:10", "pad": "x" * 200})
        out = _run(fe.handle_line(raw))
        assert out["code"] == "line_too_large"

    def test_inline_shard_answers_and_stamps_its_index(self, frontend):
        fe = frontend(shards=2)
        line = '{"graph": "tree:10", "trials": 5, "seed": 0, "id": "q"}'

        async def scenario():
            return await fe.handle_line(line), await fe.handle_line(line)

        first, second = _run(scenario())
        assert "error" not in first, first
        assert first["id"] == "q"
        assert first["shard"] == fe.router.shard_for("tree:10")
        assert len(first["counts"]) == 10
        assert second["shard"] == first["shard"]
        assert second["cached"] is True and second["trials_run"] == 0
        assert fe.depth == [0, 0]

    def test_default_mode_reaches_the_shard(self, frontend):
        fe = frontend(mode="exact")
        out = _run(fe.handle_line(_SMALL))
        assert out["mode"] == "exact"

    def test_estimation_failure_is_internal_in_request_shape(self, frontend):
        fe = frontend()
        out = _run(fe.handle_line(_NO_VECTOR_RUNNER))
        assert out["error"]["code"] == "internal"
        assert "vectorized" in out["error"]["message"]
        assert out["id"] == "e"
        assert out["shard"] == 0

    def test_cache_hit_answered_while_slow_request_runs(self, frontend):
        fe = frontend(shards=1)
        hit_line = '{"graph": "tree:20:1", "algorithm": "luby_fast", "trials": 8, "seed": 0}'
        slow_line = json.dumps({
            "graph": "path:8", "algorithm": GATED_NAME, "trials": 1,
            "seed": 0, "mode": "exact", "id": "slow",
        })
        GatedGreedy.started.clear()
        GatedGreedy.gate.clear()

        async def scenario():
            warm = await fe.handle_line(hit_line)
            assert "error" not in warm, warm
            slow = asyncio.create_task(fe.handle_line(slow_line))
            try:
                assert await asyncio.to_thread(GatedGreedy.started.wait, 30)
                hit = await asyncio.wait_for(fe.handle_line(hit_line), 30)
                assert not slow.done()
                assert fe.depth == [1]
            finally:
                GatedGreedy.gate.set()
            return hit, await asyncio.wait_for(slow, 30)

        hit, slow = _run(scenario())
        assert hit["cached"] is True and hit["shard"] == 0
        assert "error" not in slow, slow
        assert slow["id"] == "slow"

    def test_close_during_graph_build_answers_internal(self, frontend, monkeypatch):
        fe = frontend()
        building, release = threading.Event(), threading.Event()
        resolve = EstimateRequest.resolve_graph

        def slow_resolve(request):
            building.set()
            release.wait(30)
            return resolve(request)

        monkeypatch.setattr(EstimateRequest, "resolve_graph", slow_resolve)

        async def scenario():
            task = asyncio.create_task(fe.handle_line(_SMALL))
            assert await asyncio.to_thread(building.wait, 30)
            fe.close()
            release.set()
            return await asyncio.wait_for(task, 10)

        out = _run(scenario())
        assert out["code"] == "internal"
        assert "shut down" in out["error"]

    def test_concurrent_cold_requests_build_the_graph_once(
        self, frontend, monkeypatch
    ):
        fe = frontend()
        builds, release = [], threading.Event()
        build = GraphSpec.build

        def gated_build(spec):
            builds.append(spec)
            release.wait(30)
            return build(spec)

        monkeypatch.setattr(GraphSpec, "build", gated_build)
        counters = fe.shards[0].counters

        async def scenario():
            tasks = [
                asyncio.create_task(fe.handle_line(
                    f'{{"graph": "tree:30", "trials": 5, "seed": {seed}}}'
                ))
                for seed in (1, 2)
            ]
            # Both requests are inside submit; give the second time to
            # reach the graph build before the first one finishes.
            deadline = time.monotonic() + 30
            while counters.snapshot()["requests"] < 2:
                assert time.monotonic() < deadline
                await asyncio.sleep(0.01)
            await asyncio.sleep(0.2)
            release.set()
            return await asyncio.wait_for(asyncio.gather(*tasks), 30)

        answers = _run(scenario())
        assert all("error" not in a for a in answers), answers
        assert len(builds) == 1

    def test_rate_limit_kicks_in(self, frontend):
        fe = frontend(rate_limit=1.0, rate_burst=1.0)

        async def scenario():
            first = await fe.handle_line(_SMALL, client="10.0.0.1")
            second = await fe.handle_line(_SMALL, client="10.0.0.1")
            other = await fe.handle_line(_SMALL, client="10.0.0.2")
            return first, second, other

        first, second, other = _run(scenario())
        # First spends the only token and is answered; second is
        # rate-limited; a different client has its own bucket.
        assert "error" not in first, first
        assert second["code"] == "rate_limited"
        assert "error" not in other, other

    def test_full_queue_sheds_with_overloaded(self, frontend):
        fe = frontend(queue_limit=0)
        out = _run(fe.handle_line(_SMALL))
        assert out["code"] == "overloaded"
        assert "queue is full" in out["error"]

    def test_held_peak_sheds_fraction_deterministically(self, frontend):
        fe = frontend(shed_threshold=0.85)
        fe.admission.observe(10.0)  # a burst pinned the held peak high

        async def scenario():
            return [await fe.handle_line(_SMALL) for _ in range(10)]

        results = _run(scenario())
        shed = [r for r in results if r.get("code") == "overloaded"]
        # fraction = 0.85/10 → the first ten decisions all shed.
        assert len(shed) == 10
        assert all("peak-hold load" in r["error"] for r in shed)

    def test_v2_request_gets_v2_shaped_shed(self, frontend):
        fe = frontend(queue_limit=0)
        out = _run(
            fe.handle_line(
                '{"v": 2, "graph": "tree:10", '
                '"precision": {"node_ci": 0.1}, "id": "z"}'
            )
        )
        assert out["v"] == 2
        assert out["error"]["code"] == "overloaded"
        assert out["id"] == "z"

    def test_metrics_flow(self, frontend):
        fe = frontend(queue_limit=0)
        _run(fe.handle_line(_SMALL))
        _run(fe.handle_line("{nope"))
        snap = fe.stats_snapshot()
        counters = snap["metrics"]["counters"]
        assert counters["frontend_requests_total"][""] == 2
        assert counters["frontend_shed_total"][""] == 1
        assert sum(counters["frontend_errors_total"].values()) == 2


def _socket_inodes(pid: int) -> set[str]:
    """The ``socket:[inode]`` targets of *pid*'s open descriptors."""
    found = set()
    for fd in os.listdir(f"/proc/{pid}/fd"):
        with contextlib.suppress(OSError):
            target = os.readlink(f"/proc/{pid}/fd/{fd}")
            if target.startswith("socket:"):
                found.add(target)
    return found


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd") or (os.cpu_count() or 1) < 2,
    reason="needs /proc and two cores for a worker pool",
)
def test_forked_pool_workers_do_not_keep_plane_sockets(frontend):
    fe = frontend(shard_jobs=2)
    line = '{"graph": "tree:200:1", "algorithm": "luby_fast", "trials": 128, "seed": 0}'

    async def scenario():
        ready = asyncio.Event()
        server = asyncio.create_task(
            run_tcp_server(fe, "127.0.0.1", 0, ready=ready)
        )
        await asyncio.wait_for(ready.wait(), timeout=30)
        reader, writer = await asyncio.open_connection("127.0.0.1", fe.bound_port)
        try:
            writer.write(line.encode() + b"\n")
            await writer.drain()
            answer = json.loads(await asyncio.wait_for(reader.readline(), 60))
            # The listener and this connection's server end.
            plane = {os.readlink(f"/proc/self/fd/{fd}") for fd in _PLANE_SOCKETS}
            workers = fe.shards[0]._scheduler.worker_processes()
            held = set().union(*(_socket_inodes(p.pid) for p in workers))
            return answer, plane, workers, held
        finally:
            writer.close()
            server.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await server

    answer, plane, workers, held = _run(scenario())
    assert "error" not in answer, answer
    assert len(plane) >= 2 and workers
    assert not plane & held


def test_http_status_comes_from_the_answer(frontend):
    fe = frontend(shards=2)

    async def post(port: int, body: str) -> tuple[int, dict]:
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        data = body.encode()
        writer.write(
            b"POST /estimate HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s"
            % (len(data), data)
        )
        await writer.drain()
        raw = await asyncio.wait_for(reader.read(), timeout=30)
        writer.close()
        head, _, payload = raw.partition(b"\r\n\r\n")
        return int(head.split()[1]), json.loads(payload)

    async def scenario():
        ready = asyncio.Event()
        server = asyncio.create_task(
            run_http_server(fe, "127.0.0.1", 0, ready=ready)
        )
        await asyncio.wait_for(ready.wait(), timeout=30)
        try:
            return [
                await post(fe.bound_port, body)
                for body in (_SMALL, "{nope", _NO_VECTOR_RUNNER)
            ]
        finally:
            server.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await server

    (ok, good), (bad, malformed), (fail, internal) = _run(scenario())
    assert ok == 200 and good["shard"] == fe.router.shard_for("tree:10")
    assert bad == 400 and malformed["code"] == "bad_json"
    assert fail == 500 and internal["error"]["code"] == "internal"


class TestLineReader:
    @staticmethod
    def _feed(*chunks: bytes, eof: bool = True) -> asyncio.StreamReader:
        reader = asyncio.StreamReader()
        for chunk in chunks:
            reader.feed_data(chunk)
        if eof:
            reader.feed_eof()
        return reader

    def test_plain_lines(self):
        async def scenario():
            lines = _LineReader(self._feed(b"one\ntwo\n"), max_bytes=1024)
            assert await lines.readline() == ("one", False)
            assert await lines.readline() == ("two", False)
            assert await lines.readline() is None

        _run(scenario())

    def test_trailing_partial_line_at_eof(self):
        async def scenario():
            lines = _LineReader(self._feed(b"tail-no-newline"), max_bytes=1024)
            assert await lines.readline() == ("tail-no-newline", False)
            assert await lines.readline() is None

        _run(scenario())

    def test_oversized_line_resyncs_to_next_request(self):
        async def scenario():
            big = b"x" * 300
            lines = _LineReader(
                self._feed(big + b"\n" + b"ok\n"), max_bytes=100, chunk=64
            )
            item = await lines.readline()
            assert item is not None and item[1] is True
            assert int(item[0]) >= 100  # dropped-byte count
            assert await lines.readline() == ("ok", False)
            assert await lines.readline() is None

        _run(scenario())


@pytest.mark.slow
class TestEndToEnd:
    def test_tcp_sharded_warm_path_and_loadgen(self):
        """Two real shards behind TCP: errors, warm routing, loadgen."""

        async def scenario():
            config = FrontendConfig(
                shards=2,
                shard_jobs=1,
                mode="exact",
                queue_limit=32,
            )
            frontend = Frontend(config, registry=MetricsRegistry())
            ready = asyncio.Event()
            server = asyncio.create_task(
                run_tcp_server(frontend, "127.0.0.1", 0, ready=ready)
            )
            await asyncio.wait_for(ready.wait(), timeout=60)
            port = frontend.bound_port
            assert port

            reader, writer = await asyncio.open_connection("127.0.0.1", port)

            async def rpc(raw: str) -> dict:
                writer.write(raw.encode() + b"\n")
                await writer.drain()
                return json.loads(
                    await asyncio.wait_for(reader.readline(), timeout=120)
                )

            try:
                # Structured parse errors over the wire.
                assert (await rpc("{nope"))["code"] == "bad_json"
                bad_v = await rpc('{"v": 9, "graph": "tree:40:1"}')
                assert bad_v["error"]["code"] == "unsupported_version"

                # Warm path: the same graph pins to one shard and its
                # second request is a cache hit there.
                req = {
                    "graph": "tree:60:1",
                    "algorithm": "luby_fast",
                    "trials": 30,
                    "seed": 0,
                }
                first = await rpc(json.dumps({**req, "id": "a"}))
                assert "error" not in first, first
                second = await rpc(json.dumps({**req, "id": "b"}))
                assert "error" not in second, second
                assert second["shard"] == first["shard"]
                assert second["cached"] is True
                assert second["trials_run"] == 0
            finally:
                writer.close()
                with contextlib.suppress(ConnectionError, OSError):
                    await writer.wait_closed()

            # Open-loop loadgen over the same front end.
            requests = [
                {
                    "graph": "tree:60:1",
                    "algorithm": "luby_fast",
                    "trials": 30,
                    "seed": 0,
                }
                for _ in range(10)
            ]
            report = await run_loadgen(
                "127.0.0.1", port, requests, rate=50.0, slo_ms=5000.0
            )
            assert isinstance(report, LoadReport)
            assert report.offered == 10
            assert report.ok == 10
            assert report.shed == 0
            assert report.cached >= 9  # warmed above; all but races cached
            assert len(set(report.shards_seen)) == 1  # one graph, one shard

            counters = frontend.stats_snapshot()["metrics"]["counters"]
            assert counters["frontend_admitted_total"][""] >= 12

            server.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await server

        _run(scenario())

"""Open-loop load generator against scripted line servers.

Each test runs a tiny asyncio server in the same event loop as
:func:`run_loadgen`: it answers every request line with a canned
object carrying the request's ``id``.
"""

import asyncio
import json
import time

from repro.frontend import run_loadgen


async def _serve(answer, *, stall_first_s: float = 0.0):
    """Start a line server on an ephemeral port; returns (server, port).

    With *stall_first_s* the first answer blocks the whole event loop
    for that long, as a pause of the process would.
    """
    stalled = False

    async def handle(reader, writer):
        nonlocal stalled
        while line := await reader.readline():
            rid = json.loads(line)["id"]
            if stall_first_s and not stalled:
                stalled = True
                time.sleep(stall_first_s)
            writer.write((json.dumps(answer(rid)) + "\n").encode())
            await writer.drain()
        writer.close()

    server = await asyncio.start_server(handle, "127.0.0.1", 0)
    return server, server.sockets[0].getsockname()[1]


def test_answers_over_64_kib_are_read_whole():
    counts = list(range(30_000))  # ~170 KB once encoded

    async def scenario():
        server, port = await _serve(lambda rid: {"id": rid, "counts": counts})
        async with server:
            return await run_loadgen(
                "127.0.0.1", port, [{"graph": "tree:30000:1"}] * 3,
                rate=50.0, timeout_s=5.0,
            )

    report = asyncio.run(scenario())
    assert report.completed == 3
    assert report.ok == 3
    assert report.errors == 0


def test_latency_counts_from_due_time_through_a_stall():
    # Twenty requests due every 10 ms; the first answer freezes the
    # loop for 300 ms, so every later request is sent late.  Timed from
    # its due time each one waited out most of the stall.
    async def scenario():
        server, port = await _serve(lambda rid: {"id": rid}, stall_first_s=0.3)
        async with server:
            return await run_loadgen(
                "127.0.0.1", port, [{"graph": "tree:10"}] * 20,
                rate=100.0, timeout_s=10.0,
            )

    report = asyncio.run(scenario())
    assert report.ok == 20
    assert min(report.latencies_ms) >= 300 - 20 * 10 - 5
    assert report.latency_ms(0.5) >= 150

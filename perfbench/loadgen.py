"""The benchmark's own load generator: open loop and closed loop.

One process, ``CONNECTIONS`` TCP connections.  In the open loop
requests are sent on a fixed schedule whatever the server does.  Each request's latency runs
from the moment it was *due*, not the moment it was sent, so a stall in
the server (or in the generator) is charged to every request it delays.
How late the generator itself ran is kept per request, so a run whose
generator fell behind can be flagged instead of silently under-loading.

Responses are matched to requests by their ``id``.  A request with no
response by the end of the drain window counts as a timeout.  Response
bodies are kept raw and decoded only after the timed window, so output
checks do not compete with the schedule.

The closed loop keeps a fixed number of requests in flight and sends
the next one as soon as one is answered.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass

_ID = b'"id": "'
#: One connection per core of the two-core host the rates were set on.
CONNECTIONS = 2
#: How long answers are awaited after the last request was sent.
DRAIN_S = 10.0


@dataclass
class Outcome:
    """One request's fate: its schedule, timing and raw response."""

    due: float
    sent: float
    recv: float | None = None
    raw: bytes | None = None

    @property
    def lag_s(self) -> float:
        return self.sent - self.due

    @property
    def latency_s(self) -> float | None:
        return None if self.recv is None else self.recv - self.due


def _response_id(line: bytes) -> str | None:
    start = line.find(_ID)
    if start < 0:
        return None
    start += len(_ID)
    end = line.find(b'"', start)
    return line[start:end].decode() if end > start else None


async def _open_loop(
    host: str,
    port: int,
    lines: list[bytes],
    ids: list[str],
    rate: float,
) -> list[Outcome]:
    conns = [
        await asyncio.open_connection(host, port, limit=1 << 26)
        for _ in range(CONNECTIONS)
    ]
    index = {rid: i for i, rid in enumerate(ids)}
    out: list[Outcome | None] = [None] * len(lines)
    pending = len(lines)
    all_done = asyncio.Event()

    async def read(reader: asyncio.StreamReader) -> None:
        nonlocal pending
        while True:
            line = await reader.readline()
            if not line:
                return
            now = time.perf_counter()
            i = index.get(_response_id(line) or "")
            if i is None or out[i] is None or out[i].recv is not None:
                continue
            out[i].recv, out[i].raw = now, line
            pending -= 1
            if pending == 0:
                all_done.set()

    readers = [asyncio.create_task(read(r)) for r, _ in conns]
    try:
        t0 = time.perf_counter() + 0.02
        due = [t0 + i / rate for i in range(len(lines))]
        i = 0
        while i < len(lines):
            now = time.perf_counter()
            if due[i] > now:
                await asyncio.sleep(due[i] - now)
                now = time.perf_counter()
            # Send everything already due in one burst: sub-millisecond
            # gaps are below the event loop's timer resolution.
            while i < len(lines) and due[i] <= now:
                writer = conns[i % CONNECTIONS][1]
                writer.write(lines[i])
                out[i] = Outcome(due=due[i], sent=time.perf_counter())
                i += 1
            for _, writer in conns:
                if writer.transport.get_write_buffer_size() > 1 << 20:
                    await writer.drain()
        if pending:
            try:
                await asyncio.wait_for(all_done.wait(), DRAIN_S)
            except asyncio.TimeoutError:
                pass
    finally:
        for _, writer in conns:
            writer.close()
        for task in readers:
            task.cancel()
        await asyncio.gather(*readers, return_exceptions=True)
        for _, writer in conns:
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
    return [o for o in out if o is not None]


async def _closed_loop(
    host: str,
    port: int,
    lines: list[bytes],
    ids: list[str],
    depth: int,
) -> tuple[list[Outcome], float]:
    conns = [
        await asyncio.open_connection(host, port, limit=1 << 26)
        for _ in range(CONNECTIONS)
    ]
    out: list[Outcome | None] = [None] * len(lines)
    todo = iter(range(len(lines)))

    async def run(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        # Each connection keeps depth // CONNECTIONS requests in flight
        # and sends the next one as soon as any of them is answered.
        inflight: dict[str, Outcome] = {}

        def send() -> None:
            i = next(todo, None)
            if i is not None:
                writer.write(lines[i])
                now = time.perf_counter()
                inflight[ids[i]] = out[i] = Outcome(due=now, sent=now)

        for _ in range(depth // CONNECTIONS):
            send()
        while inflight:
            try:
                line = await asyncio.wait_for(reader.readline(), DRAIN_S)
            except asyncio.TimeoutError:
                return
            if not line:
                return
            done = inflight.pop(_response_id(line) or "", None)
            if done is None:
                continue
            done.recv, done.raw = time.perf_counter(), line
            send()

    t0 = time.perf_counter()
    try:
        await asyncio.gather(*(run(r, w) for r, w in conns))
    finally:
        for _, writer in conns:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
    done = [o for o in out if o is not None and o.recv is not None]
    wall = max((o.recv for o in done), default=time.perf_counter()) - t0
    return [o or Outcome(due=t0, sent=t0) for o in out], wall


def closed_loop(host: str, port: int, lines: list[bytes], ids: list[str], depth: int):
    """Send *lines* keeping *depth* requests in flight over the connections.

    Returns one :class:`Outcome` per line in send order (due time = send
    time; ``recv`` stays ``None`` for a request never answered, and a
    connection that gets no answer for ``DRAIN_S`` stops sending) and the
    wall seconds from the first send to the last answer.
    """
    return asyncio.run(_closed_loop(host, port, lines, ids, depth))


def open_loop(
    host: str,
    port: int,
    lines: list[bytes],
    ids: list[str],
    rate: float,
) -> list[Outcome]:
    """Send *lines* (each ending in a newline, ``ids`` in order) at *rate*/s.

    Returns one :class:`Outcome` per request, in send order.
    """
    return asyncio.run(_open_loop(host, port, lines, ids, rate))

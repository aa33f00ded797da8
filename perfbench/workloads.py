"""Workload constants and seeded request streams.

Rates, limits and request mixes are fixed here and never calibrated at
run time, so two commits are always measured under the same load.  The
``--seed`` argument only picks graph seeds, request seeds and the order
of the traffic; the program under test sees nothing but request lines.
"""

from __future__ import annotations

import json

import numpy as np

# ---------------------------------------------------------------------- #
# table1-city: the paper's Table I workload at full scale
# ---------------------------------------------------------------------- #
CITY_SPEC = "city:17834"
CITY_NODE_CI = 0.05
CITY_ALGORITHMS = ("luby_fast", "fair_tree_fast")
#: Set-ups per run (each one builds the city graph in a fresh process).
CITY_SETUPS = 2
#: Pairs of cold precision requests measured per run, at least; more
#: run while they fit in ``--seconds``.
CITY_MIN_PAIRS = 2

# ---------------------------------------------------------------------- #
# serve-warm: every request is a cache or evidence hit
# ---------------------------------------------------------------------- #
WARM = {
    # Rates sit well under the knee (about 130 rps on a quiet 2-core
    # host) so no request fails even when other tenants steal CPU.
    "light_rps": 25.0,
    "heavy_rps": 40.0,
    # Each round is a light block, a heavy block, a batch of ci_n
    # precision (v2) requests sent one at a time, and a closed-loop
    # window of sat_n requests with sat_depth of them in flight (enough
    # to keep the front end and the shard both busy).  Every block and
    # window holds each hot request equally often.  The gated figures
    # are CPU seconds of the deployment summed over all rounds.
    "rounds": 3,
    "block_n": 105,
    "ci_n": 42,
    "sat_n": 210,
    "sat_depth": 4,
    # The highest percentile with at least ten samples beyond it in a
    # block, printed with the p50 of every block.
    "tail_q": 0.9,
    # Latency runs from the due time, so generator jitter is charged to
    # the system; a run is invalid only when the generator is late by
    # 100 ms, far more than any answer takes.
    "lag_limit_ms": 100.0,
}


SETUPS = 3


def probe_request(rng: np.random.Generator) -> dict:
    """A small seeded first request: answered once the deployment can serve."""
    seed = int(rng.integers(1 << 30))
    return {"id": "probe", "graph": f"tree:200:{seed}",
            "algorithm": "luby_fast", "trials": 64, "seed": seed}


def wire_line(obj: dict) -> bytes:
    return (json.dumps(obj) + "\n").encode()


def request_key(obj: dict) -> str:
    """Identity of a request for digest comparison (everything but ``id``)."""
    return json.dumps({k: v for k, v in obj.items() if k != "id"}, sort_keys=True)


class Stream:
    """Request objects plus their wire lines and ids, in send order."""

    def __init__(self, prefix: str) -> None:
        self.prefix = prefix
        self.objs: list[dict] = []

    def add(self, obj: dict) -> None:
        self.objs.append({**obj, "id": f"{self.prefix}{len(self.objs)}"})

    @property
    def lines(self) -> list[bytes]:
        return [wire_line(o) for o in self.objs]

    @property
    def ids(self) -> list[str]:
        return [o["id"] for o in self.objs]


def warm_hot_set(rng: np.random.Generator) -> list[dict]:
    """Seven seeded v1/v2 requests on trees of 5,000-40,000 nodes.

    After one pass each is a result-cache (v1) or evidence (v2) hit;
    with counts included the answers run from about 20 to 160 KB, so
    encoding, relaying and decoding them is the whole cost of a request
    and outweighs the scheduling jitter of a shared host.  An odd number
    of equally likely requests keeps the median inside one request's
    latency band instead of on the edge between two.
    """
    g = [int(x) for x in rng.integers(1, 1 << 30, size=4)]
    s = [int(x) for x in rng.integers(0, 1 << 30, size=4)]
    v2 = {"node_ci": 0.2}
    return [
        {"graph": f"tree:5000:{g[0]}", "algorithm": "luby_fast", "trials": 64, "seed": s[0]},
        {"graph": f"tree:10000:{g[1]}", "algorithm": "fair_tree_fast", "trials": 64, "seed": s[1]},
        {"graph": f"tree:20000:{g[2]}", "algorithm": "luby_fast", "trials": 64, "seed": s[2]},
        {"graph": f"tree:40000:{g[3]}", "algorithm": "luby_fast", "trials": 64, "seed": s[3]},
        {"v": 2, "graph": f"tree:10000:{g[1]}", "algorithm": "fair_tree_fast", "seed": s[1],
         "precision": v2},
        {"v": 2, "graph": f"tree:20000:{g[2]}", "algorithm": "luby_fast", "seed": s[2],
         "precision": v2},
        {"v": 2, "graph": f"tree:40000:{g[3]}", "algorithm": "luby_fast", "seed": s[3],
         "precision": v2},
    ]


def warm_stream(rng: np.random.Generator, hot: list[dict], n: int, prefix: str) -> Stream:
    """*n* hot requests in seeded order, every one equally often.

    The counts are balanced (not drawn) so that a block's median falls
    on the same request's latency band whatever the seed.
    """
    picks = np.resize(np.arange(len(hot)), n)
    stream = Stream(prefix)
    for k in rng.permutation(picks):
        stream.add(hot[int(k)])
    return stream

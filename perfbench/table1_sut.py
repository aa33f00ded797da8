"""The table1-city system under test: an in-process ``Estimator`` caller.

Run by ``run.py`` as its own process so that each set-up starts from a
cold interpreter and the process tree's memory can be sampled.  It
builds ``city:17834``, starts ``Estimator(n_jobs=2)``, answers one
two-trial request per algorithm (which also spawns both worker pools)
and prints a ``ready`` line with the CPU seconds its process tree has
used so far.  With ``--pairs-seconds`` it then runs the closed loop:
purge the evidence plane, then send one cold v2 precision request per
algorithm, each after the previous one is answered, so each request's
CPU seconds are its own; repeat while the budget allows.  Every line it
prints is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import time
import warnings

from common import require_source, tree_cpu_s

require_source()

import numpy as np  # noqa: E402

import workloads as W  # noqa: E402
from checks import digest  # noqa: E402


def emit(**obj) -> None:
    print(json.dumps(obj), flush=True)


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs-seconds", type=float, default=0.0)
    args = ap.parse_args()

    from repro.graphs.spec import GraphSpec
    from repro.service import Estimator, Precision

    t0 = time.perf_counter()
    graph = GraphSpec.parse(W.CITY_SPEC).build()
    build_s = time.perf_counter() - t0
    svc = Estimator(n_jobs=2)
    try:
        probe = {}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            for alg in W.CITY_ALGORITHMS:
                res = svc.estimate(graph=graph, algorithm=alg, trials=2, seed=args.seed)
                probe[alg] = digest(res.estimate.counts)
        emit(event="ready", build_s=build_s, n=graph.n, m=graph.m, probe=probe,
             cpu_s=tree_cpu_s(os.getpid()))
        if args.pairs_seconds <= 0:
            return
        precision = Precision(node_ci=W.CITY_NODE_CI)
        start = time.perf_counter()
        last = 0.0
        pairs = 0
        while pairs < W.CITY_MIN_PAIRS or (
            time.perf_counter() - start + last <= args.pairs_seconds
        ):
            svc.cache.purge_evidence()
            t = time.perf_counter()
            done: dict[str, dict] = {}
            for alg in W.CITY_ALGORITHMS:
                t_req, cpu = time.perf_counter(), tree_cpu_s(os.getpid())
                res = svc.estimate(graph=graph, algorithm=alg,
                                   precision=precision, seed=args.seed)
                est = res.estimate
                done[alg] = {
                    "latency_s": time.perf_counter() - t_req,
                    "cpu_s": tree_cpu_s(os.getpid()) - cpu,
                    "trials": est.trials,
                    "digest": digest(est.counts),
                    "min_count": int(est.counts.min()),
                    "max_count": int(est.counts.max()),
                    "min_probability": float(est.min_probability),
                    "min_node_halfwidth": float(
                        est.halfwidths()[int(np.argmin(est.probabilities))]
                    ),
                    "inequality": float(est.inequality),
                }
            last = time.perf_counter() - t
            emit(event="pair", wall_s=last, results=done)
            pairs += 1
    finally:
        svc.shutdown(wait=False)


if __name__ == "__main__":
    main()

"""The repository benchmark: ``python3 perfbench/run.py --workload NAME ...``.

Workloads (see README.md in this directory for the reasons and the
layer map):

* ``table1-city`` — the paper's Table I at full scale: cold precision
  requests for Luby and FAIRTREE on the n≈17.8k city MST, closed loop.
* ``serve-warm`` — cache/evidence hits against ``python -m repro serve
  --tcp`` in open-loop blocks at two rates, one at a time, and in a
  closed loop.

The gated timings are CPU seconds of the system under test's process
tree (README.md explains why); wall-clock figures are printed as notes.

``--trace 0`` prints every end-to-end metric named in ``BENCHMARK.json``;
``--trace 1`` runs the traced replay (``traced.py``) and prints every
per-layer metric.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

import traced  # noqa: E402
import workloads as W  # noqa: E402
from checks import Checker, analyse  # noqa: E402
from common import (  # noqa: E402
    ROOT,
    Report,
    RssSampler,
    child_env,
    become_subreaper,
    median,
    reap_children,
    require_source,
    stop_process,
    tree_cpu_s,
)
from loadgen import DRAIN_S, closed_loop, open_loop  # noqa: E402
from sut import ServeTcp, TcpClient  # noqa: E402

#: Every run, set-up included, ends well inside three minutes.
RUN_DEADLINE_S = 170.0
#: Time a serve-warm round must have left before it starts.
ROUND_BUDGET_S = 30.0


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------- #
# table1-city
# ---------------------------------------------------------------------- #
def _city_process(seed: int, pairs_seconds: float, deadline: float):
    """Run one table1 system-under-test process; returns (setup_s, events, peak_mb)."""
    argv = [sys.executable, str(ROOT / "perfbench" / "table1_sut.py"),
            "--seed", str(seed), "--pairs-seconds", str(pairs_seconds)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE)
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    events: list[dict] = []
    setup = None
    try:
        with RssSampler(proc.pid) as rss:
            assert proc.stdout is not None
            for line in proc.stdout:
                if setup is None:
                    setup = time.perf_counter() - t0
                events.append(json.loads(line))
            proc.wait()
    finally:
        timer.cancel()
        stop_process(proc)
        # The process has ended; its orphans were adopted by this one.
        reap_children()
    if proc.returncode != 0 or setup is None:
        raise RuntimeError(f"table1 system under test exited with {proc.returncode}")
    return setup, events, rss.peak_mb


def run_table1(args, rep: Report, deadline: float) -> None:
    setups, setup_cpu, probes, peaks = [], [], [], []
    pairs: list[dict] = []
    for k in range(W.CITY_SETUPS):
        measuring = k == W.CITY_SETUPS - 1
        setup, events, peak = _city_process(
            args.seed, args.seconds if measuring else 0.0, deadline
        )
        setups.append(setup)
        peaks.append(peak)
        ready = events[0]
        setup_cpu.append(ready["cpu_s"])
        probes.append(ready["probe"])
        rep.attempted += len(ready["probe"])
        if measuring:
            pairs = [e for e in events if e["event"] == "pair"]
            rep.note(f"city graph n={ready['n']} m={ready['m']} "
                     f"build {ready['build_s']:.2f}s")
    if any(p != probes[0] for p in probes):
        rep.fail("seeded probe digests differ between set-up processes")
    if not pairs:
        rep.fail("no precision pair completed")
        return

    light = [p["results"]["luby_fast"] for p in pairs]
    heavy = [p["results"]["fair_tree_fast"] for p in pairs]
    walls = [p["wall_s"] for p in pairs]
    rep.attempted += 2 * len(pairs)
    for res in light + heavy:
        if res["min_count"] < 0 or res["max_count"] > res["trials"]:
            rep.fail("counts outside [0, trials]")
            rep.failed += 1
    for series, name in ((light, "luby"), (heavy, "fair_tree")):
        if len({r["digest"] for r in series}) != 1:
            rep.fail(f"{name} counts digest differs between identical cold requests")
    for lu, ft in zip(light, heavy):
        bound = 0.25 - 3 * ft["min_node_halfwidth"]
        if ft["min_probability"] < bound:
            rep.fail(f"FAIRTREE min join frequency {ft['min_probability']:.4f} "
                     f"below 1/4 - 3 half-widths = {bound:.4f}")
        if not lu["inequality"] > ft["inequality"]:
            rep.fail(f"Luby inequality {lu['inequality']} does not exceed "
                     f"FAIRTREE's {ft['inequality']}")
    rep.note(f"FAIRTREE min join frequency {heavy[0]['min_probability']:.4f} "
             f"(half-width {heavy[0]['min_node_halfwidth']:.4f}), inequality "
             f"Luby {light[0]['inequality']:.3g} vs FAIRTREE {heavy[0]['inequality']:.3g}")

    cpu = [lu["cpu_s"] + ft["cpu_s"] for lu, ft in zip(light, heavy)]
    trials = sum(r["trials"] for r in light + heavy)
    n = len(pairs)
    rep.metric("setup_s", median(setup_cpu), "s",
               f"CPU, median of {len(setup_cpu)} set-ups")
    rep.metric("ci_cpu_s", median(cpu), "s", f"CPU per cold pair, median of {n}")
    rep.metric("trials_per_cpu_s", trials / sum(cpu), "1/s", f"{trials} realized trials")
    for tier, series in (("light", light), ("heavy", heavy)):
        rep.metric(f"cpu_ms_per_req.{tier}", median([r["cpu_s"] * 1e3 for r in series]),
                   "ms", f"median of {n}")
    rep.metric("ok_frac", 1 - rep.failed / rep.attempted, "ratio")
    rep.metric("peak_rss_mb", max(peaks), "MB")
    rep.note(f"wall: set-up {median(setups):.2f} s, pair {median(walls):.2f} s "
             f"(median of {n}), {trials / sum(walls):.1f} trials/s; Luby "
             f"{median([r['latency_s'] for r in light]):.2f} s, FAIRTREE "
             f"{median([r['latency_s'] for r in heavy]):.2f} s")


# ---------------------------------------------------------------------- #
# serve-warm
# ---------------------------------------------------------------------- #
def _setups(probe: dict, checker: Checker, rep: Report, count: int):
    """Start the deployment *count* times; the last one keeps running.

    Every deployment answers the same seeded *probe* in a fresh process,
    so the checker compares its counts digest across *count* processes.
    Returns the running deployment, the wall seconds of each set-up and
    the CPU seconds each deployment's process tree used for it.
    """

    times, cpu = [], []
    for k in range(count):
        sut = ServeTcp()
        try:
            setup, reply = sut.start(W.wire_line(probe))
            cpu.append(tree_cpu_s(sut.proc.pid))
        except BaseException:
            sut.stop()
            raise
        times.append(setup)
        rep.attempted += 1
        if checker.check(probe, reply) is None:
            rep.failed += 1
        if k < count - 1:
            sut.stop()
    return sut, times, cpu


def _cpu(sut, fn, *args):
    """``fn(*args)`` and the CPU seconds the deployment used meanwhile."""
    before = tree_cpu_s(sut.proc.pid)
    out = fn(*args)
    return out, tree_cpu_s(sut.proc.pid) - before


def _run_phase(sut, stream, rate, checker):
    outcomes, cpu = _cpu(sut, open_loop, "127.0.0.1", sut.port, stream.lines,
                         stream.ids, rate)
    # A request never answered is charged the longest wait it could have had.
    timeout_ms = (len(outcomes) / rate + DRAIN_S) * 1e3
    return analyse(stream.objs, outcomes, rate, W.WARM["tail_q"], checker,
                   timeout_ms), cpu


def _ci_batch(sut, stream, checker, rep) -> list[float]:
    """Send precision requests one at a time; wall seconds of each answer.

    A failed request never delivers its interval, so it counts as infinite.
    """
    client = TcpClient(sut.port)
    seconds = []
    try:
        for obj, line in zip(stream.objs, stream.lines):
            t = time.perf_counter()
            raw = client.request(line)
            seconds.append(time.perf_counter() - t)
            rep.attempted += 1
            if checker.check(obj, raw) is None:
                rep.failed += 1
                seconds[-1] = math.inf
    finally:
        client.close()
    return seconds


def _saturate(sut, stream, checker, rep) -> tuple[int, int, float]:
    """One closed-loop window: (answered, realized trials, wall seconds)."""
    outcomes, wall = closed_loop("127.0.0.1", sut.port, stream.lines, stream.ids,
                                 W.WARM["sat_depth"])
    ok = trials = 0
    for obj, out in zip(stream.objs, outcomes):
        rep.attempted += 1
        answer = checker.check(obj, out.raw)
        if answer is None:
            rep.failed += 1
            continue
        ok += 1
        trials += int(answer["trials"])
    return ok, trials, wall


def run_warm(args, rep: Report, deadline: float) -> None:
    cfg = W.WARM
    rng = np.random.default_rng(args.seed)
    checker = Checker()
    sut, setups, setup_cpu = _setups(W.probe_request(rng), checker, rep, W.SETUPS)
    light: list = []
    heavy: list = []
    ci: list = []
    capacity: list = []
    try:
        with RssSampler(sut.proc.pid) as rss:
            hot = W.warm_hot_set(rng)
            precision = [obj for obj in hot if obj.get("v") == 2]
            _prewarm(sut, hot, checker, rep)

            def make_stream(n, prefix, requests=hot):
                return W.warm_stream(rng, requests, n, prefix)

            for r in range(cfg["rounds"]):
                if time.monotonic() > deadline - ROUND_BUDGET_S:
                    rep.fail(f"only {r} of {cfg['rounds']} rounds fit in the run's time")
                    break
                light.append(_run_phase(sut, make_stream(cfg["block_n"], f"l{r}_"),
                                        cfg["light_rps"], checker))
                heavy.append(_run_phase(sut, make_stream(cfg["block_n"], f"h{r}_"),
                                        cfg["heavy_rps"], checker))
                ci.append(_cpu(sut, _ci_batch, sut,
                               make_stream(cfg["ci_n"], f"c{r}_", precision), checker, rep))
                capacity.append(_cpu(sut, _saturate, sut,
                                     make_stream(cfg["sat_n"], f"s{r}_"), checker, rep))
    finally:
        sut.stop()

    phases = [phase for phase, _ in light + heavy]
    for phase, cpu in light + heavy:
        if phase.lag_p99_ms > cfg["lag_limit_ms"]:
            rep.fail(f"generator fell behind at {phase.rate:g} rps "
                     f"(lag p99 {phase.lag_p99_ms:.2f} ms > {cfg['lag_limit_ms']:g} ms)")
        rep.note(f"{phase.describe()} cpu/answer={cpu / max(1, phase.ok) * 1e3:.2f}ms")
    for problem in checker.problems[:10]:
        rep.fail(problem)
    if not checker.compared:
        rep.fail("no seeded response was compared against a digest")
    rep.attempted += sum(p.sent for p in phases)
    rep.failed += sum(p.failed for p in phases)

    ci_seconds = [s for batch, _ in ci for s in batch]
    answered = sum(1 for s in ci_seconds if math.isfinite(s))
    sat_ok = sum(ok for (ok, _, _), _ in capacity)
    sat_trials = sum(trials for (_, trials, _), _ in capacity)
    sat_wall = sum(wall for (_, _, wall), _ in capacity)
    sat_cpu = sum(cpu for _, cpu in capacity)
    rep.metric("setup_s", median(setup_cpu), "s", f"CPU, median of {len(setup_cpu)} set-ups")
    rep.metric("ci_cpu_s", sum(cpu for _, cpu in ci) / answered, "s",
               f"CPU per v2 request sent alone, {answered} requests")
    rep.metric("trials_per_cpu_s", sat_trials / sat_cpu, "1/s",
               f"trials delivered in {len(capacity)} closed-loop windows of {cfg['sat_n']}")
    for tier, blocks in (("light", light), ("heavy", heavy)):
        ok = sum(phase.ok for phase, _ in blocks)
        rep.metric(f"cpu_ms_per_req.{tier}", sum(cpu for _, cpu in blocks) / ok * 1e3, "ms",
                   f"{ok} answers in {len(blocks)} blocks at {blocks[0][0].rate:g} rps")
    rep.metric("ok_frac", 1 - rep.failed / max(1, rep.attempted), "ratio")
    rep.metric("peak_rss_mb", rss.peak_mb, "MB")
    rep.note(f"wall: set-up {median(setups):.2f} s, v2 request alone "
             f"{median(ci_seconds) * 1e3:.2f} ms (median of {len(ci_seconds)}), "
             f"closed loop {sat_ok / sat_wall:.1f} answers/s")


def _prewarm(sut, hot, checker, rep) -> None:
    """Answer each hot request twice so every later one is a hit."""

    client = TcpClient(sut.port)
    try:
        for rnd in range(2):
            stream = W.Stream(f"w{rnd}_")
            for obj in hot:
                stream.add(obj)
            for obj, line in zip(stream.objs, stream.lines):
                rep.attempted += 1
                if checker.check(obj, client.request(line)) is None:
                    rep.failed += 1
                    rep.fail(f"pre-warm request {obj['id']} failed")
    finally:
        client.close()


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # SIGTERM unwinds like an exception, so every system under test the
    # run started is stopped on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    become_subreaper()
    try:
        _run(args)
    finally:
        reap_children()


def _run(args) -> None:
    deadline = time.monotonic() + RUN_DEADLINE_S
    require_source()
    bench = spec()
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        raise SystemExit(f"unknown workload {args.workload!r}; choose from {names}")
    rep = Report(args.workload, bool(args.trace))
    if args.trace:
        traced.run(args, rep, deadline)
        expected = [m["name"] for m in bench["per_layer"]]
    else:
        if args.workload == "table1-city":
            run_table1(args, rep, deadline)
        else:
            run_warm(args, rep, deadline)
        expected = [m["name"] for m in bench["end_to_end"]]
    rep.emit(expected)


if __name__ == "__main__":
    main()

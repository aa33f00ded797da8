"""Result-cache unit tests plus end-to-end hit/miss accounting."""

import numpy as np

from repro.analysis.fairness import JoinEstimate
from repro.runtime.metrics import ServiceCounters
from repro.service import Estimator, ResultCache, cache_key
from repro.service.cache import SpawnRanges


def est(trials=4):
    return JoinEstimate(counts=np.array([0, trials // 2, trials]), trials=trials)


class TestCacheKey:
    def test_distinct_inputs_distinct_keys(self):
        base = cache_key("h", "luby_fast", 0, 100, "exact")
        assert base != cache_key("g", "luby_fast", 0, 100, "exact")
        assert base != cache_key("h", "fair_tree_fast", 0, 100, "exact")
        assert base != cache_key("h", "luby_fast", 1, 100, "exact")
        assert base != cache_key("h", "luby_fast", 0, 101, "exact")
        assert base != cache_key("h", "luby_fast", 0, 100, "vectorized")

    def test_seedless_is_uncacheable(self):
        assert cache_key("h", "luby_fast", None, 100, "exact") is None


class TestResultCache:
    def test_get_put(self):
        c = ResultCache(capacity=4, counters=ServiceCounters())
        assert c.get("k") is None
        c.put("k", est())
        assert c.get("k").trials == 4

    def test_lru_eviction(self):
        counters = ServiceCounters()
        c = ResultCache(capacity=2, counters=counters)
        c.put("a", est(1))
        c.put("b", est(2))
        c.get("a")  # refresh a → b is now least-recent
        c.put("c", est(3))
        assert c.get("b") is None
        assert c.get("a") is not None and c.get("c") is not None
        assert counters.snapshot()["cache_evictions"] == 1

    def test_counters_track_hits_and_misses(self):
        counters = ServiceCounters()
        c = ResultCache(capacity=4, counters=counters)
        c.get("k")
        c.put("k", est())
        c.get("k")
        snap = counters.snapshot()
        assert snap["cache_misses"] == 1
        assert snap["cache_hits"] == 1

    def test_capacity_zero_disables(self):
        c = ResultCache(capacity=0, counters=ServiceCounters())
        c.put("k", est())
        assert c.get("k") is None


class TestSpawnRanges:
    def test_runs_merge_and_count(self):
        r = SpawnRanges()
        r.add(range(4, 6))
        r.add(range(0, 2))
        r.add(range(2, 4))
        assert r.runs == [(0, 6)] and len(r) == 6
        r.add(range(9, 10))
        assert r.runs == [(0, 6), (9, 10)] and len(r) == 7

    def test_overlaps(self):
        r = SpawnRanges()
        r.add(range(3, 5))
        assert r.overlaps(range(4, 8))
        assert not r.overlaps(range(5, 8))
        assert not r.overlaps(range(0, 3))

    def test_first_free_skips_short_gaps(self):
        r = SpawnRanges()
        r.add(range(0, 2))
        r.add(range(4, 10))
        assert r.first_free(1) == range(2, 3)
        assert r.first_free(2) == range(2, 4)
        assert r.first_free(3) == range(10, 13)


class TestEvidencePlane:
    def _gauge(self, counters):
        return counters.registry.gauge("service_evidence_trials_resident").value

    def test_lru_eviction_keeps_resident_gauge_consistent(self):
        counters = ServiceCounters()
        c = ResultCache(capacity=2, counters=counters)
        c.add_evidence("g1", "luby", est(4), 0, range(0, 1))
        c.add_evidence("g2", "luby", est(8), 0, range(0, 1))
        assert self._gauge(counters) == 12
        c.evidence("g1", "luby", 0)  # refresh g1 → g2 is least-recent
        c.add_evidence("g3", "luby", est(16), 0, range(0, 1))
        assert c.evidence_trials("g2", "luby") == 0
        assert c.evidence_trials("g1", "luby") == 4
        # The gauge tracks exactly the trials still resident.
        assert self._gauge(counters) == 4 + 16
        assert counters.snapshot()["cache_evictions"] == 1
        # The evicted entry's ledger went with it.
        assert len(c.used_indices("g2", "luby", 0)) == 0

    def test_purge_selective_and_full(self):
        counters = ServiceCounters()
        c = ResultCache(capacity=8, counters=counters)
        c.add_evidence("g1", "luby", est(4), 0, range(0, 1))
        c.add_evidence("g1", "fair", est(4), 0, range(0, 1))
        c.add_evidence("g2", "luby", est(4), 0, range(0, 1))
        assert c.purge_evidence(graph_hash="g1", algorithm_key="luby") == 1
        assert self._gauge(counters) == 8
        assert c.purge_evidence(graph_hash="g2") == 1
        assert c.purge_evidence() == 1  # everything left
        assert self._gauge(counters) == 0
        assert c.purge_evidence() == 0  # idempotent on empty plane

    def test_purged_tags_do_not_block_redeposit(self):
        c = ResultCache(capacity=8, counters=ServiceCounters())
        c.add_evidence("g", "luby", est(4), 7, range(0, 4))
        c.purge_evidence(graph_hash="g")
        # The purge dropped the ledger with the entry, so the same spawn
        # indices may legitimately be deposited again; clear() likewise.
        assert c.add_evidence("g", "luby", est(4), 7, range(0, 4))
        assert c.evidence_trials("g", "luby") == 4
        c.clear()
        assert c.add_evidence("g", "luby", est(4), 7, range(0, 4))

    def test_same_tag_does_not_double_count(self):
        counters = ServiceCounters()
        c = ResultCache(capacity=8, counters=counters)
        assert c.add_evidence("g", "luby", est(4), 7, range(0, 4))
        # Any overlap with a used index is refused, whatever the chunk's
        # size: the overlapping children seeded trials already pooled.
        assert not c.add_evidence("g", "luby", est(4), 7, range(3, 7))
        assert not c.add_evidence("g", "luby", est(4), 7, range(2, 3))
        assert c.evidence_trials("g", "luby") == 4
        assert self._gauge(counters) == 4
        assert counters.snapshot()["evidence_deposits"] == 1
        # Another root, or the next free index, is new evidence.
        assert c.add_evidence("g", "luby", est(4), 8, range(0, 4))
        assert c.add_evidence("g", "luby", est(4), 7, range(4, 5))
        assert c.evidence_trials("g", "luby") == 12

    def test_forget_root_drops_ledger_row_keeps_counts(self):
        c = ResultCache(capacity=8, counters=ServiceCounters())
        c.add_evidence("g", "luby", est(4), 7, range(0, 4))
        c.add_evidence("g", "luby", est(4), 8, range(0, 1))
        c.forget_root("g", "luby", 7)
        c.forget_root("absent", "luby", 7)  # no entry: a no-op
        assert len(c.used_indices("g", "luby", 7)) == 0
        assert c.used_indices("g", "luby", 8).runs == [(0, 1)]
        assert c.evidence_trials("g", "luby") == 8

    def test_snapshot_reads_prior_and_ledger_together(self):
        c = ResultCache(capacity=8, counters=ServiceCounters())
        prior, used = c.evidence("g", "luby", 7)
        assert prior is None and len(used) == 0
        c.add_evidence("g", "luby", est(4), 7, range(0, 2))
        c.add_evidence("g", "luby", est(4), 9, range(0, 1))
        prior, used = c.evidence("g", "luby", 7)
        assert prior.trials == 8
        assert used.runs == [(0, 2)]

    def test_evidence_entries_describes_pools(self):
        c = ResultCache(capacity=8, counters=ServiceCounters())
        c.add_evidence("g", "luby", est(16), 7, range(0, 16))
        c.add_evidence("g", "luby", est(16), 8, range(0, 1))
        rows = c.evidence_entries()
        assert len(rows) == 1
        row = rows[0]
        assert row["graph_hash"] == "g" and row["algorithm"] == "luby"
        assert row["trials"] == 32 and row["nodes"] == 3
        assert row["used_indices"] == 17
        assert row["bytes"] > 0 and row["age_s"] >= 0
        # Wilson half-width at 95% for p=0.5, n=32 is ≈ 0.17.
        assert 0.1 < row["achievable_halfwidth"] < 0.2


class TestEstimatorCaching:
    def test_repeat_request_served_from_cache(self):
        with Estimator(n_jobs=1) as svc:
            first = svc.estimate(
                graph_spec="tree:40:3", algorithm="luby_fast", trials=64, seed=3
            )
            again = svc.estimate(
                graph_spec="tree:40:3", algorithm="luby_fast", trials=64, seed=3
            )
            snap = svc.counters.snapshot()
        assert not first.cached
        assert again.cached
        assert again.trials_run == 0
        assert np.array_equal(again.estimate.counts, first.estimate.counts)
        assert snap["cache_hits"] == 1
        assert snap["cache_misses"] >= 1
        # No new trials were executed for the repeat.
        assert snap["trials_executed"] == 64

    def test_different_seed_misses(self):
        with Estimator(n_jobs=1) as svc:
            svc.estimate(graph_spec="path:12", algorithm="luby_fast", trials=32, seed=0)
            other = svc.estimate(
                graph_spec="path:12", algorithm="luby_fast", trials=32, seed=1
            )
        assert not other.cached

    def test_sequential_seedless_requests_keep_ledger_bounded(self):
        # Each request is its own burst of seedless traffic: its fresh
        # root retires when it ends, and the root's ledger row with it.
        with Estimator(n_jobs=1, cache_size=8) as svc:
            for _ in range(6):
                svc.estimate(
                    graph_spec="path:12", algorithm="luby_fast", trials=32,
                    seed=None,
                )
            (row,) = svc.cache.evidence_entries()
        assert row["trials"] == 6 * 32
        assert row["used_indices"] == 0

    def test_seedless_request_bypasses_cache(self):
        with Estimator(n_jobs=1, cache_size=8) as svc:
            a = svc.estimate(
                graph_spec="path:12", algorithm="luby_fast", trials=32, seed=None
            )
            b = svc.estimate(
                graph_spec="path:12", algorithm="luby_fast", trials=32, seed=None
            )
            snap = svc.counters.snapshot()
        assert not a.cached and not b.cached
        assert snap["cache_hits"] == 0
        assert snap["trials_executed"] == 64

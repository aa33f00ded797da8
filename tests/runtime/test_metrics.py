"""Unit tests for run metrics."""

from repro.runtime import RunMetrics


class TestRunMetrics:
    def test_record_round_accumulates(self):
        m = RunMetrics()
        m.record_round(1, messages=4, slots=8, active_nodes=3)
        m.record_round(2, messages=2, slots=2, active_nodes=1)
        assert m.rounds == 2
        assert m.total_messages == 6
        assert m.total_slots == 10
        assert len(m.per_round) == 2

    def test_observe_message_tracks_max(self):
        m = RunMetrics()
        m.observe_message(3)
        m.observe_message(7)
        m.observe_message(2)
        assert m.max_slots_per_message == 7

    def test_mean_messages_empty(self):
        assert RunMetrics().mean_messages_per_round == 0.0

    def test_mean_messages(self):
        m = RunMetrics()
        m.record_round(1, messages=4, slots=4, active_nodes=2)
        m.record_round(2, messages=2, slots=2, active_nodes=2)
        assert m.mean_messages_per_round == 3.0

    def test_round_record_fields(self):
        m = RunMetrics()
        m.record_round(1, messages=5, slots=9, active_nodes=4)
        rec = m.per_round[0]
        assert rec.round_index == 1
        assert rec.messages == 5
        assert rec.slots == 9
        assert rec.active_nodes == 4

    def test_record_round_out_of_order_keeps_max(self):
        # Regression: ``rounds`` previously took the *last* recorded index,
        # so out-of-order recording (or a trailing round-0 record) would
        # silently under-count the run.
        m = RunMetrics()
        m.record_round(5, messages=1, slots=1, active_nodes=1)
        m.record_round(3, messages=1, slots=1, active_nodes=1)
        m.record_round(0, messages=0, slots=0, active_nodes=0)
        assert m.rounds == 5
        assert len(m.per_round) == 3


class TestServiceCounters:
    def test_increment_and_snapshot(self):
        from repro.runtime import ServiceCounters

        c = ServiceCounters()
        c.increment("requests")
        c.increment("cache_hits", 3)
        snap = c.snapshot()
        assert snap["requests"] == 1
        assert snap["cache_hits"] == 3
        assert snap["cache_misses"] == 0

    def test_snapshot_is_a_copy(self):
        from repro.runtime import ServiceCounters

        c = ServiceCounters()
        snap = c.snapshot()
        snap["requests"] = 99
        assert c.snapshot()["requests"] == 0

    def test_unknown_counter_rejected(self):
        import pytest

        from repro.runtime import ServiceCounters

        with pytest.raises((AttributeError, KeyError, ValueError)):
            ServiceCounters().increment("bogus_counter")

    def test_unknown_counter_leaves_state_untouched(self):
        # Validate-and-update is atomic: a rejected name must not create
        # a counter or disturb existing totals.
        import pytest

        from repro.runtime import ServiceCounters

        c = ServiceCounters()
        c.increment("requests")
        with pytest.raises(AttributeError):
            c.increment("bogus_counter", 7)
        snap = c.snapshot()
        assert snap["requests"] == 1
        assert "bogus_counter" not in snap

    def test_reset_zeroes_all(self):
        from repro.runtime import ServiceCounters

        c = ServiceCounters()
        c.increment("requests", 5)
        c.increment("trials_executed", 100)
        c.reset()
        assert all(v == 0 for v in c.snapshot().values())

    def test_backed_by_registry(self):
        # The shim exposes the same totals through the metrics registry.
        from repro.runtime import ServiceCounters

        c = ServiceCounters()
        c.increment("requests", 3)
        snap = c.registry.snapshot()
        assert snap["counters"]["service_requests_total"][""] == 3.0

    def test_thread_safety(self):
        import threading

        from repro.runtime import ServiceCounters

        c = ServiceCounters()

        def bump():
            for _ in range(1000):
                c.increment("trials_executed")

        threads = [threading.Thread(target=bump) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.snapshot()["trials_executed"] == 4000


class TestRequestRecord:
    def test_throughput(self):
        from repro.runtime import RequestRecord

        rec = RequestRecord(
            request_id="r1",
            algorithm="luby_fast",
            graph_hash="abc",
            trials=100,
            trials_run=100,
            mode="vectorized",
            cached=False,
            coalesced=False,
            latency_s=0.5,
        )
        assert rec.throughput == 200.0

    def test_zero_latency_throughput(self):
        from repro.runtime import RequestRecord

        rec = RequestRecord(
            request_id=None,
            algorithm="luby_fast",
            graph_hash="abc",
            trials=10,
            trials_run=0,
            mode="exact",
            cached=True,
            coalesced=False,
            latency_s=0.0,
        )
        assert rec.throughput == 0.0

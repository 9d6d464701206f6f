"""The query flight recorder: capture fidelity, the query API, scheduler
integration — and the acceptance bar that recording perturbs *nothing* in
the simulated accounting.
"""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.engine import ThreadedPartitionEngine
from repro.errors import PartitionUnreadableError
from repro.obs import (
    FlightRecord,
    FlightRecorder,
    flight_recorder,
    install_flight_recorder,
    uninstall_flight_recorder,
)
from repro.obs.scope import _CURRENT
from repro.serve import AdmissionRejected, QueryScheduler
from repro.testing.snapshot import (
    SNAPSHOT_N_ENTRIES,
    collect_stats_snapshot,
)


@pytest.fixture(autouse=True)
def _no_leftover_recorder():
    uninstall_flight_recorder()
    yield
    uninstall_flight_recorder()


def make_record(seq: int, **overrides) -> FlightRecord:
    return FlightRecord(
        **{"seq": seq, "ts_unix_s": float(seq), "engine": "scan", **overrides}
    )


class TestCapture:
    def test_engine_hook_records_direct_execution(self, demo):
        table, workload, layouts = demo
        recorder = install_flight_recorder(FlightRecorder())
        layout = layouts["irregular"]
        query = workload.queries[0]
        _, stats = layout.executor.execute(query)
        assert recorder.n_recorded == 1
        (record,) = recorder.records()
        assert record.engine
        assert record.label == query.label
        assert record.outcome == "ok"
        assert record.table == layout.manager.key_prefix
        # the scope's clock, over the same interval as the engine's own;
        # no scheduler, so no wait
        assert record.latency_s == record.wall_time_s > 0.0
        assert record.wall_time_s == pytest.approx(stats.wall_time_s, abs=0.05)
        assert record.queue_wait_s == 0.0
        assert record.leaves == [] and record.unattributed_s == record.wall_time_s
        assert record.bytes_read == stats.bytes_read
        assert record.n_partition_reads == stats.n_partition_reads
        assert record.catalog_version == layout.manager.catalog_version
        assert record.priority == ""  # not a serving-tier request

    @pytest.mark.parametrize(
        "strategy, engine", [("locking", "jigsaw-l"), ("shared", "jigsaw-s")]
    )
    def test_threaded_engine_records_its_wall_time(self, demo, strategy, engine):
        table, workload, layouts = demo
        recorder = install_flight_recorder(FlightRecorder())
        _, stats = ThreadedPartitionEngine(
            layouts["irregular"].manager, table.meta, n_threads=2,
            strategy=strategy,
        ).execute(workload.queries[0])
        (record,) = recorder.records()
        assert record.engine == engine
        assert stats.wall_time_s > 0.0
        assert record.latency_s == record.wall_time_s > 0.0
        assert record.wall_time_s == pytest.approx(stats.wall_time_s, abs=0.05)

    @pytest.mark.parametrize("threaded", [False, True])
    def test_direct_slow_query_keeps_its_explain(self, demo, threaded):
        """A request need not cross the scheduler to enter the slow log."""
        table, workload, layouts = demo
        recorder = install_flight_recorder(FlightRecorder(slow_query_s=0.0))
        executor = layouts["irregular"].executor
        if threaded:
            executor = ThreadedPartitionEngine(
                layouts["irregular"].manager, table.meta, n_threads=2
            )
        executor.execute(workload.queries[0])
        (record,) = recorder.slow_queries()
        for name in ("exec.query", "exec.selection", "exec.projection"):
            assert name in record.explain

    def test_records_without_metrics_enabled(self, demo):
        """The flight log is independent of the metrics gate."""
        _table, workload, layouts = demo
        assert not obs.metrics_enabled()
        recorder = install_flight_recorder(FlightRecorder())
        layouts["natural"].executor.execute(workload.queries[0])
        assert recorder.n_recorded == 1

    def test_ring_is_bounded(self, demo):
        _table, workload, layouts = demo
        recorder = install_flight_recorder(FlightRecorder(capacity=8))
        executor = layouts["natural"].executor
        for _ in range(4):
            for query in workload.queries:
                executor.execute(query)
        assert recorder.n_recorded == 20
        assert len(recorder) == 8
        # the ring keeps the newest records
        assert [r.seq for r in recorder.records()] == list(range(12, 20))

    def test_engine_error_is_one_error_record(self, demo):
        _table, workload, layouts = demo
        recorder = install_flight_recorder(FlightRecorder())
        layout = layouts["irregular"]

        def unreadable(*args, **kwargs):
            raise PartitionUnreadableError("injected")

        executor = layout.executor.clone()
        executor._select = unreadable
        with pytest.raises(PartitionUnreadableError):
            executor.execute(workload.queries[0])
        (record,) = recorder.records()
        assert record.outcome == "error"
        assert record.error == "PartitionUnreadableError: injected"
        assert record.engine == executor.name and record.wall_time_s > 0.0
        assert recorder.n_errors == 1

    def test_disabled_path_constructs_nothing(self, demo, monkeypatch):
        """Nothing enabled: ``execute`` builds no record, span or scope."""
        from repro.obs import scope, trace

        assert flight_recorder() is None and not obs.metrics_enabled()

        def forbidden(self, *args, **kwargs):
            raise AssertionError(f"{type(self).__name__} constructed")

        for cls in (FlightRecord, trace.Span, scope.RequestScope):
            monkeypatch.setattr(cls, "__init__", forbidden)
        _table, workload, layouts = demo
        for layout in layouts.values():
            _result, stats = layout.executor.execute(workload.queries[0])
            assert stats.wall_time_s > 0.0

    def test_install_replaces_and_closes_previous(self):
        first = install_flight_recorder(FlightRecorder())
        second = install_flight_recorder(FlightRecorder())
        assert flight_recorder() is second
        assert first._closed
        uninstall_flight_recorder()
        assert flight_recorder() is None
        assert second._closed


class TestQueryApi:
    @pytest.fixture()
    def recorder(self) -> FlightRecorder:
        recorder = FlightRecorder(slow_query_s=0.5)
        latencies = [0.1, 0.2, 0.9, 0.4, 1.5, 0.3]
        engines = ["scan", "scan", "jigsaw-l", "jigsaw-l", "scan", "scan"]
        outcomes = ["ok", "ok", "ok", "error", "ok", "ok"]
        for i, (latency, engine, outcome) in enumerate(
            zip(latencies, engines, outcomes)
        ):
            recorder.add(
                make_record(
                    i, engine=engine, latency_s=latency, outcome=outcome
                )
            )
        return recorder

    def test_filters(self, recorder):
        assert len(recorder.records()) == 6
        assert len(recorder.records(engine="scan")) == 4
        assert len(recorder.records(outcome="error")) == 1
        assert len(recorder.records(slow=True)) == 2
        assert [r.seq for r in recorder.records(n=2)] == [4, 5]
        assert len(recorder.records(since_unix_s=3.0)) == 3

    def test_top_n(self, recorder):
        worst = recorder.top_n(2)
        assert [r.seq for r in worst] == [4, 2]
        assert worst[0].latency_s == 1.5

    def test_percentile_and_summary(self, recorder):
        assert recorder.percentile(0.5) == 0.3
        assert recorder.percentile(1.0) == 1.5
        assert recorder.percentile(0.5, engine="scan") == 0.2
        summary = recorder.summary()
        assert summary["n_recorded"] == 6
        assert summary["n_slow"] == 2
        assert summary["n_errors"] == 1
        assert summary["by_engine"] == {"scan": 4, "jigsaw-l": 2}
        assert summary["latency_p99_s"] == 1.5

    def test_slow_queries(self, recorder):
        assert [r.seq for r in recorder.slow_queries()] == [2, 4]

    def test_record_round_trip(self, recorder):
        for record in recorder.records():
            clone = FlightRecord.from_dict(
                json.loads(json.dumps(record.as_dict()))
            )
            assert clone == record


class TestSchedulerIntegration:
    def test_serving_facts_and_slow_explain(self, demo):
        _table, workload, layouts = demo
        recorder = install_flight_recorder(
            FlightRecorder(slow_query_s=0.0)  # everything is "slow"
        )
        layout = layouts["irregular"]
        scheduler = QueryScheduler(
            {"irregular": layout.executor}, workers=2, queue_depth=16
        )
        with scheduler:
            tickets = [
                scheduler.submit("irregular", q, priority="high")
                for q in workload.queries
            ]
            for ticket in tickets:
                ticket.wait(timeout=30)
        records = recorder.records()
        assert len(records) == len(workload.queries)
        for record in records:
            assert record.outcome == "ok"
            assert record.priority == "high"
            assert record.slow
            # the scheduler's wall clock, not the engine's
            assert record.latency_s >= record.wall_time_s
            assert record.queue_wait_s >= 0.0
            # the slow-query log kept the full EXPLAIN ANALYZE tree
            assert "exec.query" in record.explain
            assert "sim" in record.explain
        assert recorder.n_slow == len(workload.queries)
        assert _CURRENT.get() is None

    def test_scheduler_does_not_steal_client_scoped_trace(self, demo):
        """A client running its own scoped_trace must keep its spans even
        when the slow-query log wants them too (PR7 contract)."""
        _table, workload, layouts = demo
        install_flight_recorder(FlightRecorder(slow_query_s=0.0))
        layout = layouts["natural"]
        scheduler = QueryScheduler(
            {"natural": layout.executor}, workers=1, queue_depth=8
        )
        with scheduler:
            with obs.scoped_trace() as collector:
                scheduler.execute("natural", workload.queries[0])
        names = {span.name for span in collector.spans()}
        assert "serve.request" in names
        assert "exec.query" in names

    def test_rejections_are_recorded(self, demo):
        _table, workload, layouts = demo
        recorder = install_flight_recorder(FlightRecorder())
        scheduler = QueryScheduler(
            {"natural": layouts["natural"].executor}, workers=1
        )
        with scheduler:
            with pytest.raises(AdmissionRejected):
                scheduler.submit("nonexistent", workload.queries[0])
        assert recorder.n_rejections == 1
        (record,) = recorder.records(outcome="rejected")
        assert record.engine == "nonexistent"
        assert "unknown engine" in record.error
        assert record.latency_s == 0.0


class TestDigestAgainstExactRecords:
    def test_live_summary_p95_within_rank_error_of_flight_log(self, demo):
        """The streaming serve-latency digest must agree with the exact
        per-query flight records to within its advertised rank-error."""
        _table, workload, layouts = demo
        obs.enable(trace=False, metrics=True)
        recorder = install_flight_recorder(FlightRecorder(capacity=8192))
        layout = layouts["natural"]
        scheduler = QueryScheduler(
            {"natural": layout.executor}, workers=2, queue_depth=64
        )
        with scheduler:
            for _round in range(8):
                tickets = [
                    scheduler.submit("natural", q) for q in workload.queries
                ]
                for ticket in tickets:
                    ticket.wait(timeout=30)
        summary = obs.get_registry().get("jigsaw_serve_latency_quantiles")
        digest = summary.merged_digest()
        assert digest.count == recorder.n_recorded == 8 * len(
            workload.queries
        )
        for q in (0.5, 0.95, 0.99):
            exact = recorder.percentile(q)
            streamed = digest.quantile(q)
            factor = 1.0 + digest.relative_error
            assert exact <= streamed <= exact * factor * (1 + 1e-12), (
                q, exact, streamed,
            )


class TestAccountingIdentity:
    def test_snapshot_bit_identical_recorder_on_vs_off(self):
        """The acceptance bar: the full stats-snapshot sweep is signature-
        identical with the recorder (slow log included) on and off."""
        baseline = collect_stats_snapshot()
        assert len(baseline) == SNAPSHOT_N_ENTRIES
        recorder = install_flight_recorder(FlightRecorder(slow_query_s=0.0))
        try:
            recorded = collect_stats_snapshot()
        finally:
            uninstall_flight_recorder()
        assert recorder.n_recorded == SNAPSHOT_N_ENTRIES
        for before, after in zip(baseline, recorded):
            assert before.label == after.label
            assert before.signature == after.signature

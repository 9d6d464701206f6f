"""Unit tests for the query scheduler: lifecycle, priorities, admission.

Stub engines (a gate event instead of real I/O) make every ordering and
accounting assertion deterministic: the worker pool's behavior is pinned by
events, never by sleeps racing real executors.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np
import pytest

from repro.plan.result import ResultSet
from repro.serve import (
    PRIORITY_HIGH,
    PRIORITY_NORMAL,
    AdmissionRejected,
    QueryScheduler,
)


@dataclass(frozen=True)
class FakeQuery:
    label: str


def _empty_result() -> ResultSet:
    return ResultSet(np.array([], dtype=np.int64), {})


@dataclass
class StubEngine:
    """Duck-typed executor: optionally parks on ``gate`` before answering."""

    gate: threading.Event | None = None
    fail: bool = False
    started: threading.Event = field(default_factory=threading.Event)
    calls: list = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock)

    def execute(self, query):
        self.started.set()
        if self.gate is not None:
            assert self.gate.wait(10.0), "stub gate never released"
        if self.fail:
            raise RuntimeError(f"engine failure on {query.label}")
        with self._lock:
            self.calls.append(query.label)
        return _empty_result(), None


def _wait_for(predicate, timeout_s: float = 5.0) -> None:
    deadline = time.monotonic() + timeout_s
    while not predicate():
        assert time.monotonic() < deadline, "condition never became true"
        time.sleep(0.002)


class TestLifecycle:
    def test_start_and_close_are_idempotent(self):
        scheduler = QueryScheduler({"stub": StubEngine()}, workers=2)
        assert scheduler.start() is scheduler
        scheduler.start()  # second start is a no-op, not a second pool
        assert threading.active_count() >= 2
        scheduler.close()
        scheduler.close()  # second close is a no-op

    def test_submit_before_start_raises(self):
        scheduler = QueryScheduler({"stub": StubEngine()}, workers=1)
        with pytest.raises(RuntimeError, match="not started"):
            scheduler.submit("stub", FakeQuery("q"))

    def test_submit_after_close_is_rejected(self):
        scheduler = QueryScheduler({"stub": StubEngine()}, workers=1)
        scheduler.start()
        scheduler.close()
        with pytest.raises(AdmissionRejected, match="closed"):
            scheduler.submit("stub", FakeQuery("q"))
        assert scheduler.n_rejected == 1

    def test_start_after_close_raises(self):
        scheduler = QueryScheduler({"stub": StubEngine()}, workers=1)
        scheduler.start()
        scheduler.close()
        with pytest.raises(RuntimeError, match="closed"):
            scheduler.start()

    def test_close_finishes_queued_work_first(self):
        gate = threading.Event()
        engine = StubEngine(gate=gate)
        scheduler = QueryScheduler({"stub": StubEngine(), "gated": engine},
                                   workers=1).start()
        tickets = [
            scheduler.submit("gated", FakeQuery(f"q{i}")) for i in range(4)
        ]
        gate.set()
        scheduler.close()
        assert all(ticket.done() for ticket in tickets)
        assert scheduler.n_completed == 4
        assert len(engine.calls) == 4

    def test_context_manager_round_trip(self):
        with QueryScheduler({"stub": StubEngine()}, workers=2) as scheduler:
            result, stats = scheduler.execute("stub", FakeQuery("q"))
        assert result.n_tuples == 0 and stats is None
        assert scheduler.n_completed == 1

    def test_drain_blocks_until_inflight_work_finishes(self):
        gate = threading.Event()
        engine = StubEngine(gate=gate)
        with QueryScheduler({"gated": engine}, workers=1) as scheduler:
            ticket = scheduler.submit("gated", FakeQuery("q"))
            drained = threading.Event()

            def drainer():
                scheduler.drain()
                drained.set()

            thread = threading.Thread(target=drainer)
            thread.start()
            assert engine.started.wait(5.0)
            assert not drained.wait(0.05)  # still in flight: drain must block
            gate.set()
            thread.join(5.0)
            assert drained.is_set()
            assert ticket.done()


class TestPriorities:
    def test_high_priority_overtakes_queued_normal(self):
        gate = threading.Event()
        engine = StubEngine(gate=gate)
        with QueryScheduler({"stub": engine}, workers=1) as scheduler:
            scheduler.submit("stub", FakeQuery("first"))
            assert engine.started.wait(5.0)  # worker parked on the gate
            for label in ("n1", "n2"):
                scheduler.submit("stub", FakeQuery(label), PRIORITY_NORMAL)
            for label in ("h1", "h2"):
                scheduler.submit("stub", FakeQuery(label), PRIORITY_HIGH)
            assert scheduler.pending() == {"high": 2, "normal": 2}
            gate.set()
            scheduler.drain()
        # FIFO within each level, high level drained first.
        assert engine.calls == ["first", "h1", "h2", "n1", "n2"]

    def test_unknown_priority_is_a_value_error(self):
        with QueryScheduler({"stub": StubEngine()}, workers=1) as scheduler:
            with pytest.raises(ValueError, match="unknown priority"):
                scheduler.submit("stub", FakeQuery("q"), "urgent")


class TestAdmission:
    def test_queue_full_rejects_and_counts(self):
        gate = threading.Event()
        engine = StubEngine(gate=gate)
        with QueryScheduler(
            {"stub": engine}, workers=1, queue_depth=2
        ) as scheduler:
            scheduler.submit("stub", FakeQuery("inflight"))
            assert engine.started.wait(5.0)
            _wait_for(lambda: scheduler.pending() == {"high": 0, "normal": 0})
            scheduler.submit("stub", FakeQuery("q1"))
            scheduler.submit("stub", FakeQuery("q2"))
            with pytest.raises(AdmissionRejected, match="queue full"):
                scheduler.submit("stub", FakeQuery("q3"))
            assert scheduler.n_rejected == 1
            assert scheduler.n_submitted == 3  # the rejected one never counts
            gate.set()
            scheduler.drain()
            # Rejection is load leveling, not loss: a retry now succeeds.
            scheduler.execute("stub", FakeQuery("q3-retried"))
        assert scheduler.n_completed == 4
        assert "q3-retried" in engine.calls

    def test_unknown_engine_is_rejected(self):
        with QueryScheduler({"stub": StubEngine()}, workers=1) as scheduler:
            with pytest.raises(AdmissionRejected, match="unknown engine"):
                scheduler.submit("nope", FakeQuery("q"))


class TestEngineCaps:
    def test_saturated_engine_does_not_block_other_engines(self):
        gate = threading.Event()
        capped = StubEngine(gate=gate)
        free = StubEngine()
        with QueryScheduler(
            {"capped": capped, "free": free},
            workers=2,
            engine_caps={"capped": 1},
        ) as scheduler:
            scheduler.submit("capped", FakeQuery("a1"))
            assert capped.started.wait(5.0)
            # "capped" is at its cap; a second worker must skip a2 and run b1.
            a2 = scheduler.submit("capped", FakeQuery("a2"))
            b1 = scheduler.submit("free", FakeQuery("b1"))
            b1.wait(5.0)
            assert free.calls == ["b1"]
            assert not a2.done()  # still queued behind the cap
            assert scheduler.occupancy()["capped"] == 1
            gate.set()
            scheduler.drain()
        assert capped.calls == ["a1", "a2"]

    def test_threaded_engine_shape_defaults_to_single_flight(self):
        class ThreadedShape:
            n_threads = 2

            def execute(self, query):
                return _empty_result(), None

        scheduler = QueryScheduler(
            {"threaded": ThreadedShape(), "plain": StubEngine()}, workers=4
        )
        assert scheduler._engines["threaded"].cap == 1
        assert scheduler._engines["plain"].cap == 4

    def test_invalid_configs_raise(self):
        with pytest.raises(ValueError, match="workers"):
            QueryScheduler({"stub": StubEngine()}, workers=0)
        with pytest.raises(ValueError, match="queue_depth"):
            QueryScheduler({"stub": StubEngine()}, queue_depth=0)
        with pytest.raises(ValueError, match="cap"):
            QueryScheduler(
                {"stub": StubEngine()}, engine_caps={"stub": 0}
            )


class TestErrors:
    def test_engine_error_reraises_from_wait_and_is_counted(self):
        with QueryScheduler(
            {"bad": StubEngine(fail=True), "good": StubEngine()}, workers=1
        ) as scheduler:
            ticket = scheduler.submit("bad", FakeQuery("boom"))
            with pytest.raises(RuntimeError, match="engine failure on boom"):
                ticket.wait(5.0)
            # The worker survives the error and serves the next request.
            scheduler.execute("good", FakeQuery("after"))
        assert scheduler.n_errors == 1
        assert scheduler.n_completed == 1

    def test_wait_timeout_raises_timeout_error(self):
        gate = threading.Event()
        with QueryScheduler(
            {"gated": StubEngine(gate=gate)}, workers=1
        ) as scheduler:
            ticket = scheduler.submit("gated", FakeQuery("slow"))
            with pytest.raises(TimeoutError):
                ticket.wait(0.05)
            gate.set()
            result, _ = ticket.wait(5.0)
            assert result.n_tuples == 0

    def test_tickets_record_queue_wait_and_latency(self):
        with QueryScheduler({"stub": StubEngine()}, workers=1) as scheduler:
            ticket = scheduler.submit("stub", FakeQuery("q"))
            ticket.wait(5.0)
        assert ticket.latency_s >= ticket.queue_wait_s >= 0.0


class TestServedQueriesReleaseTheirPin:
    """A served query pins its catalog view on the worker that runs it; the
    pin goes back however the request ends (the autouse census checks every
    test here — these two name the serve tier's own exits)."""

    def test_engine_exception_on_a_worker(self, irregular_layout, serve_workload):
        engine = irregular_layout.executor
        manager = irregular_layout.manager

        def explode(run, fill_op):
            assert manager.snapshot_refcount() == 1  # mid-flight: pinned
            raise RuntimeError("projection blew up")

        engine._project = explode
        with QueryScheduler({"real": engine}, workers=1) as scheduler:
            ticket = scheduler.submit("real", serve_workload.queries[0])
            with pytest.raises(RuntimeError, match="projection blew up"):
                ticket.wait(10.0)
        assert scheduler.n_errors == 1
        assert manager.snapshot_refcount() == 0

    def test_admission_rejected(self, irregular_layout, serve_workload):
        gate = threading.Event()
        stub = StubEngine(gate=gate)
        manager = irregular_layout.manager
        query = serve_workload.queries[0]
        with QueryScheduler(
            {"stub": stub, "real": irregular_layout.executor},
            workers=1, queue_depth=1,
        ) as scheduler:
            scheduler.submit("stub", FakeQuery("inflight"))
            assert stub.started.wait(5.0)
            _wait_for(lambda: scheduler.pending() == {"high": 0, "normal": 0})
            queued = scheduler.submit("real", query)
            with pytest.raises(AdmissionRejected, match="queue full"):
                scheduler.submit("real", query)
            # Neither the queued request nor the rejected one holds a view:
            # a pin is taken when a query starts to run, not when it waits.
            assert manager.snapshot_refcount() == 0
            gate.set()
            queued.wait(10.0)
        assert manager.snapshot_refcount() == 0


class TestOneFlightRecordPerRequest:
    """With a recorder installed every scheduler request — served, failed or
    refused — is exactly one flight record, built when the request's scope
    closes (no engine-side record staged and finalized later)."""

    @pytest.fixture()
    def recorder(self):
        from repro import obs

        recorder = obs.install_flight_recorder(obs.FlightRecorder())
        yield recorder
        obs.uninstall_flight_recorder()

    def test_served_request_carries_queue_wait_and_priority(self, recorder):
        gate = threading.Event()
        engine = StubEngine(gate=gate)
        with QueryScheduler({"stub": engine}, workers=1) as scheduler:
            first = scheduler.submit("stub", FakeQuery("first"))
            assert engine.started.wait(5.0)
            queued = scheduler.submit("stub", FakeQuery("queued"), PRIORITY_HIGH)
            time.sleep(0.02)  # "queued" waits behind the gated request
            gate.set()
            first.wait(5.0), queued.wait(5.0)
        by_label = {r.label: r for r in recorder.records()}
        assert sorted(by_label) == ["first", "queued"]
        record = by_label["queued"]
        assert record.engine == "stub" and record.outcome == "ok"
        assert record.priority == PRIORITY_HIGH
        assert record.queue_wait_s >= 0.02
        assert record.latency_s == record.queue_wait_s + record.wall_time_s
        assert by_label["first"].priority == PRIORITY_NORMAL

    def test_engine_error_is_one_error_record(self, recorder):
        with QueryScheduler(
            {"bad": StubEngine(fail=True)}, workers=1
        ) as scheduler:
            with pytest.raises(RuntimeError):
                scheduler.execute("bad", FakeQuery("boom"))
        (record,) = recorder.records()
        assert record.outcome == "error"
        assert record.error == "RuntimeError: engine failure on boom"
        assert recorder.n_errors == 1

    def test_each_rejection_is_one_record(self, recorder):
        gate = threading.Event()
        engine = StubEngine(gate=gate)
        with QueryScheduler(
            {"stub": engine}, workers=1, queue_depth=1
        ) as scheduler:
            scheduler.submit("stub", FakeQuery("inflight"))
            assert engine.started.wait(5.0)
            _wait_for(lambda: scheduler.pending()["normal"] == 0)
            scheduler.submit("stub", FakeQuery("queued"))
            with pytest.raises(AdmissionRejected, match="queue full"):
                scheduler.submit("stub", FakeQuery("refused"))
            gate.set()
        (rejected,) = recorder.records(outcome="rejected")
        assert rejected.label == "refused" and "queue full" in rejected.error
        assert rejected.latency_s == 0.0
        assert recorder.n_rejections == 1 and recorder.n_recorded == 3

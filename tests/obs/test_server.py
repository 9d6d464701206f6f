"""The live telemetry HTTP endpoint: routing, content types, health
status codes, and clean (idempotent, non-leaking) shutdown.

The autouse ``no_thread_leaks`` fixture in the suite-wide conftest is part
of the contract here: every test must leave no non-daemon thread behind,
so ``TelemetryServer.close`` has to actually stop and join its serving
thread.
"""

from __future__ import annotations

import json
import threading
from urllib.error import HTTPError
from urllib.request import urlopen

import pytest

from repro.obs.flight import FlightRecorder
from repro.obs.health import HealthMonitor, HealthRule, MetricValue
from repro.obs.metrics import MetricsRegistry
from repro.obs.server import TelemetryServer
from repro.testing.promparse import parse_exposition


def get_json(url: str):
    try:
        with urlopen(url, timeout=10) as resp:
            return json.loads(resp.read().decode("utf-8")), resp.status
    except HTTPError as err:
        return json.loads(err.read().decode("utf-8")), err.code


@pytest.fixture()
def registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.gauge("jigsaw_demo_gauge", "Demo.", ("shard",)).set(7, shard="a")
    return registry


@pytest.fixture()
def server(registry):
    recorder = FlightRecorder(slow_query_s=1.0)
    recorder.add(_record(0, engine="scan", latency_s=0.2))
    recorder.add(
        _record(1, engine="jigsaw-l", latency_s=2.0, queue_wait_s=0.1)
    )
    with TelemetryServer(
        registry=registry, recorder=recorder, port=0
    ) as server:
        yield server
    recorder.close()


def _record(seq: int, **fields):
    from repro.obs.flight import FlightRecord

    return FlightRecord(seq=seq, ts_unix_s=float(seq), **fields)


class TestRoutes:
    def test_metrics_parses_with_content_type(self, server):
        with urlopen(server.url + "/metrics", timeout=10) as resp:
            assert resp.status == 200
            assert resp.headers["Content-Type"].startswith(
                "text/plain; version=0.0.4"
            )
            families = parse_exposition(resp.read().decode("utf-8"))
        assert families["jigsaw_demo_gauge"].value(shard="a") == 7.0

    def test_healthz_ok(self, server):
        payload, status = get_json(server.url + "/healthz")
        assert status == 200
        assert payload["status"] == "ok"

    def test_queries_with_filters(self, server):
        payload, status = get_json(server.url + "/queries")
        assert status == 200
        assert payload["summary"]["n_recorded"] == 2
        assert len(payload["records"]) == 2

        payload, _ = get_json(server.url + "/queries?engine=scan")
        assert [r["engine"] for r in payload["records"]] == ["scan"]
        payload, _ = get_json(server.url + "/queries?slow=1")
        assert [r["seq"] for r in payload["records"]] == [1]
        payload, _ = get_json(server.url + "/queries?n=1")
        assert len(payload["records"]) == 1

    def test_hotspots(self, server):
        payload, status = get_json(server.url + "/hotspots")
        assert status == 200
        assert "hotspots" in payload

    def test_index_lists_routes(self, server):
        payload, status = get_json(server.url + "/")
        assert status == 200
        assert "/metrics" in payload["routes"]

    def test_unknown_route_is_404(self, server):
        _payload, status = get_json(server.url + "/nope")
        assert status == 404


class TestHealthStatusCode:
    def test_healthz_503_on_crit(self, registry):
        registry.gauge("backlog", "doc").set(1e9)
        monitor = HealthMonitor(
            registry,
            rules=[HealthRule("backlog", MetricValue("backlog"), 10, 100)],
        )
        with TelemetryServer(
            registry=registry, monitor=monitor, port=0
        ) as server:
            payload, status = get_json(server.url + "/healthz")
        assert status == 503
        assert payload["status"] == "crit"
        assert payload["results"][0]["name"] == "backlog"


class TestLifecycle:
    def test_ephemeral_port_and_url(self, registry):
        server = TelemetryServer(registry=registry, port=0)
        server.start()
        try:
            assert server.port > 0
            assert server.url == f"http://127.0.0.1:{server.port}"
        finally:
            server.close()

    def test_close_is_idempotent_and_joins_thread(self, registry):
        server = TelemetryServer(registry=registry, port=0)
        server.start()
        name = "jigsaw-telemetry"
        assert any(t.name == name for t in threading.enumerate())
        server.close()
        server.close()
        assert not any(
            t.name == name and t.is_alive() for t in threading.enumerate()
        )

    def test_start_twice_is_single_server(self, registry):
        server = TelemetryServer(registry=registry, port=0)
        try:
            server.start()
            port = server.port
            server.start()
            assert server.port == port
        finally:
            server.close()

    def test_server_error_surfaces_as_500(self, registry):
        class Broken:
            def summary(self):
                raise RuntimeError("boom")

            def records(self, **kwargs):
                return []

        with TelemetryServer(
            registry=registry, recorder=Broken(), port=0
        ) as server:
            payload, status = get_json(server.url + "/queries")
        assert status == 500
        assert "error" in payload

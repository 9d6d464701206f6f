"""The live telemetry endpoint: /metrics, /healthz, /queries, /hotspots.

A stdlib-only (``http.server``) HTTP server that makes the running engine
observable from outside the process — a Prometheus scraper, a ``curl`` in
a terminal, the CI ``telemetry`` job — without adding a dependency or a
framework.  Four routes:

* ``GET /metrics``  — the registry's text exposition (version 0.0.4);
* ``GET /healthz``  — the health monitor's JSON verdict; HTTP 200 for
  ok/warn, 503 for crit, so a load balancer needs no JSON parser;
* ``GET /queries``  — recent flight-recorder records as JSON
  (``?n=``, ``?engine=``, ``?slow=1`` filters) plus the summary block;
* ``GET /hotspots`` — top span aggregates from the global trace collector.

Threading contract: request handling runs on daemon threads (a stuck
client must never block interpreter exit), but the accept loop runs on a
**non-daemon** thread so the autouse thread-leak fixture in the tests
catches any server left running; :meth:`TelemetryServer.close` is
idempotent, shuts the socket down and joins the loop.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional
from urllib.parse import parse_qs, urlparse

from . import runtime
from .health import HealthMonitor
from .view import hotspot_rows, queries_view

__all__ = ["TelemetryServer"]

_ROUTES = ("/metrics", "/healthz", "/queries", "/hotspots")

#: Content type mandated for the text exposition format.
_METRICS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def _given(explicit, process_wide):
    """An explicitly passed source, else the process-wide one *now* (a
    recorder may be installed after the server started)."""
    return explicit if explicit is not None else process_wide()


class _Handler(BaseHTTPRequestHandler):
    """Routes one request against the owning :class:`TelemetryServer`."""

    server: "_OwnedHTTPServer"
    protocol_version = "HTTP/1.1"

    # Silence the default stderr access log — the engine's own output
    # channels stay deterministic.
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        return None

    def do_GET(self) -> None:  # noqa: N802 - http.server naming
        parsed = urlparse(self.path)
        try:
            status, body = self.server.owner.respond(
                parsed.path, parse_qs(parsed.query)
            )
        except Exception as error:  # pragma: no cover - defensive
            status = 500
            body = {"error": f"{type(error).__name__}: {error}"}
        if isinstance(body, str):
            self._send(status, body, _METRICS_CONTENT_TYPE)
        else:
            self._send(
                status,
                json.dumps(body, sort_keys=True, default=str),
                "application/json",
            )

    def _send(self, status: int, body: str, content_type: str) -> None:
        data = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)


class _OwnedHTTPServer(ThreadingHTTPServer):
    daemon_threads = True  # a stuck client never blocks process exit
    #: set right after construction by TelemetryServer.
    owner: "TelemetryServer"


class TelemetryServer:
    """Serves live telemetry for one process; ``port=0`` picks a free port.

    ``registry``/``recorder``/``monitor``/``collector`` default to the
    process-wide instances, so ``TelemetryServer().start()`` on a running
    engine just works; pass explicit objects for isolation in tests.
    """

    def __init__(
        self,
        registry=None,
        recorder=None,
        monitor=None,
        collector=None,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self._registry = registry
        self._recorder = recorder
        self._monitor = monitor
        self._collector = collector
        self.host = host
        self._requested_port = port
        self._httpd: Optional[_OwnedHTTPServer] = None
        self._thread: Optional[threading.Thread] = None
        self._closed = False

    # ----------------------------------------------------------- lifecycle

    def start(self) -> "TelemetryServer":
        if self._httpd is not None:
            return self
        if self._closed:
            raise RuntimeError("telemetry server is closed")
        httpd = _OwnedHTTPServer(
            (self.host, self._requested_port), _Handler
        )
        httpd.owner = self
        self._httpd = httpd
        self._thread = threading.Thread(
            target=httpd.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="jigsaw-telemetry",
            daemon=False,
        )
        self._thread.start()
        return self

    def close(self) -> None:
        """Stop accepting, close the socket, join the loop.  Idempotent."""
        self._closed = True
        httpd, self._httpd = self._httpd, None
        thread, self._thread = self._thread, None
        if httpd is not None:
            httpd.shutdown()  # returns once serve_forever exits
            httpd.server_close()
        if thread is not None:
            thread.join()

    def __enter__(self) -> "TelemetryServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def port(self) -> int:
        if self._httpd is None:
            raise RuntimeError("telemetry server not started")
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -------------------------------------------------------------- routes

    def respond(self, path: str, params: Dict[str, list]):
        """``(status, body)`` for one GET; a str body is the exposition
        text, a dict is sent as JSON.  Each route formats the rows
        :mod:`repro.obs.view` (or the health monitor) produces."""
        registry = _given(self._registry, runtime.get_registry)
        if path == "/metrics":
            return 200, registry.render_prometheus()
        if path == "/healthz":
            if self._monitor is None:
                self._monitor = HealthMonitor(registry=registry)
            report = self._monitor.evaluate()
            return (503 if report.status == "crit" else 200), report.as_dict()
        if path == "/queries":
            return 200, queries_view(
                _given(self._recorder, runtime.flight_recorder),
                engine=params.get("engine", [None])[0],
                slow={"1": True, "0": False}.get(params.get("slow", [""])[0]),
                n=int(params.get("n", ["50"])[0]),
            )
        if path == "/hotspots":
            collector = _given(self._collector, runtime.global_trace_collector)
            if collector is None:
                return 200, {"error": "tracing not enabled", "hotspots": []}
            n = int(params.get("n", ["15"])[0])
            return 200, {"hotspots": hotspot_rows(collector, n=n)}
        if path == "/":
            return 200, {"service": "jigsaw-telemetry", "routes": list(_ROUTES)}
        return 404, {"error": f"no route {path}"}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "running" if self._httpd is not None else "stopped"
        return f"TelemetryServer({self.host}, {state})"

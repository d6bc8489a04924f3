"""Live metric exposition: Prometheus text format and a /metrics server.

Two pieces, both opt-in:

* :func:`render_prometheus` — renders a
  :class:`~repro.obs.metrics.MetricsRegistry` in the Prometheus text
  exposition format (version 0.0.4): counters as ``*_total``, gauges
  verbatim, timers as ``*_seconds`` histograms whose ``le`` boundaries
  are the sketch's log-linear bucket edges.
* :class:`MetricsServer` — a stdlib :mod:`http.server` endpoint
  serving ``GET /metrics``.  Nothing is imported, bound or spawned
  until :meth:`MetricsServer.start`, and the serving thread only
  *reads* registry state on request, so a run that never starts the
  server pays nothing and a run that does pays only per-scrape.

Usage::

    import repro.obs as obs

    registry = obs.enable()
    server = obs.MetricsServer(registry, port=9464).start()
    ... long-running work; `curl localhost:9464/metrics` any time ...
    server.stop()

``MetricsServer(registry=None)`` resolves the registry *per request*
via :func:`repro.obs.get_registry`, so it keeps working across
``obs.enable()`` / ``obs.use_registry`` swaps.
"""

from __future__ import annotations

import re
import threading
from typing import Any, Dict, List, Optional

from repro.obs.metrics import MetricsRegistry, SUBBUCKETS

__all__ = ["CONTENT_TYPE", "render_prometheus", "MetricsServer"]

#: The Prometheus text exposition content type.
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_INVALID_CHARS = re.compile(r"[^a-zA-Z0-9_:]")


def _metric_name(namespace: str, name: str) -> str:
    """Sanitize a dotted instrument name into a Prometheus metric name.

    The result always matches the exposition grammar's
    ``[a-zA-Z_:][a-zA-Z0-9_:]*``: invalid characters become ``_``, a
    leading digit is guarded, and an instrument whose name sanitizes
    away entirely still yields the valid ``_``.
    """
    flat = _INVALID_CHARS.sub("_", f"{namespace}_{name}" if namespace else name)
    if not flat:
        return "_"
    if flat[0].isdigit():
        flat = "_" + flat
    return flat


def _fmt(value: float) -> str:
    """Deterministic sample-value formatting (repr-exact for floats)."""
    if value != value:  # NaN
        return "NaN"
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    return repr(float(value)) if isinstance(value, float) else str(value)


def _render_timer(lines: List[str], base: str, snap: Dict[str, Any]) -> None:
    """One timer snapshot as a cumulative Prometheus histogram."""
    name = f"{base}_seconds"
    lines.append(f"# TYPE {name} histogram")
    cum = int(snap.get("zero", 0))
    if cum:
        lines.append(f'{name}_bucket{{le="0.0"}} {cum}')
    buckets = snap.get("buckets", {})
    for idx in sorted(int(k) for k in buckets):
        cum += int(buckets[str(idx)])
        upper = 2.0 ** ((idx + 1) / SUBBUCKETS)
        lines.append(f'{name}_bucket{{le="{_fmt(upper)}"}} {cum}')
    count = int(snap.get("count", 0))
    lines.append(f'{name}_bucket{{le="+Inf"}} {count}')
    lines.append(f"{name}_sum {_fmt(float(snap.get('total_s', 0.0)))}")
    lines.append(f"{name}_count {count}")


def render_prometheus(
    registry: MetricsRegistry, namespace: str = "repro"
) -> str:
    """Render every instrument in the Prometheus text format.

    Parameters
    ----------
    registry:
        The registry to expose (a disabled registry renders only the
        ``*_up`` gauge).
    namespace:
        Prefix prepended to every metric name (``""`` for none).

    Returns
    -------
    str
        Exposition body, terminated by a newline.  Deterministic for a
        fixed registry state: instruments sort by name, floats render
        via ``repr``.
    """
    snap = registry.snapshot()
    lines: List[str] = []
    up = _metric_name(namespace, "obs.up")
    lines.append(f"# TYPE {up} gauge")
    lines.append(f"{up} {1 if registry.enabled else 0}")
    for name in sorted(snap.get("counters", {})):
        base = f"{_metric_name(namespace, name)}_total"
        lines.append(f"# TYPE {base} counter")
        lines.append(f"{base} {int(snap['counters'][name])}")
    for name in sorted(snap.get("gauges", {})):
        base = _metric_name(namespace, name)
        lines.append(f"# TYPE {base} gauge")
        lines.append(f"{base} {_fmt(float(snap['gauges'][name]))}")
    for name in sorted(snap.get("timers", {})):
        _render_timer(
            lines, _metric_name(namespace, name), snap["timers"][name]
        )
    return "\n".join(lines) + "\n"


class MetricsServer:
    """Opt-in ``/metrics`` HTTP endpoint on a daemon thread.

    Parameters
    ----------
    registry:
        Registry to expose; ``None`` resolves the active registry per
        request via :func:`repro.obs.get_registry` (so the endpoint
        follows ``obs.enable()`` swaps).
    host, port:
        Bind address.  ``port=0`` picks a free port — read the bound
        one from :attr:`port` after :meth:`start`.
    namespace:
        Metric-name prefix (see :func:`render_prometheus`).
    """

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        host: str = "127.0.0.1",
        port: int = 9464,
        namespace: str = "repro",
    ) -> None:
        self._registry = registry
        self.host = host
        self._requested_port = int(port)
        self.namespace = namespace
        self._httpd: Optional[Any] = None
        self._thread: Optional[threading.Thread] = None

    def _resolve_registry(self) -> MetricsRegistry:
        if self._registry is not None:
            return self._registry
        from repro.obs import get_registry

        return get_registry()

    @property
    def running(self) -> bool:
        """True between :meth:`start` and :meth:`stop`."""
        return self._httpd is not None

    @property
    def port(self) -> int:
        """The bound port (meaningful once started)."""
        if self._httpd is not None:
            return int(self._httpd.server_address[1])
        return self._requested_port

    @property
    def url(self) -> str:
        """Base URL of the endpoint (no trailing slash)."""
        return f"http://{self.host}:{self.port}"

    def start(self) -> "MetricsServer":
        """Bind the socket and serve ``/metrics`` on a daemon thread."""
        if self._httpd is not None:
            return self
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        server = self

        class _Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 (http.server API)
                path = self.path.split("?", 1)[0]
                if path == "/metrics":
                    body = render_prometheus(
                        server._resolve_registry(), server.namespace
                    ).encode("utf-8")
                    self.send_response(200)
                    self.send_header("Content-Type", CONTENT_TYPE)
                elif path in ("/", "/health"):
                    body = b"ok\nmetrics at /metrics\n"
                    self.send_response(200)
                    self.send_header("Content-Type", "text/plain")
                else:
                    body = b"not found\n"
                    self.send_response(404)
                    self.send_header("Content-Type", "text/plain")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args: Any) -> None:
                pass  # scrapes must not spam the run's stdout

        self._httpd = ThreadingHTTPServer(
            (self.host, self._requested_port), _Handler
        )
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-metrics-server",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Shut the server down and release the socket (idempotent)."""
        if self._httpd is None:
            return
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self._httpd = None
        self._thread = None

    def __enter__(self) -> "MetricsServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

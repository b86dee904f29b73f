"""Stdlib HTTP status endpoint for the live telemetry plane.

A tiny, dependency-free exposition server (``http.server`` +
``ThreadingHTTPServer`` on a daemon thread) publishing four endpoints:

* ``GET /metrics``  — Prometheus text exposition (version 0.0.4);
* ``GET /slo``      — JSON live snapshot: rolling windows, SLO error
  budgets, queue/cache occupancy, per-shard breakdown;
* ``GET /requests`` — newline-delimited JSON event stream from the
  :class:`~repro.obs.live.events.EventLog` ring (``?request_id=N``
  filters to one request's end-to-end timeline, ``?limit=N`` keeps the
  newest N events);
* ``GET /healthz``  — JSON liveness summary.

The server knows nothing about the execution service: it is constructed
from four callables (an :class:`~repro.service.ExecutionService`'s views;
a fleet's are its router service's).  Handler exceptions become HTTP
500s with the error text, never a dead scrape loop.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable
from urllib.parse import parse_qs, urlsplit

PROM_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"
NDJSON_CONTENT_TYPE = "application/x-ndjson; charset=utf-8"
JSON_CONTENT_TYPE = "application/json; charset=utf-8"


class StatusServer:
    """Serves the live-telemetry endpoints for one provider.

    ``metrics`` returns the Prometheus text; ``slo`` and ``health``
    return JSON-ready dicts; ``requests`` takes ``(request_id, limit)``
    (both optional) and returns the NDJSON body.  ``port=0`` binds an
    ephemeral port (read it back from ``.port`` — tests and parallel
    CI jobs never collide).
    """

    def __init__(
        self,
        *,
        metrics: Callable[[], str],
        slo: Callable[[], dict[str, Any]],
        requests: Callable[[int | None, int | None], str],
        health: Callable[[], dict[str, Any]],
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self._providers = {
            "metrics": metrics,
            "slo": slo,
            "requests": requests,
            "health": health,
        }
        outer = self

        class _Handler(BaseHTTPRequestHandler):
            # Status scrapes are high-frequency; never log to stderr.
            def log_message(self, fmt: str, *args: Any) -> None:
                pass

            def _reply(self, code: int, content_type: str, body: str) -> None:
                payload = body.encode("utf-8")
                self.send_response(code)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def do_GET(self) -> None:  # noqa: N802 (http.server API)
                url = urlsplit(self.path)
                query = parse_qs(url.query)
                get = outer._providers

                def _int(key: str) -> int | None:
                    raw = query.get(key, [None])[0]
                    return None if raw is None else int(raw)

                routes = {
                    "/metrics": lambda: (PROM_CONTENT_TYPE, get["metrics"]()),
                    "/slo": lambda: (
                        JSON_CONTENT_TYPE, json.dumps(get["slo"](), sort_keys=True)),
                    "/requests": lambda: (NDJSON_CONTENT_TYPE, get["requests"](
                        _int("request_id"), _int("limit"))),
                    "/healthz": lambda: (
                        JSON_CONTENT_TYPE, json.dumps(get["health"](), sort_keys=True)),
                }
                try:
                    if url.path in routes:
                        self._reply(200, *routes[url.path]())
                    else:
                        self._reply(404, JSON_CONTENT_TYPE, json.dumps({
                            "error": f"unknown path {url.path!r}",
                            "endpoints": list(routes),
                        }))
                except ValueError as exc:  # bad query parameters
                    self._reply(400, JSON_CONTENT_TYPE, json.dumps({"error": str(exc)}))
                except Exception as exc:  # provider bug: loud, not fatal
                    self._reply(500, JSON_CONTENT_TYPE, json.dumps(
                        {"error": f"{type(exc).__name__}: {exc}"}))

        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-status",
            daemon=True,
        )
        self._thread.start()

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def close(self) -> None:
        self._httpd.shutdown()
        self._thread.join()
        self._httpd.server_close()

    def __enter__(self) -> "StatusServer":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


__all__ = [
    "JSON_CONTENT_TYPE",
    "NDJSON_CONTENT_TYPE",
    "PROM_CONTENT_TYPE",
    "StatusServer",
]

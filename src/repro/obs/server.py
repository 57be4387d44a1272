"""Dependency-free asyncio HTTP introspection server.

The live window into a serving process: one tiny HTTP/1.1 server (plain
``asyncio.start_server``, no frameworks) exposing every observability
surface the other :mod:`repro.obs` modules maintain:

=============  ==============================================================
``/metrics``   Prometheus text exposition of the metrics registry
``/healthz``   liveness verdict from the health registry (200 / 503)
``/readyz``    readiness verdict from the health registry (200 / 503)
``/slo``       SLO budgets, burn rates and active alerts (JSON)
``/tracez``    recent spans from the tracer ring as Chrome trace JSON
``/logz``      recent structured log records as JSON lines (``?n=``, ``?level=``)
``/varz``      the aggregate :func:`repro.perf.report.snapshot` document
``/``          plain-text index of the above
=============  ==============================================================

Design constraints, deliberately:

* **read-only** — every endpoint is a snapshot; nothing mutates service
  state, so scraping can never hurt the data path;
* **loop-friendly** — handlers only take locks the recording paths
  already take (registry snapshot, tracer copy, ring copy); no kernel
  work happens on the event loop;
* **composable sources** — each surface is injected (registry, tracer,
  health registry, SLO tracker, log sink, varz callable) and may be a
  zero-argument callable re-resolved per request, so a service can hand
  over its merged process + service scrape without the server knowing
  what a service is.

Bind to port 0 (the default) to let the OS pick; :attr:`~IntrospectionServer.port`
and :attr:`~IntrospectionServer.url` report where it landed.
"""

from __future__ import annotations

import asyncio
import json
from urllib.parse import parse_qs, urlsplit

from repro.obs.log import get_log_sink, get_logger
from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer, to_chrome_trace
from repro.util.checks import ReproError

__all__ = ["IntrospectionServer"]

_MAX_HEADER_LINES = 100

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


def _resolve(source):
    """Sources may be live objects or zero-arg callables returning one."""
    return source() if callable(source) else source


class IntrospectionServer:
    """Serve the process's observability surfaces over local HTTP.

    Parameters
    ----------
    registry:
        :class:`~repro.obs.metrics.MetricsRegistry` or a callable
        returning one per scrape (e.g. ``service.scrape_registry`` for a
        merged process + service view).  Defaults to the process registry.
    tracer:
        Span source for ``/tracez``; defaults to the process tracer.
    health:
        :class:`~repro.obs.health.HealthRegistry` for ``/healthz`` and
        ``/readyz``; without one both report 200 with an empty verdict
        (no probes = nothing known to be wrong).
    slo:
        :class:`~repro.obs.slo.SLOTracker` for ``/slo`` (404 without one).
    logs:
        :class:`~repro.obs.log.LogSink` for ``/logz``; defaults to the
        process sink.
    varz:
        Zero-argument callable returning the ``/varz`` JSON document;
        defaults to :func:`repro.perf.report.snapshot` over the resolved
        registry and tracer.
    host / port:
        Bind address.  Port 0 (default) lets the OS choose.
    """

    def __init__(
        self,
        *,
        registry=None,
        tracer=None,
        health=None,
        slo=None,
        logs=None,
        varz=None,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self._registry = registry if registry is not None else get_registry
        self._tracer = tracer if tracer is not None else get_tracer
        self._health = health
        self._slo = slo
        self._logs = logs if logs is not None else get_log_sink
        self._varz = varz
        self.host = host
        self._requested_port = port
        self._server: asyncio.AbstractServer | None = None
        self._log = get_logger("obs.server")
        self.requests = 0  # served since start (any status)

    # -- lifecycle -----------------------------------------------------------
    @property
    def started(self) -> bool:
        return self._server is not None

    @property
    def port(self) -> int:
        if self._server is None:
            raise ReproError("server is not started")
        return self._server.sockets[0].getsockname()[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    async def start(self) -> "IntrospectionServer":
        if self._server is not None:
            return self
        self._server = await asyncio.start_server(
            self._handle, host=self.host, port=self._requested_port
        )
        self._log.info("introspection server listening", url=self.url)
        return self

    async def close(self):
        if self._server is None:
            return
        server, self._server = self._server, None
        server.close()
        await server.wait_closed()
        self._log.info("introspection server closed")

    async def __aenter__(self):
        return await self.start()

    async def __aexit__(self, *exc):
        await self.close()
        return False

    # -- request handling ----------------------------------------------------
    async def _handle(self, reader, writer):
        status, ctype, body = 500, "text/plain; charset=utf-8", b"internal error"
        method, target = "?", "?"
        try:
            request_line = await reader.readline()
            parts = request_line.decode("latin-1").split()
            if len(parts) < 2:
                raise ValueError(f"malformed request line: {request_line!r}")
            method, target = parts[0], parts[1]
            for _ in range(_MAX_HEADER_LINES):  # drain headers, ignore body
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
            if method not in ("GET", "HEAD"):
                status, body = 405, b"only GET and HEAD are served"
            else:
                status, ctype, body = self._route(target)
        except (ValueError, UnicodeDecodeError) as exc:
            status, body = 400, f"bad request: {exc}".encode()
        except (ConnectionError, asyncio.IncompleteReadError):
            writer.close()
            return
        except Exception as exc:  # a broken source must not kill the server
            self._log.error(
                "introspection handler failed", path=target, error=repr(exc)
            )
            status, body = 500, f"internal error: {type(exc).__name__}".encode()
        self.requests += 1
        self._log.debug("introspection request", method=method, path=target,
                        status=status, bytes=len(body))
        try:
            head = (
                f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
                f"Content-Type: {ctype}\r\n"
                f"Content-Length: {len(body)}\r\n"
                "Connection: close\r\n\r\n"
            )
            writer.write(head.encode("latin-1"))
            if method != "HEAD":
                writer.write(body)
            await writer.drain()
        except (ConnectionError, BrokenPipeError):
            pass
        finally:
            writer.close()

    def _route(self, target: str):
        """Dispatch one request target → (status, content type, body bytes)."""
        split = urlsplit(target)
        path = split.path.rstrip("/") or "/"
        query = parse_qs(split.query)
        if path == "/":
            return self._index()
        handler = {
            "/metrics": self._metrics,
            "/healthz": self._healthz,
            "/readyz": self._readyz,
            "/slo": self._slo_endpoint,
            "/tracez": self._tracez,
            "/logz": self._logz,
            "/varz": self._varz_endpoint,
        }.get(path)
        if handler is None:
            return 404, "text/plain; charset=utf-8", f"no endpoint {path}\n".encode()
        return handler(query)

    @staticmethod
    def _json(doc, status: int = 200):
        body = json.dumps(doc, indent=2, sort_keys=True, default=str) + "\n"
        return status, "application/json", body.encode()

    def _index(self):
        lines = ["repro introspection server", ""]
        for path, what in (
            ("/metrics", "Prometheus text exposition"),
            ("/healthz", "liveness verdict (200/503)"),
            ("/readyz", "readiness verdict (200/503)"),
            ("/slo", "SLO budgets + burn-rate alerts"),
            ("/tracez", "recent spans as Chrome trace JSON"),
            ("/logz", "recent log records as JSON lines (?n=, ?level=)"),
            ("/varz", "aggregate stats snapshot"),
        ):
            lines.append(f"{path:10s} {what}")
        return 200, "text/plain; charset=utf-8", ("\n".join(lines) + "\n").encode()

    def _metrics(self, query):
        registry = _resolve(self._registry)
        return (
            200,
            "text/plain; version=0.0.4; charset=utf-8",
            registry.to_prometheus().encode(),
        )

    def _verdict(self, kind: str):
        health = _resolve(self._health)
        if health is None:
            return self._json(
                {"kind": kind, "healthy": True, "probes": {}, "detail": "no probes"}
            )
        verdict = health.check(kind)
        return self._json(verdict.as_dict(), status=200 if verdict.healthy else 503)

    def _healthz(self, query):
        return self._verdict("liveness")

    def _readyz(self, query):
        return self._verdict("readiness")

    def _slo_endpoint(self, query):
        slo = _resolve(self._slo)
        if slo is None:
            return 404, "text/plain; charset=utf-8", b"no SLO tracker configured\n"
        return self._json(slo.snapshot())

    def _tracez(self, query):
        tracer = _resolve(self._tracer)
        doc = to_chrome_trace(tracer.spans())
        body = json.dumps(doc, default=str).encode()
        return 200, "application/json", body

    def _logz(self, query):
        sink = _resolve(self._logs)
        try:
            n = int(query["n"][0]) if "n" in query else 200
        except ValueError:
            return 400, "text/plain; charset=utf-8", b"?n= must be an integer\n"
        level = query.get("level", [None])[0]
        records = sink.records(n=n, min_level=level)
        body = "".join(r.to_json() + "\n" for r in records).encode()
        return 200, "application/x-ndjson", body

    def _varz_endpoint(self, query):
        if self._varz is not None:
            return self._json(_resolve(self._varz))
        from repro.perf.report import snapshot

        registry = _resolve(self._registry)
        tracer = _resolve(self._tracer)
        return self._json(snapshot(registry=registry, tracer=tracer))

    def __repr__(self):
        where = self.url if self.started else f"http://{self.host} (unstarted)"
        return f"IntrospectionServer({where}, requests={self.requests})"

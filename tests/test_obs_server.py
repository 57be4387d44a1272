"""Tests for the HTTP introspection server (repro.obs.server) and the
full telemetry loop.

Two halves:

* endpoint mechanics against injected fake sources — routes, status
  codes, content types, query parameters, HEAD/405/404/400 handling,
  callable source re-resolution, and the lifecycle contract;
* the full telemetry loop, end to end: an ``AlignmentService`` serving
  from a resident ``ShardWorkerPool`` takes live traffic while an
  ``IntrospectionServer`` scrapes it; injected bad latency on NORMAL
  traffic drives the fast burn-rate pair over threshold, BULK is shed at
  admission (visible on the dedicated counters), INTERACTIVE keeps
  resolving, accepted search results stay bit-identical to the
  untelemetered path, and ``/tracez`` passes the Chrome-trace validator.
"""

import asyncio
import json

import pytest

from repro.obs import (
    HealthRegistry,
    IntrospectionServer,
    LogSink,
    Logger,
    MetricsRegistry,
    ProbeResult,
    SLObjective,
    SLOTracker,
    Tracer,
    disable_tracing,
    enable_tracing,
    validate_chrome_trace,
)
from repro.search import SearchConfig, search_topk
from repro.serve import AlignmentService, Priority, ServiceOverloadedError
from repro.shard import ShardPlan, ShardWorkerPool
from repro.util.checks import ReproError

from helpers import hit_keys, planted_instance


async def fetch(server, path, method="GET"):
    """Minimal HTTP client: (status, headers, body) for one request."""
    reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
    writer.write(
        f"{method} {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n".encode()
    )
    await writer.drain()
    raw = await reader.read()
    writer.close()
    head, _, body = raw.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    headers = {}
    for line in lines[1:]:
        key, _, value = line.partition(": ")
        headers[key.lower()] = value
    return status, headers, body


class FakeClock:
    def __init__(self, t=1000.0):
        self.t = t

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


# -- endpoint mechanics ------------------------------------------------------
class TestEndpoints:
    def test_surfaces(self):
        async def main():
            registry = MetricsRegistry()
            registry.counter("demo_total", "A demo counter").inc(3)
            tracer = Tracer(capacity=16, enabled=True)
            with tracer.span("unit"):
                pass
            health = HealthRegistry()
            health.add_probe("up", lambda: True)
            sink = LogSink(min_level="debug", rate=1e9, burst=1e9)
            log = Logger("test", sink)
            log.info("one")
            log.error("two")
            slo = SLOTracker(
                [SLObjective(name="obj")], clock=FakeClock()
            )
            async with IntrospectionServer(
                registry=registry,
                tracer=tracer,
                health=health,
                slo=slo,
                logs=sink,
                varz=lambda: {"custom": True},
            ) as server:
                status, headers, body = await fetch(server, "/")
                assert status == 200 and b"/metrics" in body

                status, headers, body = await fetch(server, "/metrics")
                assert status == 200
                assert "version=0.0.4" in headers["content-type"]
                assert b"demo_total 3" in body

                status, _, body = await fetch(server, "/healthz")
                assert status == 200
                doc = json.loads(body)
                assert doc["kind"] == "liveness" and doc["healthy"]

                status, _, body = await fetch(server, "/readyz")
                assert status == 200 and json.loads(body)["kind"] == "readiness"

                status, _, body = await fetch(server, "/slo")
                assert status == 200
                assert json.loads(body)["objectives"][0]["name"] == "obj"

                status, headers, body = await fetch(server, "/tracez")
                assert status == 200
                trace = json.loads(body)
                assert validate_chrome_trace(trace)["spans"] == 1

                status, headers, body = await fetch(server, "/logz")
                assert status == 200 and "ndjson" in headers["content-type"]
                messages = [json.loads(l)["message"] for l in body.splitlines()]
                assert messages == ["one", "two"]

                status, _, body = await fetch(server, "/logz?n=1&level=error")
                assert [json.loads(l)["message"] for l in body.splitlines()] == ["two"]

                status, _, body = await fetch(server, "/varz")
                assert status == 200 and json.loads(body) == {"custom": True}
            return True

        assert asyncio.run(main())

    def test_unhealthy_probe_gives_503(self):
        async def main():
            health = HealthRegistry()
            health.add_probe("down", lambda: ProbeResult(False, "broken"))
            async with IntrospectionServer(
                registry=MetricsRegistry(), health=health
            ) as server:
                status, _, body = await fetch(server, "/healthz")
                assert status == 503
                doc = json.loads(body)
                assert not doc["healthy"] and "broken" in doc["probes"]["down"]["detail"]
            return True

        assert asyncio.run(main())

    def test_error_paths(self):
        async def main():
            async with IntrospectionServer(registry=MetricsRegistry()) as server:
                status, _, body = await fetch(server, "/nope")
                assert status == 404 and b"/nope" in body
                status, _, _ = await fetch(server, "/metrics", method="POST")
                assert status == 405
                status, _, _ = await fetch(server, "/slo")
                assert status == 404  # no tracker injected
                status, _, _ = await fetch(server, "/logz?n=wat")
                assert status == 400
                # HEAD: headers only, correct length advertised.
                status, headers, body = await fetch(server, "/metrics", method="HEAD")
                assert status == 200 and body == b""
                assert int(headers["content-length"]) >= 0
                # A broken source is a 500 on that request, not a dead server.
                def boom():
                    raise RuntimeError("source died")

                server._registry = boom
                status, _, body = await fetch(server, "/metrics")
                assert status == 500 and b"RuntimeError" in body
                server._registry = MetricsRegistry()
                status, _, _ = await fetch(server, "/metrics")
                assert status == 200
            return True

        assert asyncio.run(main())

    def test_callable_sources_resolve_per_request(self):
        async def main():
            registries = [MetricsRegistry(), MetricsRegistry()]
            registries[1].counter("second_total").inc()
            box = {"i": 0}

            def source():
                return registries[box["i"]]

            async with IntrospectionServer(registry=source) as server:
                _, _, body = await fetch(server, "/metrics")
                assert b"second_total" not in body
                box["i"] = 1
                _, _, body = await fetch(server, "/metrics")
                assert b"second_total 1" in body
            return True

        assert asyncio.run(main())

    def test_lifecycle(self):
        async def main():
            server = IntrospectionServer(registry=MetricsRegistry())
            assert not server.started
            with pytest.raises(ReproError):
                server.port
            await server.start()
            await server.start()  # idempotent
            port = server.port
            assert server.url == f"http://127.0.0.1:{port}"
            await fetch(server, "/")
            assert server.requests == 1
            await server.close()
            await server.close()  # idempotent
            assert not server.started
            return True

        assert asyncio.run(main())


# -- the acceptance path -----------------------------------------------------
def _plan(num_shards=2, **search_kw):
    return ShardPlan(
        num_shards=num_shards,
        search=SearchConfig(**search_kw),
        start_method="fork",
    )


class TestTelemetryLoop:
    def test_router_pool_burn_shed_and_bit_identical_results(self):
        ref, queries, _ = planted_instance(8000, 3, 80, seed=81)
        untelemetered = hit_keys(search_topk(queries, ref, k=3))
        clock = FakeClock()
        tracker = SLOTracker(
            [
                # Impossible latency bound: every completed NORMAL request
                # is "bad", so real traffic drives the burn deterministically.
                SLObjective(
                    name="normal-lat", target=0.99, latency_s=1e-9, priority="NORMAL"
                ),
                SLObjective(
                    name="interactive", target=0.5, latency_s=30.0,
                    priority="INTERACTIVE",
                ),
            ],
            clock=clock,
        )
        tracer = enable_tracing(capacity=16384)
        tracer.clear()
        try:
            with ShardWorkerPool(ref, plan=_plan(k=3), timeout=120) as pool:
                pool.start()

                async def main():
                    svc = AlignmentService(
                        pool=pool, search_kwargs={"k": 3}, slo=tracker
                    )
                    server = IntrospectionServer(
                        registry=svc.scrape_registry,
                        health=svc.health,
                        slo=tracker,
                    )
                    async with svc, server:
                        # Healthy phase: searches resolve, readiness is green,
                        # and pool-served completions feed the SLO tracker.
                        before = [
                            await svc.submit_search(q, priority=Priority.INTERACTIVE)
                            for q in queries
                        ]
                        assert tracker.budget("interactive")["events"] == len(queries)
                        status, _, _ = await fetch(server, "/readyz")
                        assert status == 200
                        assert not tracker.fast_burn_active()

                        # Inject burn: NORMAL completions all violate the
                        # impossible bound; both fast windows light up.
                        for i in range(30):
                            await svc.submit(queries[0], queries[1])
                            clock.advance(1.0)
                        assert tracker.fast_burn_active()
                        assert {a.objective for a in tracker.alerts()} == {
                            "normal-lat"
                        }

                        # BULK is shed for every request kind...
                        with pytest.raises(ServiceOverloadedError, match="shed"):
                            await svc.submit(
                                queries[0], queries[1], priority=Priority.BULK
                            )
                        with pytest.raises(ServiceOverloadedError, match="shed"):
                            await svc.submit_search(
                                queries[0], priority=Priority.BULK
                            )
                        # ...while INTERACTIVE rides through and its
                        # objective keeps its budget.
                        score = await svc.submit(
                            queries[0], queries[1], priority=Priority.INTERACTIVE
                        )
                        assert isinstance(score, int)
                        assert tracker.budget("interactive")["bad"] == 0

                        # Accepted work is never dropped: searches during
                        # the burn match the untelemetered hits bit for bit.
                        during = [await svc.submit_search(q) for q in queries]
                        assert hit_keys(during) == untelemetered
                        assert hit_keys(before) == untelemetered

                        # Every shed decision is counted once, whatever its kind.
                        scrape = svc.scrape_registry()
                        shed = scrape.get("serve_admission_rejected_total")
                        assert shed.value(cause="shed", priority="BULK") == 2

                        # And the scrape surfaces agree over HTTP.
                        status, _, body = await fetch(server, "/metrics")
                        assert status == 200
                        text = body.decode()
                        assert 'serve_admission_rejected_total{cause="shed"' in text
                        status, _, body = await fetch(server, "/slo")
                        doc = json.loads(body)
                        assert [a["objective"] for a in doc["alerts"]] == [
                            "normal-lat",
                            "normal-lat",
                        ]
                        status, _, body = await fetch(server, "/tracez")
                        summary = validate_chrome_trace(
                            json.loads(body), require_worker_process=True
                        )
                        assert summary["spans"] > 0
                        status, _, body = await fetch(server, "/logz?level=warning")
                        messages = [
                            json.loads(line)["message"]
                            for line in body.splitlines()
                        ]
                        assert any("shed" in m for m in messages)
                        status, _, _ = await fetch(server, "/varz")
                        assert status == 200
                    return True

                assert asyncio.run(main())
                assert not pool.closed  # the service only borrowed it
        finally:
            disable_tracing()
            tracer.clear()
            from repro.obs import get_log_sink

            get_log_sink().clear()

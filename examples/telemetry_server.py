"""The full telemetry loop: service + resident pool + introspection server.

Boots the online serving stack — one ``AlignmentService(pool=...)`` that
runs score/align traffic on its own engine and serves searches from a
resident :class:`ShardWorkerPool` — with the whole observability surface
wired up: tracing enabled, SLOs declared on the service config,
health probes installed, and an :class:`IntrospectionServer` scraping it
all over HTTP.  Drives live traffic, then fetches every endpoint and
checks it (the trace payload must pass ``validate_chrome_trace``).

With ``--burn``, the NORMAL latency objective is set to an impossible
bound so real traffic drives the Google-SRE *fast* burn-rate pair
(5 m/1 h at 14.4x) over threshold within seconds: the burn alert fires,
``Priority.BULK`` is shed at admission (watch
``serve_admission_rejected_total{cause="shed",priority="BULK"}``), and
INTERACTIVE traffic keeps resolving — the runbook scenario from the
README, reproducible on demand.

    python examples/telemetry_server.py
    python examples/telemetry_server.py --burn
    python examples/telemetry_server.py --ref-length 30000 --queries 8 --shards 2
"""

import argparse
import asyncio
import json

from repro.obs import (
    IntrospectionServer,
    SLObjective,
    disable_tracing,
    enable_tracing,
    validate_chrome_trace,
)
from repro.serve import AlignmentService, Priority, ServiceOverloadedError
from repro.serve.service import ServiceConfig
from repro.shard import ShardWorkerPool
from repro.util.rng import make_rng
from repro.workloads import MutationModel, mutate, random_genome


async def fetch(port: int, path: str):
    """Minimal in-loop HTTP GET: (status, body bytes)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(
        f"GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n".encode()
    )
    await writer.drain()
    raw = await reader.read()
    writer.close()
    head, _, body = raw.partition(b"\r\n\r\n")
    return int(head.split(b" ", 2)[1]), body


async def drive(args, ref, queries, pool):
    normal_bound = 1e-9 if args.burn else 0.25
    config = ServiceConfig(
        slos=(
            SLObjective(
                name="normal-latency",
                target=0.99,
                latency_s=normal_bound,
                priority="NORMAL",
            ),
            SLObjective(
                name="interactive-latency",
                target=0.90,
                latency_s=30.0,
                priority="INTERACTIVE",
            ),
        ),
    )
    svc = AlignmentService(pool=pool, search_kwargs={"k": args.top}, config=config)
    server = IntrospectionServer(
        registry=svc.scrape_registry,
        health=svc.health,
        slo=svc.slo,
        port=args.port,
    )
    async with svc, server:
        print(f"introspection server: {server.url}\n")

        hits = [await svc.submit_search(q) for q in queries]
        print(f"searches: {len(hits)} queries, "
              f"{sum(len(h) for h in hits)} hits via the resident pool")
        for _ in range(args.requests):
            await svc.submit(queries[0], queries[1 % len(queries)])
        print(f"scores:   {args.requests} NORMAL requests")

        shed = 0
        if args.burn:
            svc.slo.alerts(force=True)  # re-evaluate now, not next bin
            alerts = svc.slo.alerts()
            print(f"\nburn injected: {len(alerts)} alert(s) active")
            for alert in alerts:
                print(f"  {alert.objective}/{alert.window}: "
                      f"short {alert.burn_short:.0f}x long {alert.burn_long:.0f}x "
                      f"(threshold {alert.threshold}x)")
            assert svc.slo.fast_burn_active(), "fast pair should be alerting"
            for _ in range(4):
                try:
                    await svc.submit(
                        queries[0], queries[0], priority=Priority.BULK
                    )
                except ServiceOverloadedError:
                    shed += 1
            score = await svc.submit(
                queries[0], queries[0], priority=Priority.INTERACTIVE
            )
            assert shed == 4, "BULK should be shed while burning"
            print(f"shed:     {shed}/4 BULK requests refused at admission; "
                  f"INTERACTIVE still resolves (score {score})")
            assert svc.slo.budget("interactive-latency")["bad"] == 0

        print("\nendpoint checks:")
        for path, expect in (
            ("/metrics", 200),
            ("/healthz", 200),
            ("/readyz", 200),
            ("/slo", 200),
            ("/tracez", 200),
            ("/logz?n=50", 200),
            ("/varz", 200),
        ):
            status, body = await fetch(server.port, path)
            assert status == expect, f"{path}: {status} != {expect}"
            print(f"  {status} {path:14s} {len(body):>8,} bytes")

        _, body = await fetch(server.port, "/metrics")
        text = body.decode()
        assert "serve_submitted_total" in text
        assert "pool_shard_ping_seconds" in text
        if args.burn:
            assert 'serve_admission_rejected_total{cause="shed",priority="BULK"' in text

        _, body = await fetch(server.port, "/tracez")
        summary = validate_chrome_trace(
            json.loads(body), require_worker_process=True
        )
        print(f"\ntrace:    {summary['spans']} spans / "
              f"{summary['processes']} processes — valid Chrome trace JSON")

        _, body = await fetch(server.port, "/slo")
        doc = json.loads(body)
        for entry in doc["objectives"]:
            budget = entry["budget"]
            print(f"slo:      {entry['name']}: {budget['events']} events, "
                  f"budget remaining "
                  f"{budget['budget_remaining_fraction'] * 100:.0f}%")
    return shed


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--ref-length", type=int, default=60_000, help="reference bp")
    ap.add_argument("--queries", type=int, default=6, help="number of queries")
    ap.add_argument("--read-length", type=int, default=100, help="query bp")
    ap.add_argument("--shards", type=int, default=2, help="worker processes")
    ap.add_argument("--requests", type=int, default=32, help="NORMAL score requests")
    ap.add_argument("--top", type=int, default=3, help="hits kept per query")
    ap.add_argument("--port", type=int, default=0, help="HTTP port (0 = ephemeral)")
    ap.add_argument("--seed", type=int, default=97)
    ap.add_argument("--burn", action="store_true",
                    help="impossible NORMAL latency bound: fire the fast "
                         "burn-rate alert and demonstrate BULK shedding")
    args = ap.parse_args()

    rng = make_rng(args.seed)
    ref = random_genome(args.ref_length, seed=rng)
    positions = rng.integers(0, ref.size - args.read_length, args.queries)
    model = MutationModel(
        substitution=0.03, insertion=0.002, deletion=0.002, indel_mean=2.0
    )
    queries = [
        mutate(ref[p : p + args.read_length], model, seed=rng) for p in positions
    ]
    print(f"reference: {args.ref_length:,} bp, {args.queries} queries, "
          f"{args.shards} shard workers"
          + (" — burn-rate scenario ON" if args.burn else "") + "\n")

    tracer = enable_tracing(capacity=65536)
    tracer.clear()
    try:
        with ShardWorkerPool(
            ref, num_shards=args.shards, k=args.top, timeout=900
        ) as pool:
            pool.ping()  # estimate worker clock offsets for stitched traces
            asyncio.run(drive(args, ref, queries, pool))
    finally:
        disable_tracing()
    print("\ntelemetry loop OK")


if __name__ == "__main__":
    main()

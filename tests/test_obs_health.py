"""Tests for health probes and readiness-aware routing (repro.obs.health).

Covers the liveness/readiness contract:

* registry mechanics — liveness vs readiness sets, duplicate rejection,
  raising probes becoming unhealthy results, verdict composition;
* the layer probe factories — engine executor, service admission queue,
  shard-pool workers (dead workers, lazy-start pools, clock drift);
* the service integration — engine/service (and pool) probes installed
  at construction, and the merged process + service scrape registry.
"""

import asyncio

import pytest

from repro.obs import HealthRegistry, MetricsRegistry, ProbeResult, get_registry
from repro.obs.health import engine_probe, pool_probe, service_probe
from repro.serve import AlignmentService
from repro.shard import ShardPlan, ShardWorkerPool
from repro.util.checks import ValidationError


class TestHealthRegistry:
    def test_verdict_composition(self):
        reg = HealthRegistry()
        reg.add_probe("good", lambda: True)
        reg.add_probe("detail", lambda: ProbeResult(True, "fine", data={"n": 1}))
        verdict = reg.readiness()
        assert verdict.healthy and verdict.failing() == []
        assert verdict.probes["detail"].data == {"n": 1}
        assert "ok" in verdict.summary()
        doc = verdict.as_dict()
        assert doc["kind"] == "readiness" and doc["probes"]["good"]["healthy"]

    def test_one_failing_probe_fails_the_verdict(self):
        reg = HealthRegistry()
        reg.add_probe("good", lambda: True)
        reg.add_probe("bad", lambda: ProbeResult(False, "broken"))
        verdict = reg.liveness()
        assert not verdict.healthy and verdict.failing() == ["bad"]
        assert "bad" in verdict.summary()

    def test_raising_probe_is_unhealthy_not_a_crash(self):
        reg = HealthRegistry()

        def boom():
            raise RuntimeError("dead layer")

        reg.add_probe("boom", boom)
        verdict = reg.readiness()
        assert not verdict.healthy
        assert "dead layer" in verdict.probes["boom"].detail

    def test_liveness_and_readiness_are_distinct_sets(self):
        reg = HealthRegistry()
        reg.add_probe("live-only", lambda: False, readiness=False)
        reg.add_probe("ready-only", lambda: False, liveness=False)
        assert reg.liveness().failing() == ["live-only"]
        assert reg.readiness().failing() == ["ready-only"]

    def test_validation(self):
        reg = HealthRegistry()
        reg.add_probe("x", lambda: True)
        with pytest.raises(ValidationError):
            reg.add_probe("x", lambda: True)  # no silent shadowing
        with pytest.raises(ValidationError):
            reg.add_probe("y", "not-callable")
        with pytest.raises(ValidationError):
            reg.add_probe("z", lambda: True, liveness=False, readiness=False)
        with pytest.raises(ValidationError):
            reg.check("vibes")
        reg.add_probe("odd", lambda: "yes")
        assert not reg.readiness().healthy  # bad return type is unhealthy

    def test_remove_probe(self):
        reg = HealthRegistry()
        reg.add_probe("x", lambda: False)
        reg.remove_probe("x")
        assert reg.names() == [] and reg.readiness().healthy


class TestProbeFactories:
    def test_engine_probe(self):
        from repro.engine import ExecutionEngine

        engine = ExecutionEngine(None)
        probe = engine_probe(engine)
        result = probe()
        assert result.healthy and result.data["lanes"] >= 1
        engine.close()
        assert not probe().healthy

    def test_service_probe_states(self):
        async def main():
            svc = AlignmentService(scheme=None)
            probe = service_probe(svc, max_fill=0.5)
            assert probe().healthy  # unstarted service is ready
            async with svc:
                assert probe().healthy
                svc._depth = svc.max_queue_depth  # saturate
                result = probe()
                assert not result.healthy and "saturated" in result.detail
                svc._depth = 0
            assert not probe().healthy  # closed service is not ready
            return True

        assert asyncio.run(main())
        with pytest.raises(ValidationError):
            service_probe(AlignmentService(scheme=None), max_fill=2.0)

    def test_pool_probe_fake_states(self):
        class FakePool:
            closed = False
            alive = None

            def liveness(self):
                return self.alive

        pool = FakePool()
        reg = MetricsRegistry()
        probe = pool_probe(pool, registry=reg)
        lazy = probe()
        assert lazy.healthy and "lazily" in lazy.detail  # unstarted pool
        pool.alive = {0: True, 1: True}
        assert probe().healthy
        pool.alive = {0: True, 1: False}
        dead = probe()
        assert not dead.healthy and "[1]" in dead.detail
        pool.closed = True
        assert not probe().healthy

    def test_pool_probe_clock_drift(self):
        class FakePool:
            closed = False

            def liveness(self):
                return {0: True, 1: True}

        reg = MetricsRegistry()
        offsets = reg.gauge(
            "pool_shard_clock_offset_us", "offsets", labels=("shard",)
        )
        offsets.set(5.0, shard=0)
        offsets.set(900.0, shard=1)
        loose = pool_probe(FakePool(), registry=reg)
        assert loose().healthy  # no bound configured
        tight = pool_probe(FakePool(), registry=reg, max_clock_offset_us=100.0)
        result = tight()
        assert not result.healthy and "drifted" in result.detail
        assert result.data["clock_offset_us"]["1"] == 900.0

    def test_real_pool_liveness_is_none_before_start(self):
        pool = ShardWorkerPool(ShardPlan(num_shards=2))
        assert pool.liveness() is None
        assert pool_probe(pool)().healthy


class TestServiceHealth:
    def test_probes_installed(self):
        svc = AlignmentService()
        assert svc.health.names() == ["engine", "service"]
        assert svc.health.readiness().healthy
        assert svc.health.liveness().healthy
        pooled = AlignmentService(pool=ShardWorkerPool(plan=ShardPlan(num_shards=2)))
        assert pooled.health.names() == ["engine", "pool", "service"]
        assert pooled.health.readiness().healthy  # unstarted pool spawns lazily

    def test_scrape_registry_merges_process_and_service(self):
        async def main():
            async with AlignmentService() as svc:
                await svc.submit("ACGT", "ACGT")
                scrape = svc.scrape_registry()
                assert scrape.get("serve_submitted_total").value() == 1
                # Process-wide instrumentation (engine, search, pool) merges in.
                assert set(get_registry().snapshot()) <= set(scrape.snapshot())
                text = scrape.to_prometheus()
                assert "serve_submitted_total 1" in text
            return True

        assert asyncio.run(main())

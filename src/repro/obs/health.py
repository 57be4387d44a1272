"""Health probes: liveness/readiness verdicts composed from every layer.

A serving process is "up" only when all of its layers are: the engine's
executor pool can still run kernels, the service's admission queue is not
wedged at capacity, the shard pool's worker processes answer PINGs.  This
module is the registry those layers install probes into, and the verdict
composition the ``/healthz`` and ``/readyz`` endpoints read:

* a **probe** is a named zero-argument callable returning a
  :class:`ProbeResult` (or a bare bool); a probe that *raises* is an
  unhealthy result, not a crashed health check;
* **liveness** ("restart me") and **readiness** ("stop routing to me")
  are distinct sets — a probe registers for either or both.  A saturated
  admission queue is unready but alive; a dead executor is both;
* verdicts compose by conjunction: one failing probe fails the verdict,
  and every probe's detail rides along so the JSON body says *which*
  layer failed and why.

Probe factories for the repo's own layers live here too
(:func:`engine_probe`, :func:`service_probe`, :func:`pool_probe`) so each
layer's definition of healthy is written once, next to the registry.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from repro.util.checks import ValidationError

__all__ = [
    "HealthRegistry",
    "HealthVerdict",
    "ProbeResult",
    "engine_probe",
    "pool_probe",
    "service_probe",
]


@dataclass(slots=True)
class ProbeResult:
    """One probe's verdict: healthy flag, human detail, structured data."""

    healthy: bool
    detail: str = ""
    data: dict | None = None

    def as_dict(self) -> dict:
        out = {"healthy": self.healthy}
        if self.detail:
            out["detail"] = self.detail
        if self.data:
            out["data"] = self.data
        return out


@dataclass(slots=True)
class _Probe:
    name: str
    fn: object
    liveness: bool
    readiness: bool


@dataclass(slots=True)
class HealthVerdict:
    """Conjunction of probe results for one kind of check."""

    kind: str  # "liveness" | "readiness"
    healthy: bool
    probes: dict = field(default_factory=dict)  # name -> ProbeResult
    checked_at: float = 0.0  # wall-clock epoch seconds

    def failing(self) -> list:
        return sorted(n for n, r in self.probes.items() if not r.healthy)

    def summary(self) -> str:
        if self.healthy:
            return f"{self.kind} ok ({len(self.probes)} probes)"
        return f"{self.kind} failing: {', '.join(self.failing())}"

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "healthy": self.healthy,
            "checked_at": self.checked_at,
            "probes": {n: r.as_dict() for n, r in sorted(self.probes.items())},
        }


def _coerce(result) -> ProbeResult:
    if isinstance(result, ProbeResult):
        return result
    if isinstance(result, bool):
        return ProbeResult(healthy=result)
    raise ValidationError(
        f"probe must return ProbeResult or bool, got {type(result).__name__}"
    )


class HealthRegistry:
    """Named probes composed into liveness/readiness verdicts.

    Thread-safe: layers install probes at construction time, the
    introspection server and admission paths evaluate them concurrently.
    Evaluation runs the probe functions on the caller's thread — probes
    must be cheap attribute reads, never blocking calls.
    """

    def __init__(self):
        self._probes: dict = {}
        self._lock = threading.Lock()

    def add_probe(self, name: str, fn, *, liveness: bool = True, readiness: bool = True):
        """Install a probe (error on duplicate names — no silent shadowing)."""
        if not callable(fn):
            raise ValidationError(f"probe {name!r} must be callable")
        if not (liveness or readiness):
            raise ValidationError(
                f"probe {name!r} must serve liveness, readiness, or both"
            )
        with self._lock:
            if name in self._probes:
                raise ValidationError(f"probe {name!r} already registered")
            self._probes[name] = _Probe(
                name=name, fn=fn, liveness=liveness, readiness=readiness
            )

    def remove_probe(self, name: str):
        with self._lock:
            self._probes.pop(name, None)

    def names(self) -> list:
        with self._lock:
            return sorted(self._probes)

    def check(self, kind: str = "readiness") -> HealthVerdict:
        """Run every probe registered for ``kind``; compose the verdict."""
        if kind not in ("liveness", "readiness"):
            raise ValidationError(
                f"kind must be 'liveness' or 'readiness', got {kind!r}"
            )
        with self._lock:
            probes = [p for p in self._probes.values() if getattr(p, kind)]
        results: dict = {}
        for probe in probes:
            try:
                results[probe.name] = _coerce(probe.fn())
            except Exception as exc:  # a raising probe IS an unhealthy result
                results[probe.name] = ProbeResult(
                    healthy=False, detail=f"{type(exc).__name__}: {exc}"
                )
        return HealthVerdict(
            kind=kind,
            healthy=all(r.healthy for r in results.values()),
            probes=results,
            checked_at=time.time(),
        )

    def liveness(self) -> HealthVerdict:
        return self.check("liveness")

    def readiness(self) -> HealthVerdict:
        return self.check("readiness")

    def __repr__(self):
        return f"HealthRegistry(probes={self.names()})"


# -- probe factories for the repo's own layers --------------------------------
def engine_probe(engine):
    """Engine pipeline liveness: the executor pool can still run kernels."""

    def probe() -> ProbeResult:
        if getattr(engine, "closed", False):
            return ProbeResult(False, "engine executor is closed")
        return ProbeResult(True, data={"lanes": engine.executor.lanes})

    return probe


def service_probe(service, *, max_fill: float = 0.95):
    """Service admission health: open for business, queue below saturation.

    Ready while the service is not closed, its linger flusher (if
    started) is alive, and the admission queue is below ``max_fill`` of
    capacity.  An unstarted service is ready — it starts on first use.
    """
    if not 0.0 < max_fill <= 1.0:
        raise ValidationError(f"max_fill must be in (0, 1], got {max_fill}")

    def probe() -> ProbeResult:
        if service.closed:
            return ProbeResult(False, "service is closed")
        flusher = getattr(service, "_flusher", None)
        if flusher is not None and flusher.done():
            return ProbeResult(False, "linger flusher died")
        depth, cap = service.queue_depth, service.max_queue_depth
        data = {"queue_depth": depth, "max_queue_depth": cap}
        if depth >= max_fill * cap:
            return ProbeResult(
                False, f"admission queue saturated ({depth}/{cap})", data
            )
        return ProbeResult(True, data=data)

    return probe


def pool_probe(pool, *, registry=None, max_clock_offset_us: float | None = None):
    """Shard-pool worker health from liveness + the PING gauges.

    Unhealthy when the pool is closed, any resident worker process is
    dead, or (optionally) a worker's PING-estimated clock offset exceeds
    ``max_clock_offset_us`` — a drifting worker stamps spans and
    deadlines on the wrong axis.  An unstarted pool is healthy: it spawns
    lazily on first use.  Per-shard ping/offset readings from
    ``registry`` (default: the process registry) ride in ``data``.
    """

    def probe() -> ProbeResult:
        if pool.closed:
            return ProbeResult(False, "pool is closed")
        alive = pool.liveness()
        if alive is None:
            return ProbeResult(True, "pool not started (spawns lazily)")
        data: dict = {"workers": alive}
        from repro.obs.metrics import get_registry

        reg = registry if registry is not None else get_registry()
        for gauge_name, key in (
            ("pool_shard_ping_seconds", "ping_s"),
            ("pool_shard_clock_offset_us", "clock_offset_us"),
        ):
            gauge = reg.get(gauge_name)
            if gauge is not None:
                data[key] = {
                    shard[0]: value for shard, value in gauge.series().items()
                }
        dead = sorted(sid for sid, ok in alive.items() if not ok)
        if dead:
            return ProbeResult(False, f"workers dead: {dead}", data)
        if max_clock_offset_us is not None:
            drifted = sorted(
                shard
                for shard, off in data.get("clock_offset_us", {}).items()
                if abs(off) > max_clock_offset_us
            )
            if drifted:
                return ProbeResult(
                    False, f"worker clocks drifted: {drifted}", data
                )
        return ProbeResult(True, data=data)

    return probe

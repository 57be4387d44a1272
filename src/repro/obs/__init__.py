"""Observability: tracing, metrics, logging, SLOs, health, introspection.

Two substrate halves (PR 8) plus the operational layer on top (PR 9),
all cheap enough to ship in the serving path:

* :mod:`repro.obs.trace` — a span tracer with ``contextvars`` ambient
  propagation, explicit carrier dicts for thread/process hops, a bounded
  ring collector, and Chrome ``trace_event`` export.  Off by default;
  the disabled path allocates nothing.  :class:`timed` times a region
  once for its span, histogram and ledger alike.
* :mod:`repro.obs.metrics` — a thread-safe registry of counters, gauges
  and fixed-bucket histograms with labeled series, snapshot/diff/merge
  composition across processes, and Prometheus/JSON export.  On by
  default (plain dict increments); ``get_registry().enabled = False``
  short-circuits recording for overhead measurement.
* :mod:`repro.obs.log` — structured JSON-lines logging with automatic
  trace/span correlation, per-``(component, level)`` token-bucket rate
  limiting, and a bounded ring behind the ``/logz`` endpoint.
* :mod:`repro.obs.slo` — rolling-window latency/error SLO tracking with
  Google-SRE multi-window burn-rate alerts; the fast pair gates BULK
  admission at the service front door.
* :mod:`repro.obs.health` — a probe registry composing per-layer checks
  (engine executor, service queue, shard-pool workers) into liveness and
  readiness verdicts.
* :mod:`repro.obs.server` — a dependency-free asyncio HTTP server
  exposing ``/metrics``, ``/healthz``, ``/readyz``, ``/slo``,
  ``/tracez``, ``/logz`` and ``/varz``.

The four serving layers (engine stages, search pipeline, asyncio
service, shard pool) are instrumented against the process-wide
defaults: :func:`get_tracer`, :func:`get_registry`, :func:`get_logger`.
"""

from repro.obs.health import (
    HealthRegistry,
    HealthVerdict,
    ProbeResult,
    engine_probe,
    pool_probe,
    service_probe,
)
from repro.obs.log import (
    LEVELS,
    LogRecord,
    LogSink,
    Logger,
    TokenBucket,
    configure_logging,
    get_log_sink,
    get_logger,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
)
from repro.obs.server import IntrospectionServer
from repro.obs.slo import (
    DEFAULT_BURN_WINDOWS,
    BurnAlert,
    BurnWindow,
    SLObjective,
    SLOTracker,
)
from repro.obs.trace import (
    ClockOffset,
    Span,
    SpanContext,
    Tracer,
    disable_tracing,
    enable_tracing,
    get_tracer,
    timed,
    to_chrome_trace,
    validate_chrome_trace,
)

__all__ = [
    "DEFAULT_BURN_WINDOWS",
    "LEVELS",
    "BurnAlert",
    "BurnWindow",
    "ClockOffset",
    "Counter",
    "Gauge",
    "HealthRegistry",
    "HealthVerdict",
    "Histogram",
    "IntrospectionServer",
    "LogRecord",
    "LogSink",
    "Logger",
    "MetricsRegistry",
    "ProbeResult",
    "SLObjective",
    "SLOTracker",
    "Span",
    "SpanContext",
    "TokenBucket",
    "Tracer",
    "configure_logging",
    "disable_tracing",
    "enable_tracing",
    "engine_probe",
    "get_log_sink",
    "get_logger",
    "get_registry",
    "get_tracer",
    "pool_probe",
    "service_probe",
    "timed",
    "to_chrome_trace",
    "validate_chrome_trace",
]

"""Load phases and the statistics the benchmark reports from them.

Two ways to offer load, both on the caller's asyncio loop:

* :func:`open_loop` — independent users: Poisson arrivals at a fixed
  rate, sent on schedule whatever the system does.  Every request is
  timed from when it was *due*, so a stall also shows in the latency of
  the requests that should have been sent during it (the generator
  cannot hide a stall by sending late).
* :func:`closed_loop` — callers that wait for their reply: ``clients``
  coroutines, each sending its next request when the previous one
  resolves, until the phase deadline.  Gives saturation throughput.

Percentiles are nearest-rank.  A percentile is *supported* when at least
``MIN_BEYOND`` samples lie beyond it; results state the sample count
behind every percentile they report.
"""

from __future__ import annotations

import asyncio
import math
from dataclasses import dataclass, field

import numpy as np

#: Samples that must lie beyond a percentile before it counts as supported.
MIN_BEYOND = 10


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest value with ≥ p% of the sample at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n: int, p: float) -> int:
    """How many of ``n`` samples lie strictly beyond the nearest-rank p-th."""
    return n - max(1, math.ceil(p / 100.0 * n)) if n else 0


def supported(n: int, p: float) -> bool:
    """The "≥ MIN_BEYOND samples beyond it" rule for reporting percentile p."""
    return samples_beyond(n, p) >= MIN_BEYOND


#: Tail percentiles a run may report, highest first.
TAIL_LADDER = (99, 95, 90, 75)


def tail_percentile(n: int) -> int | None:
    """The highest percentile of :data:`TAIL_LADDER` that ``n`` samples support."""
    return next((p for p in TAIL_LADDER if supported(n, p)), None)


@dataclass
class Phase:
    """What one load phase offered and what came back.

    ``latency`` maps each successful request's index to its seconds (from
    due time in an open phase, from send time in a closed one) and
    ``done`` to the loop time it resolved at; ``results`` maps it to the
    response, for the correctness gate.  ``seconds`` runs from the phase
    start to the last resolution.
    """

    kind: str
    seconds: float = 0.0
    attempted: int = 0
    failed: int = 0
    latency: dict = field(default_factory=dict)
    done: dict = field(default_factory=dict)
    results: dict = field(default_factory=dict)
    errors: dict = field(default_factory=dict)  # exception type → count
    lateness: list = field(default_factory=list)  # open: send − due, seconds
    backlog: list = field(default_factory=list)  # open: (t, outstanding)
    rate: float = 0.0  # open: offered arrivals per second
    clients: int = 0  # closed: concurrency
    start: float = 0.0  # loop clock at phase start
    arrivals_end: float = 0.0  # open: loop clock when arrivals stopped
    end: float = 0.0  # loop clock at the last resolution

    @property
    def latencies(self) -> list:
        return list(self.latency.values())

    @property
    def completed(self) -> int:
        return len(self.latency)

    @property
    def throughput(self) -> float:
        """Successful requests per second over the phase."""
        return self.completed / self.seconds if self.seconds > 0 else 0.0

    def _backlog_quarters(self) -> tuple[float, float]:
        """Mean outstanding requests in the first and last quarter of arrivals."""
        span = self.arrivals_end - self.start
        first = [n for t, n in self.backlog if t - self.start <= span / 4]
        last = [n for t, n in self.backlog if 3 * span / 4 <= t - self.start <= span]
        if not first or not last:
            return 0.0, 0.0
        return float(np.mean(first)), float(np.mean(last))

    def backlog_growth(self) -> float:
        """Mean outstanding requests in the last quarter of arrivals minus the first.

        A steady system at this rate keeps the two equal up to noise; a
        growing queue means the rate exceeds capacity and every latency
        the phase reports depends on its length.
        """
        first, last = self._backlog_quarters()
        return last - first

    def backlog_grew(self) -> bool:
        """The last quarter holds more than twice the first's backlog, plus two."""
        first, last = self._backlog_quarters()
        return last > 2 * first + 2

    def summary(self) -> dict:
        out = {
            "kind": self.kind,
            "seconds": self.seconds,
            "attempted": self.attempted,
            "completed": self.completed,
            "failed": self.failed,
            "errors": dict(self.errors),
            "throughput_rps": self.throughput,
            # (seconds since phase start at resolution, latency seconds)
            "samples": sorted(
                (self.done[i] - self.start, lat) for i, lat in self.latency.items()
            ),
        }
        if self.kind == "open":
            out.update(
                rate=self.rate,
                backlog_growth=self.backlog_growth(),
                backlog_grew=self.backlog_grew(),
                gen_late_p99_ms=percentile(self.lateness, 99) * 1e3
                if self.lateness
                else 0.0,
            )
        else:
            out["clients"] = self.clients
        return out


async def _timed(phase: Phase, send, index: int, t_from: float, loop, on_done=None):
    try:
        result = await send(index)
    except Exception as exc:  # a failed request is counted, never fatal
        phase.failed += 1
        name = type(exc).__name__
        phase.errors[name] = phase.errors.get(name, 0) + 1
    else:
        now = loop.time()
        phase.latency[index] = now - t_from
        phase.done[index] = now
        phase.results[index] = result
        phase.end = max(phase.end, now)
    if on_done is not None:
        on_done()


async def open_loop(send, *, rate: float, seconds: float, rng, first: int = 0) -> Phase:
    """Poisson arrivals at ``rate``/s for ``seconds``; latency from due time.

    ``send(index)`` is a coroutine function issuing request ``index``
    (``first``, ``first + 1``, ...).  Returns once every sent request has
    resolved.
    """
    loop = asyncio.get_running_loop()
    phase = Phase(kind="open", rate=rate)
    phase.start = phase.end = loop.time()
    outstanding = 0
    tasks = []

    def done():
        nonlocal outstanding
        outstanding -= 1
        phase.backlog.append((loop.time(), outstanding))

    due = phase.start
    index = first
    while True:
        due += float(rng.exponential(1.0 / rate))
        if due - phase.start >= seconds:
            break
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        phase.lateness.append(max(0.0, loop.time() - due))
        outstanding += 1
        phase.backlog.append((loop.time(), outstanding))
        tasks.append(loop.create_task(_timed(phase, send, index, due, loop, done)))
        index += 1
    phase.attempted = len(tasks)
    phase.arrivals_end = phase.start + seconds
    await asyncio.gather(*tasks)
    phase.seconds = phase.end - phase.start
    return phase


async def closed_loop(send, *, clients: int, seconds: float, first: int = 0) -> Phase:
    """``clients`` waiting callers until ``seconds`` pass; saturation throughput."""
    loop = asyncio.get_running_loop()
    phase = Phase(kind="closed", clients=clients)
    phase.start = phase.end = loop.time()
    stop = phase.start + seconds
    counter = iter(range(first, 1 << 62))

    async def client():
        while loop.time() < stop:
            index = next(counter)
            phase.attempted += 1
            await _timed(phase, send, index, loop.time(), loop)

    await asyncio.gather(*(client() for _ in range(clients)))
    phase.seconds = phase.end - phase.start
    return phase

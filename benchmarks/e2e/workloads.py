"""The four workloads: inputs from a seed, set-up, load phases, correctness gate.

Every workload drives a public entry point real callers use, with 150 bp
Illumina-profile mate pairs from :func:`repro.workloads.reads.read_pairs`
and ``min_score`` at 0.75 × a perfect read score (above the random-junk
floor, where seeded mapping is bit-identical to its full-DP oracle).  Requests cycle
through a pool of distinct inputs made from the seed.  No layer caches
results, so a repeated input costs what a fresh one does; pools are sized
so the correctness gate's direct call over them stays within seconds.

Why each workload exists (which layers it stresses, and which change
should leave it alone) is recorded in BENCHMARK.json and README.md.
"""

from __future__ import annotations

import asyncio
import os
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

import loadgen
import spans

READ_LENGTH = 150
MIN_SCORE = int(0.75 * 2 * READ_LENGTH)  # +2 per match under the default scoring
ALIGN_WINDOW = 300  # reference bases around a read's origin (align_online)
ALIGN_EVERY = 10  # every 10th align_online request is a full alignment
ALIGN_POOL = 128  # distinct pairs the alignments cycle through (traceback is ~8 ms each)
SPOT_READS = 8
SPOT_REFERENCE = 20_000
MIN_ACCURACY = 0.99
OPEN_SHARE = 0.5  # the part of a run the open phase gets; the closed phase gets the rest
POOL_TIMEOUT_S = 120.0  # bounds a wedged shard round; never reached when healthy


@dataclass(frozen=True)
class Spec:
    """One workload's shape and load.

    ``rate`` is the open phase's Poisson arrival rate (0: closed loop
    only), set once from this code's measurements on a 2-core host to a
    tenth to a fifth of the closed-phase throughput: at a half, queueing
    multiplied the host's run-to-run noise into latency spreads wider
    than any usable bound (README.md, calibration record).  Why each
    workload exists is recorded in BENCHMARK.json and README.md.
    """

    name: str
    reference: int  # reference length, bp
    pool: int  # distinct inputs (reads, queries, pairs or batches)
    rate: float = 0.0
    clients: int = 1
    batch: int = 1  # reads per request


SPECS = {
    spec.name: spec
    for spec in (
        Spec(
            name="map_batch",
            reference=1_000_000,
            pool=40,
            batch=64,
        ),
        Spec(
            name="search_online",
            reference=50_000,
            pool=512,
            rate=4.0,
            clients=16,
        ),
        Spec(
            name="map_online",
            reference=50_000,
            pool=128,
            rate=6.0,
            clients=16,
        ),
        Spec(
            name="align_online",
            reference=100_000,
            pool=2048,
            rate=60.0,
            clients=512,
        ),
    )
}


def _hit_key(hits) -> list:
    """A hit list without query ids (a lone query is always query 0)."""
    return [(h.record, h.start, h.end, h.score, h.chunk_id, h.seeds) for h in hits]


def _placement_key(placements) -> list:
    from repro.mapping import placement_key

    return [(placement_key(p), p.score) for p in placements]


def _alignment_key(res) -> tuple:
    return (
        int(res.score),
        res.query_start,
        res.query_end,
        res.subject_start,
        res.subject_end,
        res.query_aligned,
        res.subject_aligned,
    )


class Workload:
    """Inputs, system under test and correctness gate of one workload.

    Subclasses build the system in :meth:`setup` (returning the seconds
    its warm-up requests took), serve request ``index`` in
    :meth:`request`, and check responses in :meth:`gate` against one
    batched direct call.
    """

    reads_per_request = 1
    cells_per_pair = 0  # DP cells of one score or alignment request

    def __init__(self, spec: Spec, seed: int, nproc: int):
        self.spec = spec
        self.nproc = nproc

    def item(self, index: int) -> int:
        return index % self.spec.pool

    async def setup(self) -> float:
        raise NotImplementedError

    async def request(self, index: int):
        raise NotImplementedError

    async def close(self) -> None:
        raise NotImplementedError

    def service_stats(self):
        return None

    def gate(self, results: dict) -> dict:
        raise NotImplementedError


def _compare(wl: Workload, results: dict, want: dict, key) -> dict:
    """Every response against the direct call's answer for its input."""
    bad = [i for i, res in sorted(results.items()) if key(res) != want[wl.item(i)]]
    return {"compared": len(results), "mismatches": len(bad), "first": bad[:5]}


def _items(wl: Workload, results: dict) -> list:
    """The distinct inputs the responses answer, in order."""
    return sorted({wl.item(i) for i in results})


class MapBatch(Workload):
    def __init__(self, spec, seed, nproc):
        super().__init__(spec, seed, nproc)
        from repro.workloads.reads import read_pairs

        self.reads_per_request = spec.batch
        self.rs = read_pairs(
            spec.pool * spec.batch + 1,
            read_length=READ_LENGTH,
            reference_length=spec.reference,
            seed=seed,
        )
        self.ref = self.rs.reference
        self.reads = [self.rs.reads[i] for i in range(len(self.rs))]
        self.warm = self.reads.pop()
        self.pool = None

    def batch_reads(self, item: int) -> list:
        return self.reads[item * self.spec.batch : (item + 1) * self.spec.batch]

    async def setup(self) -> float:
        from repro.shard import ShardWorkerPool

        self.pool = ShardWorkerPool(self.ref, num_shards=self.nproc, timeout=POOL_TIMEOUT_S)
        self.pool.start()
        t0 = time.perf_counter()
        self.pool.map_topk([self.warm], min_score=MIN_SCORE)
        return time.perf_counter() - t0

    async def request(self, index):
        reads = self.batch_reads(self.item(index))
        return await asyncio.to_thread(self.pool.map_topk, reads, min_score=MIN_SCORE)

    async def close(self):
        if self.pool is not None:
            self.pool.close()

    def gate(self, results):
        from repro.mapping import map_reads, true_origin_accuracy

        # A direct single-process map of every batch would take longer than
        # the run: responses for the first batch are compared exactly, and
        # every response counts toward accuracy.
        first = _items(self, results)[0]
        direct = map_reads(self.batch_reads(first), self.ref, min_score=MIN_SCORE)
        out = _compare(
            self,
            {i: res for i, res in results.items() if self.item(i) == first},
            {first: [_placement_key(p) for p in direct.placements]},
            lambda res: [_placement_key(p) for p in res],
        )
        origins = self.rs.origins()
        placements, truth = [], []
        for index, res in results.items():
            item = self.item(index)
            placements.extend(res)
            truth.extend(origins[item * self.spec.batch : (item + 1) * self.spec.batch])
        out["accuracy"] = true_origin_accuracy(placements, truth)
        return out


class SearchOnline(Workload):
    def __init__(self, spec, seed, nproc):
        super().__init__(spec, seed, nproc)
        from repro.workloads.reads import read_pairs

        # Forward mates only: search scans the forward strand.
        rs = read_pairs(
            2 * (spec.pool + 1),
            read_length=READ_LENGTH,
            reference_length=spec.reference,
            seed=seed,
        )
        self.ref = rs.reference
        self.queries = [rs.reads[i] for i in range(0, len(rs), 2)]
        self.warm = self.queries.pop()
        self.kwargs = {"k": 5, "min_score": MIN_SCORE}
        self.svc = None

    async def setup(self):
        from repro.serve import AlignmentService

        self.svc = AlignmentService(
            database=self.ref, search_kwargs=self.kwargs, dispatch_workers=self.nproc
        )
        self.svc.start()
        t0 = time.perf_counter()
        await self.svc.submit_search(self.warm)
        return time.perf_counter() - t0

    async def request(self, index):
        return await self.svc.submit_search(self.queries[self.item(index)])

    async def close(self):
        if self.svc is not None:
            await self.svc.close()

    def service_stats(self):
        return self.svc.stats

    def gate(self, results):
        from repro.search import search_topk

        items = _items(self, results)
        direct = search_topk([self.queries[i] for i in items], self.ref, **self.kwargs)
        return _compare(self, results, {i: _hit_key(h) for i, h in zip(items, direct)}, _hit_key)


class MapOnline(Workload):
    def __init__(self, spec, seed, nproc):
        super().__init__(spec, seed, nproc)
        from repro.workloads.reads import read_pairs

        self.rs = read_pairs(
            spec.pool + 1,
            read_length=READ_LENGTH,
            reference_length=spec.reference,
            seed=seed,
        )
        self.ref = self.rs.reference
        self.reads = [self.rs.reads[i] for i in range(len(self.rs))]
        self.warm = self.reads.pop()
        self.pool = self.router = None

    async def setup(self):
        from repro.shard import ShardRouter, ShardWorkerPool

        self.pool = ShardWorkerPool(self.ref, num_shards=self.nproc, timeout=POOL_TIMEOUT_S)
        self.router = ShardRouter(
            num_shards=self.nproc, pool=self.pool, map_kwargs={"min_score": MIN_SCORE}
        )
        self.pool.start()
        self.router.start()
        t0 = time.perf_counter()
        await self.router.submit_map(self.warm)
        return time.perf_counter() - t0

    async def request(self, index):
        return await self.router.submit_map(self.reads[self.item(index)])

    async def close(self):
        if self.router is not None:
            await self.router.close()
        if self.pool is not None:
            self.pool.close()

    def gate(self, results):
        from repro.mapping import map_reads, true_origin_accuracy

        items = _items(self, results)
        direct = map_reads([self.reads[i] for i in items], self.ref, min_score=MIN_SCORE)
        out = _compare(
            self,
            results,
            {i: _placement_key(p) for i, p in zip(items, direct.placements)},
            _placement_key,
        )
        origins = self.rs.origins()
        indices = sorted(results)
        out["accuracy"] = true_origin_accuracy(
            [results[i] for i in indices], [origins[self.item(i)] for i in indices]
        )
        return out


class AlignOnline(Workload):
    # read_pairs keeps every read at READ_LENGTH, and every window is cut
    # to ALIGN_WINDOW, so each request relaxes the same number of cells.
    cells_per_pair = READ_LENGTH * ALIGN_WINDOW

    def __init__(self, spec, seed, nproc):
        super().__init__(spec, seed, nproc)
        from repro.search import default_search_scheme
        from repro.workloads.reads import read_pairs

        rs = read_pairs(
            2 * (spec.pool + 1),
            read_length=READ_LENGTH,
            reference_length=spec.reference,
            seed=seed,
        )
        ref = rs.reference
        self.pairs = []
        for k in range(0, len(rs), 2):  # forward mates: windows need no flip
            centred = rs.positions[k] - (ALIGN_WINDOW - READ_LENGTH) // 2
            lo = int(np.clip(centred, 0, ref.size - ALIGN_WINDOW))
            self.pairs.append((rs.reads[k], ref[lo : lo + ALIGN_WINDOW]))
        self.warm = self.pairs.pop()
        self.scheme = default_search_scheme()  # semiglobal: a read inside its window
        self.svc = None

    @staticmethod
    def is_align(index: int) -> bool:
        return index % ALIGN_EVERY == ALIGN_EVERY - 1

    def item(self, index: int) -> int:
        if self.is_align(index):
            return (index // ALIGN_EVERY) % ALIGN_POOL
        return index % self.spec.pool

    async def setup(self):
        from repro.serve import AlignmentService

        self.svc = AlignmentService(scheme=self.scheme, dispatch_workers=self.nproc)
        self.svc.start()
        t0 = time.perf_counter()
        await self.svc.submit(*self.warm)
        await self.svc.submit_align(*self.warm)
        return time.perf_counter() - t0

    async def request(self, index):
        q, s = self.pairs[self.item(index)]
        if self.is_align(index):
            return await self.svc.submit_align(q, s)
        return await self.svc.submit(q, s)

    async def close(self):
        if self.svc is not None:
            await self.svc.close()

    def service_stats(self):
        return self.svc.stats

    def gate(self, results):
        from repro.engine import ExecutionEngine

        out = {"compared": 0, "mismatches": 0, "first": []}
        with ExecutionEngine(self.scheme) as engine:
            for align, run, key in (
                (False, engine.submit_batch, int),
                (True, engine.align_batch, _alignment_key),
            ):
                part = {i: r for i, r in results.items() if self.is_align(i) == align}
                if not part:
                    continue
                items = _items(self, part)
                direct = run([self.pairs[i][0] for i in items], [self.pairs[i][1] for i in items])
                got = _compare(self, part, {i: key(v) for i, v in zip(items, direct)}, key)
                for k in out:
                    out[k] += got[k]
        return out


WORKLOADS = {
    "map_batch": MapBatch,
    "search_online": SearchOnline,
    "map_online": MapOnline,
    "align_online": AlignOnline,
}


def spot_checks(name: str, seed: int) -> dict:
    """Fast paths against the full-DP oracles on 8 reads × 20 kbp."""
    from repro.workloads.reads import read_pairs

    rs = read_pairs(SPOT_READS, read_length=READ_LENGTH, reference_length=SPOT_REFERENCE, seed=seed)
    ref = rs.reference
    if name == "search_online":
        from repro.search import exhaustive_topk, search_topk

        # Exact verify: a verify band may clip a boundary-straddling shadow
        # hit below min_score, which the full-DP oracle keeps.  The oracle
        # records no seed counts, so they stay out of the key.
        queries = [rs.reads[i] for i in range(0, len(rs), 2)]
        fast = search_topk(queries, ref, k=5, min_score=MIN_SCORE, verify="full")
        oracle = exhaustive_topk(queries, ref, k=5, min_score=MIN_SCORE)
        ok = [[k[:-1] for k in _hit_key(h)] for h in fast] == [
            [k[:-1] for k in _hit_key(h)] for h in oracle
        ]
        return {"search_topk==exhaustive_topk": ok}
    if name in ("map_batch", "map_online"):
        from repro.mapping import exhaustive_map, map_reads

        fast = map_reads(rs, ref, min_score=MIN_SCORE)
        oracle = exhaustive_map(rs, ref, min_score=MIN_SCORE)
        ok = [_placement_key(p) for p in fast.placements] == [
            _placement_key(p) for p in oracle.placements
        ]
        return {"map_reads==exhaustive_map": ok}
    from repro.core.recurrence import score_reference
    from repro.engine import ExecutionEngine
    from repro.search import default_search_scheme
    from repro.util.encoding import encode

    scheme = default_search_scheme()
    qs = [rs.reads[i] for i in range(len(rs))]
    ws = [rs.windows[i] for i in range(len(rs))]
    with ExecutionEngine(scheme) as engine:
        scores = [int(s) for s in engine.submit_batch(qs, ws)]
    oracle = [score_reference(encode(q), encode(w), scheme) for q, w in zip(qs, ws)]
    return {"engine==score_reference": scores == oracle}


def peak_rss_mb() -> float:
    """Summed peak RSS of this process and every live descendant (pool workers)."""
    procs = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat") as f:
                    fields = f.read().rsplit(")", 1)[1].split()
            except OSError:
                continue  # exited while listing
            procs[int(entry)] = int(fields[1])
    family, frontier = {os.getpid()}, [os.getpid()]
    while frontier:
        parent = frontier.pop()
        for pid, ppid in procs.items():
            if ppid == parent and pid not in family:
                family.add(pid)
                frontier.append(pid)
    total_kb = 0
    for pid in family:
        try:
            with open(f"/proc/{pid}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            continue
    return total_kb / 1024.0


@dataclass
class Measurement:
    """Everything one run measured, before it becomes metrics."""

    setup_s: float
    warmup_s: float
    open: loadgen.Phase | None
    closed: loadgen.Phase
    gate: dict
    peak_rss_mb: float
    reads_per_request: int
    untraced: loadgen.Phase | None = None
    layers: dict = field(default_factory=dict)
    span_summary: dict = field(default_factory=dict)
    budgets: dict = field(default_factory=dict)
    trace_complete: bool = True


async def measure(spec: Spec, seed: int, seconds: float, trace: bool, nproc: int) -> Measurement:
    """Set up, offer the load phases, check every response, tear down.

    With ``trace`` the open phase and the first half of the closed phase
    run with the library's tracer on; the second closed half runs without
    it, so the throughput ratio of the halves estimates the tracing
    overhead.
    """
    wl = WORKLOADS[spec.name](spec, seed, nproc)
    caps: dict = {}
    try:
        t0 = time.perf_counter()
        warmup_s = await wl.setup()
        setup_s = time.perf_counter() - t0
        # Untimed: one request per closed-phase client, so lazy work that
        # depends on the batch shape (kernel variants, thread pools) is
        # done before anything is measured.
        await asyncio.gather(*(wl.request(i) for i in range(spec.clients)))
        stats = wl.service_stats()

        def tracing(phase: str):
            return spans.traced(caps, phase, stats) if trace else nullcontext()

        open_s = seconds * OPEN_SHARE if spec.rate else 0.0
        closed_s = (seconds - open_s) / (2 if trace else 1)
        open_phase = untraced = None
        if spec.rate:
            with tracing("open"):
                open_phase = await loadgen.open_loop(
                    wl.request, rate=spec.rate, seconds=open_s, rng=np.random.default_rng([seed, 1])
                )
        first = open_phase.attempted if open_phase else 0
        with tracing("closed"):
            closed = await loadgen.closed_loop(
                wl.request, clients=spec.clients, seconds=closed_s, first=first
            )
        if trace:
            untraced = await loadgen.closed_loop(
                wl.request, clients=spec.clients, seconds=closed_s, first=first + closed.attempted
            )
        # Before the gate: VmHWM never falls, so anything read later would
        # include the direct calls and oracles the gate runs in this process.
        rss = peak_rss_mb()
        results = {}
        for phase in (open_phase, closed, untraced):
            if phase is not None:
                results.update(phase.results)
        gate = await asyncio.to_thread(wl.gate, results)
    finally:
        await wl.close()
    m = Measurement(
        setup_s=setup_s,
        warmup_s=warmup_s,
        open=open_phase,
        closed=closed,
        gate=gate,
        peak_rss_mb=rss,
        reads_per_request=wl.reads_per_request,
        untraced=untraced,
    )
    if trace:
        ctx = {
            "latency": open_phase if open_phase is not None else closed,
            "closed": closed,
            "untraced_rps": untraced.throughput,
            "num_shards": nproc,
            "warmup_s": warmup_s,
            "cells_per_pair": wl.cells_per_pair,
        }
        m.layers, m.budgets = spans.layer_metrics(caps, ctx)
        m.span_summary = {phase: spans.self_times(cap.spans) for phase, cap in caps.items()}
        m.trace_complete = all(cap.complete() for cap in caps.values())
    return m

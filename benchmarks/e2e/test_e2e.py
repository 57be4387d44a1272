"""Self-test of the end-to-end benchmark: ``pytest benchmarks/e2e`` (seconds)."""

from __future__ import annotations

import argparse
import asyncio
import dataclasses
import json
import os
import shutil
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

import loadgen
import run
import spans
import verdict
import workloads

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())


# -- statistics -----------------------------------------------------------------
def test_nearest_rank_percentile():
    values = list(range(100, 0, -1))  # order must not matter
    assert loadgen.percentile(values, 50) == 50
    assert loadgen.percentile(values, 90) == 90
    assert loadgen.percentile(values, 99) == 99
    assert loadgen.percentile(values, 100) == 100
    assert loadgen.percentile([3, 1, 2], 50) == 2
    assert loadgen.percentile([7], 99) == 7
    with pytest.raises(ValueError):
        loadgen.percentile([], 50)


def test_ten_samples_beyond_rule():
    assert loadgen.samples_beyond(100, 90) == 10
    assert loadgen.supported(100, 90) and not loadgen.supported(99, 90)
    assert loadgen.supported(1000, 99) and not loadgen.supported(999, 99)
    assert loadgen.samples_beyond(0, 50) == 0
    # The highest of p99, p95, p90 and p75 that the sample supports.
    assert loadgen.tail_percentile(1000) == 99
    assert loadgen.tail_percentile(750) == 95
    assert loadgen.tail_percentile(50) == 75
    assert loadgen.tail_percentile(17) is None


# -- load generation ------------------------------------------------------------
def test_stall_shows_in_later_requests_due_time_latency():
    """A server that blocks the loop also blocks the generator; requests
    due during the stall are sent late, and timing them from when they
    were due (not sent) still charges them the stall."""
    stall, stalled = 0.3, 5

    async def send(index):
        if index == stalled:
            time.sleep(stall)  # a wedged server holding the event loop
        await asyncio.sleep(0.001)
        return index

    async def main():
        return await loadgen.open_loop(
            send, rate=100.0, seconds=1.0, rng=np.random.default_rng(0)
        )

    phase = asyncio.run(main())
    later = {i: lat for i, lat in phase.latency.items() if i > stalled}
    delayed = [i for i, lat in later.items() if lat > 0.1]
    assert len(delayed) >= 5, "requests due during the stall must carry it"
    assert max(later.values()) > 0.2
    assert loadgen.percentile(phase.lateness, 99) > 0.2  # the generator ran late
    assert phase.failed == 0 and phase.completed == phase.attempted


def test_closed_loop_counts_and_failures():
    async def send(index):
        await asyncio.sleep(0.002)
        if index % 7 == 0:
            raise RuntimeError("refused")
        return index

    async def main():
        return await loadgen.closed_loop(send, clients=4, seconds=0.2)

    phase = asyncio.run(main())
    assert phase.attempted == phase.completed + phase.failed
    assert phase.failed and phase.errors == {"RuntimeError": phase.failed}
    assert all(phase.results[i] == i for i in phase.results)
    assert phase.throughput > 0


def _one_server_phase(rate: float) -> loadgen.Phase:
    async def main():
        lock = asyncio.Lock()

        async def send(index):  # one server, 20 ms a request: capacity 50/s
            async with lock:
                await asyncio.sleep(0.02)

        return await loadgen.open_loop(send, rate=rate, seconds=0.5, rng=np.random.default_rng(1))

    return asyncio.run(main())


def test_backlog_growth_flags_an_overloaded_open_phase():
    assert _one_server_phase(150.0).backlog_grew()
    assert not _one_server_phase(10.0).backlog_grew()


# -- tracing --------------------------------------------------------------------
def _span(name, start_ms, end_ms, span_id, parent=None, trace="t"):
    from repro.obs import Span

    return Span(trace, span_id, parent, name, start_ms * 1e3, (end_ms - start_ms) * 1e3)


def test_self_time_subtracts_the_union_of_children():
    spans_ = [
        _span("pass", 0, 100, "p"),
        _span("seed", 0, 30, "s1", "p"),
        _span("verify", 20, 50, "v1", "p"),  # overlaps the seed on another thread
        _span("reduce", 90, 120, "r1", "p"),  # ends after its parent
    ]
    summary = spans.self_times(spans_)
    assert summary["pass"]["total_ms"] == pytest.approx(100)
    assert summary["pass"]["self_ms"] == pytest.approx(100 - 50 - 10)
    assert summary["verify"]["self_ms"] == summary["verify"]["total_ms"] == pytest.approx(30)


def test_traced_phase_captures_library_spans_and_counters():
    from repro.obs import get_tracer
    from repro.search import search_topk
    from repro.workloads.reads import read_pairs

    rs = read_pairs(2, read_length=150, reference_length=5_000, seed=1)
    caps = {}
    with spans.traced(caps, "open"):
        search_topk([rs.reads[0]], rs.reference, k=5, min_score=workloads.MIN_SCORE)
    assert not get_tracer().enabled
    cap = caps["open"]
    assert cap.complete() and len(cap.of("search")) == 1
    assert cap.count("search_queries_total") == 1
    assert cap.count("pipeline_requests_total", pipeline="search") > 0
    assert len(cap.of("seed")) > 1


# -- compare --------------------------------------------------------------------
PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]


@pytest.mark.parametrize(
    "change, better, bound, expected",
    [
        ([x * 1.2 for x in PARENT], "higher", 0.08, "better"),
        ([x * 0.8 for x in PARENT], "higher", 0.08, "worse"),
        ([x * 0.8 for x in PARENT], "lower", 0.10, "better"),
        (PARENT[::-1], "higher", 0.08, "same"),
        ([x * 0.97 for x in PARENT], "higher", 0.08, "same"),  # worse, within bound
        # 8/10 wins is not a gain, even with a clear median gap
        ([x * 1.2 for x in PARENT[:8]] + [50.0, 50.0], "higher", 0.08, "same"),
    ],
)
def test_compare_verdicts(change, better, bound, expected):
    assert verdict.verdict(PARENT, change, better=better, bound=bound)[0] == expected


def test_compare_unresolved_when_spread_exceeds_bound():
    wide = [50.0, 150.0, 80.0, 120.0, 60.0, 140.0, 90.0, 110.0, 70.0, 130.0]
    assert verdict.verdict(wide, wide[::-1], better="lower", bound=0.1)[0] == "unresolved"
    # ... unless every change run beats every parent run
    assert verdict.verdict(wide, [x / 10 for x in wide], better="lower", bound=0.1)[0] == "better"


def _doc(path, seed, value, valid=True, seconds=25.0, nproc=2, trace=0):
    metrics = {m["name"]: {"value": value, "unit": m["unit"]} for m in BENCH["end_to_end"]}
    path.write_text(json.dumps({
        "workload": "map_online", "seed": seed, "seconds": seconds, "trace": trace,
        "metrics": metrics, "validity": {"valid": valid}, "provenance": {"nproc": nproc},
    }))
    return path


def test_compare_pairs_runs_by_seed_and_drops_invalid_runs(tmp_path):
    parent = [_doc(tmp_path / f"p{i}.json", i, 100.0 + i % 3) for i in range(10)]
    # Listed in another order than the parent runs; pairs still match by seed.
    change = [_doc(tmp_path / f"c{i}.json", i, 100.0 + i % 3, valid=i != 4) for i in range(10)][::-1]
    rows = verdict.compare(parent, change, BENCH)
    assert {r["metric"] for r in rows} == {m["name"] for m in BENCH["end_to_end"]}
    assert all(r["pairs"] == 9 and r["wins"] == 0 and r["verdict"] == "same" for r in rows)
    assert "map_online" in verdict.render(rows)


@pytest.mark.parametrize(
    "change, error",
    [
        (dict(seconds=5.0), "differ"),
        (dict(nproc=4), "differ"),
        (dict(trace=1), "traced"),
    ],
)
def test_compare_refuses_mismatched_runs(tmp_path, change, error):
    parent = [_doc(tmp_path / "p.json", 1, 100.0)]
    other = [_doc(tmp_path / "c.json", 1, 100.0, **change)]
    with pytest.raises(ValueError, match=error):
        verdict.compare(parent, other, BENCH)
    assert run.main(["compare", *map(str, parent), "--", *map(str, other)]) == 2


def test_compare_refuses_a_repeated_seed(tmp_path):
    twice = [_doc(tmp_path / "a.json", 1, 100.0), _doc(tmp_path / "b.json", 1, 101.0)]
    with pytest.raises(ValueError, match="second run"):
        verdict.compare(twice, twice[:1], BENCH)


# -- the benchmark contract -----------------------------------------------------
def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.SPECS)
    e2e = {m["name"]: m for m in BENCH["end_to_end"]}
    assert e2e["setup_s"]["unit"] == "s" and e2e["setup_s"]["better"] == "lower"
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    assert all(0 < m["bound"] <= 0.25 for m in e2e.values())
    assert BENCH["command"] == ["python3", "benchmarks/e2e/run.py"]


def test_exits_nonzero_without_the_library(tmp_path):
    """In a checkout holding only the benchmark, fail without a result."""
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "map_batch",
         "--seed", "1", "--seconds", str(BENCH["run_seconds"]), "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


LEAVES_PROCESSES = """
import subprocess, sys
from multiprocessing import shared_memory
sys.path.insert(0, sys.argv[1])
import run
run.adopt_orphans()
shm = shared_memory.SharedMemory(create=True, size=64)  # starts the resource tracker
shm.close()
shm.unlink()
# An orphan: the middle process exits at once, its sleeping child stays.
subprocess.run([sys.executable, "-c",
                "import subprocess, sys; subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(60)'])"])
run.stop_descendants(grace_s=0.5)
"""


def _session_members(sid: int) -> list:
    members = []
    for entry in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{entry}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[3]) == sid and fields[0] != "Z":
            members.append(int(entry))
    return members


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
def test_stop_descendants_leaves_no_process_behind():
    """Nothing a run started, the resource tracker and orphans included,
    is alive the moment the run's process has exited."""
    t0 = time.monotonic()
    proc = subprocess.Popen([sys.executable, "-c", LEAVES_PROCESSES, str(run.HERE)],
                            start_new_session=True)
    while proc.poll() is None:
        time.sleep(0.001)
    left = _session_members(proc.pid)
    for pid in left:
        os.kill(pid, signal.SIGKILL)
    assert proc.returncode == 0 and left == []
    assert time.monotonic() - t0 < 30


@pytest.mark.parametrize("name", list(workloads.SPECS))
def test_spot_checks_pass(name):
    assert all(workloads.spot_checks(name, seed=5).values())


# -- every workload end to end, at toy size -------------------------------------
# Open rates far below toy capacity even on a host running at a third of
# its speed, so the open phase's backlog never grows and the run stays valid.
TOY = {
    "map_batch": dict(reference=20_000, pool=4, batch=8),
    "search_online": dict(reference=20_000, pool=24, rate=8.0, clients=4),
    "map_online": dict(reference=20_000, pool=24, rate=8.0, clients=4),
    "align_online": dict(reference=20_000, pool=64, rate=50.0, clients=16),
}


def _toy(name):
    return dataclasses.replace(workloads.SPECS[name], **TOY[name])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(workloads.SPECS))
def test_workload_end_to_end(name, trace):
    spec = _toy(name)
    m = asyncio.run(workloads.measure(spec, seed=3, seconds=1.0, trace=bool(trace), nproc=2))
    args = argparse.Namespace(seed=3, seconds=1.0, trace=trace)
    doc = run.document(args, spec, m, [m.setup_s], {}, BENCH)
    assert doc["correct"], doc["validity"]["problems"]
    assert doc["validity"]["valid"], doc["validity"]["problems"]
    assert doc["gate"]["compared"] > 0 and doc["attempted"] > 0 and doc["failed"] == 0
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert list(doc["metrics"]) == [d["name"] for d in declared]
    assert all(isinstance(v["value"], float) for v in doc["metrics"].values())
    if trace:
        assert set(m.layers) == {d["name"] for d in BENCH["per_layer"]}
        assert m.span_summary
        assert bool(m.budgets) == (name != "align_online")  # budgets split searches and pool calls
    else:
        assert all(v["value"] > 0 for v in doc["metrics"].values())
    assert doc["validity"]["latency"]["p50_ms"] > 0


def test_peak_rss_is_read_before_the_gate(monkeypatch):
    """VmHWM never falls, so the gate's direct calls must come after it."""
    order = []
    gate = workloads.AlignOnline.gate
    monkeypatch.setattr(workloads, "peak_rss_mb", lambda: order.append("rss") or 1.0)
    monkeypatch.setattr(
        workloads.AlignOnline, "gate", lambda wl, results: order.append("gate") or gate(wl, results)
    )
    m = asyncio.run(workloads.measure(_toy("align_online"), seed=3, seconds=0.5, trace=False, nproc=2))
    assert order == ["rss", "gate"] and m.peak_rss_mb == 1.0

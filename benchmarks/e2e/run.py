"""End-to-end benchmark: four workloads through the library's public entry points.

Run from the repository root::

    python3 benchmarks/e2e/run.py --workload map_online --seed 1
    python3 benchmarks/e2e/run.py --workload map_online --seed 1 --trace 1
    python3 benchmarks/e2e/run.py --seed 1        # every workload, each in a fresh process
    python3 benchmarks/e2e/run.py compare A*.json -- B*.json

One run builds the system under test from ``src/``, offers the
workload's load for ``--seconds`` (by default BENCHMARK.json's
``run_seconds``), checks every response against one
direct batched call, prints each metric by name with its unit, writes one
JSON document (``--out``, default ``benchmarks/e2e/out/``) and prints as
its last line the result object ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace 0`` reports the end-to-end metrics of
BENCHMARK.json, ``--trace 1`` its per-layer metrics.  The exit code is 0
only when every checked response was correct.  See README.md for what
each workload and metric means.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT_DIR = HERE / "out"
SETUP_CHILD_TIMEOUT_S = 120
SETUP_REPS = 3  # set-ups per run whose median is setup_s
REAP_GRACE_S = 5.0  # how long a leftover child may take to end before it is killed
PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Make this process the parent of orphaned descendants (Linux).

    A set-up child killed on timeout would otherwise leave its pool
    workers to init, out of reach of :func:`stop_descendants`.
    """
    try:
        import ctypes

        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _children() -> list:
    me, kids = os.getpid(), []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat") as f:
                    ppid = int(f.read().rsplit(")", 1)[1].split()[1])
            except (OSError, IndexError, ValueError):
                continue  # exited while listing
            if ppid == me:
                kids.append(int(entry))
    return kids


def stop_descendants(grace_s: float = REAP_GRACE_S) -> None:
    """End every process this one started and wait until each has ended.

    The shard pool joins its workers on close, but the shared-memory
    segment it publishes starts multiprocessing's resource tracker, which
    lives until this process closes its pipe: left alone it outlives the
    run by a few milliseconds.  It is stopped and waited for here; any
    other child (or adopted orphan) gets ``grace_s`` and is then killed.
    """
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None and getattr(tracker._resource_tracker, "_fd", None) is not None:
        tracker._resource_tracker._stop()
    if not os.path.isdir("/proc"):
        return
    deadline = time.monotonic() + grace_s
    while kids := _children():
        for pid in kids:
            try:
                if time.monotonic() > deadline:
                    os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, os.WNOHANG)
            except (ChildProcessError, ProcessLookupError):
                pass
        time.sleep(0.01)


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _git_sha() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _cpu_ticks() -> list:
    """user … steal of the aggregate line of /proc/stat (empty without one)."""
    try:
        with open("/proc/stat") as f:
            return [int(x) for x in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return []


def _steal_share(before: list, after: list) -> float | None:
    """Share of CPU time the hypervisor gave to other guests in between."""
    if len(before) < 8 or len(after) < 8:
        return None
    total = sum(after) - sum(before)
    return (after[7] - before[7]) / total if total > 0 else None


def _benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _setup_child(args) -> float:
    """One more cold set-up, in a fresh interpreter (no warm caches)."""
    proc = subprocess.run(
        [sys.executable, __file__, "--setup-only", "--workload", args.workload,
         "--seed", str(args.seed)],
        capture_output=True, text=True, timeout=SETUP_CHILD_TIMEOUT_S, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def setup_only(args) -> int:
    import asyncio
    import time

    import workloads

    async def once():
        wl = workloads.WORKLOADS[args.workload](workloads.SPECS[args.workload], args.seed, _nproc())
        t0 = time.perf_counter()
        try:
            await wl.setup()
            return time.perf_counter() - t0
        finally:
            await wl.close()

    print(json.dumps({"setup_s": asyncio.run(once())}))
    return 0


def document(args, spec, m, setup_samples: list, provenance: dict, bench: dict) -> dict:
    """The run's JSON document: result, metrics, validity, provenance."""
    import loadgen
    import workloads

    lat_phase = m.open if m.open is not None else m.closed
    lat_ms = [x * 1e3 for x in lat_phase.latencies]
    phases = [p for p in (m.open, m.closed, m.untraced) if p is not None]
    attempted = sum(p.attempted for p in phases) * m.reads_per_request
    failed = sum(p.failed for p in phases) * m.reads_per_request
    gate = m.gate
    problems = []
    if gate["mismatches"]:
        problems.append(
            f"{gate['mismatches']} of {gate['compared']} responses differ from the direct call"
        )
    problems += [f"spot check failed: {k}" for k, ok in gate.get("spot", {}).items() if not ok]
    if gate.get("accuracy", 1.0) < workloads.MIN_ACCURACY:
        problems.append(f"true-origin accuracy {gate['accuracy']:.4f} < {workloads.MIN_ACCURACY}")
    if failed:
        problems.append(f"{failed} of {attempted} failed or refused")
    grew = m.open.backlog_grew() if m.open is not None else False
    invalid = (["open-phase backlog grew"] if grew else []) + (
        [] if m.trace_complete else ["the trace lost spans"]
    )

    def pct(p):
        return loadgen.percentile(lat_ms, p) if lat_ms else 0.0

    if args.trace:
        declared = bench["per_layer"]
        values = m.layers
    else:
        declared = bench["end_to_end"]
        values = {
            "setup_s": statistics.median(setup_samples),
            "throughput_rps": m.closed.throughput * m.reads_per_request,
            "peak_rss_mb": m.peak_rss_mb,
        }
    metrics = {d["name"]: {"value": values[d["name"]], "unit": d["unit"]} for d in declared}
    n = len(lat_ms)
    tail = loadgen.tail_percentile(n)
    latency = {
        "phase": lat_phase.kind,
        "n": n,
        "p50_ms": pct(50),
        "tail_percentile": tail,
        "tail_ms": pct(tail) if tail else None,
        "tail_beyond": loadgen.samples_beyond(n, tail) if tail else 0,
    }
    return {
        "workload": spec.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "validity": {
            "valid": not problems and not invalid,
            "problems": problems + invalid,
            "error_rate": failed / attempted if attempted else 0.0,
            "accuracy": gate.get("accuracy"),
            "samples": {
                "throughput_rps": m.closed.completed,
                "setup_s": len(setup_samples),
            },
            # Reported, not bounded: open-phase latency, p50 and tail alike,
            # spread from run to run on the calibration host by more than
            # the largest bound BENCHMARK.json may set (README.md,
            # calibration record).
            "latency": latency,
            "setup_samples_s": setup_samples,
            "backlog_growth": m.open.backlog_growth() if m.open is not None else 0.0,
            "backlog_grew": grew,
            "gen_late_p99_ms": m.open.summary()["gen_late_p99_ms"] if m.open is not None else 0.0,
        },
        "gate": gate,
        "phases": {p.kind if p is not m.untraced else "closed_untraced": p.summary() for p in phases},
        "warmup_s": m.warmup_s,
        "spans": m.span_summary,
        "budgets": m.budgets,
        "provenance": provenance,
    }


def run_one(args) -> int:
    import asyncio

    import numpy

    import workloads

    bench = _benchmark()
    spec = workloads.SPECS[args.workload]
    nproc = _nproc()
    provenance = {
        "seed": args.seed,
        "nproc": nproc,
        "loadavg_before": os.getloadavg(),
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
    }
    setup_samples = []
    if not args.trace:
        setup_samples = [_setup_child(args) for _ in range(SETUP_REPS - 1)]
    ticks = _cpu_ticks()
    m = asyncio.run(workloads.measure(spec, args.seed, args.seconds, bool(args.trace), nproc))
    provenance["steal_share"] = _steal_share(ticks, _cpu_ticks())
    m.gate["spot"] = workloads.spot_checks(spec.name, args.seed)
    setup_samples.append(m.setup_s)
    provenance["loadavg_after"] = os.getloadavg()
    doc = document(args, spec, m, setup_samples, provenance, bench)

    out = Path(args.out) if args.out else OUT_DIR / f"{spec.name}_seed{args.seed}_trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=2) + "\n")

    mode = "traced, per-layer" if args.trace else "untraced, end-to-end"
    print(f"{spec.name}  seed {args.seed}  {args.seconds:g} s  ({mode})")
    for name, metric in doc["metrics"].items():
        print(f"  {name:<34} {metric['value']:>14.6g} {metric['unit']}")
    lat = doc["validity"]["latency"]
    tail = f", p{lat['tail_percentile']} {lat['tail_ms']:.4g} ms" if lat["tail_percentile"] else ""
    print(f"  latency, reported: p50 {lat['p50_ms']:.4g} ms{tail} ({lat['n']} requests, {lat['phase']} phase)")
    gate = doc["gate"]
    print(
        f"  correct: {'yes' if doc['correct'] else 'NO'} "
        f"({gate['compared']} responses checked, {gate['mismatches']} mismatches"
        + (f", accuracy {gate['accuracy']:.4f}" if "accuracy" in gate else "")
        + f"); valid: {'yes' if doc['validity']['valid'] else 'NO'}"
    )
    for problem in doc["validity"]["problems"]:
        print(f"  ! {problem}")
    print(f"  document: {out}")
    result = {key: doc[key] for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(result))
    return 0 if doc["correct"] else 1


def run_all(args) -> int:
    import workloads

    status, docs = 0, []
    for name in workloads.SPECS:
        out = OUT_DIR / f"{name}_seed{args.seed}_trace{args.trace}.json"
        out.unlink(missing_ok=True)  # never report an earlier run's document
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(out)],
        )
        status = status or proc.returncode
        if out.exists():
            docs.append(json.loads(out.read_text()))
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    combined = OUT_DIR / f"all_seed{args.seed}_trace{args.trace}.json"
    combined.write_text(json.dumps({"runs": docs}, indent=2) + "\n")
    print(f"all workloads: {combined}")
    return status


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    bench = _benchmark()
    if argv[:1] == ["compare"]:
        import verdict

        rest = argv[1:]
        if "--" not in rest:
            print("usage: run.py compare PARENT.json ... -- CHANGE.json ...", file=sys.stderr)
            return 2
        cut = rest.index("--")
        try:
            rows = verdict.compare(rest[:cut], rest[cut + 1 :], bench)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(verdict.render(rows))
        return 0

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=float(bench["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="result document path")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the library source is missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    adopt_orphans()
    try:
        if args.setup_only:
            return setup_only(args)
        if args.workload is None:
            return run_all(args)
        return run_one(args)
    finally:
        stop_descendants()


if __name__ == "__main__":
    sys.exit(main())

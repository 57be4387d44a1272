"""``run.py compare``: parent runs vs change runs, per (metric, workload).

The rules are those of the choosing-metrics guide.  A parent run and a
change run pair up when they ran the same workload with the same seed
(run them alternating, parent first in one pair and second in the next);
a pair whose run length or core count differ, or a traced document, is
refused.  For each end-to-end metric and workload:

* **better** — the change wins at least 9 of 10 pairs (ties count for
  neither side) *and* the medians differ by more than the parent's own
  spread, the distance between its quartiles;
* **unresolved** — the parent's spread (as a share of its median) is
  wider than the metric's bound in BENCHMARK.json, unless every change
  run reads better than every parent run;
* **worse** — the change's median is worse than the parent's by more
  than the bound (a share of the parent's median);
* **same** — otherwise.

Runs flagged invalid (failed correctness gate or a growing open-phase
backlog) are dropped with their pair partner.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

WIN_SHARE = 0.9


def verdict(parent: list, change: list, *, better: str, bound: float) -> tuple[str, dict]:
    """Verdict for one (metric, workload) over paired runs, plus the numbers."""
    n = min(len(parent), len(change))
    parent, change = parent[:n], change[:n]
    if n < 2:
        return "unresolved", {"pairs": n}
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for a, b in zip(parent, change) if sign * (b - a) > 0)
    losses = sum(1 for a, b in zip(parent, change) if sign * (b - a) < 0)
    med_a, med_b = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4)
    iqr = q3 - q1
    gain = sign * (med_b - med_a)  # > 0: the change reads better
    scale = abs(med_a) or 1.0
    info = {
        "pairs": n,
        "wins": wins,
        "losses": losses,
        "parent_median": med_a,
        "change_median": med_b,
        "parent_iqr": iqr,
        "change_share": gain / scale,
    }
    if wins >= WIN_SHARE * n and gain > iqr:
        return "better", info
    if iqr / scale > bound and not all(
        sign * (b - a) > 0 for a in parent for b in change
    ):
        return "unresolved", info
    if -gain / scale > bound:
        return "worse", info
    return "same", info


def _runs(paths) -> dict:
    """Result documents keyed by (workload, seed)."""
    out: dict = {}
    for path in paths:
        doc = json.loads(Path(path).read_text())
        if doc["trace"]:
            raise ValueError(f"{path}: a traced run; compare reads untraced runs only")
        key = (doc["workload"], doc["seed"])
        if key in out:
            raise ValueError(f"{path}: a second run of {key[0]} with seed {key[1]}")
        out[key] = doc
    return out


def _settings(doc: dict) -> tuple:
    return doc["seconds"], doc["provenance"]["nproc"]


def pairs(parent_paths, change_paths) -> dict:
    """Per workload, the (parent, change) documents of each shared seed, by seed."""
    parent, change = _runs(parent_paths), _runs(change_paths)
    out: dict = {}
    for key in sorted(set(parent) & set(change)):
        a, b = parent[key], change[key]
        if _settings(a) != _settings(b):
            raise ValueError(
                f"{key[0]} seed {key[1]}: runs differ in (seconds, nproc): "
                f"{_settings(a)} vs {_settings(b)}"
            )
        out.setdefault(key[0], []).append((a, b))
    return out


def compare(parent_paths, change_paths, benchmark: dict) -> list[dict]:
    """One row per (workload, end-to-end metric) with runs on both sides."""
    rows = []
    for workload, both in pairs(parent_paths, change_paths).items():
        valid = [(a, b) for a, b in both if a["validity"]["valid"] and b["validity"]["valid"]]
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            a = [p["metrics"][name]["value"] for p, _ in valid]
            b = [c["metrics"][name]["value"] for _, c in valid]
            word, info = verdict(a, b, better=metric["better"], bound=metric["bound"])
            rows.append({"workload": workload, "metric": name, "unit": metric["unit"],
                         "verdict": word, "bound": metric["bound"], **info})
    return rows


def render(rows: list[dict]) -> str:
    head = f"{'workload':<14} {'metric':<15} {'parent':>12} {'change':>12} {'Δ':>8} {'wins':>6}  verdict"
    lines = [head, "-" * len(head)]
    for r in rows:
        if "parent_median" not in r:
            lines.append(f"{r['workload']:<14} {r['metric']:<15} {'':>12} {'':>12} {'':>8} {'':>6}  {r['verdict']} ({r['pairs']} pairs)")
            continue
        lines.append(
            f"{r['workload']:<14} {r['metric']:<15} {r['parent_median']:>12.4g} "
            f"{r['change_median']:>12.4g} {r['change_share']:>+8.1%} "
            f"{r['wins']:>3}/{r['pairs']:<2}  {r['verdict']}"
        )
    return "\n".join(lines)

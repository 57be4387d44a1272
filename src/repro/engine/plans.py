"""Execution plans: per-(scheme, backend, dtype) dispatch state, cached.

A plan resolves everything that is invariant across requests of one
parameterisation — the backend capabilities, the staged kernel (built
through :data:`repro.stage.compile.global_kernel_cache`, so plan caching
layers on kernel caching rather than duplicating it), and the per-thread
backend instances for stateful delegates.  The engine asks the plan cache
once per batch; repeated traffic with the same parameterisation pays no
lookup, staging, or construction cost, and the hit/miss statistics are
surfaced through :func:`repro.perf.report.cache_stats_table`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from repro.core.types import AlignmentScheme
from repro.stage.compile import global_kernel_cache

__all__ = ["ExecutionPlan", "PlanCache", "global_plan_cache"]


@dataclass
class ExecutionPlan:
    """Resolved dispatch state for one (scheme, backend, dtype) triple.

    Plans are shared across worker threads: the staged-kernel entry points
    allocate per-call buffers, and stateful delegate backends are
    instantiated once per thread via ``_tls`` — so no plan method needs
    external locking.
    """

    backend: str
    scheme: AlignmentScheme
    dtype: np.dtype
    caps: object  # BackendCapabilities
    _tls: threading.local = field(default_factory=threading.local, repr=False)

    @property
    def lane_batching(self) -> bool:
        return bool(self.caps.lane_batching or self.caps.batch_only)

    # -- kernel-path entry points (stateless, thread-safe) -----------------
    def _worker(self):
        """Per-thread delegate instance (stateful backends keep counters)."""
        inst = getattr(self._tls, "inst", None)
        if inst is None:
            from repro.core.backend import create_backend

            inst = create_backend(self.backend, self.scheme)
            self._tls.inst = inst
        return inst

    def score_one(self, q: np.ndarray, s: np.ndarray) -> int:
        if self.backend == "rowscan":
            from repro.core.kernels import score_rowscan

            return score_rowscan(q, s, self.scheme, dtype=self.dtype)
        return int(self._worker().score(q, s))

    def score_block(
        self, qs: np.ndarray, ss: np.ndarray, floor: int | None = None
    ) -> tuple[np.ndarray, int]:
        """Relax a stacked block of same-shape pairs in lanes.

        Returns ``(scores, cells relaxed)``.  With a ``floor`` the row-sweep
        kernel may stop early on lanes that cannot reach it (their scores
        are then below ``floor``, see :func:`repro.core.kernels.score_lanes`);
        delegate backends ignore it and return exact scores.
        """
        if self.backend == "rowscan":
            from repro.core.kernels import sweep_lanes

            return sweep_lanes(qs, ss, self.scheme, dtype=self.dtype, floor=floor)
        worker = self._worker()
        if hasattr(worker, "score_batch"):
            scores = np.asarray(worker.score_batch(list(qs), list(ss)), dtype=np.int64)
        else:
            scores = np.array([worker.score(q, s) for q, s in zip(qs, ss)], dtype=np.int64)
        return scores, qs.size * ss.shape[-1]

    def score_banded(self, q: np.ndarray, s: np.ndarray, band: int, widen: bool = False) -> int:
        """Band-constrained score (the search pipeline's verify path)."""
        if not self.caps.banded:
            from repro.util.checks import ValidationError

            raise ValidationError(
                f"backend {self.backend!r} does not support banded scoring"
            )
        from repro.core.banded import banded_score

        return banded_score(q, s, self.scheme, band, widen=widen)

    def score_banded_block(
        self, qs: np.ndarray, ss: np.ndarray, band: int, widen: bool = False
    ) -> np.ndarray:
        """Band-constrained scores of a stacked same-shape, same-band block.

        Every backend with banded support sweeps the whole stack in one
        call of the compiled (scheme, band)-specialized kernel, the kernel
        :meth:`score_banded` runs on one lane, so each lane is
        bit-identical to :meth:`score_banded` on its pair.
        """
        if not self.caps.banded:
            from repro.util.checks import ValidationError

            raise ValidationError(
                f"backend {self.backend!r} does not support banded scoring"
            )
        from repro.core.banded import banded_score_lanes

        return banded_score_lanes(qs, ss, self.scheme, band, widen=widen, dtype=self.dtype)

    @property
    def lane_traceback(self) -> bool:
        """Whether alignments run as lane stacks (the inline traceback)."""
        from repro.core.backend import LANE_TRACEBACK

        return self.backend in LANE_TRACEBACK

    def align_lanes(self, qs, ss) -> list:
        """Full alignments of a stack of pairs, in order.

        Inline strategies align the whole stack in one lane traceback;
        other backends align pair by pair through their own ``align``.
        Identical to :meth:`align_one` on each pair either way.
        """
        if self.lane_traceback:
            from repro.core.traceback import align_lanes

            return align_lanes(qs, ss, self.scheme)
        return [self.align_one(q, s) for q, s in zip(qs, ss)]

    def align_one(self, q: np.ndarray, s: np.ndarray):
        return self._worker().align(q, s)


class PlanCache:
    """Thread-safe memo table: (scheme, backend, dtype) → ExecutionPlan.

    Hit/miss accounting mirrors :class:`repro.stage.compile.KernelCache`:
    a miss is counted only for the caller whose plan is actually installed.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._plans: dict = {}
        self.hits = 0
        self.misses = 0

    def get_or_build(
        self, scheme: AlignmentScheme, backend: str, dtype=np.int32
    ) -> ExecutionPlan:
        dtype = np.dtype(dtype)
        key = (scheme.cache_key(), backend, dtype.str)
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None:
                self.hits += 1
                return plan
        plan = self._build(scheme, backend, dtype)
        with self._lock:
            existing = self._plans.get(key)
            if existing is not None:
                self.hits += 1
                return existing
            self._plans[key] = plan
            self.misses += 1
        return plan

    def _build(self, scheme: AlignmentScheme, backend: str, dtype) -> ExecutionPlan:
        from repro.core.backend import capability_matrix
        from repro.core.kernels import build_rowscan_kernel

        caps = capability_matrix()[backend]
        if backend == "rowscan":
            # Stage the row-sweep kernel now, through the kernel cache —
            # one variant per scheme, shared with every other frontend.
            global_kernel_cache.get_or_build(
                ("rowscan",) + scheme.cache_key(), lambda: build_rowscan_kernel(scheme)
            )
        return ExecutionPlan(backend=backend, scheme=scheme, dtype=dtype, caps=caps)

    def stats(self) -> dict:
        """Plan-cache counters plus the kernel cache they layer on."""
        with self._lock:
            return {
                "plans": len(self._plans),
                "plan_hits": self.hits,
                "plan_misses": self.misses,
                "kernels": len(global_kernel_cache),
                "kernel_hits": global_kernel_cache.hits,
                "kernel_misses": global_kernel_cache.misses,
            }

    def __len__(self):
        return len(self._plans)

    def clear(self):
        with self._lock:
            self._plans.clear()
            self.hits = self.misses = 0


#: Process-wide plan cache used by the execution engine.
global_plan_cache = PlanCache()

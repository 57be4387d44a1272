"""Thread-pooled batch execution: the pipeline's Executor stage machinery.

:class:`BatchExecutor` owns one persistent ``ThreadPoolExecutor`` shared by
every batch and every pipeline of an engine: lane blocks are submitted as
tasks, NumPy releases the GIL inside ufuncs so block relaxations overlap.
The pool is created lazily on first use and shut down *deterministically* —
``close()`` (idempotent) or ``with BatchExecutor(...)``; a dropped executor
closes itself via ``__del__`` instead of leaking worker threads until
interpreter exit.

:class:`PlanExecutorStage` adapts an
:class:`~repro.engine.plans.ExecutionPlan` to the pipeline's
:class:`~repro.engine.stages.ExecutorStage` protocol (full-DP lane blocks);
the banded verification stage of :mod:`repro.search` implements the same
protocol over the banded kernel of :mod:`repro.core.banded`.  Scoring always runs
through that pipeline (or, for pre-bucketed serving batches, straight
through the stage); :meth:`BatchExecutor.run_aligns` is the one
non-pipeline entry point — alignments run as lane-stack tracebacks
(:func:`repro.core.traceback.align_lanes`), one stack per task on the
pool's threads.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.engine.stages import Batch
from repro.util.checks import ReproError, check_positive

__all__ = ["BatchExecutor", "PlanExecutorStage"]


class PlanExecutorStage:
    """Executor stage: one plan, full-DP lane blocks (or per-pair scores).

    With a ``floor``, every batch runs as a lane block whose lanes stop
    once they provably cannot score ``floor`` (see
    :meth:`~repro.engine.plans.ExecutionPlan.score_block`): pairs scoring
    ≥ ``floor`` keep their exact scores, the rest come back below it.
    """

    def __init__(self, plan, floor: int | None = None):
        self.plan = plan
        self.floor = floor

    def execute(self, batch: Batch) -> tuple[np.ndarray, dict]:
        if len(batch) > 1 or self.floor is not None:
            qs, ss = batch.stacked()
            scores, cells = self.plan.score_block(qs, ss, floor=self.floor)
        else:
            req = batch.requests[0]
            scores = np.array([self.plan.score_one(req.query, req.subject)], dtype=np.int64)
            cells = batch.cells
        return scores, {"cells_computed": cells, "cells_skipped_bound": batch.cells - cells}


class BatchExecutor:
    """Thread pool + lane blocking shared by every execution path.

    Context-manager safe: ``with BatchExecutor(...) as ex`` shuts the pool
    down deterministically on exit, ``close()`` is an idempotent no-op the
    second time, and submitting to a closed executor raises
    :class:`~repro.util.checks.ReproError`.
    """

    def __init__(self, max_workers: int | None = None, lanes: int = 64):
        if max_workers is None:
            max_workers = min(8, os.cpu_count() or 1)
        self.max_workers = check_positive(max_workers, "max_workers")
        self.lanes = check_positive(lanes, "lanes")
        self._pool: ThreadPoolExecutor | None = None
        self._pool_lock = threading.Lock()
        self._closed = False

    # -- lifecycle ---------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    def _ensure_pool(self) -> ThreadPoolExecutor:
        with self._pool_lock:
            if self._closed:
                raise ReproError("executor is closed")
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.max_workers, thread_name_prefix="repro-exec"
                )
            return self._pool

    def submit(self, fn, /, *args):
        """Run ``fn(*args)`` on the shared pool; returns its future."""
        return self._ensure_pool().submit(fn, *args)

    def close(self):
        """Shut the pool down; double-close is a no-op."""
        with self._pool_lock:
            if self._closed:
                return
            self._closed = True
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def __del__(self):  # backstop only; deterministic paths call close()
        try:
            self.close()
        except Exception:
            pass

    # -- alignment runs ----------------------------------------------------
    def run_aligns(self, plan, enc_q: list, enc_s: list) -> tuple[list, list]:
        """Full alignments in lane stacks; returns ``(results, parts)``.

        Pairs are cut into :func:`~repro.core.traceback.lane_parts` stacks
        of at most :attr:`lanes` (single pairs for plans without lane
        traceback); each stack is one task on the pool.  ``parts`` lists
        the request indices of every stack, for the caller's ledger.
        """
        if self._closed:
            raise ReproError("executor is closed")
        from repro.core.traceback import lane_parts

        parts = lane_parts(enc_q, enc_s, self.lanes if plan.lane_traceback else 1)

        def run(part):
            return plan.align_lanes([enc_q[k] for k in part], [enc_s[k] for k in part])

        if len(parts) == 1 or self.max_workers == 1:
            done = [run(part) for part in parts]
        else:
            done = [f.result() for f in [self.submit(run, part) for part in parts]]
        out: list = [None] * len(enc_q)
        for part, results in zip(parts, done):
            for k, res in zip(part, results):
                out[k] = res
        return out, parts

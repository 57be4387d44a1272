"""High-level alignment frontend.

:class:`Aligner` binds an :class:`~repro.core.types.AlignmentScheme` to a
compute backend and exposes score/align/batch entry points.  Kernels are
specialized lazily on first use and memoized in the global kernel cache, so
constructing aligners is cheap and repeated use pays no staging cost —
mirroring how an AnyDSL library compiles one variant per parameter set.

Backends
--------
The frontend resolves **every** name registered in
:data:`BACKEND_FACTORIES` (see :mod:`repro.core.backend` for the protocol
and capability records).  Three staged-kernel strategies run inline:

``"rowscan"``
    Vectorized row sweep (NumPy dialect staged kernel); linear space.  The
    default for scores.  Batches of equal-shape pairs use the same kernel
    over SIMD lanes.
``"scalar"``
    Scalar-dialect staged kernel filling the full matrix; the paper's
    non-vectorized CPU variant (slow, kept for benchmarks and small inputs).
``"reference"``
    The loop-based oracle from :mod:`repro.core.recurrence`.

Registered subsystem backends — ``"tiled"`` (multi-threaded CPU wavefront),
``"simd"`` (lane-batched presets), ``"gpu"`` / ``"fpga"`` (simulated
hardware), and the comparators ``"seqan"`` / ``"parasail"`` / ``"ssw"`` /
``"nvbio"`` — are constructed on first use and adapted to the same
protocol.  ``"auto"`` picks a backend per call from the declared
capabilities and the workload shape (pair count, extent, traceback need).
"""

from __future__ import annotations

import numpy as np

from repro.core.backend import INLINE_BACKENDS as _INLINE
from repro.core.backend import LANE_TRACEBACK
from repro.core.kernels import fill_matrix, score_lanes, score_rowscan
from repro.core.recurrence import align_reference, score_reference
from repro.core.scoring import default_scheme
from repro.core.traceback import (
    DEFAULT_BLOCK_CUTOFF,
    align_linear_space,
    align_pairs,
)
from repro.core.types import AlignmentResult, AlignmentScheme
from repro.util.checks import ValidationError, check_in
from repro.util.encoding import encode

__all__ = ["Aligner", "BACKEND_FACTORIES", "register_backend"]

#: name -> factory(scheme, **opts) for pluggable score/align backends.
#: The single source of truth for backend dispatch: every name here (plus
#: the Aligner's inline strategies and ``auto``) is accepted by
#: ``Aligner(backend=...)`` and ``repro.engine.ExecutionEngine``.
BACKEND_FACTORIES: dict = {}


def register_backend(name: str):
    """Class decorator registering a backend factory for the frontend."""

    def wrap(cls):
        BACKEND_FACTORIES[name] = cls
        return cls

    return wrap


class Aligner:
    """Pairwise aligner specialized on one scheme.

    Parameters
    ----------
    scheme:
        Alignment type + scoring; defaults to the paper's benchmark scheme
        (global, +2/−1, linear −1).
    backend:
        ``"rowscan"`` (default), ``"scalar"``, ``"reference"``, ``"auto"``,
        or any name in :data:`BACKEND_FACTORIES` (``"tiled"``, ``"gpu"``,
        ``"fpga"``, ``"simd"``, the baseline comparators, ...).
    dtype:
        Score cell width for the vector kernels (``np.int16`` mirrors the
        paper's 16-bit SIMD lanes and is overflow-checked, ``np.int32``
        default).
    traceback_cutoff:
        DP-cell threshold below which traceback solves one full block;
        larger values trade memory for fewer recursion levels.
    backend_opts:
        Extra constructor options for delegated backends (``threads``,
        ``tile``, ``k_pe``, ...); options a backend does not accept are
        dropped.
    """

    def __init__(
        self,
        scheme: AlignmentScheme | None = None,
        backend: str = "rowscan",
        dtype=np.int32,
        traceback_cutoff: int = DEFAULT_BLOCK_CUTOFF,
        **backend_opts,
    ):
        from repro.core.backend import available_backends

        self.scheme = scheme if scheme is not None else default_scheme()
        self.backend = check_in(backend, available_backends(), "backend")
        self.dtype = np.dtype(dtype)
        self.traceback_cutoff = int(traceback_cutoff)
        self.backend_opts = backend_opts
        self._delegates: dict = {}
        if self.traceback_cutoff <= 0:
            raise ValidationError("traceback_cutoff must be positive")

    # -- dispatch plumbing -------------------------------------------------
    @classmethod
    def capabilities(cls):
        """Capabilities of the frontend's default (``rowscan``) mode."""
        from repro.core.backend import _INLINE_CAPS

        return _INLINE_CAPS["rowscan"]

    def _delegate(self, name: str):
        """The resolved Backend instance for a non-inline name (memoized)."""
        inst = self._delegates.get(name)
        if inst is None:
            from repro.core.backend import create_backend

            inst = create_backend(name, self.scheme, **self.backend_opts)
            self._delegates[name] = inst
        return inst

    def _pick(self, pairs: int, extent: int, need_traceback: bool = False) -> str:
        """Resolve ``auto`` for one workload shape (identity otherwise)."""
        if self.backend != "auto":
            return self.backend
        from repro.core.backend import select_backend

        return select_backend(
            self.scheme, pairs=pairs, extent=extent, need_traceback=need_traceback
        )

    # -- single pair -------------------------------------------------------
    def score(self, query, subject) -> int:
        """Optimal alignment score of one pair (linear space)."""
        q, s = encode(query), encode(subject)
        backend = self._pick(pairs=1, extent=max(q.size, s.size))
        if backend == "rowscan":
            return score_rowscan(q, s, self.scheme, dtype=self.dtype)
        if backend == "scalar":
            return fill_matrix(q, s, self.scheme)[4]
        if backend == "reference":
            return score_reference(q, s, self.scheme)
        return int(self._delegate(backend).score(q, s))

    def banded_score(self, query, subject, band: int, widen: bool = False) -> int:
        """Band-constrained score (``|j − i| ≤ band``; global/semiglobal).

        Routes through :func:`repro.core.banded.banded_score`; the resolved
        backend must declare the ``banded`` capability (the staged inline
        strategies do — all of them share the one generated banded kernel).
        """
        from repro.core.backend import capability_matrix
        from repro.core.banded import banded_score as _banded_score

        q, s = encode(query), encode(subject)
        backend = self._pick(pairs=1, extent=max(q.size, s.size))
        if not capability_matrix()[backend].banded:
            raise ValidationError(
                f"backend {backend!r} does not support banded scoring"
            )
        return _banded_score(q, s, self.scheme, band, widen=widen)

    def align(self, query, subject) -> AlignmentResult:
        """Optimal alignment (score + gapped strings), linear space."""
        q, s = encode(query), encode(subject)
        backend = self._pick(
            pairs=1, extent=max(q.size, s.size), need_traceback=True
        )
        if backend == "reference":
            return align_reference(q, s, self.scheme)
        if backend in _INLINE:
            return align_linear_space(q, s, self.scheme, cutoff=self.traceback_cutoff)
        delegate = self._delegate(backend)
        if delegate.capabilities().supports_traceback:
            return delegate.align(q, s)
        # Score-only targets: the backend-independent linear-space traceback
        # produces the identical optimum (all score paths share one oracle).
        return align_linear_space(q, s, self.scheme, cutoff=self.traceback_cutoff)

    # -- batches ------------------------------------------------------------
    def score_batch(self, queries, subjects) -> np.ndarray:
        """Scores for many independent pairs.

        Pairs whose shapes repeat are grouped and computed in SIMD lanes by
        one kernel invocation per (n, m) group — the paper's inter-sequence
        vectorization; singleton shapes fall back to the row-sweep path,
        like the paper's scalar fallback when fewer than ``l`` submatrices
        are available.  (The grouping logic lives in
        :mod:`repro.engine.batching`; the engine adds thread-pooled
        execution and plan caching on top of the same buckets.)
        """
        if len(queries) != len(subjects):
            raise ValidationError("queries and subjects must pair up")
        enc_q = [encode(q) for q in queries]
        enc_s = [encode(s) for s in subjects]
        out = np.empty(len(enc_q), dtype=np.int64)
        if not enc_q:
            return out
        extent = max(max(q.size for q in enc_q), max(s.size for s in enc_s))
        backend = self._pick(pairs=len(enc_q), extent=extent)
        if backend in ("scalar", "reference"):
            for k, (q, s) in enumerate(zip(enc_q, enc_s)):
                out[k] = self.score(q, s)
            return out
        if backend not in _INLINE:
            return self._delegate(backend).score_batch(enc_q, enc_s)

        from repro.engine.batching import group_by_shape

        for bucket in group_by_shape(enc_q, enc_s):
            if len(bucket.indices) == 1:
                k = bucket.indices[0]
                out[k] = score_rowscan(enc_q[k], enc_s[k], self.scheme, dtype=self.dtype)
                continue
            out[bucket.indices] = score_lanes(
                bucket.queries, bucket.subjects, self.scheme, dtype=self.dtype
            )
        return out

    def align_batch(self, queries, subjects) -> list[AlignmentResult]:
        """Full alignments for many pairs, each equal to :meth:`align`.

        The inline traceback strategies align the batch as lane stacks
        (:func:`~repro.core.traceback.align_pairs`); other backends align
        pair by pair.
        """
        if len(queries) != len(subjects):
            raise ValidationError("queries and subjects must pair up")
        if self.backend in LANE_TRACEBACK:
            return align_pairs(
                [encode(q) for q in queries],
                [encode(s) for s in subjects],
                self.scheme,
                cutoff=self.traceback_cutoff,
            )
        return [self.align(q, s) for q, s in zip(queries, subjects)]

    def __repr__(self):
        at = self.scheme.alignment_type.value
        gaps = "affine" if self.scheme.scoring.is_affine else "linear"
        return f"Aligner({at}, {gaps}, backend={self.backend!r}, dtype={self.dtype})"

"""SIMD lane presets and batched short-read alignment (paper §IV-A, §V).

The paper vectorizes with 16-bit scores inside SIMD lanes: AVX2 holds 16
lanes, AVX512 holds 32.  Here a "lane" is one row of a NumPy batch axis —
NumPy ufuncs dispatch to the host's actual vector units, so lane count and
score width remain the meaningful knobs.  Differential-score overflow
safety (§IV-A) is enforced per block by the kernel drivers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.aligner import register_backend
from repro.core.kernels import score_lanes, score_rowscan
from repro.core.scoring import default_scheme, max_block_differential
from repro.core.types import AlignmentScheme
from repro.util.checks import ValidationError, check_positive
from repro.util.encoding import encode

__all__ = ["SimdPreset", "AVX2", "AVX512", "SCALAR_PRESET", "SimdBatchAligner"]


@dataclass(frozen=True)
class SimdPreset:
    """An instruction-set preset: lane count and score width."""

    name: str
    lanes: int
    dtype: object

    def max_safe_extent(self, scheme: AlignmentScheme) -> int:
        """Largest sequence extent whose differential scores fit the lanes.

        Implements the §IV-A bound: the extreme positive differential is an
        all-match diagonal, the extreme negative a worst-mismatch diagonal
        or a full-edge gap run.
        """
        limit = 2**13 if np.dtype(self.dtype) == np.int16 else 2**29
        lo, hi = 1, 1 << 30
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if max_block_differential(scheme.scoring, mid) < limit:
                lo = mid
            else:
                hi = mid - 1
        return lo


#: The paper's vector configurations (§V: "16 bit scores within a SIMD lane").
AVX2 = SimdPreset("AVX2", lanes=16, dtype=np.int16)
AVX512 = SimdPreset("AVX512", lanes=32, dtype=np.int16)
SCALAR_PRESET = SimdPreset("CPU", lanes=1, dtype=np.int32)


@register_backend("simd")
class SimdBatchAligner:
    """Inter-sequence vectorized batch aligner for equal-length pairs.

    Pairs are processed in blocks of ``preset.lanes``; a trailing partial
    block falls back to the scalar row-sweep (the paper's fallback when
    fewer than ``l`` work items are queued).
    """

    def __init__(self, scheme: AlignmentScheme | None = None, preset: SimdPreset = AVX2):
        self.scheme = scheme if scheme is not None else default_scheme()
        self.preset = preset
        check_positive(preset.lanes, "lanes")

    @classmethod
    def capabilities(cls):
        from repro.core.backend import BackendCapabilities

        return BackendCapabilities(
            name="simd",
            kind="cpu",
            lane_batching=True,
            batch_only=True,  # no single-pair entry; extent-bounded presets
            banded=True,
            dtypes=("int16", "int32"),
            base_rank=1,
        )

    def score_batch(self, queries: np.ndarray, subjects: np.ndarray) -> np.ndarray:
        """Scores for (count, n) queries against (count, m) subjects."""
        q = np.ascontiguousarray(queries, dtype=np.uint8)
        s = np.ascontiguousarray(subjects, dtype=np.uint8)
        if q.ndim != 2 or s.ndim != 2 or q.shape[0] != s.shape[0]:
            raise ValidationError("expected (count, n) and (count, m) batches")
        count = q.shape[0]
        extent = max(q.shape[1], s.shape[1])
        if extent > self.preset.max_safe_extent(self.scheme):
            raise ValidationError(
                f"{self.preset.name} lanes ({np.dtype(self.preset.dtype).name}) "
                f"overflow at extent {extent}; split into smaller blocks"
            )
        lanes = self.preset.lanes
        out = np.empty(count, dtype=np.int64)
        full = count - count % lanes if lanes > 1 else 0
        for off in range(0, full, lanes):
            out[off : off + lanes] = score_lanes(
                q[off : off + lanes], s[off : off + lanes], self.scheme, dtype=self.preset.dtype
            )
        for k in range(full, count):
            out[k] = score_rowscan(q[k], s[k], self.scheme, dtype=np.int32)
        return out

    def score_pairs(self, pairs) -> np.ndarray:
        """Scores for a list of (query, subject) pairs of equal shapes."""
        qs = np.stack([encode(q) for q, _ in pairs])
        ss = np.stack([encode(s) for _, s in pairs])
        return self.score_batch(qs, ss)

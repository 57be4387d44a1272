"""Shape-bucketed request batching (paper §IV-A inter-sequence regime).

A batch of independent pair requests is grouped by DP extent ``(n, m)``:
pairs sharing a shape relax together in SIMD lanes of one kernel
invocation, exactly the paper's "blocks that consist of rows from
independent submatrices".  This generalises the grouping logic that used
to live inside ``Aligner.score_batch`` so the frontend, the adapters, and
the execution engine all share one bucketing implementation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.engine.stages import Batch, Request
from repro.util.checks import ValidationError, check_positive
from repro.util.encoding import encode

__all__ = [
    "ShapeBucket",
    "ShapeBatcher",
    "encode_pairs",
    "group_by_shape",
]


@dataclass
class ShapeBucket:
    """All requests of one DP extent, stacked for lane execution."""

    shape: tuple[int, int]
    indices: np.ndarray  # positions in the original request order
    queries: np.ndarray  # (k, n) uint8 codes
    subjects: np.ndarray  # (k, m) uint8 codes

    def __len__(self) -> int:
        return len(self.indices)

    @property
    def cells(self) -> int:
        return len(self.indices) * self.shape[0] * self.shape[1]


def encode_pairs(queries, subjects) -> tuple[list, list]:
    """Encode and pair-validate a request batch."""
    if len(queries) != len(subjects):
        raise ValidationError("queries and subjects must pair up")
    return [encode(q) for q in queries], [encode(s) for s in subjects]


def group_by_shape(enc_q: list, enc_s: list) -> list[ShapeBucket]:
    """Bucket encoded pairs by (n, m); buckets keep first-seen order."""
    groups: dict = {}
    for k, (q, s) in enumerate(zip(enc_q, enc_s)):
        groups.setdefault((q.size, s.size), []).append(k)
    out = []
    for shape, members in groups.items():
        idx = np.asarray(members, dtype=np.intp)
        out.append(
            ShapeBucket(
                shape=shape,
                indices=idx,
                queries=np.stack([enc_q[k] for k in members]),
                subjects=np.stack([enc_s[k] for k in members]),
            )
        )
    return out


class ShapeBatcher:
    """Incremental shape-bucketed batcher stage (streaming counterpart of
    :func:`group_by_shape`).

    Requests accumulate per DP extent ``(n, m)``; a bucket reaching
    ``max_lanes`` members is emitted as a full lane :class:`Batch`, and
    :meth:`flush` drains the partial remainders (the pipeline calls it at
    end-of-stream and under backpressure).  ``max_lanes=1`` degrades to
    pass-through batching for backends without lane support.

    ``key_of`` optionally refines the bucket key with a per-request value
    (e.g. the effective verify band): requests then only share a batch when
    both the shape and ``key_of(request)`` agree, which is what keeps
    same-band lanes uniform for band-specialized kernels.
    """

    def __init__(self, max_lanes: int = 64, key_of=None):
        self.max_lanes = check_positive(max_lanes, "max_lanes")
        self.key_of = key_of
        self._groups: dict = {}
        self._pending = 0

    def _key(self, request: Request, shape: tuple[int, int]):
        return shape if self.key_of is None else (shape, self.key_of(request))

    def add(self, request: Request):
        shape = (int(request.query.size), int(request.subject.size))
        key = self._key(request, shape)
        group = self._groups.setdefault(key, [])
        group.append(request)
        self._pending += 1
        if len(group) >= self.max_lanes:
            del self._groups[key]
            self._pending -= len(group)
            return (Batch(shape=shape, requests=group),)
        return ()

    def flush(self):
        out = []
        for group in self._groups.values():
            first = group[0]
            shape = (int(first.query.size), int(first.subject.size))
            out.append(Batch(shape=shape, requests=group))
        self._groups.clear()
        self._pending = 0
        return out

    @property
    def pending(self) -> int:
        """Requests buffered in partial buckets (backpressure signal)."""
        return self._pending


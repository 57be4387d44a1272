"""Alignment reconstruction: block traceback, linear-space recursion, lanes.

Score-only alignment runs in O(min(n,m)) space; reconstructing the actual
alignment needs the moves of the whole DP matrix.  Segments of at most
``cutoff`` DP cells (:data:`DEFAULT_BLOCK_CUTOFF`, enough for read-scale
problems such as 150 × 300) are solved as one *block*: one fill storing a
uint8 move flag per cell (:func:`repro.core.blockdp.fill_block`), then one
walk from the end cell.  Larger segments — long genomes — use the
divide-and-conquer traceback of the paper (§III-A, Hirschberg [24]):
recursively find optimal midpoints of the DP matrix (at the cost of at most
doubling the number of relaxed cells) until the pieces fit the cutoff.

* linear gap models: classic Hirschberg midpoint recursion;
* affine gap models: Myers–Miller — the midpoint candidates include a
  vertical gap *crossing* the split row, handled by recursing with
  ``top_open`` boundary flags and a start-in-E walker, so one gap-open is
  never charged twice;
* local / semi-global: reduced to a global segment first — a forward sweep
  finds the end cell, a backward (reversed) sweep finds the start cell, and
  the segment in between is aligned globally.  End/start reduction is exact
  because optimal local/semi-global alignments never begin or end inside a
  gap (trimming a boundary gap never lowers the score).

**Lanes.** :func:`align_lanes` aligns L pairs as one lane stack, the way
the score kernels relax many pairs at once: the forward sweep, the
reversed-prefix sweep and the block fill each relax every lane in one pass
(lanes of different extents are padded at the end, which no cell inside a
lane's extents can see); only the walk is per lane.  A single pair is the
``L = 1`` case — :func:`align_linear_space` is exactly that call — so a
lane's result equals the single-pair alignment with the same cutoff,
co-optimal tie order included.  Segments above the cutoff leave the stack
for the per-pair recursion.

Walker note: the fill keeps F in scan form, F(i,j) = max over k<j of
H′(i,k)+open+(j−k)·extend where H′ excludes F itself.  Whenever the textbook
open-branch equality fails because H(i,j−1) came from F, the extension
branch F(i,j−1)+extend is at least as good (open ≤ 0), so the walker always
finds a valid move.
"""

from __future__ import annotations

import numpy as np

from repro.core.blockdp import (
    DIAG,
    E_CLOSE,
    E_STAY,
    F_CLOSE,
    F_STAY,
    H_E,
    H_F,
    LEFT,
    UP,
    fill_block,
    sweep_best,
    sweep_last_rows,
)
from repro.core.types import AlignmentResult, AlignmentScheme, AlignmentType, Scoring
from repro.core.scoring import global_scheme
from repro.util.checks import ValidationError, check_sequence
from repro.util.encoding import CODE_TO_CHAR

__all__ = [
    "align_block",
    "align_lanes",
    "align_linear_space",
    "align_pairs",
    "lane_parts",
    "DEFAULT_BLOCK_CUTOFF",
    "LANES",
]

#: Up to this many DP cells a segment is solved by one block fill + walk;
#: larger segments recurse (Hirschberg / Myers–Miller) down to it.
DEFAULT_BLOCK_CUTOFF = 1 << 16

#: Lane-stack width of :func:`lane_parts` (the engine's default lanes).
LANES = 64

_ST_H, _ST_E, _ST_F = 0, 1, 2

# Traceback edit operations.
_OP_DIAG, _OP_UP, _OP_LEFT = 0, 1, 2

_GAP = np.uint8(ord("-"))


def _walk_block(
    flags: bytes, stride: int, n: int, m: int, affine: bool, start_state: int
) -> list:
    """Walk one lane's move flags from ``(n, m)`` back to ``(0, 0)``.

    ``flags`` is the lane's flattened ``fill_block`` output (row stride
    ``stride``).  Returns edit ops in forward order.  ``start_state`` lets
    Myers–Miller enter mid-gap (E state) when a vertical gap crosses the
    block boundary.
    """
    i, j = n, m
    ops: list = []
    if affine:
        state = start_state
        while i > 0 or j > 0:
            if state == _ST_H:
                if i == 0:
                    ops.append(_OP_LEFT)
                    j -= 1
                elif j == 0:
                    ops.append(_OP_UP)
                    i -= 1
                else:
                    f = flags[i * stride + j]
                    if f & DIAG:
                        ops.append(_OP_DIAG)
                        i -= 1
                        j -= 1
                    elif f & H_E:
                        state = _ST_E
                    elif f & H_F:
                        state = _ST_F
                    else:  # pragma: no cover - matrix inconsistency
                        raise AssertionError("traceback: no valid H move")
            elif state == _ST_E:
                # Prefer extension: if the walker closed a gap that the H
                # cell above immediately re-opens, consecutive UP ops would
                # merge into one run and rescore above the optimum — which
                # is impossible, hence extension-first is always safe.
                # (E_STAY is only ever set below row 1.)
                ops.append(_OP_UP)
                f = flags[i * stride + j]
                if not f & E_STAY:
                    assert f & E_CLOSE, "traceback: bad E close"
                    state = _ST_H
                i -= 1
            else:  # _ST_F; F_STAY is only ever set right of column 1
                ops.append(_OP_LEFT)
                f = flags[i * stride + j]
                if not f & F_STAY:
                    assert f & F_CLOSE, "traceback: bad F close"
                    state = _ST_H
                j -= 1
    else:
        while i > 0 or j > 0:
            if i == 0:
                ops.append(_OP_LEFT)
                j -= 1
            elif j == 0:
                ops.append(_OP_UP)
                i -= 1
            else:
                f = flags[i * stride + j]
                if f & DIAG:
                    ops.append(_OP_DIAG)
                    i -= 1
                    j -= 1
                elif f & UP:
                    ops.append(_OP_UP)
                    i -= 1
                else:
                    assert f & LEFT, "traceback: no valid move"
                    ops.append(_OP_LEFT)
                    j -= 1
    ops.reverse()
    return ops


def _pad(seqs: list) -> np.ndarray:
    """Stack 1-D code arrays into an ``(L, max_len)`` array, end-padded."""
    out = np.zeros((len(seqs), max((x.size for x in seqs), default=0)), dtype=np.uint8)
    for row, x in zip(out, seqs):
        row[: x.size] = x
    return out


def _block_lanes(
    qsegs: list, ssegs: list, scoring: Scoring, top_open=False, bottom_open=False
) -> list:
    """Edit scripts of global blocks: one lane fill, then one walk per lane."""
    out: list = [None] * len(qsegs)
    filled = []
    for k, (q, s) in enumerate(zip(qsegs, ssegs)):
        if q.size == 0:
            out[k] = [_OP_LEFT] * s.size
        elif s.size == 0:
            out[k] = [_OP_UP] * q.size
        else:
            filled.append(k)
    if filled:
        affine = scoring.gaps.is_affine
        flags = fill_block(
            _pad([qsegs[k] for k in filled]),
            _pad([ssegs[k] for k in filled]),
            scoring,
            top_open=top_open,
        )
        stride = flags.shape[2]
        start = _ST_E if (bottom_open and affine) else _ST_H
        for lane, k in enumerate(filled):
            out[k] = _walk_block(
                flags[lane].tobytes(), stride, qsegs[k].size, ssegs[k].size, affine, start
            )
    return out


def _hirschberg_ops(
    q,
    s,
    scoring: Scoring,
    top_open: bool = False,
    bottom_open: bool = False,
    cutoff: int = DEFAULT_BLOCK_CUTOFF,
) -> list:
    """Divide-and-conquer edit script for a global (sub-)alignment."""
    n, m = len(q), len(s)
    if n <= 1 or m <= 1 or (n + 1) * (m + 1) <= cutoff:
        return _block_lanes([q], [s], scoring, top_open, bottom_open)[0]

    h = n // 2
    gaps = scoring.gaps
    fwd_H, fwd_E = sweep_last_rows(q[:h], s, scoring, top_open=top_open)
    bwd_H, bwd_E = sweep_last_rows(
        q[h:][::-1], s[::-1], scoring, top_open=bottom_open
    )
    join_H = fwd_H + bwd_H[::-1]
    if gaps.is_affine:
        join_E = fwd_E + bwd_E[::-1] - gaps.open  # one gap-open charged once
        jH = int(np.argmax(join_H))
        jE = int(np.argmax(join_E))
        if join_E[jE] > join_H[jH]:
            j = jE
            left = _hirschberg_ops(q[:h], s[:j], scoring, top_open, True, cutoff)
            right = _hirschberg_ops(q[h:], s[j:], scoring, True, bottom_open, cutoff)
            return left + right
        j = jH
    else:
        j = int(np.argmax(join_H))
    left = _hirschberg_ops(q[:h], s[:j], scoring, top_open, False, cutoff)
    right = _hirschberg_ops(q[h:], s[j:], scoring, False, bottom_open, cutoff)
    return left + right


def _aligned(codes: np.ndarray, present: np.ndarray) -> str:
    """One aligned row: ``codes`` in order where ``present``, ``-`` elsewhere."""
    chars = np.append(CODE_TO_CHAR[codes], _GAP)  # index −1 is the gap
    return chars[np.where(present, np.cumsum(present) - 1, -1)].tobytes().decode("ascii")


def _ops_to_strings(ops, q, s) -> tuple[str, str]:
    ops = np.asarray(ops, dtype=np.uint8)
    has_q = ops != _OP_LEFT
    has_s = ops != _OP_UP
    assert np.count_nonzero(has_q) == len(q) and np.count_nonzero(has_s) == len(s), (
        "edit script does not cover the segment"
    )
    return _aligned(q, has_q), _aligned(s, has_s)


def _segments(qs: list, ss: list, scheme: AlignmentScheme) -> list:
    """Each lane's aligned segment ``(i0, i1, j0, j1)`` and optimum score."""
    n = np.array([q.size for q in qs], dtype=np.int64)
    m = np.array([s.size for s in ss], dtype=np.int64)
    at = scheme.alignment_type
    track = {AlignmentType.GLOBAL: "corner", AlignmentType.LOCAL: "all"}.get(at, "border")
    zero_init = at is not AlignmentType.GLOBAL
    score, (i1, j1) = sweep_best(_pad(qs), _pad(ss), scheme, zero_init, track, n=n, m=m)
    if at is AlignmentType.GLOBAL:
        return [(0, int(a), 0, int(b), int(c)) for a, b, c in zip(n, m, score)]
    # The start cell: the best global alignment of the reversed prefixes
    # ending on the same kind of cell (anywhere for local, on the top/left
    # border for semi-global).
    out = [(0, 0, 0, 0, 0)] * len(qs)
    live = [k for k in range(len(qs)) if at is not AlignmentType.LOCAL or score[k] > 0]
    if live:
        _, (a, b) = sweep_best(
            _pad([qs[k][: i1[k]][::-1] for k in live]),
            _pad([ss[k][: j1[k]][::-1] for k in live]),
            global_scheme(scheme.scoring),
            zero_init=False,
            track=track,
            n=i1[live],
            m=j1[live],
        )
        for r, k in enumerate(live):
            e, f = int(i1[k]), int(j1[k])
            out[k] = (e - int(a[r]), e, f - int(b[r]), f, int(score[k]))
    return out


def align_lanes(
    queries,
    subjects,
    scheme: AlignmentScheme,
    cutoff: int | None = DEFAULT_BLOCK_CUTOFF,
) -> list[AlignmentResult]:
    """Optimal alignments of L pairs, relaxed together as one lane stack.

    Pairs may differ in shape (the stack is end-padded); the sweeps and the
    block fill run once for all lanes, so the stack's memory is one uint8
    flag per padded cell of the lanes solved as blocks.  Lane ``k`` equals
    ``align_linear_space(queries[k], subjects[k], scheme, cutoff)``.
    Callers bound L (see :func:`lane_parts`).
    """
    qs = [check_sequence(np.asarray(q, dtype=np.uint8), "query") for q in queries]
    ss = [check_sequence(np.asarray(s, dtype=np.uint8), "subject") for s in subjects]
    if len(qs) != len(ss):
        raise ValidationError("queries and subjects must pair up")
    if not qs:
        return []
    scoring = scheme.scoring
    segs = _segments(qs, ss, scheme)
    ops: list = [[] for _ in qs]
    block = []
    for k, (i0, i1, j0, j1, _score) in enumerate(segs):
        cells = (i1 - i0 + 1) * (j1 - j0 + 1)
        if i1 == i0 and j1 == j0:
            continue
        eff_cutoff = cutoff if cutoff is not None else cells
        if eff_cutoff <= 0:
            raise ValidationError("cutoff must be positive")
        if cells <= eff_cutoff or i1 - i0 <= 1 or j1 - j0 <= 1:
            block.append(k)
        else:
            ops[k] = _hirschberg_ops(qs[k][i0:i1], ss[k][j0:j1], scoring, cutoff=eff_cutoff)
    walked = _block_lanes(
        [qs[k][segs[k][0] : segs[k][1]] for k in block],
        [ss[k][segs[k][2] : segs[k][3]] for k in block],
        scoring,
    )
    for k, lane_ops in zip(block, walked):
        ops[k] = lane_ops

    kind = "hirschberg" if cutoff is not None else "block"
    results = []
    for k, (i0, i1, j0, j1, score) in enumerate(segs):
        qa, sa = _ops_to_strings(ops[k], qs[k][i0:i1], ss[k][j0:j1])
        results.append(
            AlignmentResult(
                score=score,
                query_aligned=qa,
                subject_aligned=sa,
                query_start=i0,
                query_end=i1,
                subject_start=j0,
                subject_end=j1,
                meta={"traceback": kind},
            )
        )
    return results


def lane_parts(queries, subjects, width: int = LANES) -> list[list[int]]:
    """Cut pair indices into lane stacks of at most ``width`` lanes.

    Pairs are sorted by shape, and a stack is closed before padding would
    make up more than half of its cells, so one long pair never drags
    short ones through its extent.
    """
    order = sorted(range(len(queries)), key=lambda k: (len(queries[k]), len(subjects[k])))
    parts: list = []
    part: list = []
    real = n_max = m_max = 0
    for k in order:
        n, m = len(queries[k]) + 1, len(subjects[k]) + 1
        if part and (
            len(part) == width
            or 2 * (real + n * m) < (len(part) + 1) * max(n_max, n) * max(m_max, m)
        ):
            parts.append(part)
            part, real, n_max, m_max = [], 0, 0, 0
        part.append(k)
        real += n * m
        n_max, m_max = max(n_max, n), max(m_max, m)
    if part:
        parts.append(part)
    return parts


def align_pairs(
    queries,
    subjects,
    scheme: AlignmentScheme,
    cutoff: int | None = DEFAULT_BLOCK_CUTOFF,
) -> list[AlignmentResult]:
    """:func:`align_lanes` over any number of pairs, in input order.

    The stacks are :func:`lane_parts`, so each pads little and its flag
    memory stays bounded.
    """
    out: list = [None] * len(queries)
    for part in lane_parts(queries, subjects):
        for k, res in zip(
            part,
            align_lanes([queries[k] for k in part], [subjects[k] for k in part], scheme, cutoff),
        ):
            out[k] = res
    return out


def align_block(query, subject, scheme: AlignmentScheme) -> AlignmentResult:
    """Alignment via one full-matrix block (O(n·m) flag memory, fast rows).

    Suitable for short/medium inputs; long inputs should use
    :func:`align_linear_space`.
    """
    return align_linear_space(query, subject, scheme, cutoff=None)


def align_linear_space(
    query,
    subject,
    scheme: AlignmentScheme,
    cutoff: int | None = DEFAULT_BLOCK_CUTOFF,
) -> AlignmentResult:
    """Optimal alignment of one pair (the one-lane :func:`align_lanes`).

    ``cutoff`` is the block size (in DP cells) up to which one full-matrix
    block is walked; larger segments recurse in linear space.  ``None``
    means solve everything as one block.
    """
    return align_lanes([query], [subject], scheme, cutoff)[0]

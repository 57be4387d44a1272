"""Alignment reconstruction: one-pass blocks, linear-space recursion, lanes.

Score-only alignment runs in O(min(n,m)) space; reconstructing the actual
alignment needs the moves of the whole DP matrix.  A pair whose whole
``(n+1)·(m+1)`` matrix fits ``cutoff`` cells (:data:`DEFAULT_BLOCK_CUTOFF`,
enough for read-scale problems such as 150 × 300) is solved in *one pass*:
one fill of its matrix under the scheme's own borders storing a uint8 move
flag per cell (:func:`repro.core.blockdp.fill_best`), which also finds the
end cell, then one walk back from it.  Larger pairs — long genomes — use
the divide-and-conquer traceback of the paper (§III-A, Hirschberg [24]):
recursively find optimal midpoints of the DP matrix (at the cost of at most
doubling the number of relaxed cells) until the pieces fit the cutoff.

* linear gap models: classic Hirschberg midpoint recursion;
* affine gap models: Myers–Miller — the midpoint candidates include a
  vertical gap *crossing* the split row, handled by recursing with
  ``top_open`` boundary flags and a start-in-E walker, so one gap-open is
  never charged twice;
* local / semi-global above the cutoff: reduced to a global segment first
  — a forward sweep finds the end cell, a backward (reversed) sweep finds
  the start cell, and the segment in between is aligned globally.
  End/start reduction is exact because optimal local/semi-global
  alignments never begin or end inside a gap (trimming a boundary gap
  never lowers the score).

**Tie rule.**  Scores and end cells never depend on the path taken: the
end cell is the first optimum in row-major order for local alignments,
for semi-global ones the topmost optimum of the last column unless the
last row holds a strictly better one (then its leftmost), and ``(n, m)``
for global ones (:func:`repro.core.blockdp.sweep_best`).  From there the
walk prefers the diagonal, then the vertical gap (E), then the horizontal
gap (F); a gap state extends before it closes.  A one-pass walk stops on
the first H-state cell that may start an alignment: the top or left
border (semi-global), or a cell on the local ν = 0 floor or the border
(local); a global walk goes on along the border to ``(0, 0)``.  So among
co-optimal alignments ending at the end cell, a local one is the shortest
the walk's move order reaches.  Lanes above the cutoff keep the segment
rule: the start cell is the reversed-prefix sweep's first optimum, and
the recursion's walks between.

**Lanes.** :func:`align_lanes` aligns L pairs as one lane stack, the way
the score kernels relax many pairs at once: the one-pass fill relaxes
every lane whose whole matrix fits the cutoff in one pass (lanes of
different extents are padded at the end, which no cell inside a lane's
extents can see), and only the walk is per lane.  Lanes above the cutoff
run the forward and reversed-prefix sweeps as one stack too, then leave
it for the per-pair recursion.  Which path a lane takes depends on its
own extents only, and a single pair is the ``L = 1`` case —
:func:`align_linear_space` is exactly that call — so a lane's result
equals the single-pair alignment with the same cutoff, co-optimal tie
order included.  The one-pass fill runs a stack in lane groups whose
padded flags stay within :data:`FILL_FLAG_BYTES`, one group after another,
so flag memory stays bounded without cutting the caller's stack.

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
    START,
    UP,
    fill_best,
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
    "FILL_FLAG_BYTES",
]

#: Up to this many DP cells a pair is solved by one fill + walk of its
#: whole matrix, and a segment by one block; larger ones recurse
#: (Hirschberg / Myers–Miller) down to it.
DEFAULT_BLOCK_CUTOFF = 1 << 16

#: Lane-stack width of :func:`lane_parts` (the engine's default lanes).
LANES = 64

#: The one-pass fill of a stack runs in lane groups, one after another,
#: whose padded flags stay within this (23 lanes of 150 × 300): flag memory
#: is bounded per call, whatever the stack's width.
FILL_FLAG_BYTES = 1 << 20

_ST_H, _ST_E, _ST_F = 0, 1, 2

# Traceback edit operations.
_OP_DIAG, _OP_UP, _OP_LEFT = 0, 1, 2

_GAP = np.uint8(ord("-"))


def _walk_block(
    flags: bytes,
    stride: int,
    i: int,
    j: int,
    affine: bool,
    start_state: int = _ST_H,
    to_corner: bool = True,
) -> tuple[list, int, int]:
    """Walk one lane's move flags back from the end cell ``(i, j)``.

    ``flags`` is the lane's flattened fill output (row stride ``stride``).
    The H state stops on the top or left border, or on a ``START`` cell
    (local fills only); ``to_corner`` then adds the forced border moves to
    ``(0, 0)``, as a global block needs.  Returns the edit ops in forward
    order and the cell the alignment starts at.  ``start_state`` lets
    Myers–Miller enter mid-gap (E state) when a vertical gap crosses the
    block boundary.
    """
    ops: list = []
    if affine:
        state = start_state
        while state != _ST_H or (i > 0 and j > 0):
            if state == _ST_H:
                f = flags[i * stride + j]
                if f & START:
                    break
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
        while i > 0 and j > 0:
            f = flags[i * stride + j]
            if f & START:
                break
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
    if to_corner:
        ops += [_OP_UP] * i + [_OP_LEFT] * j
        i = j = 0
    ops.reverse()
    return ops, i, j


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
            )[0]
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


def _flag_groups(qs: list, ss: list) -> list[list[int]]:
    """Cut lanes, in order, into runs whose padded one-pass flags stay
    within :data:`FILL_FLAG_BYTES` (a run always takes its first lane)."""
    groups: list = []
    n_max = m_max = 0
    for k, (q, s) in enumerate(zip(qs, ss)):
        n, m = q.size + 1, s.size + 1
        if not groups or (len(groups[-1]) + 1) * max(n_max, n) * max(m_max, m) > FILL_FLAG_BYTES:
            groups.append([])
            n_max = m_max = 0
        groups[-1].append(k)
        n_max, m_max = max(n_max, n), max(m_max, m)
    return groups


def _one_pass(qs: list, ss: list, scheme: AlignmentScheme) -> list:
    """``(i0, i1, j0, j1, score, ops)`` of lanes solved on their whole matrix:
    one :func:`fill_best` fill per flag group, then one walk per lane from
    its end cell."""
    affine = scheme.scoring.gaps.is_affine
    at = scheme.alignment_type
    to_corner = at is AlignmentType.GLOBAL
    out: list = [None] * len(qs)
    for group in _flag_groups(qs, ss):
        n = np.array([qs[k].size for k in group], dtype=np.int64)
        m = np.array([ss[k].size for k in group], dtype=np.int64)
        flags, score, (bi, bj) = fill_best(
            _pad([qs[k] for k in group]), _pad([ss[k] for k in group]), scheme, n=n, m=m
        )
        stride = flags.shape[2]
        for lane, k in enumerate(group):
            i1, j1, best = int(bi[lane]), int(bj[lane]), int(score[lane])
            if at is AlignmentType.LOCAL and best <= 0:
                out[k] = (0, 0, 0, 0, best, [])
                continue
            ops, i0, j0 = _walk_block(
                flags[lane].tobytes(), stride, i1, j1, affine, to_corner=to_corner
            )
            out[k] = (i0, i1, j0, j1, best, ops)
    return out


def _recursive(qs: list, ss: list, scheme: AlignmentScheme, cutoff: int) -> list:
    """``(i0, i1, j0, j1, score, ops)`` of lanes above the cutoff: segment
    sweeps, then a global block or the Hirschberg recursion per segment."""
    if cutoff <= 0:
        raise ValidationError("cutoff must be positive")
    scoring = scheme.scoring
    out = []
    block = []
    for k, (i0, i1, j0, j1, score) in enumerate(_segments(qs, ss, scheme)):
        if i1 - i0 <= 1 or j1 - j0 <= 1 or (i1 - i0 + 1) * (j1 - j0 + 1) <= cutoff:
            block.append(k)
            ops = None
        else:
            ops = _hirschberg_ops(qs[k][i0:i1], ss[k][j0:j1], scoring, cutoff=cutoff)
        out.append((i0, i1, j0, j1, score, ops))
    walked = _block_lanes(
        [qs[k][out[k][0] : out[k][1]] for k in block],
        [ss[k][out[k][2] : out[k][3]] for k in block],
        scoring,
    )
    for k, ops in zip(block, walked):
        out[k] = out[k][:5] + (ops,)
    return out


def align_lanes(
    queries,
    subjects,
    scheme: AlignmentScheme,
    cutoff: int | None = DEFAULT_BLOCK_CUTOFF,
) -> list[AlignmentResult]:
    """Optimal alignments of L pairs, relaxed together as one lane stack.

    Pairs may differ in shape (the stack is end-padded).  Lanes whose whole
    ``(n + 1) · (m + 1)`` matrix fits ``cutoff`` (every lane when it is
    ``None``) are solved in one pass: one flag fill of all of them under
    the scheme's own borders, then one walk per lane from its end cell.
    The rest find their segment by two sweeps and recurse (Hirschberg /
    Myers–Miller) down to ``cutoff``.  Which path a lane takes depends on
    its own extents only, so lane ``k`` equals
    ``align_linear_space(queries[k], subjects[k], scheme, cutoff)``.  Flag
    memory is one uint8 per padded cell of the lanes solved as blocks;
    callers bound L (see :func:`lane_parts`).
    """
    qs = [check_sequence(np.asarray(q, dtype=np.uint8), "query") for q in queries]
    ss = [check_sequence(np.asarray(s, dtype=np.uint8), "subject") for s in subjects]
    if len(qs) != len(ss):
        raise ValidationError("queries and subjects must pair up")
    whole = [cutoff is None or (q.size + 1) * (s.size + 1) <= cutoff for q, s in zip(qs, ss)]
    solved: list = [None] * len(qs)
    for one_pass in (True, False):
        ks = [k for k, fits in enumerate(whole) if fits is one_pass]
        if ks:
            lanes = ([qs[k] for k in ks], [ss[k] for k in ks], scheme)
            got = _one_pass(*lanes) if one_pass else _recursive(*lanes, cutoff)
            for k, lane in zip(ks, got):
                solved[k] = lane

    kind = "hirschberg" if cutoff is not None else "block"
    results = []
    for k, (i0, i1, j0, j1, score, ops) in enumerate(solved):
        qa, sa = _ops_to_strings(ops, qs[k][i0:i1], ss[k][j0:j1])
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

"""Vectorized full-matrix block DP over lane stacks (traceback substrate).

Row-sweep recurrences used by the traceback of :mod:`repro.core.traceback`.
Unlike the reference in :mod:`repro.core.recurrence` (plain loops, oracle)
every row is filled with NumPy using the same prefix-scan closure as the
staged kernels.  :func:`fill_block` and :func:`sweep_best` take a *lane
stack*: ``(L, n)`` queries against ``(L, m)`` subjects, relaxed together
row by row; a single pair is the ``L = 1`` case (1-D inputs are promoted
and the results unwrapped).  :func:`sweep_last_rows` sweeps one pair for
the Hirschberg recursion on the same row recurrence.

Lanes of different extents share one stack by padding at the end: the
cell ``(i, j)`` depends only on cells ``(≤ i, ≤ j)``, so a lane's cells
inside its own extents never see the padding, and per-lane extents pick
its border and end cells.

The Myers–Miller *boundary flag* ``top_open`` says a vertical (query) gap
is already open when the block is entered: the column-0 border charges
extension only, no second gap-open.

:func:`fill_block` keeps no score matrices: it stores per cell the uint8
move flags the traceback walker tests (``DIAG``/``H_E``/``H_F`` for the H
state, ``E_STAY``/``E_CLOSE``/``F_STAY``/``F_CLOSE`` for the gap states;
linear gaps use ``DIAG``/``UP``/``LEFT``).  Per-row arithmetic is int64.
"""

from __future__ import annotations

import numpy as np

from repro.core.types import NEG_INF, AlignmentScheme, AlignmentType, Scoring

__all__ = [
    "fill_block",
    "sweep_last_rows",
    "sweep_best",
    "DIAG",
    "UP",
    "LEFT",
    "H_E",
    "H_F",
    "E_STAY",
    "E_CLOSE",
    "F_STAY",
    "F_CLOSE",
]

#: Move flags of one cell.  Linear gaps: H came from the diagonal / above /
#: the left.  Affine gaps: H equals the diagonal move, E or F; E (F) equals
#: its own extension from above (the left) or an open from H.
DIAG, UP, LEFT = 1, 2, 4
H_E, H_F = 2, 4
E_STAY, E_CLOSE, F_STAY, F_CLOSE = 8, 16, 32, 64

#: Below every reachable score: masks padded cells out of an argmax.
_MASKED = np.iinfo(np.int64).min


def _stack(qs, ss) -> tuple[np.ndarray, np.ndarray, bool]:
    qs = np.asarray(qs, dtype=np.uint8)
    ss = np.asarray(ss, dtype=np.uint8)
    single = qs.ndim == 1
    return np.atleast_2d(qs), np.atleast_2d(ss), single


def _rows(qs, ss, scoring: Scoring, *, zero_init=False, top_open=False, clamp=False):
    """Yield ``(H, E, F, diag)`` for every row ``i = 0 … n`` of a lane stack.

    Rows are fresh ``(L, m + 1)`` int64 arrays (callers may keep the
    previous one).  ``diag`` is ``H[i−1, j−1] + σ`` for ``j ≥ 1`` (``None``
    on row 0); ``E``/``F`` are ``None`` for linear gaps.  ``zero_init``
    selects zero borders (local/semi-global starts) instead of gap-penalised
    ones; ``clamp`` applies the local ν = 0 floor.  F is kept in scan form
    (open-from-H′ closure; see :mod:`repro.core.traceback`).
    """
    L, n = qs.shape
    m = ss.shape[1]
    # σ(c, s[l, j]) for every code c, built once per sweep; a row's lookup
    # is then one gather of L contiguous rows.
    profile = scoring.subst.table.astype(np.int64)[:, ss]
    lanes = np.arange(L)
    idx = np.arange(m + 1, dtype=np.int64)
    gaps = scoring.gaps
    if not gaps.is_affine:
        if top_open:
            # A linear model has no open cost; the flag is meaningless.
            raise ValueError("top_open requires an affine gap model")
        g = gaps.gap
        ramp = idx * -g
        H = np.zeros((L, m + 1), dtype=np.int64)
        if not zero_init:
            H += g * idx
        yield H, None, None, None
        for i in range(1, n + 1):
            diag = H[:, :m] + profile[qs[:, i - 1], lanes]
            cand = np.empty_like(H)
            cand[:, 0] = 0 if zero_init else g * i
            np.maximum(diag, H[:, 1:] + g, out=cand[:, 1:])
            if clamp:
                np.maximum(cand, 0, out=cand)
            cand += ramp
            H = np.maximum.accumulate(cand, axis=1)
            H -= ramp
            yield H, None, None, diag
        return

    go, ge = gaps.open, gaps.extend
    ramp = idx * -ge
    H = np.zeros((L, m + 1), dtype=np.int64)
    if not zero_init:
        H[:, 1:] = go + ge * idx[1:]
    E = np.full((L, m + 1), NEG_INF, dtype=np.int64)
    if top_open:
        E[:, 0] = 0  # the pre-opened gap, closed at the corner
    F = np.full((L, m + 1), NEG_INF, dtype=np.int64)
    yield H, E, F, None
    for i in range(1, n + 1):
        gap_border = ge * i if top_open else go + ge * i
        Enew = np.empty_like(E)
        Enew[:, 0] = gap_border
        np.maximum(E[:, 1:] + ge, H[:, 1:] + (go + ge), out=Enew[:, 1:])
        diag = H[:, :m] + profile[qs[:, i - 1], lanes]
        cand = np.empty_like(H)
        cand[:, 0] = 0 if zero_init else gap_border
        np.maximum(diag, Enew[:, 1:], out=cand[:, 1:])
        if clamp:
            np.maximum(cand, 0, out=cand)
        scan = np.maximum.accumulate(cand + ramp, axis=1)
        F = np.empty_like(H)
        F[:, 0] = NEG_INF
        np.add(scan[:, :m], go - ramp[1:], out=F[:, 1:])
        H = np.maximum(cand, F)
        E = Enew
        yield H, E, F, diag


def fill_block(qs, ss, scoring: Scoring, top_open: bool = False) -> np.ndarray:
    """Move flags of global-init blocks: ``(L, n + 1, m + 1)`` uint8.

    Each flag bit is one equality the traceback walker tests (see the
    module docs); border cells carry no flags (the walker's border moves
    are forced).  A 1-D pair returns its ``(n + 1, m + 1)`` flags.
    """
    qs, ss, single = _stack(qs, ss)
    L, n = qs.shape
    m = ss.shape[1]
    flags = np.zeros((L, n + 1, m + 1), dtype=np.uint8)
    gaps = scoring.gaps
    rows = _rows(qs, ss, scoring, top_open=top_open)
    Hp, Ep, _F, _diag = next(rows)
    for i, (H, E, F, diag) in enumerate(rows, start=1):
        out = flags[:, i, 1:]
        Hc = H[:, 1:]
        out[...] = Hc == diag
        if gaps.is_affine:
            go, ge = gaps.open, gaps.extend
            out |= (Hc == E[:, 1:]) * np.uint8(H_E)
            out |= (Hc == F[:, 1:]) * np.uint8(H_F)
            if i > 1:
                out |= (E[:, 1:] == Ep[:, 1:] + ge) * np.uint8(E_STAY)
            out |= (E[:, 1:] == Hp[:, 1:] + (go + ge)) * np.uint8(E_CLOSE)
            out[:, 1:] |= (F[:, 2:] == F[:, 1:m] + ge) * np.uint8(F_STAY)
            out |= (F[:, 1:] == H[:, :m] + (go + ge)) * np.uint8(F_CLOSE)
        else:
            g = gaps.gap
            out |= (Hc == Hp[:, 1:] + g) * np.uint8(UP)
            out |= (Hc == H[:, :m] + g) * np.uint8(LEFT)
        Hp, Ep = H, E
    return flags[0] if single else flags


def sweep_last_rows(q, s, scoring: Scoring, top_open: bool = False):
    """Last DP row(s) of one pair's global-init block in O(m) space.

    Returns ``(H_last, E_last)`` (``E_last`` is ``None`` for linear gaps).
    This is the forward/backward pass of the Hirschberg midpoint search.
    """
    qs, ss, _ = _stack(q, s)
    for H, E, _F, _diag in _rows(qs, ss, scoring, top_open=top_open):
        pass
    return H[0], (None if E is None else E[0])


def sweep_best(
    qs,
    ss,
    scheme: AlignmentScheme,
    zero_init: bool,
    track: str,
    n=None,
    m=None,
):
    """Linear-space sweep tracking each lane's optimum cell position.

    ``zero_init`` selects zero borders (local/semi-global starts) versus
    global gap-penalised borders.  ``track`` is ``"all"`` (argmax over every
    cell — local), ``"border"`` (last row ∪ last column — semi-global) or
    ``"corner"`` (the cell ``(n, m)`` — global).  Local clamping (ν = 0) is
    applied iff the scheme is LOCAL.  ``n``/``m`` are the per-lane extents
    of a padded stack (default: the stack's own).

    Ties resolve to the first optimal cell in row-major order, except that
    ``"border"`` scans the last column row by row before the last row.
    Returns ``(best_score, (i, j))`` in matrix coordinates: ints for a 1-D
    pair, ``(L,)`` int64 arrays for a stack.
    """
    if track not in ("all", "border", "corner"):
        raise ValueError(f"unknown track {track!r}")
    qs, ss, single = _stack(qs, ss)
    L = qs.shape[0]
    n_max, m_max = qs.shape[1], ss.shape[1]
    n = np.full(L, n_max, dtype=np.int64) if n is None else np.asarray(n, np.int64)
    m = np.full(L, m_max, dtype=np.int64) if m is None else np.asarray(m, np.int64)
    lanes = np.arange(L)
    # Columns past a lane's width are padding: masked out of row argmaxes.
    pad = np.arange(m_max + 1) > m[:, None] if (m != m_max).any() else None
    # Per row, the candidates each lane's optimum is picked from once the
    # sweep is done: the row maximum ("all") or the last-column cell.
    val = np.empty((n_max + 1, L), dtype=np.int64)
    arg = np.empty((n_max + 1, L), dtype=np.int64) if track == "all" else None
    ends = set(n.tolist()) if track == "border" else ()
    end_val = np.empty(L, dtype=np.int64)
    end_arg = np.empty(L, dtype=np.int64)

    def row_max(H):
        row = H if pad is None else np.where(pad, _MASKED, H)
        j = np.argmax(row, axis=1)
        return row[lanes, j], j

    clamp = scheme.alignment_type is AlignmentType.LOCAL
    rows = _rows(qs, ss, scheme.scoring, zero_init=zero_init, clamp=clamp)
    for i, (H, _E, _F, _diag) in enumerate(rows):
        if track == "all":
            val[i], arg[i] = row_max(H)
        else:
            val[i] = H[lanes, m]
            if i in ends:
                v, j = row_max(H)
                last = n == i
                end_val[last], end_arg[last] = v[last], j[last]
    if track == "corner":
        best, bi, bj = val[n, lanes], n, m
    else:
        # Rows past a lane's end are padding; argmax keeps the first
        # (topmost) optimum, as a strict-improvement scan would.
        val[np.arange(n_max + 1)[:, None] > n] = _MASKED
        bi = np.argmax(val, axis=0)
        best = val[bi, lanes]
        bj = arg[bi, lanes] if track == "all" else m
        if track == "border":
            win = end_val > best
            best = np.where(win, end_val, best)
            bi = np.where(win, n, bi)
            bj = np.where(win, end_arg, bj)
    if single:
        return int(best[0]), (int(bi[0]), int(bj[0]))
    return best, (bi, bj)

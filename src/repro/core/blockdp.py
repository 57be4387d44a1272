"""Vectorized full-matrix block DP over lane stacks (traceback substrate).

Row-sweep recurrences used by the traceback of :mod:`repro.core.traceback`.
Unlike the reference in :mod:`repro.core.recurrence` (plain loops, oracle)
every row is filled with NumPy using the same prefix-scan closure as the
staged kernels.  :func:`fill_block`, :func:`fill_best` and
:func:`sweep_best` take a *lane stack*: ``(L, n)`` queries against
``(L, m)`` subjects, relaxed together row by row; a single pair is the
``L = 1`` case (1-D inputs are promoted and the results unwrapped, and a
one-lane stack runs on 1-D rows).  :func:`sweep_last_rows` sweeps one
pair for the Hirschberg recursion on the same row recurrence.

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
linear gaps use ``DIAG``/``UP``/``LEFT``).  :func:`fill_best` is the same
fill under a scheme's own borders (zero for local and semi-global, the
ν = 0 floor for local, whose floor cells get the ``START`` bit) that also
tracks each lane's end cell by :func:`sweep_best`'s rule, so read-scale
traceback needs one pass.  Per-row arithmetic is int64; the rows are
regrouped in small chunks for the flag tests and end-cell scans.
"""

from __future__ import annotations

import numpy as np

from repro.core.types import NEG_INF, AlignmentScheme, AlignmentType, Scoring

__all__ = [
    "fill_block",
    "fill_best",
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
    "START",
]

#: Move flags of one cell.  Linear gaps: H came from the diagonal / above /
#: the left.  Affine gaps: H equals the diagonal move, E or F; E (F) equals
#: its own extension from above (the left) or an open from H.
DIAG, UP, LEFT = 1, 2, 4
H_E, H_F = 2, 4
E_STAY, E_CLOSE, F_STAY, F_CLOSE = 8, 16, 32, 64
#: Local fills only: H sits on the ν = 0 floor, so an alignment may start
#: at this cell (the one-pass walk stops on it).
START = 128

#: Below every reachable score: masks padded cells out of an argmax.
_MASKED = np.iinfo(np.int64).min

#: Rows are stacked in chunks of at most this many int64 cells, so flag
#: tests and end-cell scans cost a few NumPy calls per chunk, not per row.
_CHUNK_CELLS = 1 << 14


def _stack(qs, ss) -> tuple[np.ndarray, np.ndarray, bool]:
    qs = np.asarray(qs, dtype=np.uint8)
    ss = np.asarray(ss, dtype=np.uint8)
    single = qs.ndim == 1
    return np.atleast_2d(qs), np.atleast_2d(ss), single


def _rows(qs, ss, scoring: Scoring, *, zero_init=False, top_open=False, clamp=False):
    """Yield ``(H, E, F, diag)`` for every row ``i = 0 … n`` of a lane stack.

    ``qs``/``ss`` are an ``(L, n)``/``(L, m)`` stack or one pair's 1-D
    codes; rows are fresh ``(L, m + 1)`` (one pair: ``(m + 1,)``) int64
    arrays, so callers may keep the previous one.  One pair runs on 1-D
    rows, where a row's σ lookup is a view and NumPy's per-call cost is
    lowest.  ``diag`` is ``H[i−1, j−1] + σ`` for ``j ≥ 1`` (``None`` on row
    0); ``E``/``F`` are ``None`` for linear gaps.  ``zero_init`` selects
    zero borders (local/semi-global starts) instead of gap-penalised ones;
    ``clamp`` applies the local ν = 0 floor.  F is kept in scan form
    (open-from-H′ closure; see :mod:`repro.core.traceback`).
    """
    n, m = qs.shape[-1], ss.shape[-1]
    shape = ss.shape[:-1] + (m + 1,)
    # σ(c, s[l, j]) for every code c, built once per sweep; a row's lookup
    # is then one gather of L contiguous rows (a view for one pair).
    profile = scoring.subst.table.astype(np.int64)[:, ss]
    codes = qs.T
    lanes = (np.arange(qs.shape[0]),) if qs.ndim == 2 else ()
    idx = np.arange(m + 1, dtype=np.int64)
    gaps = scoring.gaps
    if not gaps.is_affine:
        if top_open:
            # A linear model has no open cost; the flag is meaningless.
            raise ValueError("top_open requires an affine gap model")
        g = gaps.gap
        ramp = idx * -g
        H = np.zeros(shape, dtype=np.int64)
        if not zero_init:
            H += g * idx
        yield H, None, None, None
        for i in range(1, n + 1):
            diag = H[..., :m] + profile[(codes[i - 1],) + lanes]
            cand = np.empty_like(H)
            cand[..., 0] = 0 if zero_init else g * i
            np.maximum(diag, H[..., 1:] + g, out=cand[..., 1:])
            if clamp:
                np.maximum(cand, 0, out=cand)
            cand += ramp
            H = np.maximum.accumulate(cand, axis=-1)
            H -= ramp
            yield H, None, None, diag
        return

    go, ge = gaps.open, gaps.extend
    ramp = idx * -ge
    H = np.zeros(shape, dtype=np.int64)
    if not zero_init:
        H[..., 1:] = go + ge * idx[1:]
    E = np.full(shape, NEG_INF, dtype=np.int64)
    if top_open:
        E[..., 0] = 0  # the pre-opened gap, closed at the corner
    F = np.full(shape, NEG_INF, dtype=np.int64)
    yield H, E, F, None
    for i in range(1, n + 1):
        gap_border = ge * i if top_open else go + ge * i
        Enew = np.empty_like(E)
        Enew[..., 0] = gap_border
        np.maximum(E[..., 1:] + ge, H[..., 1:] + (go + ge), out=Enew[..., 1:])
        diag = H[..., :m] + profile[(codes[i - 1],) + lanes]
        cand = np.empty_like(H)
        cand[..., 0] = 0 if zero_init else gap_border
        np.maximum(diag, Enew[..., 1:], out=cand[..., 1:])
        if clamp:
            np.maximum(cand, 0, out=cand)
        scan = np.maximum.accumulate(cand + ramp, axis=-1)
        F = np.empty_like(H)
        F[..., 0] = NEG_INF
        np.add(scan[..., :m], go - ramp[1:], out=F[..., 1:])
        H = np.maximum(cand, F)
        E = Enew
        yield H, E, F, diag


def _pair_rows(qs, ss, scoring: Scoring, **kwargs):
    """:func:`_rows` of a stack, on 1-D rows when it holds one lane."""
    if qs.shape[0] == 1:
        return _rows(qs[0], ss[0], scoring, **kwargs)
    return _rows(qs, ss, scoring, **kwargs)


def _chunks(rows, L: int, H, E, size: int):
    """Regroup ``_rows``' rows after ``(H, E)`` into chunks of ``size`` rows.

    Yields ``(i0, H, E, F, diag)`` for rows ``i0 … i0 + C − 1``: ``H``/``E``
    are ``(L, C + 1, m + 1)`` with the row above the chunk first, ``F`` and
    ``diag`` hold the chunk's own ``C`` rows (``E``/``F`` are ``None`` for
    linear gaps).  The buffers are reused: a chunk is valid until the next
    one is requested.
    """
    w = H.shape[-1]
    Hs = np.empty((L, size + 1, w), dtype=np.int64)
    ds = np.empty((L, size, w - 1), dtype=np.int64)
    affine = E is not None
    if affine:
        Es = np.empty_like(Hs)
        Fs = np.empty((L, size, w), dtype=np.int64)
        Es[:, 0] = E
    Hs[:, 0] = H
    i0, c = 1, 0
    for H, E, F, diag in rows:
        c += 1
        Hs[:, c] = H
        ds[:, c - 1] = diag
        if affine:
            Es[:, c] = E
            Fs[:, c - 1] = F
        if c == size:
            yield i0, Hs, Es if affine else None, Fs if affine else None, ds
            Hs[:, 0] = Hs[:, c]
            if affine:
                Es[:, 0] = Es[:, c]
            i0, c = i0 + c, 0
    if c:
        yield (
            i0,
            Hs[:, : c + 1],
            Es[:, : c + 1] if affine else None,
            Fs[:, :c] if affine else None,
            ds[:, :c],
        )


def _flag_chunk(out, H, E, F, diag, gaps, first: bool, clamp: bool) -> None:
    """Write the move flags of one :func:`_chunks` chunk into ``out``.

    ``out`` is the chunk's ``(L, C, m)`` slice of interior cells.  ``first``
    says the chunk starts at row 1 (no E extension from the border row);
    ``clamp`` adds the local START bit.
    """
    Hc = H[:, 1:, 1:]
    np.equal(Hc, diag, out=out)
    if gaps.is_affine:
        go, ge = gaps.open, gaps.extend
        Ec, Fc = E[:, 1:, 1:], F[:, :, 1:]
        out |= (Hc == Ec) * np.uint8(H_E)
        out |= (Hc == Fc) * np.uint8(H_F)
        stay = Ec == E[:, :-1, 1:] + ge
        if first:
            stay[:, 0] = False
        out |= stay * np.uint8(E_STAY)
        out |= (Ec == H[:, :-1, 1:] + (go + ge)) * np.uint8(E_CLOSE)
        # F_STAY is only ever set right of column 1.
        out[:, :, 1:] |= (Fc[:, :, 1:] == Fc[:, :, :-1] + ge) * np.uint8(F_STAY)
        out |= (Fc == H[:, 1:, :-1] + (go + ge)) * np.uint8(F_CLOSE)
    else:
        g = gaps.gap
        out |= (Hc == H[:, :-1, 1:] + g) * np.uint8(UP)
        out |= (Hc == H[:, 1:, :-1] + g) * np.uint8(LEFT)
    if clamp:
        out |= (Hc == 0) * np.uint8(START)


class _EndCells:
    """Each lane's optimum cell, fed the rows of a sweep in order.

    ``track`` is ``"all"``, ``"border"`` or ``"corner"`` (see
    :func:`sweep_best`, whose tie rule this is); ``n``/``m`` are the lanes'
    extents inside a stack of ``n_max`` rows and ``m_max`` columns.
    """

    def __init__(self, track: str, n, m, n_max: int, m_max: int):
        if track not in ("all", "border", "corner"):
            raise ValueError(f"unknown track {track!r}")
        L = n.size
        self.track, self.n, self.m = track, n, m
        self.lanes = np.arange(L)
        # Columns past a lane's width are padding: masked out of row argmaxes.
        self.pad = np.arange(m_max + 1) > m[:, None] if (m != m_max).any() else None
        # Per row, the candidates each lane's optimum is picked from once the
        # sweep is done: the row maximum ("all") or the last-column cell.
        self.val = np.empty((n_max + 1, L), dtype=np.int64)
        self.arg = np.empty((n_max + 1, L), dtype=np.int64) if track == "all" else None
        self.ends = sorted(set(n.tolist())) if track == "border" else []
        self.end_val = np.empty(L, dtype=np.int64)
        self.end_arg = np.empty(L, dtype=np.int64)

    def _row_max(self, H):
        """Masked maxima and their first columns of ``(L, C, ·)`` rows."""
        rows = H if self.pad is None else np.where(self.pad[:, None], _MASKED, H)
        j = np.argmax(rows, axis=2)
        return np.take_along_axis(rows, j[:, :, None], axis=2)[:, :, 0], j

    def feed(self, i0: int, H) -> None:
        """Rows ``i0 … i0 + C − 1`` of the stack, as ``(L, C, m_max + 1)``."""
        C = H.shape[1]
        if self.track == "all":
            v, j = self._row_max(H)
            self.val[i0 : i0 + C], self.arg[i0 : i0 + C] = v.T, j.T
            return
        self.val[i0 : i0 + C] = H[self.lanes, :, self.m].T
        for i in self.ends:
            if i0 <= i < i0 + C:
                v, j = self._row_max(H[:, i - i0 : i - i0 + 1])
                last = self.n == i
                self.end_val[last], self.end_arg[last] = v[last, 0], j[last, 0]

    def result(self):
        """``(best, (i, j))``: ``(L,)`` int64 arrays."""
        lanes, n, m, val = self.lanes, self.n, self.m, self.val
        if self.track == "corner":
            return val[n, lanes], (n, m)
        # Rows past a lane's end are padding; argmax keeps the first
        # (topmost) optimum, as a strict-improvement scan would.
        val[np.arange(val.shape[0])[:, None] > n] = _MASKED
        bi = np.argmax(val, axis=0)
        best = val[bi, lanes]
        bj = self.arg[bi, lanes] if self.track == "all" else m
        if self.track == "border":
            win = self.end_val > best
            best = np.where(win, self.end_val, best)
            bi = np.where(win, n, bi)
            bj = np.where(win, self.end_arg, bj)
        return best, (bi, bj)


def _extents(qs, ss, n, m):
    L = qs.shape[0]
    n = np.full(L, qs.shape[1], dtype=np.int64) if n is None else np.asarray(n, np.int64)
    m = np.full(L, ss.shape[1], dtype=np.int64) if m is None else np.asarray(m, np.int64)
    return n, m


def _fill(qs, ss, scoring: Scoring, track=None, *, zero_init=False, top_open=False, clamp=False):
    """Move flags ``(L, n + 1, m + 1)`` of a lane stack; ``track`` (an
    :class:`_EndCells`) is fed every row on the way."""
    L, n = qs.shape
    m = ss.shape[1]
    flags = np.zeros((L, n + 1, m + 1), dtype=np.uint8)
    rows = _pair_rows(qs, ss, scoring, zero_init=zero_init, top_open=top_open, clamp=clamp)
    H, E, _F, _diag = next(rows)
    if track is not None:
        track.feed(0, H.reshape(L, 1, m + 1))
    size = max(1, min(n, _CHUNK_CELLS // (L * (m + 1))))
    for i0, Hs, Es, Fs, ds in _chunks(rows, L, H, E, size):
        C = ds.shape[1]
        _flag_chunk(flags[:, i0 : i0 + C, 1:], Hs, Es, Fs, ds, scoring.gaps, i0 == 1, clamp)
        if track is not None:
            track.feed(i0, Hs[:, 1:])
    return flags


def fill_block(qs, ss, scoring: Scoring, top_open: bool = False) -> np.ndarray:
    """Move flags of global-init blocks: ``(L, n + 1, m + 1)`` uint8.

    Each flag bit is one equality the traceback walker tests (see the
    module docs); border cells carry no flags (the walker's border moves
    are forced).  A 1-D pair returns its ``(n + 1, m + 1)`` flags.
    """
    qs, ss, single = _stack(qs, ss)
    flags = _fill(qs, ss, scoring, top_open=top_open)
    return flags[0] if single else flags


def fill_best(qs, ss, scheme: AlignmentScheme, n=None, m=None):
    """One-pass block: each lane's whole matrix under the scheme's borders.

    One fill stores the move flags of the scheme's own matrix — zero
    borders for local and semi-global, plus the ν = 0 floor and its
    ``START`` bit for local, gap borders for global — and tracks each
    lane's optimum as :func:`sweep_best` does (same tie rule), so scores
    and end cells equal a separate sweep's.  ``n``/``m`` are the per-lane
    extents of a padded stack.  Returns ``(flags, best, (i, j))``.
    """
    qs, ss, _ = _stack(qs, ss)
    n, m = _extents(qs, ss, n, m)
    at = scheme.alignment_type
    track = {AlignmentType.GLOBAL: "corner", AlignmentType.LOCAL: "all"}.get(at, "border")
    ends = _EndCells(track, n, m, qs.shape[1], ss.shape[1])
    flags = _fill(
        qs,
        ss,
        scheme.scoring,
        ends,
        zero_init=at is not AlignmentType.GLOBAL,
        clamp=at is AlignmentType.LOCAL,
    )
    best, cell = ends.result()
    return flags, best, cell


def sweep_last_rows(q, s, scoring: Scoring, top_open: bool = False):
    """Last DP row(s) of one pair's global-init block in O(m) space.

    Returns ``(H_last, E_last)`` (``E_last`` is ``None`` for linear gaps).
    This is the forward/backward pass of the Hirschberg midpoint search.
    """
    q = np.asarray(q, dtype=np.uint8)
    s = np.asarray(s, dtype=np.uint8)
    for H, E, _F, _diag in _rows(q, s, scoring, top_open=top_open):
        pass
    return H, E


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
    qs, ss, single = _stack(qs, ss)
    n, m = _extents(qs, ss, n, m)
    ends = _EndCells(track, n, m, qs.shape[1], ss.shape[1])
    clamp = scheme.alignment_type is AlignmentType.LOCAL
    L, w = ss.shape[0], ss.shape[1] + 1
    rows = _pair_rows(qs, ss, scheme.scoring, zero_init=zero_init, clamp=clamp)
    H, E, _F, _diag = next(rows)
    ends.feed(0, H.reshape(L, 1, w))
    size = max(1, min(qs.shape[1], _CHUNK_CELLS // (L * w)))
    for i0, Hs, _E, _F, _d in _chunks(rows, L, H, E, size):
        ends.feed(i0, Hs[:, 1:])
    best, (bi, bj) = ends.result()
    if single:
        return int(best[0]), (int(bi[0]), int(bj[0]))
    return best, (bi, bj)

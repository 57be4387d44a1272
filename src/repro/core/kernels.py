"""Specialized score kernels (the library's hot paths).

Each public entry builds (or fetches from the kernel cache) a kernel
specialized on one :class:`~repro.core.types.AlignmentScheme`:

* :func:`score_rowscan` — single pair, vectorized row sweep with the
  prefix-scan closure of the horizontal dependency; linear space; the
  paper's intra-sequence long-genome path.
* :func:`score_lanes` — a batch of independent equal-length pairs computed
  in SIMD lanes (leading array axis); the paper's inter-sequence NGS-read
  path (§IV-A: "blocks that consist of rows from independent submatrices").
  With a ``floor``, lanes stop being relaxed once a proven upper bound on
  their score, ``max(out, max_j H[i, j] + max(σ_max, 0)·(n − i))``, drops
  below it: lanes that reach the floor keep exact scores, the others
  return a value in ``[exact, floor)`` (proof in its docstring).
* :func:`fill_matrix` — scalar-dialect full-matrix fill, optionally with
  predecessor tracking; the non-vectorized CPU variant and the innermost
  traceback level.

Both vector drivers share ONE traced kernel per scheme: every read keeps a
leading ellipsis, so the same generated source runs 1-D rows and 2-D lane
blocks.  This is the reproduction of the paper's "52% of the code is shared
among all variants" claim at kernel granularity.  The kernel sweeps a row
range ``(i0, i1]`` and finishes the matrix only when ``i1 == n``: the
unfloored drivers make one ``(0, n]`` call, the floored lane driver
sweeps in slabs of :data:`BOUND_SLAB` rows with a bound check and a lane
compaction between them — the same generated kernel either way.
"""

from __future__ import annotations

import numpy as np

from repro.core.accessors import RowView, SequenceView, TableView
from repro.core.recurrence import best_cell  # re-used for scalar extraction
from repro.core.relax import (
    PrevScores,
    nu_of,
    relax_cell,
    relax_row_candidates,
    subst_expr,
)
from repro.core.types import (
    NEG_INF,
    PRED_NO_GAP,
    PRED_SKIP_Q,
    PRED_SKIP_S,
    AlignmentScheme,
    AlignmentType,
)
from repro.stage import (
    Const,
    KernelBuilder,
    ReduceMax,
    ScanMax,
    Select,
    Shift,
    as_expr,
    banded_rows,
    build_kernel,
    global_kernel_cache,
    smax,
    smin,
)
from repro.util.checks import ValidationError, check_sequence

__all__ = [
    "build_rowscan_kernel",
    "build_banded_kernel",
    "build_matrix_kernel",
    "score_rowscan",
    "score_lanes",
    "sweep_lanes",
    "fill_matrix",
    "pick_neg_inf",
]


def pick_neg_inf(dtype) -> int:
    """A −∞ sentinel that survives ramp arithmetic without overflow."""
    dtype = np.dtype(dtype)
    if dtype == np.int16:
        return -(2**13)  # leaves 2**13 of headroom inside a block
    if dtype == np.int32:
        return NEG_INF  # -2**30, headroom 2**29
    if dtype == np.int64:
        return NEG_INF
    raise ValidationError(f"unsupported score dtype {dtype}")


# ---------------------------------------------------------------------------
# Kernel construction (trace time)
# ---------------------------------------------------------------------------


def build_rowscan_kernel(scheme: AlignmentScheme):
    """Trace + specialize + compile the row-sweep score kernel for ``scheme``.

    Generated signature::

        kernel(q, s, n, m, i0, i1, H, C, ramp, out, ninf [, E] [, table])

    The call relaxes rows ``i0+1 .. i1`` of the ``n``-row matrix: ``H``
    (and ``E``) enter holding row ``i0`` and leave holding row ``i1``,
    borders use the absolute row index, and the end-of-matrix epilogue
    runs only when ``i1 == n`` — so one ``(0, n]`` call is the whole sweep
    and consecutive calls over adjacent ranges compose to it.
    ``H``/``C``/``E`` are scratch rows of logical length m+1 (with any
    number of leading lane axes), ``ramp`` is ``arange(m+1) * p`` in the
    score dtype, ``out`` receives the per-lane optimum.
    """
    affine = scheme.scoring.is_affine
    simple = scheme.scoring.subst.is_simple
    at = scheme.alignment_type
    gaps = scheme.scoring.gaps

    params = ["q", "s", "n", "m", "i0", "i1", "H", "C", "ramp", "out", "ninf"]
    if affine:
        params.append("E")
    if not simple:
        params.append("table")

    b = KernelBuilder(
        f"rowscan_{at.value}_{'affine' if affine else 'linear'}",
        params,
        docstring=f"specialized row-sweep score kernel: {scheme.cache_key()}",
    )
    n, m = b.var("n"), b.var("m")
    qv = SequenceView("q", n, lanes=True)
    H, C = RowView("H"), RowView("C")
    E = RowView("E") if affine else None
    table = TableView("table") if not simple else None
    ramp = b.var("ramp")
    ninf = b.var("ninf")
    srow = b.var("s")  # whole subject row(s); lanes broadcast against q cols

    i1 = b.var("i1")
    with b.loop("i", b.var("i0") + 1, i1 + 1) as i:
        qc = b.let(qv.col(i - 1), "qc")
        sub = b.let(subst_expr(scheme, qc, srow, table), "sub")
        hh = b.let(H.cells(0, m), "hh")  # H(i-1, 0..m-1), view
        ht = b.let(H.cells(1, m + 1), "ht")  # H(i-1, 1..m), view
        et = b.let(E.cells(1, m + 1), "et") if affine else None
        cand_tail, e_new = relax_row_candidates(b, scheme, hh, ht, et, sub)
        cand_tail = b.let(cand_tail, "cand")
        if affine:
            go, ge = gaps.open, gaps.extend
            E.put(b, 1, m + 1, e_new)
            E.put_at(b, 0, go + ge * i)  # matches the paper's E(i,0) border
        # Border H(i,0) depends on the alignment type — specialized here.
        if at is AlignmentType.GLOBAL:
            border = (go + ge * i) if affine else gaps.gap * i
        else:
            border = Const(0)
        C.put_at(b, 0, border)
        C.put(b, 1, m + 1, cand_tail)
        scan = b.let(ScanMax(C.whole() + ramp), "scan")
        if affine:
            f_row = Shift(scan, 1, ninf) + gaps.open - ramp
            H.put_whole(b, smax(C.whole(), f_row))
        else:
            H.put_whole(b, scan - ramp)
        # Optimum tracking — specialized per alignment type; for global
        # alignments nothing survives inside the loop.
        if at is AlignmentType.LOCAL:
            b.store("out", (Ellipsis,), smax(b.load("out", (Ellipsis,)), ReduceMax(H.whole())))
        elif at is AlignmentType.SEMIGLOBAL:
            b.store("out", (Ellipsis,), smax(b.load("out", (Ellipsis,)), H.at(m)))

    if at is not AlignmentType.LOCAL:
        with b.if_(i1.eq(n)):  # H holds the last row
            if at is AlignmentType.GLOBAL:
                b.store("out", (Ellipsis,), H.at(m))
            else:
                b.store(
                    "out", (Ellipsis,), smax(b.load("out", (Ellipsis,)), ReduceMax(H.whole()))
                )

    return build_kernel(b, dialect="vector")


def build_banded_kernel(scheme: AlignmentScheme, band: int):
    """Trace + specialize + compile the banded row-sweep kernel.

    The banded analogue of :func:`build_rowscan_kernel`, specialized on
    (scheme, band): rows are walked by the :func:`repro.stage.banded_rows`
    generator and each row only relaxes its ``[max(1, i−band),
    min(m, i+band)]`` window, with the same prefix-scan gap closure.
    Generated signature::

        kernel(q, s, n, m, H, C, ramp, out, ninf [, E] [, table])

    All reads keep a leading ellipsis, so the one kernel serves a single
    pair's 1-D rows (:func:`repro.core.banded.banded_score`) and a
    (lanes, m+1) row stack (:func:`repro.core.banded.banded_score_lanes`)
    alike: it is the only banded recurrence in the library.  Scores equal
    the masked full-DP oracle at every band: sentinel cells never dominate
    an in-band cell (every in-band cell carries a real diagonal-entry path
    value, and sentinel arithmetic only drives values further down), hence
    only band geometry decides the result.  ``n``/``m`` are declared Python
    ints, so the per-row window bounds compile to builtin ``max``/``min``.
    """
    at = scheme.alignment_type
    if at is AlignmentType.LOCAL:
        raise ValidationError("banded kernels support global and semiglobal schemes only")
    if band < 0:
        raise ValidationError(f"band must be >= 0, got {band}")
    affine = scheme.scoring.is_affine
    simple = scheme.scoring.subst.is_simple
    gaps = scheme.scoring.gaps
    semiglobal = at is AlignmentType.SEMIGLOBAL

    params = ["q", "s", "n", "m", "H", "C", "ramp", "out", "ninf"]
    if affine:
        params.append("E")
    if not simple:
        params.append("table")

    b = KernelBuilder(
        f"banded{band}_{at.value}_{'affine' if affine else 'linear'}",
        params,
        docstring=f"specialized banded row-sweep kernel: band={band} {scheme.cache_key()}",
        ints=("n", "m"),
    )
    n, m = b.var("n"), b.var("m")
    qv = SequenceView("q", n, lanes=True)
    H, C = RowView("H"), RowView("C")
    E = RowView("E") if affine else None
    table = TableView("table") if not simple else None
    ninf = b.var("ninf")
    if affine:
        go, ge = gaps.open, gaps.extend
    else:
        g = gaps.gap

    def ramp_cells(a, z):
        return b.load("ramp", (b.slice(a, z),))

    def row(i, lo, hi):
        qc = b.let(qv.col(i - 1), "qc")
        sw = b.let(b.load("s", (Ellipsis, b.slice(lo - 1, hi))), "sw")
        sub = b.let(subst_expr(scheme, qc, sw, table), "sub")
        hd = b.let(H.cells(lo - 1, hi), "hd")  # diagonal sources H(i-1, lo-1..hi-1)
        hv = b.let(H.cells(lo, hi + 1), "hv")  # vertical sources H(i-1, lo..hi)
        if affine:
            ew = b.let(smax(E.cells(lo, hi + 1) + ge, hv + go + ge), "ew")
            E.put(b, lo, hi + 1, ew)
            E.put_at(b, lo - 1, ninf)  # cell left of the band is dead
            cand = b.let(smax(hd + sub, ew), "cand")
        else:
            cand = b.let(smax(hd + sub, hv + g), "cand")
        C.put(b, lo, hi + 1, cand)
        # Border cell (i, 0) while column 0 is inside the band (i ≤ band);
        # once the window detaches from column 0, the cell left of the scan
        # range is out of band and must read as −∞.
        if semiglobal:
            border = Const(0)
        else:
            border = (go + ge * i) if affine else g * i
        if band >= 1:
            with b.if_(as_expr(i) <= band):
                C.put_at(b, 0, border)
            with b.else_():
                C.put_at(b, lo - 1, ninf)
        else:
            C.put_at(b, lo - 1, ninf)
        scan = b.let(ScanMax(C.cells(lo - 1, hi + 1) + ramp_cells(lo - 1, hi + 1)), "scan")
        if affine:
            f_row = Shift(scan, 1, ninf) + go - ramp_cells(lo - 1, hi + 1)
            H.put(b, lo - 1, hi + 1, smax(C.cells(lo - 1, hi + 1), f_row))
        else:
            H.put(b, lo - 1, hi + 1, scan - ramp_cells(lo - 1, hi + 1))
        with b.if_(as_expr(i) > band + 1):  # lo > 1: kill the cell left of the band
            H.put_at(b, lo - 1, ninf)
        if semiglobal:
            with b.if_(hi.eq(as_expr(m))):
                b.store("out", (Ellipsis,), smax(b.load("out", (Ellipsis,)), H.at(m)))

    banded_rows(b, n, m, band, row)

    if at is AlignmentType.GLOBAL:
        # A feasible band (≥ |n − m|) keeps row n inside the loop range.
        b.store("out", (Ellipsis,), H.at(m))
    else:
        # Free tails: the optimum may also end anywhere in the last row.
        lo_f = b.let(smax(1, b.var("n") - band), "lof")
        with b.if_(lo_f <= as_expr(m)):
            hi_f = b.let(smin(as_expr(m), b.var("n") + band), "hif")
            b.store(
                "out",
                (Ellipsis,),
                smax(b.load("out", (Ellipsis,)), ReduceMax(H.cells(lo_f - 1, hi_f + 1))),
            )

    return build_kernel(b, dialect="vector")


def build_matrix_kernel(scheme: AlignmentScheme, track_predecessor: bool = False):
    """Scalar-dialect full-matrix kernel (per-cell relaxation).

    Generated signature::

        kernel(q, s, n, m, H [, E, F] [, P] [, table])

    Matrices are (n+1)×(m+1) with pre-initialised borders.  ``P`` receives
    predecessor codes when traceback support is requested — when it is not,
    partial evaluation removes the predecessor computation entirely.
    """
    affine = scheme.scoring.is_affine
    simple = scheme.scoring.subst.is_simple

    params = ["q", "s", "n", "m", "H"]
    if affine:
        params += ["E", "F"]
    if track_predecessor:
        params.append("P")
    if not simple:
        params.append("table")

    b = KernelBuilder(
        f"matrix_{scheme.alignment_type.value}_{'affine' if affine else 'linear'}"
        + ("_tb" if track_predecessor else ""),
        params,
        docstring=f"specialized full-matrix kernel: {scheme.cache_key()}",
    )
    n, m = b.var("n"), b.var("m")
    table = TableView("table") if not simple else None

    nu = nu_of(scheme)
    with b.loop("i", 1, n + 1) as i:
        with b.loop("j", 1, m + 1) as j:
            prev = PrevScores(
                diag=b.load("H", (i - 1, j - 1)),
                up=b.load("H", (i - 1, j)),
                left=b.load("H", (i, j - 1)),
                e_prev=b.load("E", (i - 1, j)) if affine else None,
                f_prev=b.load("F", (i, j - 1)) if affine else None,
            )
            sub = b.let(
                subst_expr(scheme, b.load("q", (i - 1,)), b.load("s", (j - 1,)), table),
                "sub",
            )
            step = relax_cell(scheme, prev, sub, track_predecessor=False)
            if affine:
                # Bind E/F so the trees are computed once, then rebuild the
                # H update on the bound names (no CSE across stores).
                e = b.let(step.e, "e")
                f = b.let(step.f, "f")
                b.store("E", (i, j), e)
                b.store("F", (i, j), f)
                sgap, qgap = e, f
            else:
                g = scheme.scoring.gaps.gap
                sgap, qgap = prev.up + g, prev.left + g
            ng = b.let(prev.diag + sub, "ng")
            h = b.let(smax(ng, sgap, qgap, Const(nu)), "h")
            b.store("H", (i, j), h)
            if track_predecessor:
                pred = Select(
                    h.eq(ng),
                    Const(PRED_NO_GAP),
                    Select(h.eq(sgap), Const(PRED_SKIP_S), Const(PRED_SKIP_Q)),
                )
                b.store("P", (i, j), pred)

    return build_kernel(b, dialect="scalar")


def _cached(key, thunk):
    return global_kernel_cache.get_or_build(key, thunk)


# ---------------------------------------------------------------------------
# Drivers (runtime)
# ---------------------------------------------------------------------------


def _init_rows(scheme: AlignmentScheme, shape_head: tuple, m: int, dtype):
    """Allocate and initialise H/C/E row buffers and the ramp."""
    gaps = scheme.scoring.gaps
    at = scheme.alignment_type
    ninf = pick_neg_inf(dtype)
    idx = np.arange(m + 1, dtype=dtype)

    H = np.zeros(shape_head + (m + 1,), dtype=dtype)
    if at is AlignmentType.GLOBAL:
        if gaps.is_affine:
            H[...] = gaps.open + gaps.extend * idx
            H[..., 0] = 0
        else:
            H[...] = gaps.gap * idx
    C = np.empty_like(H)
    E = None
    if gaps.is_affine:
        E = np.full_like(H, ninf)
        p = -gaps.extend
    else:
        p = -gaps.gap
    ramp = (idx * p).astype(dtype)
    return H, C, E, ramp, ninf


def _check_headroom(scheme: AlignmentScheme, n: int, m: int, dtype):
    """Reject score widths that could overflow (paper §IV-A bound)."""
    dtype = np.dtype(dtype)
    if dtype == np.int64:
        return
    sub = scheme.scoring.subst
    gaps = scheme.scoring.gaps
    span = max(n, m)
    worst = max(
        abs(sub.max_score) * span,
        abs(sub.min_score) * span,
        abs(gaps.run_score(span)),
    )
    limit = 2**13 if dtype == np.int16 else 2**29
    if worst >= limit:
        raise ValidationError(
            f"{dtype} scores can overflow for extents up to {span} "
            f"(worst differential {worst} >= {limit}); use a wider dtype "
            "or smaller blocks"
        )


def score_rowscan(query, subject, scheme: AlignmentScheme, dtype=np.int32) -> int:
    """Optimal score of one pair via the specialized row-sweep kernel."""
    q = check_sequence(np.asarray(query, dtype=np.uint8), "query")
    s = check_sequence(np.asarray(subject, dtype=np.uint8), "subject")
    _check_headroom(scheme, int(q.size), int(s.size), dtype)
    return int(_sweep(q, s, scheme, dtype)[0])


def score_lanes(
    queries, subjects, scheme: AlignmentScheme, dtype=np.int32, floor=None
) -> np.ndarray:
    """Optimal scores of a batch of independent equal-length pairs.

    ``queries`` is (lanes, n) and ``subjects`` is (lanes, m); the kernel
    relaxes all lanes per step — inter-sequence vectorization.  Returns a
    (lanes,) score vector.

    With a ``floor``, a lane stops being relaxed once a proven upper bound
    on its score falls below it: every lane scoring ≥ ``floor`` gets its
    exact score, every other lane some value in ``[exact, floor)``.  After
    row ``i`` the bound is ``U = max(out, max_j H[i, j] + g·(n − i))`` with
    ``g = max(σ_max, 0)``.  Any alignment either ends by row ``i`` — then
    ``out`` (the running optimum over rows ≤ ``i``) already covers it — or
    leaves row ``i`` from some cell ``(i, j)``: its prefix scores at most
    ``H[i, j]``, and the rest makes ``n − i`` down-moves that each add at
    most ``σ_max`` (diagonal) or ≤ 0 (gap), plus ≤ 0 gap moves.  An
    alignment that starts below row ``i`` (the free starts of semiglobal
    and local schemes) scores at most ``g·(n − i) ≤ H[i, 0] + g·(n − i)``
    because those schemes have ``H[i, 0] = 0``.  So ``U`` ≥ the exact
    score, and an abandoned lane returns its ``U < floor``.
    """
    return sweep_lanes(queries, subjects, scheme, dtype, floor)[0]


def sweep_lanes(
    queries, subjects, scheme: AlignmentScheme, dtype=np.int32, floor=None
) -> tuple[np.ndarray, int]:
    """:func:`score_lanes` plus the number of DP cells the sweep relaxed."""
    q = np.ascontiguousarray(queries, dtype=np.uint8)
    s = np.ascontiguousarray(subjects, dtype=np.uint8)
    if q.ndim != 2 or s.ndim != 2 or q.shape[0] != s.shape[0]:
        raise ValidationError("queries/subjects must be (lanes, n)/(lanes, m)")
    lanes, n = q.shape
    m = s.shape[1]
    if n == 0 or m == 0 or lanes == 0:
        raise ValidationError("empty batch or empty sequences")
    if q.max(initial=0) > 3 or s.max(initial=0) > 3:
        raise ValidationError("sequence codes outside 0..3")
    _check_headroom(scheme, n, m, dtype)
    return _sweep(q, s, scheme, dtype, floor)


#: Rows a floored lane sweep relaxes between two bound checks.
BOUND_SLAB = 8


def _sweep(q, s, scheme: AlignmentScheme, dtype, floor=None) -> tuple[np.ndarray, int]:
    """Row-sweep driver over one pair (1-D) or a lane stack (2-D).

    Without a floor: one ``(0, n]`` kernel call.  With one (lane stacks
    only): the rows before the first that can abandon a lane whose row
    maximum is ≥ 0 go in one call, then ``BOUND_SLAB`` rows per call, each
    followed by the bound check of :func:`score_lanes` and a compaction of
    the surviving lanes.  Returns ``(int64 scores, cells relaxed)``.
    """
    n, m = q.shape[-1], s.shape[-1]
    kern = _cached(("rowscan",) + scheme.cache_key(), lambda: build_rowscan_kernel(scheme))
    H, C, E, ramp, ninf = _init_rows(scheme, q.shape[:-1], m, dtype)
    out = np.full(q.shape[:-1], ninf, dtype=dtype)
    if scheme.alignment_type is AlignmentType.SEMIGLOBAL:
        out[...] = H[..., m]  # include the H(0,m) border cell
    subst = scheme.scoring.subst
    table = None if subst.is_simple else subst.table.astype(dtype)
    if floor is None:
        kern(q, s, n, m, 0, n, H, C, ramp, out, ninf, *[x for x in (E, table) if x is not None])
        return out.astype(np.int64), q.size * m

    gain = max(subst.max_score, 0)
    scores = np.empty(q.shape[0], dtype=np.int64)
    live = np.arange(q.shape[0])
    cells = 0
    i0, i1 = 0, min(n, max(0, n - int(floor) // max(gain, 1)))
    while True:
        kern(q, s, n, m, i0, i1, H, C, ramp, out, ninf, *[x for x in (E, table) if x is not None])
        cells += live.size * (i1 - i0) * m
        if i1 == n:
            break
        bound = np.maximum(
            out.astype(np.int64), H.max(axis=-1).astype(np.int64) + gain * (n - i1)
        )
        keep = bound >= floor
        if not keep.all():
            scores[live[~keep]] = bound[~keep]
            live, q, s, H, C, out = live[keep], q[keep], s[keep], H[keep], C[keep], out[keep]
            if E is not None:
                E = E[keep]
            if not live.size:
                return scores, cells
        i0, i1 = i1, min(i1 + BOUND_SLAB, n)
    scores[live] = out
    return scores, cells


def fill_matrix(query, subject, scheme: AlignmentScheme, track_predecessor: bool = False):
    """Full-matrix fill via the scalar-dialect kernel.

    Returns ``(H, E, F, P, best_score, best_pos)``; ``E``/``F`` are None for
    linear models, ``P`` is None unless predecessor tracking was requested.
    The non-vectorized CPU variant of the paper, also used as the innermost
    traceback level.
    """
    q = check_sequence(np.asarray(query, dtype=np.uint8), "query")
    s = check_sequence(np.asarray(subject, dtype=np.uint8), "subject")
    n, m = int(q.size), int(s.size)
    at = scheme.alignment_type
    gaps = scheme.scoring.gaps
    affine = gaps.is_affine

    H = np.zeros((n + 1, m + 1), dtype=np.int64)
    E = F = P = None
    if affine:
        E = np.full((n + 1, m + 1), NEG_INF, dtype=np.int64)
        F = np.full((n + 1, m + 1), NEG_INF, dtype=np.int64)
        idx_i = np.arange(1, n + 1, dtype=np.int64)
        idx_j = np.arange(1, m + 1, dtype=np.int64)
        E[1:, 0] = gaps.open + idx_i * gaps.extend
        F[0, 1:] = gaps.open + idx_j * gaps.extend
        if at is AlignmentType.GLOBAL:
            H[1:, 0] = E[1:, 0]
            H[0, 1:] = F[0, 1:]
    elif at is AlignmentType.GLOBAL:
        H[1:, 0] = gaps.gap * np.arange(1, n + 1, dtype=np.int64)
        H[0, 1:] = gaps.gap * np.arange(1, m + 1, dtype=np.int64)
    if track_predecessor:
        P = np.zeros((n + 1, m + 1), dtype=np.int8)

    kern = _cached(
        ("matrix", track_predecessor) + scheme.cache_key(),
        lambda: build_matrix_kernel(scheme, track_predecessor),
    )
    args = [q, s, n, m, H]
    if affine:
        args += [E, F]
    if track_predecessor:
        args.append(P)
    if not scheme.scoring.subst.is_simple:
        args.append(scheme.scoring.subst.table.astype(np.int64))
    kern(*args)
    score, pos = best_cell(H, at)
    return H, E, F, P, score, pos

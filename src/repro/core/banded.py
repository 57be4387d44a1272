"""Banded alignment (library extension).

Restricts the DP to cells with ``|j − i| ≤ band``, the standard speed/
exactness trade used when the two sequences are known to be similar (every
comparator library in the paper offers a banded mode).  The result is the
optimal score over band-constrained paths; it equals the unbanded optimum
whenever the true alignment stays inside the band, and a band of
``max(n, m)`` is always exact.

Two alignment types are supported:

* **global** — both sequences end-to-end; the band must reach the (n, m)
  corner, so ``band ≥ |n − m|`` is required (``widen=True`` auto-widens an
  infeasible band to that minimum instead of raising).
* **semiglobal** — free end gaps in either sequence: row 0 and column 0
  initialise to 0 inside the band and the optimum is taken over in-band
  cells of the last row and last column.  Any ``band ≥ 0`` is feasible;
  this is the verification mode of the search pipeline
  (:mod:`repro.search`), where a query is placed anywhere inside a
  reference window and the band bounds the placement offset plus indel
  drift.

Every banded score comes from one generated kernel,
:func:`repro.core.kernels.build_banded_kernel`, specialized on (scheme,
band): :func:`banded_score` runs it on one pair's 1-D rows and
:func:`banded_score_lanes` on a (lanes, m+1) row stack, through the same
driver.  Each row only touches its ``[max(1, i−band), min(m, i+band)]``
window with the prefix-scan gap closure, so work is O((n+m)·band) instead
of O(n·m); :func:`band_cells` reports the exact relaxed-cell count so
callers can account computed vs. skipped work.
"""

from __future__ import annotations

import operator

import numpy as np

from repro.core.kernels import _check_headroom, build_banded_kernel, pick_neg_inf
from repro.core.types import AlignmentScheme, AlignmentType
from repro.stage import global_kernel_cache
from repro.util.checks import ValidationError, check_sequence

__all__ = ["banded_score", "banded_score_lanes", "band_cells", "effective_band"]


def effective_band(n: int, m: int, band: int, scheme: AlignmentScheme, widen: bool = False) -> int:
    """Validate/widen ``band`` for an ``n × m`` problem (shared closure).

    Global schemes need ``band ≥ |n − m|`` to reach the corner; with
    ``widen=True`` an infeasible band is widened to that minimum instead of
    raising.  Semiglobal schemes accept any ``band ≥ 0``.  Both the
    one-pair and the lane-stack entry resolve their band through here, so
    they always agree on the relaxed region.
    """
    at = scheme.alignment_type
    if at is AlignmentType.LOCAL:
        raise ValidationError("banded alignment supports global and semiglobal schemes only")
    band = operator.index(band)  # NumPy ints too: the kernel is keyed on a Python int
    if band < 0:
        raise ValidationError(f"band must be >= 0, got {band}")
    if at is AlignmentType.GLOBAL and band < abs(n - m):
        if widen:
            return abs(n - m)
        raise ValidationError(
            f"band {band} cannot reach the corner of a {n}x{m} problem "
            f"(needs at least {abs(n - m)}; pass widen=True to auto-widen)"
        )
    return band


def band_cells(n: int, m: int, band: int) -> int:
    """Number of DP cells a banded sweep of an ``n × m`` problem relaxes.

    Counts interior cells with ``|j − i| ≤ band`` (the initialisation
    border is excluded, matching how unbanded cell counts are reported).
    """
    if band < 0:
        raise ValidationError(f"band must be >= 0, got {band}")
    i = np.arange(1, n + 1, dtype=np.int64)
    lo = np.maximum(1, i - band)
    hi = np.minimum(m, i + band)
    return int(np.maximum(hi - lo + 1, 0).sum())


def banded_score(
    query, subject, scheme: AlignmentScheme, band: int, widen: bool = False
) -> int:
    """Optimal score over alignment paths with ``|j − i| ≤ band``.

    For global schemes the band must reach the (n, m) corner: a band
    narrower than ``|n − m|`` raises :class:`ValidationError` unless
    ``widen=True``, which widens it to that minimum instead.  Semiglobal
    schemes accept any ``band ≥ 0`` (the free end gaps make every band
    feasible).  Local schemes are rejected.  Scores are int64; the pair
    runs as a one-lane call of the banded kernel on 1-D rows.
    """
    q = check_sequence(np.asarray(query, dtype=np.uint8), "query")
    s = check_sequence(np.asarray(subject, dtype=np.uint8), "subject")
    band = effective_band(q.size, s.size, band, scheme, widen)
    return int(_banded_sweep(q, s, scheme, band, np.int64))


def banded_score_lanes(
    queries,
    subjects,
    scheme: AlignmentScheme,
    band: int,
    widen: bool = False,
    dtype=np.int32,
) -> np.ndarray:
    """Banded scores of a batch of independent same-shape pairs.

    ``queries`` is (lanes, n) and ``subjects`` is (lanes, m); every lane is
    swept with the same (scheme, band)-specialized compiled kernel
    (:func:`repro.core.kernels.build_banded_kernel`), relaxing the whole
    stack per row — the banded analogue of
    :func:`repro.core.kernels.score_lanes`.  Returns a (lanes,) int64 score
    vector bit-identical to calling :func:`banded_score` per pair.
    """
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
    band = effective_band(n, m, band, scheme, widen)
    _check_headroom(scheme, n, m, dtype)
    return _banded_sweep(q, s, scheme, band, dtype)


def _banded_sweep(q, s, scheme: AlignmentScheme, band: int, dtype) -> np.ndarray:
    """One banded kernel call over one pair (1-D rows) or a lane stack (2-D).

    ``band`` is already resolved by :func:`effective_band`.  Sets up the
    in-band row-0 border (−∞ outside the band) and the optimum seed, and
    returns the int64 score(s): a 0-d array for 1-D rows.
    """
    gaps = scheme.scoring.gaps
    affine = gaps.is_affine
    n, m = q.shape[-1], s.shape[-1]
    ninf = pick_neg_inf(dtype)
    idx = np.arange(m + 1, dtype=dtype)
    hi0 = min(m, band)

    H = np.full(q.shape[:-1] + (m + 1,), ninf, dtype=dtype)
    if scheme.alignment_type is AlignmentType.SEMIGLOBAL:
        H[..., : hi0 + 1] = 0
    elif affine:
        H[..., : hi0 + 1] = gaps.open + gaps.extend * idx[: hi0 + 1]
    else:
        H[..., : hi0 + 1] = gaps.gap * idx[: hi0 + 1]
    H[..., 0] = 0
    ramp = idx * (-gaps.extend if affine else -gaps.gap)
    # Semiglobal: seed with the H(0, m) border cell (0 iff band reaches m).
    out = H[..., m].copy()

    kern = global_kernel_cache.get_or_build(
        ("banded", band) + scheme.cache_key(),
        lambda: build_banded_kernel(scheme, band),
    )
    args = [q, s, n, m, H, np.empty_like(H), ramp, out, ninf]
    if affine:
        args.append(np.full_like(H, ninf))
    if not scheme.scoring.subst.is_simple:
        args.append(scheme.scoring.subst.table.astype(dtype))
    kern(*args)
    return out.astype(np.int64)

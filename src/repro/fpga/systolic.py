"""Cycle-accurate systolic-array FPGA simulator (paper §IV-C).

The FPGA maps the DP recurrence onto a linear array of ``K_PE`` processing
elements, each relaxing **one cell per clock cycle**:

* the shorter sequence is divided into blocks of at most ``K_PE`` rows that
  *initialise* the PEs (one query character per PE);
* the longer sequence is *streamed* through the array; each PE relaxes its
  cell and passes the character plus its H/E results to the next PE with a
  one-cycle delay;
* when the query exceeds ``K_PE``, the array processes stripes; the last
  PE's output row is buffered in host DDR by a dedicated hardware
  component and replayed as the input stream of the next stripe.

At cycle ``t``, PE ``i`` relaxes cell ``(i, t−i)`` — the same anti-diagonal
wavefront the GPU executes inside a stripe, so the simulator reuses the
tested :func:`repro.gpu.striped._relax_stripe_antidiag` dataflow and counts
exactly ``m + h`` cycles per stripe (fill + drain).  The gap scheme does
not change the cycle count — affine E/F updates happen within the same
cell-cycle, as the paper observes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.aligner import register_backend
from repro.core.scoring import default_scheme
from repro.core.types import NEG_INF, AlignmentScheme, AlignmentType
from repro.gpu.striped import _relax_stripe_antidiag
from repro.util.checks import check_positive, check_sequence
from repro.util.encoding import encode

__all__ = ["SystolicStats", "SystolicAligner"]


@dataclass
class SystolicStats:
    """Exact cycle/traffic accounting of one systolic run."""

    cycles: int = 0
    stripes: int = 0
    cells: int = 0
    ddr_chars_streamed: int = 0  # long-sequence symbols fed to the array
    ddr_words_buffered: int = 0  # column-buffer words spilled + refetched
    meta: dict = field(default_factory=dict)

    @property
    def pe_utilization(self) -> float:
        """Useful cell-updates per PE-cycle (fill/drain phases idle)."""
        if self.cycles == 0:
            return 0.0
        return self.cells / (self.cycles * self.meta.get("k_pe", 1))


@register_backend("fpga")
class SystolicAligner:
    """Score-only aligner backed by the simulated PE array.

    The paper's FPGA implementation supports score-only long-genome
    alignment; this simulator additionally handles local/semi-global
    extraction (running maxima in the PEs are cheap in hardware) so the
    full scheme grid is testable.  ``k_pe`` is the number of processing
    elements — the ZCU104 synthesis in :mod:`repro.fpga.power` uses 128.
    """

    def __init__(self, scheme: AlignmentScheme | None = None, k_pe: int = 128):
        self.scheme = scheme if scheme is not None else default_scheme()
        self.k_pe = check_positive(k_pe, "k_pe")
        self.stats = SystolicStats()

    @classmethod
    def capabilities(cls):
        from repro.core.backend import BackendCapabilities

        return BackendCapabilities(
            name="fpga",
            kind="fpga",
            simulated=True,  # exact scores, cycle-accurate PE-array model
            banded=True,  # served by the shared banded kernel, one lane per pair
        )

    def score(self, query, subject) -> int:
        """Optimal score; ``self.stats`` holds the exact cycle counts."""
        q = check_sequence(encode(query), "query")
        s = check_sequence(encode(subject), "subject")
        # The hardware initialises PEs with the shorter sequence and
        # streams the longer one; the DP transposes cleanly only under a
        # symmetric substitution function, so asymmetric tables keep their
        # orientation (costing extra stripes, as real hardware would).
        table = self.scheme.scoring.subst.table
        if q.size > s.size and np.array_equal(table, table.T):
            q, s = s, q
        return self._run(q, s)

    def _run(self, q: np.ndarray, s: np.ndarray) -> int:
        scheme = self.scheme
        gaps = scheme.scoring.gaps
        affine = gaps.is_affine
        at = scheme.alignment_type
        n, m = q.size, s.size
        kpe = self.k_pe
        self.stats = SystolicStats(meta={"k_pe": kpe, "n": n, "m": m})

        if affine:
            go, ge = gaps.open, gaps.extend

        # Stream entering stripe 0: the H(0, ·) initialisation row; later
        # stripes replay the previous stripe's emitted row from DDR.
        jj = np.arange(m + 1, dtype=np.int64)
        if at is AlignmentType.GLOBAL:
            if affine:
                stream_h = go + ge * jj
            else:
                stream_h = gaps.gap * jj
            stream_h[0] = 0
        else:
            stream_h = np.zeros(m + 1, dtype=np.int64)
        stream_e = np.full(m, NEG_INF, dtype=np.int64) if affine else None

        best = NEG_INF
        last_col = int(stream_h[m]) if at is AlignmentType.SEMIGLOBAL else NEG_INF

        for s0 in range(0, n, kpe):
            h = min(kpe, n - s0)
            rows_global = s0 + 1 + np.arange(h, dtype=np.int64)
            if at is AlignmentType.GLOBAL:
                left_h = (go + ge * rows_global) if affine else (gaps.gap * rows_global)
            else:
                left_h = np.zeros(h, dtype=np.int64)
            left_f = np.full(h, NEG_INF, dtype=np.int64) if affine else None

            bh, be, rh, _rf, sb, _steps = _relax_stripe_antidiag(
                q[s0 : s0 + h], s, scheme, stream_h, stream_e, left_h, left_f
            )
            self.stats.cycles += m + h  # fill + drain of the linear array
            self.stats.stripes += 1
            self.stats.cells += h * m
            self.stats.ddr_chars_streamed += m
            self.stats.ddr_words_buffered += (2 * (m + 1)) if affine else (m + 1)

            if sb > best:
                best = sb
            if at is AlignmentType.SEMIGLOBAL:
                last_col = max(last_col, int(rh.max()))
            stream_h, stream_e = bh, be

        if at is AlignmentType.GLOBAL:
            return int(stream_h[m])
        if at is AlignmentType.LOCAL:
            return max(best, 0)
        return max(last_col, int(stream_h.max()))

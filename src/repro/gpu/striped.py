"""Striped GPU tile kernel and the GPU aligner (paper §IV-B, Fig. 4).

Execution structure mirrors the paper exactly:

* the **host** iterates over tile diagonals, launching one kernel per
  diagonal (one thread-block per tile);
* a block splits its tile into **stripes** of height = thread count and
  computes them in sequence, keeping the row above the stripe in shared
  memory and recycling it for the stripe's bottom row;
* within a stripe, threads relax **anti-diagonals** in lockstep; the
  head/middle/tail phases (partial vs. full diagonals) are explicit, which
  on real hardware avoids branch divergence;
* tile border rows/columns are read from and written to global memory
  (counted, coalesced); scores are 32-bit — the paper notes GPUs lack the
  16-bit lanes the AVX path uses.

Functional results are exact (tested against the reference DP); projected
device time comes from :class:`repro.gpu.device.DeviceModel`.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.aligner import register_backend
from repro.core.scoring import default_scheme
from repro.core.types import NEG_INF, AlignmentScheme, AlignmentType
from repro.cpu.tiles import TileBorders, TileResult, initial_borders
from repro.cpu.wavefront import WavefrontAligner, _Run
from repro.gpu.device import TITAN_V, DeviceModel, PerfCounters
from repro.gpu.memory import coalesced_transactions
from repro.sched.tilegraph import TileGraph, TileGrid
from repro.util.checks import check_sequence
from repro.util.encoding import encode

__all__ = ["relax_tile_striped", "GpuAligner"]


def _relax_stripe_antidiag(qs, st, scheme, top_h, top_e, left_h, left_f):
    """Anti-diagonal relaxation of one stripe (threads = stripe rows).

    ``qs`` (h,) stripe query codes; ``st`` (cols,) subject codes;
    ``top_h`` (cols+1,) H of the row above (corner first); ``top_e``
    (cols,) E of the row above; ``left_h``/``left_f`` (h,) the left border
    of the stripe's rows.  Returns (bottom_h, bottom_e, right_h, right_f,
    best, steps) where bottom rows are laid out like the inputs.
    """
    gaps = scheme.scoring.gaps
    affine = gaps.is_affine
    clamp = scheme.alignment_type is AlignmentType.LOCAL
    table = scheme.scoring.subst.table.astype(np.int64)
    h, cols = qs.size, st.size

    Hm1 = np.full(h, NEG_INF, dtype=np.int64)
    Hm2 = np.full(h, NEG_INF, dtype=np.int64)
    Em1 = np.full(h, NEG_INF, dtype=np.int64) if affine else None
    Fm1 = np.full(h, NEG_INF, dtype=np.int64) if affine else None

    right_h = np.empty(h, dtype=np.int64)
    right_f = np.empty(h, dtype=np.int64) if affine else None
    bottom_h = np.empty(cols + 1, dtype=np.int64)
    bottom_h[0] = left_h[h - 1]
    bottom_e = np.empty(cols, dtype=np.int64) if affine else None
    best = NEG_INF

    if affine:
        go, ge = gaps.open, gaps.extend
    else:
        g = gaps.gap

    for d in range(h + cols - 1):
        lo = max(0, d - cols + 1)
        hi = min(h - 1, d)
        width = hi - lo + 1
        r = np.arange(lo, hi + 1)
        c = d - r
        sub = table[qs[r], st[c]]

        if lo == 0:
            diag = np.concatenate(([top_h[d]], Hm2[0:hi]))
            up = np.concatenate(([top_h[d + 1]], Hm1[0:hi]))
        else:
            diag = Hm2[lo - 1 : hi].copy()
            up = Hm1[lo - 1 : hi]
        if hi == d:  # c == 0 lane touches the left border
            diag[-1] = left_h[d - 1] if d >= 1 else top_h[0]
        left = Hm1[lo : hi + 1].copy()
        if hi == d:
            left[-1] = left_h[d]

        if affine:
            if lo == 0:
                eup = np.concatenate(([top_e[d]], Em1[0:hi]))
            else:
                eup = Em1[lo - 1 : hi]
            Ecur = np.maximum(eup + ge, up + go + ge)
            fleft = Fm1[lo : hi + 1].copy()
            if hi == d:
                fleft[-1] = left_f[d]
            Fcur = np.maximum(fleft + ge, left + go + ge)
            Hcur = np.maximum(np.maximum(diag + sub, Ecur), Fcur)
        else:
            Hcur = np.maximum(diag + sub, np.maximum(up, left) + g)
        if clamp:
            np.maximum(Hcur, 0, out=Hcur)

        step_best = int(Hcur.max())
        if step_best > best:
            best = step_best

        # Rotate diag buffers (full-length lanes; inactive lanes stay −∞
        # and are provably never read — see the slice analysis above).
        Hm2[lo : hi + 1] = Hm1[lo : hi + 1]
        Hm1[lo : hi + 1] = Hcur
        if affine:
            Em1[lo : hi + 1] = Ecur
            Fm1[lo : hi + 1] = Fcur

        # Emit the right column and bottom row as lanes cross them.
        if d >= cols - 1:  # lane r == lo has c == cols-1
            right_h[lo] = Hcur[0]
            if affine:
                right_f[lo] = Fcur[0]
        if hi == h - 1:  # lane r == h-1 has c == d-h+1
            bottom_h[d - h + 2] = Hcur[-1]
            if affine:
                bottom_e[d - h + 1] = Ecur[-1]

    return bottom_h, bottom_e, right_h, right_f, best, h + cols - 1


def relax_tile_striped(
    qt: np.ndarray,
    st: np.ndarray,
    scheme: AlignmentScheme,
    borders: TileBorders,
    stripe_height: int,
    counters: PerfCounters | None = None,
) -> TileResult:
    """Relax one tile via sequential stripes of anti-diagonals.

    Equivalent to :func:`repro.cpu.tiles.relax_tile` (tested for exact
    agreement) but following the GPU dataflow; updates ``counters`` with
    the executed steps and the shared/global traffic of Figure 4.
    """
    gaps = scheme.scoring.gaps
    affine = gaps.is_affine
    rows, cols = qt.size, st.size
    counters = counters if counters is not None else PerfCounters()

    # Tile preamble: sequence segments copied to shared memory (global
    # reads, coalesced), borders read from global memory.
    counters.global_reads += coalesced_transactions(rows + cols)
    counters.global_reads += coalesced_transactions(cols + 1 + rows) * (2 if affine else 1)
    counters.shared_writes += rows + cols

    top_h = np.asarray(borders.top_h, dtype=np.int64)
    top_e = (
        np.asarray(borders.top_e, dtype=np.int64)[1:] if affine else None
    )  # E of the tile's own columns
    left_h_all = np.asarray(borders.left_h, dtype=np.int64)
    left_f_all = (
        np.asarray(borders.left_f, dtype=np.int64) if affine else None
    )

    right_h = np.empty(rows, dtype=np.int64)
    right_f = np.empty(rows, dtype=np.int64) if affine else None
    best = NEG_INF
    lastcol = NEG_INF

    for s0 in range(0, rows, stripe_height):
        h = min(stripe_height, rows - s0)
        stripe_top = top_h if s0 == 0 else bottom_h_prev
        stripe_top_e = top_e if s0 == 0 else bottom_e_prev
        bh, be, rh, rf, sb, steps = _relax_stripe_antidiag(
            qt[s0 : s0 + h],
            st,
            scheme,
            stripe_top,
            stripe_top_e,
            left_h_all[s0 : s0 + h],
            left_f_all[s0 : s0 + h] if affine else None,
        )
        # Shared-memory row recycling: the stripe reads the row above and
        # overwrites it with its bottom row (paper Fig. 4).
        counters.shared_reads += cols + 1
        counters.shared_writes += cols + 1
        counters.stripes += 1
        counters.diag_steps += steps
        bottom_h_prev, bottom_e_prev = bh, be
        right_h[s0 : s0 + h] = rh
        if affine:
            right_f[s0 : s0 + h] = rf
        if sb > best:
            best = sb
    counters.cells += rows * cols
    lastcol = int(right_h.max())

    # Tile epilogue: last row and column written back to global memory.
    counters.global_writes += coalesced_transactions(cols + 1 + rows) * (
        2 if affine else 1
    )

    bottom_e_out = None
    if affine:
        bottom_e_out = np.concatenate(([NEG_INF], bottom_e_prev))
    return TileResult(
        bottom_h=bottom_h_prev,
        right_h=right_h,
        bottom_e=bottom_e_out,
        right_f=right_f,
        best=np.asarray(best),
        last_col_best=np.asarray(lastcol),
    )


@register_backend("gpu")
class GpuAligner(WavefrontAligner):
    """Simulated-GPU aligner: host loop over tile diagonals, one
    thread-block per tile, striped anti-diagonal execution inside.

    ``score`` returns exact optimal scores; ``model_seconds`` /
    ``model_gcups`` expose the projected device time for the last run.
    """

    def __init__(
        self,
        scheme: AlignmentScheme | None = None,
        tile: tuple[int, int] = (128, 128),
        device: DeviceModel = TITAN_V,
    ):
        super().__init__(scheme or default_scheme(), tile=tile, lanes=1, threads=1)
        self.device = device
        self.counters = PerfCounters()
        self._model_seconds = 0.0

    @classmethod
    def capabilities(cls):
        from repro.core.backend import BackendCapabilities

        return BackendCapabilities(
            name="gpu",
            kind="gpu",
            simulated=True,  # exact scores, modelled device time
            banded=True,  # served by the shared banded kernel, one lane per pair
        )

    def score(self, query, subject) -> int:
        q = check_sequence(encode(query), "query")
        s = check_sequence(encode(subject), "subject")
        grid = TileGrid.build(0, q.size, s.size, *self.tile)
        graph = TileGraph([grid])
        init_best = 0 if self.scheme.alignment_type is AlignmentType.SEMIGLOBAL else NEG_INF
        run = _Run(q, s, grid, {}, {}, NEG_INF, init_best, NEG_INF)
        self.counters = PerfCounters()
        self._model_seconds = 0.0

        th, tw = self.tile
        affine = self.scheme.scoring.is_affine
        # Host loop: one kernel launch per tile diagonal (paper §IV-B).
        for d in range(grid.nti + grid.ntj - 1):
            tiles = [
                grid.tile_at(ti, d - ti)
                for ti in range(max(0, d - grid.ntj + 1), min(grid.nti, d + 1))
            ]
            launch = PerfCounters()
            slowest_block = 0.0
            for t in tiles:
                qt = q[t.ti * th : t.ti * th + t.rows]
                st = s[t.tj * tw : t.tj * tw + t.cols]
                borders = self._borders_for(run, t)
                before = launch.diag_steps
                res = relax_tile_striped(
                    qt, st, self.scheme, borders, self.device.block_threads, launch
                )
                self._commit(run, t, res, None)
                tile_steps = launch.diag_steps - before
                slowest_block = max(
                    slowest_block, self.device.block_seconds(tile_steps, affine)
                )
            launch.kernel_launches += 1
            waves = math.ceil(len(tiles) / self.device.sms)
            launch.block_waves += waves
            tx = launch.global_reads + launch.global_writes
            self._model_seconds += (
                self.device.launch_overhead_s
                + waves * slowest_block
                + self.device.memory_seconds(tx)
            )
            self.counters.merge(launch)

        at = self.scheme.alignment_type
        if at is AlignmentType.GLOBAL:
            return run.corner
        if at is AlignmentType.LOCAL:
            return max(run.best, 0)
        return run.lastrow_best

    @property
    def model_seconds(self) -> float:
        """Projected device time of the last ``score`` call."""
        return self._model_seconds

    @property
    def model_gcups(self) -> float:
        return self.counters.cells / self._model_seconds / 1e9

    def model_gcups_at(self, n: int, m: int) -> float:
        """Closed-form device-model GCUPS for an (n, m) alignment.

        Functional runs are validated at scaled sizes; this projects the
        same execution structure (launch per tile diagonal, stripe steps,
        SM waves, border traffic) to arbitrary extents — benchmarks use it
        with the *real* Table I lengths, where the device reaches full
        occupancy.
        """
        th, tw = self.tile
        affine = self.scheme.scoring.is_affine
        dev = self.device
        nti = (n + th - 1) // th
        ntj = (m + tw - 1) // tw
        bt = dev.block_threads
        # Stripe steps of one interior tile: per stripe, h + tw - 1.
        tile_steps = sum(
            min(bt, th - s0) + tw - 1 for s0 in range(0, th, bt)
        )
        block_s = dev.block_seconds(tile_steps, affine)
        border_factor = 2 if affine else 1
        seconds = 0.0
        cells = 0
        for d in range(nti + ntj - 1):
            blocks = min(nti, d + 1) - max(0, d - ntj + 1)
            waves = math.ceil(blocks / dev.sms)
            tx = blocks * (
                coalesced_transactions(th + tw)
                + 2 * coalesced_transactions(th + tw + 1) * border_factor
            )
            seconds += (
                dev.launch_overhead_s + waves * block_s + dev.memory_seconds(tx)
            )
            cells += blocks * th * tw
        return cells / seconds / 1e9

    def model_gcups_batch(self, count: int, n: int, m: int) -> float:
        """Device-model GCUPS for a batch of ``count`` (n, m) alignments.

        Inter-sequence regime: one alignment per thread (the NGS read use
        case), full lane utilisation, a handful of launches.
        """
        dev = self.device
        cells = count * n * m
        seconds = dev.batch_seconds(cells, self.scheme.scoring.is_affine)
        slots = dev.sms * dev.block_threads
        seconds += math.ceil(count / slots) * dev.launch_overhead_s
        # Reads/windows stream once through global memory.
        seconds += dev.memory_seconds(coalesced_transactions(count * (n + m)))
        return cells / seconds / 1e9

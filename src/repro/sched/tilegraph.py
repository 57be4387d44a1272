"""Tile dependency graphs for wavefront-parallel DP (paper §IV-A, Fig. 2/3).

A DP matrix is partitioned into submatrices ("tiles"); tile (ti, tj) may be
relaxed once its upper and left neighbours are done.  Several alignments of
different sizes can be scheduled together (Fig. 3) — the graph tracks all
of them with globally unique tile ids.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.util.checks import SchedulingError, ValidationError, check_positive

__all__ = ["Tile", "TileGrid", "TileGraph"]


@dataclass(frozen=True)
class Tile:
    """One submatrix of one alignment."""

    tile_id: int
    alignment_id: int
    ti: int  # tile row
    tj: int  # tile column
    rows: int  # cell rows in this tile (edge tiles may be smaller)
    cols: int

    @property
    def cells(self) -> int:
        return self.rows * self.cols

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def diagonal(self) -> int:
        return self.ti + self.tj


@dataclass
class TileGrid:
    """Tiling of one alignment of extent (n, m) into (tile_h, tile_w) tiles."""

    alignment_id: int
    n: int
    m: int
    tile_h: int
    tile_w: int
    tiles: list = field(default_factory=list)
    nti: int = 0
    ntj: int = 0

    @classmethod
    def build(cls, alignment_id: int, n: int, m: int, tile_h: int, tile_w: int, id_base: int = 0):
        check_positive(n, "n")
        check_positive(m, "m")
        check_positive(tile_h, "tile_h")
        check_positive(tile_w, "tile_w")
        grid = cls(alignment_id, n, m, tile_h, tile_w)
        grid.nti = (n + tile_h - 1) // tile_h
        grid.ntj = (m + tile_w - 1) // tile_w
        tid = id_base
        for ti in range(grid.nti):
            rows = min(tile_h, n - ti * tile_h)
            for tj in range(grid.ntj):
                cols = min(tile_w, m - tj * tile_w)
                grid.tiles.append(Tile(tid, alignment_id, ti, tj, rows, cols))
                tid += 1
        return grid

    def tile_at(self, ti: int, tj: int) -> Tile:
        return self.tiles[ti * self.ntj + tj]

    @property
    def cells(self) -> int:
        return self.n * self.m

    def __len__(self) -> int:
        return len(self.tiles)


class TileGraph:
    """Dependency bookkeeping over one or more tile grids.

    The graph is the shared substrate of both schedulers: it owns the
    remaining-dependency counters and answers "which tiles became ready"
    when one completes.  Thread safety is the scheduler's concern.
    """

    def __init__(self, grids: list[TileGrid]):
        if not grids:
            raise ValidationError("at least one tile grid required")
        self.grids = {g.alignment_id: g for g in grids}
        if len(self.grids) != len(grids):
            raise ValidationError("duplicate alignment ids")
        self.tiles: dict[int, Tile] = {}
        self.deps_left: dict[int, int] = {}
        self.completed: set[int] = set()
        for g in grids:
            for t in g.tiles:
                if t.tile_id in self.tiles:
                    raise ValidationError(f"duplicate tile id {t.tile_id}")
                self.tiles[t.tile_id] = t
                self.deps_left[t.tile_id] = (t.ti > 0) + (t.tj > 0)

    def __len__(self) -> int:
        return len(self.tiles)

    @property
    def total_cells(self) -> int:
        return sum(g.cells for g in self.grids.values())

    def initial_ready(self) -> list[Tile]:
        """Tiles with no predecessors (the (0,0) tile of each alignment)."""
        return [t for t in self.tiles.values() if self.deps_left[t.tile_id] == 0]

    def complete(self, tile: Tile) -> list[Tile]:
        """Mark ``tile`` done; returns tiles that just became ready.

        Raises if a tile completes before its predecessors — the failure
        injection tests drive adversarial orders through this check.
        """
        if tile.tile_id in self.completed:
            raise SchedulingError(f"tile {tile.tile_id} completed twice")
        if self.deps_left[tile.tile_id] != 0:
            raise SchedulingError(
                f"tile {tile.tile_id} completed with unmet dependencies"
            )
        self.completed.add(tile.tile_id)
        grid = self.grids[tile.alignment_id]
        ready = []
        for di, dj in ((1, 0), (0, 1)):
            ni, nj = tile.ti + di, tile.tj + dj
            if ni < grid.nti and nj < grid.ntj:
                succ = grid.tile_at(ni, nj)
                self.deps_left[succ.tile_id] -= 1
                if self.deps_left[succ.tile_id] == 0:
                    ready.append(succ)
        return ready

    @property
    def done(self) -> bool:
        return len(self.completed) == len(self.tiles)

"""Dynamic wavefront scheduler (paper §IV-A).

Submatrices are scheduled through a thread-safe queue that threads push to
and pop from concurrently; completion and queuing status is tracked with
per-tile flags.  Compared to a static diagonal-barrier schedule this
eliminates load imbalance between the thread count and the number of
concurrently relaxable submatrices, and balances several alignments of
different sizes computed together (Fig. 3).

A thread asks for up to ``lanes`` ready tiles of identical shape so it can
relax them as one vectorized block (rows from independent submatrices);
when fewer are available it falls back to a single tile for the scalar
path, exactly as described in the paper.
"""

from __future__ import annotations

import threading
from collections import defaultdict, deque

from repro.sched.tilegraph import Tile, TileGraph
from repro.util.checks import SchedulingError

__all__ = ["DynamicWavefrontScheduler"]


class DynamicWavefrontScheduler:
    """Thread-safe ready-queue over a :class:`TileGraph`.

    The queue groups ready tiles by shape so vector blocks pop O(1); FIFO
    order inside a shape group keeps the wavefront advancing roughly along
    diagonals, which bounds the live border-stripe memory.
    """

    def __init__(self, graph: TileGraph, lanes: int = 1):
        if lanes < 1:
            raise SchedulingError("lanes must be >= 1")
        self.graph = graph
        self.lanes = lanes
        self._lock = threading.Lock()
        self._ready_by_shape: dict[tuple, deque] = defaultdict(deque)
        self._ready_count = 0
        self._enqueued: set[int] = set()
        self._outstanding = 0  # popped but not yet completed
        self._wakeup = threading.Condition(self._lock)
        self.pops = 0
        self.block_pops = 0
        for t in graph.initial_ready():
            self._push(t)

    # -- internal ----------------------------------------------------------
    def _push(self, tile: Tile):
        if tile.tile_id in self._enqueued:
            raise SchedulingError(f"tile {tile.tile_id} enqueued twice")
        self._enqueued.add(tile.tile_id)
        self._ready_by_shape[tile.shape].append(tile)
        self._ready_count += 1

    def _pop_block_locked(self) -> list[Tile]:
        if self._ready_count == 0:
            return []
        # Prefer a shape group that can fill all lanes (vector block);
        # otherwise take a single tile (scalar fallback).
        best_shape = None
        for shape, dq in self._ready_by_shape.items():
            if len(dq) >= self.lanes:
                best_shape = shape
                break
        if best_shape is not None and self.lanes > 1:
            dq = self._ready_by_shape[best_shape]
            block = [dq.popleft() for _ in range(self.lanes)]
            self.block_pops += 1
        else:
            # Largest group first improves the odds later pops fill blocks.
            shape = max(self._ready_by_shape, key=lambda k: len(self._ready_by_shape[k]))
            block = [self._ready_by_shape[shape].popleft()]
            self.pops += 1
        for t in block:
            if not self._ready_by_shape[t.shape]:
                del self._ready_by_shape[t.shape]
        self._ready_count -= len(block)
        self._outstanding += len(block)
        return block

    # -- scheduler protocol --------------------------------------------------
    def try_pop(self) -> list[Tile]:
        """Non-blocking pop of a vector block or single tile ([] if none)."""
        with self._lock:
            return self._pop_block_locked()

    def pop(self, timeout: float | None = None) -> list[Tile]:
        """Blocking pop; returns [] when all work is finished."""
        with self._wakeup:
            while True:
                block = self._pop_block_locked()
                if block:
                    return block
                if self.graph.done or (
                    self._outstanding == 0 and self._ready_count == 0
                ):
                    self._wakeup.notify_all()
                    return []
                if not self._wakeup.wait(timeout=timeout):
                    raise SchedulingError("scheduler pop timed out (deadlock?)")

    def complete(self, tiles: list[Tile]):
        """Mark a popped block complete; enqueues newly-ready successors."""
        with self._wakeup:
            for t in tiles:
                for succ in self.graph.complete(t):
                    self._push(succ)
            self._outstanding -= len(tiles)
            self._wakeup.notify_all()

    @property
    def done(self) -> bool:
        return self.graph.done

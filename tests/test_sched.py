"""Tests for wavefront scheduling (repro.sched)."""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sched import (
    CostModel,
    DynamicWavefrontScheduler,
    StaticWavefrontSchedule,
    TileGraph,
    TileGrid,
    simulate_dynamic,
    simulate_static,
)
from repro.util.checks import SchedulingError, ValidationError


def _graph(n=100, m=120, th=16, tw=16, alignments=1):
    grids = []
    base = 0
    for k in range(alignments):
        g = TileGrid.build(k, n + 7 * k, m + 3 * k, th, tw, id_base=base)
        base += len(g)
        grids.append(g)
    return TileGraph(grids)


class TestTileGrid:
    def test_tile_count_and_shapes(self):
        g = TileGrid.build(0, 100, 120, 16, 16)
        assert g.nti == 7 and g.ntj == 8
        assert len(g) == 56
        assert g.tile_at(0, 0).shape == (16, 16)
        assert g.tile_at(6, 7).shape == (4, 8)  # clipped edge tile

    def test_cells_partition(self):
        g = TileGrid.build(0, 100, 120, 16, 16)
        assert sum(t.cells for t in g.tiles) == 100 * 120

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(1, 200), m=st.integers(1, 200),
           th=st.integers(1, 40), tw=st.integers(1, 40))
    def test_partition_property(self, n, m, th, tw):
        g = TileGrid.build(0, n, m, th, tw)
        assert sum(t.cells for t in g.tiles) == n * m
        assert all(1 <= t.rows <= th and 1 <= t.cols <= tw for t in g.tiles)

    def test_validation(self):
        with pytest.raises(ValidationError):
            TileGrid.build(0, 0, 10, 4, 4)


class TestTileGraph:
    def test_initial_ready_one_per_alignment(self):
        graph = _graph(alignments=3)
        ready = graph.initial_ready()
        assert len(ready) == 3
        assert all(t.ti == 0 and t.tj == 0 for t in ready)

    def test_complete_unlocks_neighbours(self):
        graph = _graph()
        (t00,) = graph.initial_ready()
        newly = graph.complete(t00)
        assert {(t.ti, t.tj) for t in newly} == {(0, 1), (1, 0)}

    def test_double_complete_rejected(self):
        graph = _graph()
        (t00,) = graph.initial_ready()
        graph.complete(t00)
        with pytest.raises(SchedulingError, match="twice"):
            graph.complete(t00)

    def test_premature_complete_rejected(self):
        graph = _graph()
        inner = graph.grids[0].tile_at(1, 1)
        with pytest.raises(SchedulingError, match="unmet"):
            graph.complete(inner)

    def test_duplicate_ids_rejected(self):
        g1 = TileGrid.build(0, 10, 10, 4, 4)
        g2 = TileGrid.build(1, 10, 10, 4, 4)  # same id_base -> collision
        with pytest.raises(ValidationError):
            TileGraph([g1, g2])

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            TileGraph([])


class TestDynamicScheduler:
    def test_serial_drain_respects_dependencies(self):
        graph = _graph()
        sched = DynamicWavefrontScheduler(graph, lanes=1)
        seen = set()
        while True:
            block = sched.try_pop()
            if not block:
                break
            for t in block:
                if t.ti > 0:
                    assert (t.ti - 1, t.tj) in seen
                if t.tj > 0:
                    assert (t.ti, t.tj - 1) in seen
                seen.add((t.ti, t.tj))
            sched.complete(block)
        assert sched.done and len(seen) == len(graph)

    def test_vector_blocks_same_shape(self):
        graph = _graph(n=160, m=160, th=16, tw=16, alignments=4)
        sched = DynamicWavefrontScheduler(graph, lanes=4)
        popped = 0
        while True:
            block = sched.try_pop()
            if not block:
                break
            if len(block) > 1:
                assert len(block) == 4
                assert len({t.shape for t in block}) == 1
            popped += len(block)
            sched.complete(block)
        assert popped == len(graph)
        assert sched.block_pops > 0
        assert sched.pops > 0  # short shape groups fall back to scalar singles

    def test_threaded_drain(self):
        graph = _graph(n=200, m=200, th=8, tw=8)
        sched = DynamicWavefrontScheduler(graph, lanes=2)
        done = []
        lock = threading.Lock()

        def worker():
            while True:
                block = sched.pop(timeout=10)
                if not block:
                    return
                with lock:
                    done.extend(block)
                sched.complete(block)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(done) == len(graph)
        assert sched.done

    def test_invalid_lanes(self):
        with pytest.raises(SchedulingError):
            DynamicWavefrontScheduler(_graph(), lanes=0)


class TestStaticSchedule:
    def test_diagonal_partition(self):
        graph = _graph()
        sched = StaticWavefrontSchedule(graph, num_threads=4)
        total = sum(len(d) for d in sched.diagonals)
        assert total == len(graph)
        for d, tiles in enumerate(sched.diagonals):
            assert all(t.diagonal == sorted({t.diagonal for t in tiles}).pop() for t in tiles)

    def test_round_robin_balance(self):
        graph = _graph(n=320, m=320, th=16, tw=16)
        sched = StaticWavefrontSchedule(graph, num_threads=4)
        mid = len(sched) // 2
        loads = [len(chunk) for chunk in sched.assignments(mid)]
        assert max(loads) - min(loads) <= 1

    def test_run_serial_completes_all(self):
        graph = _graph()
        sched = StaticWavefrontSchedule(graph, num_threads=3)
        count = [0]
        sched.run_serial(lambda t: count.__setitem__(0, count[0] + 1))
        assert count[0] == len(graph)
        assert graph.done


class TestSimulation:
    def _big_graph(self):
        # Big enough that 16 threads x 16 lanes don't starve on diagonals
        # (the paper's genomes give ~8600 tiles per side; this gives ~490).
        return TileGraph([TileGrid.build(0, 250_000, 250_000, 512, 512)])

    def test_dynamic_completes_all_cells(self):
        res = simulate_dynamic(self._big_graph(), threads=4, lanes=16)
        assert res.total_cells == 250_000 * 250_000
        assert res.makespan > 0 and res.gcups > 0

    def test_dynamic_speedup_monotone(self):
        g1 = simulate_dynamic(self._big_graph(), 1, lanes=16).gcups
        g4 = simulate_dynamic(self._big_graph(), 4, lanes=16).gcups
        g16 = simulate_dynamic(self._big_graph(), 16, lanes=16).gcups
        assert g1 < g4 < g16

    def test_static_saturates(self):
        # Amdahl: the serial per-diagonal phase caps static speedup.
        g1 = simulate_static(self._big_graph(), 1).gcups
        g16 = simulate_static(self._big_graph(), 16).gcups
        g32 = simulate_static(self._big_graph(), 32).gcups
        assert g16 / g1 < 4.0  # paper: 15% efficiency => speedup 2.4
        assert g32 / g1 < 4.5

    def test_dynamic_beats_static_at_scale(self):
        d = simulate_dynamic(self._big_graph(), 16, lanes=16)
        s = simulate_static(self._big_graph(), 16)
        assert d.gcups > 3 * s.gcups

    def test_paper_efficiency_shape(self):
        # Paper §V: dynamic ~75%/65% at 16/32 threads; static ~15%/8%.
        d1 = simulate_dynamic(self._big_graph(), 1, lanes=16).gcups
        s1 = simulate_static(self._big_graph(), 1).gcups
        d16 = simulate_dynamic(self._big_graph(), 16, lanes=16).gcups / (16 * d1)
        s16 = simulate_static(self._big_graph(), 16).gcups / (16 * s1)
        s32 = simulate_static(self._big_graph(), 32).gcups / (32 * s1)
        assert 0.6 < d16 < 0.9
        assert 0.10 < s16 < 0.20
        assert 0.05 < s32 < 0.12

    def test_busy_fraction_bounded(self):
        res = simulate_dynamic(self._big_graph(), 8, lanes=16)
        assert 0 < res.busy_fraction <= 1.0 + 1e-9

    def test_multi_alignment_balancing(self):
        # Several different-size alignments together (paper Fig. 3) keep
        # threads busier than the largest alignment alone at high P.
        sizes = [(30_000, 30_000), (20_000, 25_000), (10_000, 12_000), (5_000, 9_000)]
        grids = []
        base = 0
        for k, (n, m) in enumerate(sizes):
            g = TileGrid.build(k, n, m, 512, 512, id_base=base)
            base += len(g)
            grids.append(g)
        multi = simulate_dynamic(TileGraph(grids), 32, lanes=16)
        single = simulate_dynamic(
            TileGraph([TileGrid.build(0, 30_000, 30_000, 512, 512)]), 32, lanes=16
        )
        assert multi.busy_fraction >= single.busy_fraction - 0.05

    def test_cost_model_rates(self):
        cm = CostModel()
        assert cm.tile_seconds(1000, vectorized=True) < cm.tile_seconds(1000, vectorized=False)
        assert cm.tile_seconds(1000, True, threads=32) > cm.tile_seconds(1000, True, threads=1)

    def test_invalid_threads(self):
        with pytest.raises(ValidationError):
            simulate_dynamic(self._big_graph(), 0)

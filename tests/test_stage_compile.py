"""Tests for codegen, compilation, generators, and staged-function filters."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stage import (
    CallFn,
    Const,
    For,
    KernelBuilder,
    ReduceMax,
    ScanMax,
    Shift,
    Var,
    build_kernel,
    combine,
    contains_node,
    dyn,
    emit_function,
    is_static,
    parallel,
    range_loop,
    select,
    smax,
    smin,
    staged,
    static_value,
    tile,
    unroll,
    vectorize,
    KernelCache,
)
from repro.util.checks import StagingError


def _build_axpy(dialect):
    b = KernelBuilder("axpy", ["y", "x", "n", "a"])
    with b.loop("i", 0, b.var("n")) as i:
        b.store("y", (i,), b.load("x", (i,)) * b.var("a") + b.load("y", (i,)))
    return build_kernel(b, dialect=dialect)


class TestCompile:
    @pytest.mark.parametrize("dialect", ["scalar", "vector"])
    def test_axpy(self, dialect):
        k = _build_axpy(dialect)
        x = np.arange(5, dtype=np.int64)
        y = np.ones(5, dtype=np.int64)
        k(y, x, 5, 10)
        np.testing.assert_array_equal(y, x * 10 + 1)

    def test_source_is_inspectable(self):
        k = _build_axpy("scalar")
        assert "def axpy(" in k.source
        assert "for i in range(0, n):" in k.source

    def test_scalar_max_emitted_inline(self):
        b = KernelBuilder("m2", ["a", "b"])
        b.ret(smax(b.var("a"), b.var("b")))
        k = build_kernel(b, dialect="scalar")
        assert k(3, 7) == 7 and k(9, 2) == 9
        assert "np.maximum" not in k.source

    def test_vector_max_uses_numpy(self):
        b = KernelBuilder("m2", ["a", "b"])
        b.ret(smax(b.var("a"), b.var("b")))
        k = build_kernel(b, dialect="vector")
        np.testing.assert_array_equal(
            k(np.array([1, 5]), np.array([4, 2])), np.array([4, 5])
        )
        assert "np.maximum" in k.source

    def test_select_dialects(self):
        b = KernelBuilder("sel", ["c", "a", "b"])
        b.ret(select(b.var("c"), b.var("a"), b.var("b")))
        ks = build_kernel(b, dialect="scalar")
        assert ks(True, 1, 2) == 1 and ks(False, 1, 2) == 2

        b2 = KernelBuilder("sel", ["c", "a", "b"])
        b2.ret(select(b2.var("c"), b2.var("a"), b2.var("b")))
        kv = build_kernel(b2, dialect="vector")
        np.testing.assert_array_equal(
            kv(np.array([True, False]), np.array([1, 1]), np.array([2, 2])),
            np.array([1, 2]),
        )

    def test_scanmax_vector_only(self):
        b = KernelBuilder("sm", ["x"])
        b.ret(ScanMax(b.var("x")))
        k = build_kernel(b, dialect="vector")
        np.testing.assert_array_equal(
            k(np.array([1, 3, 2, 5, 4])), np.array([1, 3, 3, 5, 5])
        )
        b2 = KernelBuilder("sm", ["x"])
        b2.ret(ScanMax(b2.var("x")))
        with pytest.raises(StagingError, match="vector"):
            build_kernel(b2, dialect="scalar")

    def test_shift(self):
        b = KernelBuilder("sh", ["x"])
        b.ret(Shift(b.var("x"), 2, Const(-9)))
        k = build_kernel(b, dialect="vector")
        np.testing.assert_array_equal(
            k(np.array([1, 2, 3, 4])), np.array([-9, -9, 1, 2])
        )

    def test_shift_zero_is_identity(self):
        b = KernelBuilder("sh0", ["x"])
        b.ret(Shift(b.var("x"), 0, Const(0)))
        k = build_kernel(b, dialect="vector")
        x = np.array([5, 6])
        np.testing.assert_array_equal(k(x), x)

    def test_unoptimized_kernel_still_correct(self):
        b = KernelBuilder("k", ["x"])
        b.ret(smax(b.var("x") + 0, Const(-(2**30))) * 1)
        k_opt = build_kernel(b, dialect="scalar")
        b2 = KernelBuilder("k", ["x"])
        b2.ret(smax(b2.var("x") + 0, Const(-(2**30))) * 1)
        k_raw = build_kernel(b2, dialect="scalar", optimize=False)
        assert k_opt(42) == k_raw(42) == 42
        assert len(k_opt.source) < len(k_raw.source)

    def test_extra_env(self):
        b = KernelBuilder("k", ["x"])
        b.ret(CallFn("helper", (b.var("x"),)))
        k = build_kernel(b, extra_env={"helper": lambda v: v * 3}, dialect="scalar")
        assert k(4) == 12


class TestGenerators:
    def test_range_loop(self):
        b = KernelBuilder("k", ["A", "n"])
        range_loop(b, 0, b.var("n"), lambda i: b.store("A", (i,), i))
        k = build_kernel(b, dialect="scalar")
        a = np.zeros(6, dtype=np.int64)
        k(a, 6)
        np.testing.assert_array_equal(a, np.arange(6))

    def test_unroll_static(self):
        b = KernelBuilder("k", ["A"])
        unroll(b, 0, 4, lambda i: b.store("A", (i,), i * i))
        fn = b.build()
        assert not contains_node(fn, For)  # fully unrolled at trace time

    def test_unroll_dynamic_bounds_rejected(self):
        b = KernelBuilder("k", ["A", "n"])
        with pytest.raises(StagingError, match="static"):
            unroll(b, 0, b.var("n"), lambda i: None)

    def test_vectorize_marks_loop(self):
        b = KernelBuilder("k", ["A", "n"])
        vec = vectorize(8)
        vec(b, 0, b.var("n"), lambda i: b.store("A", (i,), i))
        fn = b.build()
        assert fn.body[0].kind == "vector"
        assert vec.simd_width == 8

    def test_parallel_marks_loop(self):
        b = KernelBuilder("k", ["A", "n"])
        par = parallel(4)
        par(b, 0, b.var("n"), lambda i: b.store("A", (i,), i))
        assert b.build().body[0].kind == "parallel"
        assert par.num_threads == 4

    def test_combine_2d(self):
        b = KernelBuilder("k", ["A", "h", "w"])
        loop2d = combine(range_loop, range_loop)
        loop2d(
            b,
            (0, b.var("h")),
            (0, b.var("w")),
            lambda y, x: b.store("A", (y, x), y * 10 + x),
        )
        k = build_kernel(b, dialect="scalar")
        a = np.zeros((3, 4), dtype=np.int64)
        k(a, 3, 4)
        expect = np.arange(3)[:, None] * 10 + np.arange(4)[None, :]
        np.testing.assert_array_equal(a, expect)

    def test_combine_unroll_inner(self):
        b = KernelBuilder("k", ["A", "h"])
        loop2d = combine(range_loop, unroll)
        loop2d(b, (0, b.var("h")), (0, 3), lambda y, x: b.store("A", (y, x), y + x))
        fn = b.build()
        outer = fn.body[0]
        assert isinstance(outer, For)
        from repro.stage.ir import Store

        assert sum(isinstance(s, Store) for s in outer.body) == 3

    @pytest.mark.parametrize("th,tw", [(2, 3), (4, 4), (1, 7), (5, 2)])
    def test_tile_covers_domain_exactly_once(self, th, tw):
        b = KernelBuilder("k", ["A", "h", "w"])
        loop2d = tile(th, tw, range_loop, range_loop)
        loop2d(
            b,
            (0, b.var("h")),
            (0, b.var("w")),
            lambda y, x: b.store("A", (y, x), b.load("A", (y, x)) + 1),
        )
        k = build_kernel(b, dialect="scalar")
        a = np.zeros((7, 9), dtype=np.int64)
        k(a, 7, 9)
        np.testing.assert_array_equal(a, np.ones((7, 9), dtype=np.int64))

    def test_tile_rejects_bad_sizes(self):
        with pytest.raises(StagingError):
            tile(0, 4, range_loop, range_loop)

    @settings(max_examples=20, deadline=None)
    @given(h=st.integers(1, 12), w=st.integers(1, 12), th=st.integers(1, 5), tw=st.integers(1, 5))
    def test_tile_property(self, h, w, th, tw):
        b = KernelBuilder("k", ["A", "h", "w"])
        loop2d = tile(th, tw, range_loop, range_loop)
        loop2d(
            b,
            (0, b.var("h")),
            (0, b.var("w")),
            lambda y, x: b.store("A", (y, x), b.load("A", (y, x)) + 1),
        )
        k = build_kernel(b, dialect="scalar")
        a = np.zeros((h, w), dtype=np.int64)
        k(a, h, w)
        assert a.sum() == h * w and a.max() == 1


@staged(filter=lambda x, n: is_static(n))
def pow_(b, x, n):
    """x**n — specializes to a multiply chain for static n (paper §II-B)."""
    if is_static(n):
        v = static_value(n)
        if v == 0:
            return Const(1)
        return pow_.inline(b, x, v - 1) * x
    acc = b.mutable(1)
    with b.loop(b.fresh("k"), 0, n) as _k:
        acc.set(acc.value * x)
    return acc.value


class TestStagedFilters:
    def test_static_n_specializes(self):
        b = KernelBuilder("p5", ["x"])
        b.ret(pow_(b, b.var("x"), 5))
        k = build_kernel(b, dialect="scalar")
        assert k(3) == 243
        assert "for" not in k.source  # loop-less multiply chain

    def test_all_static_folds_to_constant(self):
        b = KernelBuilder("p", [])
        b.ret(pow_(b, Const(3), 5))
        k = build_kernel(b, dialect="scalar")
        assert "243" in k.source
        assert k() == 243

    def test_dyn_stays_residual(self):
        # pow(x, $5): the paper's polyvariance example.
        b = KernelBuilder("pd", ["x"])
        b.ret(pow_(b, b.var("x"), dyn(5)))
        k = build_kernel(b, dialect="scalar")
        assert k(3) == 243
        assert "for" in k.source  # residual loop survives

    def test_runtime_n_residual_helper(self):
        b = KernelBuilder("pn", ["x", "n"])
        b.ret(pow_(b, b.var("x"), b.var("n")))
        k = build_kernel(b, dialect="scalar")
        assert k(2, 10) == 1024
        assert k(5, 0) == 1

    def test_residual_helper_emitted_once(self):
        b = KernelBuilder("pn2", ["x", "n"])
        first = pow_(b, b.var("x"), b.var("n"))
        second = pow_(b, b.var("x") + 1, b.var("n"))
        b.ret(first + second)
        k = build_kernel(b, dialect="scalar")
        assert k.source.count("def _pow_2(") == 1
        assert k(2, 3) == 8 + 27

    @given(x=st.integers(-9, 9), n=st.integers(0, 8))
    @settings(max_examples=25, deadline=None)
    def test_pow_matches_python(self, x, n):
        b = KernelBuilder("pp", ["x"])
        b.ret(pow_(b, b.var("x"), n))
        k = build_kernel(b, dialect="scalar")
        assert k(x) == x**n


class TestKernelCache:
    def test_hit_and_miss_counts(self):
        cache = KernelCache()
        calls = []

        def thunk():
            calls.append(1)
            return _build_axpy("scalar")

        k1 = cache.get_or_build(("axpy", "scalar"), thunk)
        k2 = cache.get_or_build(("axpy", "scalar"), thunk)
        assert k1 is k2
        assert len(calls) == 1
        assert cache.hits == 1 and cache.misses == 1

    def test_clear(self):
        cache = KernelCache()
        cache.get_or_build("k", lambda: _build_axpy("scalar"))
        cache.clear()
        assert len(cache) == 0

    def test_concurrent_builders_count_one_miss(self):
        """Racing builders: only the thread whose kernel lands counts a miss."""
        import threading

        cache = KernelCache()
        barrier = threading.Barrier(4)
        built = []

        def thunk():
            built.append(1)
            return _build_axpy("scalar")

        def worker():
            barrier.wait()  # all four miss the first lookup together
            cache.get_or_build(("axpy", "raced"), thunk)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # However the race resolves, exactly one kernel is installed — one
        # miss; every other call (redundant build or first-lookup hit) is
        # served from the cache and counts a hit.
        assert 1 <= len(built) <= 4
        assert cache.misses == 1
        assert cache.hits == 3
        assert len(cache) == 1


class TestEmission:
    def test_emit_function_standalone(self):
        b = KernelBuilder("f", ["x"])
        b.ret(b.var("x") + 1)
        src = emit_function(b.build(), dialect="scalar")
        assert src.startswith("def f(x):")

    def test_docstring_emitted(self):
        b = KernelBuilder("f", ["x"], docstring="adds one")
        b.ret(b.var("x") + 1)
        src = emit_function(b.build(), dialect="scalar")
        assert '"""adds one"""' in src


class TestIntBounds:
    """The vector dialect keeps Max/Min over known Python ints builtin."""

    def test_declared_ints_loop_indices_and_lets(self):
        b = KernelBuilder("win", ["x", "out", "n"], ints=("n",))
        acc = b.mutable(0, "acc")
        with b.loop("i", 0, b.var("n")) as i:
            lo = b.let(smax(0, i - 1), "lo")
            hi = b.let(smin(b.var("n"), i + 2), "hi")
            acc.set(smax(acc.value, ReduceMax(b.load("x", (b.slice(lo, hi),)))))
            b.store("out", (i,), acc.value)
        k = build_kernel(b, dialect="vector")
        assert "max(0, (i - 1))" in k.source and "min(n, (i + 2))" in k.source
        assert "np.minimum" not in k.source
        # The accumulator is re-assigned, so its Max stays a ufunc.
        assert "np.maximum(acc" in k.source
        out = np.zeros(5, dtype=np.int64)
        k(np.array([3, 1, 0, 1, 5]), out, 5)
        np.testing.assert_array_equal(out, [3, 3, 3, 5, 5])

    def test_undeclared_params_stay_ufuncs(self):
        b = KernelBuilder("m3", ["a", "n"])
        b.ret(smin(b.var("a"), b.var("n") + 1))
        assert "np.minimum" in build_kernel(b, dialect="vector").source

    def test_ints_must_be_params(self):
        with pytest.raises(StagingError, match="parameters"):
            KernelBuilder("bad", ["x"], ints=("n",))

    def test_banded_bounds_are_builtin(self):
        import re

        from repro.core.kernels import build_banded_kernel
        from repro.core.scoring import (
            affine_gap_scoring,
            global_scheme,
            linear_gap_scoring,
            semiglobal_scheme,
            simple_subst_scoring,
        )

        sub = simple_subst_scoring(2, -1)
        for scheme in (
            global_scheme(linear_gap_scoring(sub, -1)),
            semiglobal_scheme(affine_gap_scoring(sub, -2, -1)),
        ):
            for band in (0, 32):
                src = build_banded_kernel(scheme, band).source
                bounds = [
                    line
                    for line in src.splitlines()
                    if re.match(r"\s*(lo|hi|lof|hif)\d+ = ", line) or "in range(" in line
                ]
                assert bounds and not any("np." in line for line in bounds)
                assert "np.minimum" not in src

    def test_rowscan_sources_unchanged(self):
        # SHA-256 of the rowscan kernels' generated source, pinned from
        # before int-typed Max/Min existed: the rowscan kernels declare
        # no ints and must emit byte-identical code.
        import hashlib

        from repro.core.kernels import build_rowscan_kernel
        from repro.core.scoring import (
            affine_gap_scoring,
            global_scheme,
            linear_gap_scoring,
            local_scheme,
            semiglobal_scheme,
            simple_subst_scoring,
        )

        sub = simple_subst_scoring(2, -1)
        pinned = {
            ("global", False): "518b020c89a634565667699ecbdccfd42dee83f82060ea337a9d5d8a444d6583",
            ("global", True): "cabed01c930b7ec6f65a6cde57ec0eea07b7a907b0ed08cb8b0e9426b4a908d4",
            ("semiglobal", False): "8d83de4f9346c73b4cf6c851b005692bf243c7f9186b2007dc89f1041174cbd5",
            ("semiglobal", True): "03149d49798933dbc5cc5a276ade0192c3bc878b4adb5c578df9a98b5fa22dc5",
            ("local", False): "1669fe921cf67f37b9b3f62824426405d9a37dacc51e1477d870c0072891bde8",
            ("local", True): "d774f22f876368432cbaf95c8bf32f1c0f0c04e25ed2b020d1a3e638477c5528",
        }
        makers = {"global": global_scheme, "semiglobal": semiglobal_scheme, "local": local_scheme}
        for (kind, affine), digest in pinned.items():
            gaps = affine_gap_scoring(sub, -2, -1) if affine else linear_gap_scoring(sub, -1)
            src = build_rowscan_kernel(makers[kind](gaps)).source
            assert hashlib.sha256(src.encode()).hexdigest() == digest, (kind, affine)

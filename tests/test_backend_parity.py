"""Backend parity: every registered backend reproduces the reference DP.

The unified frontend's contract is that *any* name in the registry (plus
the inline strategies) gives identical scores on the full scheme grid —
alignment type × gap model — as does the ``core`` frontend built with no
backend name, and that the staged kernel also agrees across score dtypes.
Backends whose declared capabilities exclude a scheme (e.g. SSW is
local-only) must refuse it loudly, not mis-compute.
"""

import numpy as np
import pytest

from repro.core import Aligner
from repro.core.backend import (
    INLINE_BACKENDS,
    available_backends,
    capability_matrix,
    create_backend,
)
from repro.core.recurrence import score_reference
from repro.core.scoring import (
    affine_gap_scoring,
    global_scheme,
    linear_gap_scoring,
    local_scheme,
    semiglobal_scheme,
    simple_subst_scoring,
)
from repro.util.checks import ValidationError
from repro.util.encoding import encode

SUB = simple_subst_scoring(2, -1)
SCHEMES = {
    f"{kind}-{gap}": builder(gaps)
    for kind, builder in (
        ("global", global_scheme),
        ("local", local_scheme),
        ("semiglobal", semiglobal_scheme),
    )
    for gap, gaps in (
        ("linear", linear_gap_scoring(SUB, -1)),
        ("affine", affine_gap_scoring(SUB, -3, -1)),
    )
}

#: Every registered name, plus ``core``: the :class:`Aligner` frontend
#: built without a backend name (its ``rowscan`` default).
BACKENDS = sorted((available_backends() - {"auto"}) | {"core"})


def _aligner(scheme, backend):
    return Aligner(scheme) if backend == "core" else Aligner(scheme, backend=backend)


def _caps(backend):
    return capability_matrix()["rowscan" if backend == "core" else backend]


def _pairs(seed=7, count=3):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(rng.integers(9, 40))
        m = int(rng.integers(9, 40))
        out.append(
            (
                "".join(rng.choice(list("ACGT"), n)),
                "".join(rng.choice(list("ACGT"), m)),
            )
        )
    return out


class TestRegistry:
    def test_expected_names_registered(self):
        names = available_backends()
        for required in (
            "rowscan",
            "scalar",
            "reference",
            "tiled",
            "simd",
            "gpu",
            "fpga",
            "seqan",
            "parasail",
            "ssw",
            "nvbio",
            "auto",
        ):
            assert required in names

    def test_capability_matrix_covers_registry(self):
        caps = capability_matrix()
        for name in available_backends() - {"auto"}:
            assert name in caps
            assert caps[name].name == name

    def test_comparators_and_simulated_flagged(self):
        caps = capability_matrix()
        assert caps["gpu"].simulated and caps["fpga"].simulated
        for name in ("seqan", "parasail", "ssw", "nvbio"):
            assert caps[name].comparator

    def test_every_backend_satisfies_protocol(self):
        from repro.core.backend import Backend
        from repro.core.scoring import default_scheme

        caps = capability_matrix()
        for name in available_backends() - {"auto"}:
            scheme = (
                default_scheme()
                if caps[name].supports_scheme(default_scheme())
                else SCHEMES["local-linear"]
            )
            inst = create_backend(name, scheme)
            assert isinstance(inst, Backend), name


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("scheme_key", sorted(SCHEMES))
class TestParityGrid:
    def test_scores_match_reference(self, backend, scheme_key):
        scheme = SCHEMES[scheme_key]
        caps = _caps(backend)
        if not caps.supports_scheme(scheme):
            with pytest.raises(ValidationError):
                _aligner(scheme, backend).score("ACGT", "ACGT")
            return
        a = _aligner(scheme, backend)
        for q, s in _pairs():
            expected = score_reference(encode(q), encode(s), scheme)
            assert a.score(q, s) == expected, (backend, scheme_key, q, s)

    def test_batch_matches_reference(self, backend, scheme_key):
        scheme = SCHEMES[scheme_key]
        caps = _caps(backend)
        if not caps.supports_scheme(scheme):
            pytest.skip(f"{backend} does not support {scheme_key}")
        pairs = _pairs(seed=11, count=5)
        qs, ss = [p[0] for p in pairs], [p[1] for p in pairs]
        out = _aligner(scheme, backend).score_batch(qs, ss)
        expected = [score_reference(encode(q), encode(s), scheme) for q, s in pairs]
        assert list(out) == expected

    def test_align_matches_reference_score(self, backend, scheme_key):
        scheme = SCHEMES[scheme_key]
        caps = _caps(backend)
        if not caps.supports_scheme(scheme):
            pytest.skip(f"{backend} does not support {scheme_key}")
        q, s = _pairs(seed=23, count=1)[0]
        res = _aligner(scheme, backend).align(q, s)
        assert res.score == score_reference(encode(q), encode(s), scheme)


@pytest.mark.parametrize("dtype", [np.int16, np.int32, np.int64])
def test_core_dtype_grid(dtype):
    """The staged kernel path agrees across declared score widths."""
    for scheme in SCHEMES.values():
        a = Aligner(scheme, backend="rowscan", dtype=dtype)
        for q, s in _pairs(seed=3, count=2):
            assert a.score(q, s) == score_reference(encode(q), encode(s), scheme)


def test_inline_names_are_not_factories():
    """Inline strategies resolve to Aligner modes, not registry entries."""
    for name in INLINE_BACKENDS:
        inst = create_backend(name)
        assert isinstance(inst, Aligner)
        assert inst.backend == name

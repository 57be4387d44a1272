"""First-class backend protocol and capability-driven dispatch.

The paper's central claim is that one staged specification serves every
parameterisation scenario *and* target architecture; this module is the
frontend half of that claim.  Every compute path — the staged CPU kernels,
the tiled multi-threaded wavefront, the simulated GPU/FPGA mappings, and
the baseline comparators — registers itself in
:data:`~repro.core.aligner.BACKEND_FACTORIES` and declares a
:class:`BackendCapabilities` record.  The frontend (:class:`Aligner`, the
batch engine in :mod:`repro.engine`) resolves *any* registered name to an
object satisfying the :class:`Backend` protocol, wrapping score-only
aligners in :class:`BackendAdapter` so callers never special-case a target.

``auto`` selection picks a backend from the declared capabilities and the
workload shape (pair count, extent, traceback requirement) — simulated
hardware and comparator reimplementations are never auto-selected; they
remain addressable by name for benchmarks and tests.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field, replace
from typing import Protocol, runtime_checkable

import numpy as np

from repro.core.types import AlignmentResult, AlignmentScheme, AlignmentType
from repro.util.checks import ValidationError
from repro.util.encoding import encode

__all__ = [
    "Backend",
    "BackendAdapter",
    "BackendCapabilities",
    "available_backends",
    "capability_matrix",
    "create_backend",
    "ensure_backends_registered",
    "select_backend",
    "INLINE_BACKENDS",
    "LANE_TRACEBACK",
]


#: Names handled by :class:`Aligner` itself (staged-kernel strategies).
INLINE_BACKENDS = frozenset({"rowscan", "scalar", "reference"})

#: Inline strategies whose alignments are the lane-stack traceback of
#: :mod:`repro.core.traceback` (``reference`` keeps its loop oracle).
LANE_TRACEBACK = INLINE_BACKENDS - {"reference"}

#: Extent above which a single pair is worth the tiled multi-threaded path.
LONG_PAIR_EXTENT = 4096

#: Pair count from which lane batching dominates single-pair dispatch.
BATCH_PAIRS = 4

_GAPS_BOTH = frozenset({"linear", "affine"})
_TYPES_ALL = frozenset(AlignmentType)


@dataclass(frozen=True)
class BackendCapabilities:
    """What one backend can compute and how it likes its work shaped.

    ``base_rank`` orders backends of equal workload fit (higher wins);
    ``simulated`` / ``comparator`` exclude modelled hardware and baseline
    reimplementations from ``auto`` selection without hiding them from
    by-name dispatch.
    """

    name: str
    kind: str  # "cpu" | "gpu" | "fpga"
    alignment_types: frozenset = _TYPES_ALL
    gap_models: frozenset = _GAPS_BOTH
    supports_traceback: bool = False
    banded: bool = False  # band-constrained scoring (repro.core.banded)
    lane_batching: bool = False  # same-shape pairs relax in SIMD lanes
    threaded: bool = False  # scales across worker threads
    batch_only: bool = False  # no native single-pair entry point
    simulated: bool = False  # modelled hardware (excluded from auto)
    comparator: bool = False  # baseline reimplementation (excluded from auto)
    dtypes: tuple = ("int64",)  # score widths the backend accepts
    base_rank: int = 0

    def supports_scheme(self, scheme: AlignmentScheme) -> bool:
        gap = "affine" if scheme.scoring.is_affine else "linear"
        return scheme.alignment_type in self.alignment_types and gap in self.gap_models


@runtime_checkable
class Backend(Protocol):
    """The full frontend contract every resolved backend satisfies."""

    def score(self, query, subject) -> int: ...

    def align(self, query, subject) -> AlignmentResult: ...

    def score_batch(self, queries, subjects) -> np.ndarray: ...

    def align_batch(self, queries, subjects) -> list: ...

    def capabilities(self) -> BackendCapabilities: ...


#: Capabilities of the Aligner's inline staged-kernel strategies.
_INLINE_CAPS = {
    "rowscan": BackendCapabilities(
        name="rowscan",
        kind="cpu",
        supports_traceback=True,
        banded=True,
        lane_batching=True,
        dtypes=("int16", "int32", "int64"),
        base_rank=2,
    ),
    "scalar": BackendCapabilities(
        name="scalar",
        kind="cpu",
        supports_traceback=True,
        banded=True,
        base_rank=-2,
    ),
    "reference": BackendCapabilities(
        name="reference",
        kind="cpu",
        supports_traceback=True,
        banded=True,
        base_rank=-5,
    ),
}

_registered = False


def ensure_backends_registered() -> None:
    """Import every subsystem that registers backends (idempotent).

    Registration happens at module import; the frontend must not depend on
    the caller having imported :mod:`repro.cpu` / :mod:`repro.gpu` /
    :mod:`repro.fpga` / :mod:`repro.baselines` first.
    """
    global _registered
    if _registered:
        return
    import repro.baselines  # noqa: F401
    import repro.cpu  # noqa: F401
    import repro.fpga  # noqa: F401
    import repro.gpu  # noqa: F401

    _registered = True


def available_backends() -> set:
    """Every name accepted by ``Aligner(backend=...)`` / the engine."""
    from repro.core.aligner import BACKEND_FACTORIES

    ensure_backends_registered()
    return set(BACKEND_FACTORIES) | set(INLINE_BACKENDS) | {"auto"}


_matrix_cache: tuple | None = None  # (registry key, matrix)


def capability_matrix() -> dict:
    """name → :class:`BackendCapabilities` for every registered backend.

    Memoized on the set of registered names (``auto`` selection consults
    this per call, so rebuilding the records each time would sit on the
    single-pair hot path); a new :func:`register_backend` registration
    invalidates the memo.  Treat the returned dict as read-only.
    """
    global _matrix_cache
    from repro.core.aligner import BACKEND_FACTORIES

    ensure_backends_registered()
    key = frozenset(BACKEND_FACTORIES)
    if _matrix_cache is not None and _matrix_cache[0] == key:
        return _matrix_cache[1]
    out = dict(_INLINE_CAPS)
    for name, cls in BACKEND_FACTORIES.items():
        caps = getattr(cls, "capabilities", None)
        if caps is not None:
            caps = caps()
        else:  # permissive default for third-party registrations
            caps = BackendCapabilities(name=name, kind="cpu")
        if caps.name != name:  # one class may register under several names
            caps = replace(caps, name=name)
        out[name] = caps
    _matrix_cache = (key, out)
    return out


def select_backend(
    scheme: AlignmentScheme,
    pairs: int = 1,
    extent: int = 0,
    need_traceback: bool = False,
) -> str:
    """Pick a backend name for a workload shape from declared capabilities.

    ``pairs`` is the number of independent alignments, ``extent`` the
    largest sequence length among them.  Simulated and comparator backends
    never win; the choice is deterministic so it can be asserted in tests.
    """
    candidates = []
    for name, caps in capability_matrix().items():
        if caps.simulated or caps.comparator:
            continue
        if not caps.supports_scheme(scheme):
            continue
        if need_traceback and not caps.supports_traceback:
            continue
        if caps.batch_only and pairs == 1:
            continue
        candidates.append((name, caps))
    if not candidates:
        raise ValidationError(
            f"no registered backend supports scheme {scheme.cache_key()!r}"
        )

    def rank(item):
        name, caps = item
        r = float(caps.base_rank)
        if pairs >= BATCH_PAIRS and caps.lane_batching:
            r += 3
        if pairs <= 2 and extent >= LONG_PAIR_EXTENT and caps.threaded:
            r += 4
        return (r, name)  # name breaks ties deterministically

    return max(candidates, key=rank)[0]


def _filter_ctor_opts(cls, opts: dict) -> dict:
    """Keep only keyword options the backend constructor accepts."""
    if not opts:
        return {}
    params = inspect.signature(cls.__init__).parameters
    if any(p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values()):
        return dict(opts)
    return {k: v for k, v in opts.items() if k in params}


def create_backend(name: str, scheme: AlignmentScheme | None = None, **opts) -> Backend:
    """Resolve a registered name to an object satisfying :class:`Backend`.

    ``rowscan`` / ``scalar`` / ``reference`` / ``auto`` resolve to
    :class:`Aligner` in the matching mode; any other name instantiates its
    registered factory (constructor options filtered to what it accepts)
    and wraps it in :class:`BackendAdapter` when it only implements part of
    the protocol.
    """
    from repro.core.aligner import BACKEND_FACTORIES, Aligner

    ensure_backends_registered()
    if name in INLINE_BACKENDS or name == "auto":
        return Aligner(scheme, backend=name, **_filter_ctor_opts(Aligner, opts))
    if name not in BACKEND_FACTORIES:
        raise ValidationError(
            f"backend must be one of {sorted(available_backends())!r}, got {name!r}"
        )
    cls = BACKEND_FACTORIES[name]
    inner = cls(scheme, **_filter_ctor_opts(cls, opts))
    if isinstance(inner, Backend):
        return inner
    caps = capability_matrix()[name]
    return BackendAdapter(name, inner, scheme, caps)


@dataclass
class BackendAdapter:
    """Lift a partial backend (e.g. score-only) to the full protocol.

    ``align`` falls back to the backend-independent linear-space traceback
    (identical results by construction — every score path is tested against
    the same reference DP); ``score_batch`` prefers the backend's native
    batch entry points (``score_many`` joint scheduling, rectangular
    ``score_batch``) and otherwise loops.
    """

    name: str
    inner: object
    scheme: AlignmentScheme | None
    caps: BackendCapabilities
    _scheme: AlignmentScheme = field(init=False)

    def __post_init__(self):
        from repro.core.scoring import default_scheme

        self._scheme = self.scheme if self.scheme is not None else default_scheme()

    def capabilities(self) -> BackendCapabilities:
        return self.caps

    # -- single pair -------------------------------------------------------
    def score(self, query, subject) -> int:
        if self.caps.batch_only:
            return int(self.score_batch([query], [subject])[0])
        return int(self.inner.score(query, subject))

    def align(self, query, subject) -> AlignmentResult:
        if hasattr(self.inner, "align"):
            return self.inner.align(query, subject)
        from repro.core.traceback import align_linear_space

        return align_linear_space(encode(query), encode(subject), self._scheme)

    # -- batches -----------------------------------------------------------
    def score_batch(self, queries, subjects) -> np.ndarray:
        if len(queries) != len(subjects):
            raise ValidationError("queries and subjects must pair up")
        enc_q = [encode(q) for q in queries]
        enc_s = [encode(s) for s in subjects]
        out = np.empty(len(enc_q), dtype=np.int64)
        if hasattr(self.inner, "score_many"):
            out[:] = self.inner.score_many(list(zip(enc_q, enc_s)))
            return out
        if hasattr(self.inner, "score_batch"):
            from repro.engine.batching import group_by_shape

            for bucket in group_by_shape(enc_q, enc_s):
                out[bucket.indices] = self.inner.score_batch(
                    bucket.queries, bucket.subjects
                )
            return out
        for k, (q, s) in enumerate(zip(enc_q, enc_s)):
            out[k] = self.inner.score(q, s)
        return out

    def align_batch(self, queries, subjects) -> list:
        if len(queries) != len(subjects):
            raise ValidationError("queries and subjects must pair up")
        return [self.align(q, s) for q, s in zip(queries, subjects)]

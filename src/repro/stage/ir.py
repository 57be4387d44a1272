"""Intermediate representation of staged kernels.

This is the Python analog of AnyDSL's Thorin IR at the granularity this
library needs: a small expression/statement language that alignment kernels
are traced into, partially evaluated (``repro.stage.peval``), and then
emitted as Python/NumPy source (``repro.stage.codegen``).

Design notes
------------
* Expressions are immutable trees with operator overloading, so ordinary
  Python functions composed over :class:`Expr` values *are* the staged
  program — higher-order composition disappears at trace time exactly as
  Impala specializes higher-order parameters.
* ``Const`` folds; ``DynConst`` is the analog of Impala's ``$expr`` — a
  value the partial evaluator must treat as dynamic.
* Vector-dialect-only nodes (``ScanMax``, ``Shift``) express whole-row
  operations used by the row-sweep alignment kernels.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

_BINOPS = {"+", "-", "*", "//", "%", "&", "|", "^", "<<", ">>"}
_CMPOPS = {"==", "!=", "<", "<=", ">", ">="}


def as_expr(value) -> "Expr":
    """Lift a Python value into the IR (ints/bools become ``Const``)."""
    if isinstance(value, Expr):
        return value
    if isinstance(value, bool):
        return Const(bool(value))
    if isinstance(value, (int,)):
        return Const(int(value))
    raise TypeError(f"cannot stage value of type {type(value).__name__}: {value!r}")


class Expr:
    """Base class of all IR expressions; provides operator overloading."""

    def __add__(self, other):
        return BinOp("+", self, as_expr(other))

    def __radd__(self, other):
        return BinOp("+", as_expr(other), self)

    def __sub__(self, other):
        return BinOp("-", self, as_expr(other))

    def __rsub__(self, other):
        return BinOp("-", as_expr(other), self)

    def __mul__(self, other):
        return BinOp("*", self, as_expr(other))

    def __rmul__(self, other):
        return BinOp("*", as_expr(other), self)

    def __floordiv__(self, other):
        return BinOp("//", self, as_expr(other))

    def __mod__(self, other):
        return BinOp("%", self, as_expr(other))

    def __and__(self, other):
        return BinOp("&", self, as_expr(other))

    def __or__(self, other):
        return BinOp("|", self, as_expr(other))

    def __neg__(self):
        return BinOp("-", Const(0), self)

    def eq(self, other):
        return Cmp("==", self, as_expr(other))

    def ne(self, other):
        return Cmp("!=", self, as_expr(other))

    def __lt__(self, other):
        return Cmp("<", self, as_expr(other))

    def __le__(self, other):
        return Cmp("<=", self, as_expr(other))

    def __gt__(self, other):
        return Cmp(">", self, as_expr(other))

    def __ge__(self, other):
        return Cmp(">=", self, as_expr(other))

    # Children access used by the partial evaluator and codegen -----------
    def children(self) -> tuple["Expr", ...]:
        return ()

    def rebuild(self, *children: "Expr") -> "Expr":
        assert not children
        return self


@dataclass(frozen=True)
class Const(Expr):
    """Compile-time constant; freely folded by the partial evaluator."""

    value: object

    def __repr__(self):
        return f"Const({self.value!r})"


@dataclass(frozen=True)
class DynConst(Expr):
    """A runtime-known value the evaluator must not fold (Impala ``$x``)."""

    value: object

    def __repr__(self):
        return f"DynConst({self.value!r})"


@dataclass(frozen=True)
class Var(Expr):
    """A named runtime value (kernel parameter, loop index, let binding)."""

    name: str

    def __repr__(self):
        return f"Var({self.name})"


@dataclass(frozen=True)
class BinOp(Expr):
    op: str
    a: Expr
    b: Expr

    def __post_init__(self):
        assert self.op in _BINOPS, self.op

    def children(self):
        return (self.a, self.b)

    def rebuild(self, a, b):
        return BinOp(self.op, a, b)


@dataclass(frozen=True)
class Cmp(Expr):
    op: str
    a: Expr
    b: Expr

    def __post_init__(self):
        assert self.op in _CMPOPS, self.op

    def children(self):
        return (self.a, self.b)

    def rebuild(self, a, b):
        return Cmp(self.op, a, b)


@dataclass(frozen=True)
class Select(Expr):
    """``a if cond else b`` — scalar ternary / vector ``np.where``."""

    cond: Expr
    a: Expr
    b: Expr

    def children(self):
        return (self.cond, self.a, self.b)

    def rebuild(self, cond, a, b):
        return Select(cond, a, b)


@dataclass(frozen=True)
class Min(Expr):
    a: Expr
    b: Expr

    def children(self):
        return (self.a, self.b)

    def rebuild(self, a, b):
        return Min(a, b)


@dataclass(frozen=True)
class Max(Expr):
    a: Expr
    b: Expr

    def children(self):
        return (self.a, self.b)

    def rebuild(self, a, b):
        return Max(a, b)


@dataclass(frozen=True)
class Load(Expr):
    """Array element / slice read: ``array[idx0, idx1, ...]``."""

    array: str
    index: tuple

    def children(self):
        return tuple(i for i in self.index if isinstance(i, Expr))

    def rebuild(self, *children):
        it = iter(children)
        idx = tuple(next(it) if isinstance(i, Expr) else i for i in self.index)
        return Load(self.array, idx)


@dataclass(frozen=True)
class Slice(Expr):
    """A slice component inside a Load/Store index: ``start:stop``."""

    start: Expr
    stop: Expr

    def children(self):
        return (self.start, self.stop)

    def rebuild(self, start, stop):
        return Slice(start, stop)


@dataclass(frozen=True)
class CallFn(Expr):
    """Residual call to a non-inlined staged function."""

    name: str
    args: tuple

    def children(self):
        return self.args

    def rebuild(self, *args):
        return CallFn(self.name, tuple(args))


@dataclass(frozen=True)
class ScanMax(Expr):
    """Vector dialect: running maximum ``out[k] = max(out[k-1], x[k])``.

    This is the whole-row horizontal-gap scan of the row-sweep kernels
    (``np.maximum.accumulate`` along the last axis at runtime).
    """

    x: Expr

    def children(self):
        return (self.x,)

    def rebuild(self, x):
        return ScanMax(x)


@dataclass(frozen=True)
class ReduceMax(Expr):
    """Vector dialect: maximum along the last axis (per-lane row maximum)."""

    x: Expr

    def children(self):
        return (self.x,)

    def rebuild(self, x):
        return ReduceMax(x)


@dataclass(frozen=True)
class Shift(Expr):
    """Vector dialect: shift a row right by ``k`` filling with ``fill``."""

    x: Expr
    k: int
    fill: Expr

    def children(self):
        return (self.x, self.fill)

    def rebuild(self, x, fill):
        return Shift(x, self.k, fill)


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


class Stmt:
    """Base class of IR statements."""


@dataclass
class Let(Stmt):
    """Immutable binding ``name = expr`` (eliminated if unused)."""

    name: str
    expr: Expr


@dataclass
class Mutate(Stmt):
    """Re-assignment of an existing binding (loop-carried state)."""

    name: str
    expr: Expr


@dataclass
class Store(Stmt):
    array: str
    index: tuple
    value: Expr


@dataclass
class For(Stmt):
    """Counted loop.  ``kind`` distinguishes generator flavours:

    - ``"range"``: ordinary sequential loop,
    - ``"unrolled"``: produced by trace-time unrolling (kept for metadata),
    - ``"vector"``: body operates on whole lanes (NumPy dialect),
    - ``"parallel"``: iterations are independent; executors may fan out.
    """

    var: str
    start: Expr
    stop: Expr
    body: list = field(default_factory=list)
    kind: str = "range"
    step: int = 1


@dataclass
class If(Stmt):
    cond: Expr
    then: list = field(default_factory=list)
    orelse: list = field(default_factory=list)


@dataclass
class Return(Stmt):
    value: Expr | tuple | None


@dataclass
class Comment(Stmt):
    text: str


@dataclass
class Function:
    """A staged function: name, parameter names, body statements.

    ``ints`` names the parameters that are plain Python ints at every call
    site; the vector dialect keeps scalar arithmetic on them in builtins.
    """

    name: str
    params: list
    body: list
    docstring: str = ""
    ints: tuple = ()


@dataclass
class Module:
    """A compilation unit: entry function plus residual helper functions."""

    entry: Function
    helpers: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# Small helpers used across the staging layer
# ---------------------------------------------------------------------------


def is_static(e) -> bool:
    """Analog of Impala's ``?expr``: is this value known at staging time?"""
    if isinstance(e, Const):
        return True
    if isinstance(e, Expr):
        return False
    return isinstance(e, (int, bool))


def static_value(e):
    """Extract the Python value of a static expression."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, (int, bool)):
        return e
    raise ValueError(f"not a static value: {e!r}")


def dyn(value) -> DynConst:
    """Analog of Impala's ``$expr``: block constant folding of ``value``."""
    return DynConst(value)


def select(cond, a, b) -> Expr:
    """Staged ternary; folds immediately if ``cond`` is static."""
    if is_static(cond):
        return as_expr(a) if static_value(cond) else as_expr(b)
    return Select(as_expr(cond), as_expr(a), as_expr(b))


def smax(*xs) -> Expr:
    """Staged n-ary maximum (folded pairwise by the partial evaluator)."""
    out = as_expr(xs[0])
    for x in xs[1:]:
        out = Max(out, as_expr(x))
    return out


def smin(*xs) -> Expr:
    out = as_expr(xs[0])
    for x in xs[1:]:
        out = Min(out, as_expr(x))
    return out

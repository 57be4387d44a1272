"""Python/NumPy code generation from the staged IR.

Two dialects are supported, mirroring the paper's scalar CPU vs. vectorized
code paths:

* ``"scalar"`` — plain Python operators (``max``, ternary ``if``); fastest
  for per-cell scalar kernels because it avoids NumPy's per-call overhead.
* ``"vector"`` — NumPy ufuncs (``np.maximum``, ``np.where``) so the same IR
  executes element-wise over whole lanes/rows; ``ScanMax``/``Shift`` map to
  ``np.maximum.accumulate`` and slice moves.  ``Max``/``Min`` whose
  operands are known Python ints (int constants, loop indices, the
  function's declared ``ints`` and lets built from them) stay builtin
  ``max``/``min``: a row window's bounds are computed once per row, where a
  ufunc call costs more than the work.

Generated sources are registered with :mod:`linecache` so tracebacks from
inside a specialized kernel show real code.
"""

from __future__ import annotations

import linecache

import numpy as np

from repro.stage.ir import (
    BinOp,
    CallFn,
    Cmp,
    Comment,
    Const,
    DynConst,
    Expr,
    For,
    Function,
    If,
    Let,
    Load,
    Max,
    Min,
    Module,
    Mutate,
    ReduceMax,
    Return,
    ScanMax,
    Select,
    Shift,
    Slice,
    Store,
    Var,
)
from repro.stage.peval import _collect_reads
from repro.util.checks import StagingError

__all__ = ["emit_function", "emit_module", "register_source", "RUNTIME_HELPERS"]


def _shift_right(x, k, fill):
    """Runtime helper: shift along the last axis by ``k``, filling ``fill``."""
    if k == 0:
        return x
    out = np.empty_like(x)
    out[..., :k] = fill
    out[..., k:] = x[..., :-k]
    return out


def _scan_max(x):
    """Runtime helper: running maximum along the last axis."""
    return np.maximum.accumulate(x, axis=-1)


#: Names injected into the namespace of every compiled kernel.
RUNTIME_HELPERS = {
    "np": np,
    "_shift_right": _shift_right,
    "_scan_max": _scan_max,
}


class _Emitter:
    def __init__(self, dialect: str, ints=()):
        if dialect not in ("scalar", "vector"):
            raise StagingError(f"unknown dialect {dialect!r}")
        self.dialect = dialect
        self.lines: list[str] = []
        self.depth = 0
        self.ints = set(ints)  # names bound to Python ints
        self.mutated: set = set()  # re-assigned names are never int-typed

    def is_int(self, e: Expr) -> bool:
        """Whether ``e`` evaluates to a Python int at run time."""
        if isinstance(e, (Const, DynConst)):
            return isinstance(e.value, int)
        if isinstance(e, Var):
            return e.name in self.ints
        if isinstance(e, (BinOp, Max, Min)):  # every IR BinOp keeps ints ints
            return self.is_int(e.a) and self.is_int(e.b)
        return False

    def w(self, line: str = ""):
        self.lines.append("    " * self.depth + line if line else "")

    # -- expressions -------------------------------------------------------
    def expr(self, e: Expr) -> str:
        if isinstance(e, Const):
            return repr(e.value)
        if isinstance(e, DynConst):
            return repr(e.value)
        if isinstance(e, Var):
            return e.name
        if isinstance(e, BinOp):
            return f"({self.expr(e.a)} {e.op} {self.expr(e.b)})"
        if isinstance(e, Cmp):
            return f"({self.expr(e.a)} {e.op} {self.expr(e.b)})"
        if isinstance(e, Select):
            c, a, b = self.expr(e.cond), self.expr(e.a), self.expr(e.b)
            if self.dialect == "vector":
                return f"np.where({c}, {a}, {b})"
            return f"({a} if {c} else {b})"
        if isinstance(e, Max):
            a, b = self.expr(e.a), self.expr(e.b)
            if self.dialect == "vector":
                return f"max({a}, {b})" if self.is_int(e) else f"np.maximum({a}, {b})"
            return f"({a} if {a} >= {b} else {b})" if _cheap(e.a, e.b) else f"max({a}, {b})"
        if isinstance(e, Min):
            a, b = self.expr(e.a), self.expr(e.b)
            if self.dialect == "vector" and not self.is_int(e):
                return f"np.minimum({a}, {b})"
            return f"min({a}, {b})"
        if isinstance(e, Load):
            return f"{e.array}[{self.index(e.index)}]"
        if isinstance(e, CallFn):
            args = ", ".join(self.expr(a) for a in e.args)
            return f"{e.name}({args})"
        if isinstance(e, ScanMax):
            if self.dialect != "vector":
                raise StagingError("ScanMax requires the vector dialect")
            return f"_scan_max({self.expr(e.x)})"
        if isinstance(e, ReduceMax):
            if self.dialect != "vector":
                raise StagingError("ReduceMax requires the vector dialect")
            return f"np.max({self.expr(e.x)}, axis=-1)"
        if isinstance(e, Shift):
            if self.dialect != "vector":
                raise StagingError("Shift requires the vector dialect")
            return f"_shift_right({self.expr(e.x)}, {e.k}, {self.expr(e.fill)})"
        raise StagingError(f"cannot emit expression {e!r}")

    def index(self, index: tuple) -> str:
        parts = []
        for i in index:
            if i is Ellipsis:
                parts.append("...")
            elif isinstance(i, Slice):
                parts.append(f"{self.expr(i.start)}:{self.expr(i.stop)}")
            elif isinstance(i, slice):
                start = "" if i.start is None else str(i.start)
                stop = "" if i.stop is None else str(i.stop)
                parts.append(f"{start}:{stop}")
            else:
                parts.append(self.expr(i))
        return ", ".join(parts)

    # -- statements ----------------------------------------------------------
    def stmts(self, body: list):
        if not body:
            self.w("pass")
            return
        for st in body:
            self.stmt(st)

    def stmt(self, st):
        if isinstance(st, Comment):
            self.w(f"# {st.text}")
        elif isinstance(st, (Let, Mutate)):
            self.w(f"{st.name} = {self.expr(st.expr)}")
            if isinstance(st, Let) and st.name not in self.mutated and self.is_int(st.expr):
                self.ints.add(st.name)
        elif isinstance(st, Store):
            self.w(f"{st.array}[{self.index(st.index)}] = {self.expr(st.value)}")
        elif isinstance(st, For):
            if st.kind == "vector" and self.dialect == "scalar":
                raise StagingError("vector loop in scalar dialect")
            hint = "" if st.kind == "range" else f"  # {st.kind} loop"
            step = f", {st.step}" if st.step != 1 else ""
            self.w(
                f"for {st.var} in range({self.expr(st.start)}, {self.expr(st.stop)}{step}):{hint}"
            )
            self.ints.add(st.var)
            self.depth += 1
            self.stmts(st.body)
            self.depth -= 1
        elif isinstance(st, If):
            self.w(f"if {self.expr(st.cond)}:")
            self.depth += 1
            self.stmts(st.then)
            self.depth -= 1
            if st.orelse:
                self.w("else:")
                self.depth += 1
                self.stmts(st.orelse)
                self.depth -= 1
        elif isinstance(st, Return):
            if st.value is None:
                self.w("return")
            elif isinstance(st.value, tuple):
                self.w("return (" + ", ".join(self.expr(v) for v in st.value) + ")")
            else:
                self.w(f"return {self.expr(st.value)}")
        else:
            raise StagingError(f"cannot emit statement {st!r}")


def _cheap(*exprs) -> bool:
    """Whether inline comparison beats a ``max()`` call (tiny operands only)."""
    return all(isinstance(e, (Var, Const, DynConst)) for e in exprs)


def emit_function(fn: Function, dialect: str = "vector") -> str:
    em = _Emitter(dialect, fn.ints)
    _collect_reads(fn.body, set(), em.mutated)
    em.w(f"def {fn.name}({', '.join(fn.params)}):")
    em.depth += 1
    if fn.docstring:
        em.w(f'"""{fn.docstring}"""')
    em.stmts(fn.body)
    em.depth -= 1
    return "\n".join(em.lines) + "\n"


def emit_module(mod: Module, dialect: str = "vector") -> str:
    """Emit helpers then the entry function as one compilable source blob."""
    parts = [
        f"# generated by repro.stage (dialect={dialect})",
    ]
    for h in mod.helpers:
        parts.append(emit_function(h, dialect))
    parts.append(emit_function(mod.entry, dialect))
    return "\n\n".join(parts) + "\n"


def register_source(filename: str, source: str):
    """Make generated source visible to tracebacks and ``inspect``."""
    linecache.cache[filename] = (
        len(source),
        None,
        source.splitlines(keepends=True),
        filename,
    )

"""Tracing kernel builder.

A :class:`KernelBuilder` collects IR statements while ordinary Python code
runs.  The Python execution *is* the first Futamura stage: every Python-level
function call, attribute access, and loop over static bounds is evaluated
away during tracing, leaving only the residual IR.

Example::

    b = KernelBuilder("axpy", params=["x", "y", "n", "a"])
    with b.loop("i", 0, b.var("n")) as i:
        b.store("y", (i,), b.load("x", (i,)) * b.var("a") + b.load("y", (i,)))
    fn = b.build()
"""

from __future__ import annotations

import contextlib
import itertools

from repro.stage.ir import (
    Comment,
    Const,
    Expr,
    For,
    Function,
    If,
    Let,
    Load,
    Mutate,
    Return,
    Slice,
    Stmt,
    Store,
    Var,
    as_expr,
)
from repro.util.checks import StagingError


class MutableCell:
    """A named mutable binding (loop-carried state) inside a kernel.

    Reading yields a :class:`Var`; assigning emits a :class:`Mutate`.  This
    mirrors Impala's ``let mut`` without tracking SSA form explicitly.
    """

    __slots__ = ("_builder", "name")

    def __init__(self, builder: "KernelBuilder", name: str):
        self._builder = builder
        self.name = name

    @property
    def value(self) -> Var:
        return Var(self.name)

    def set(self, expr):
        self._builder.emit(Mutate(self.name, as_expr(expr)))


class KernelBuilder:
    """Collects statements for one staged function."""

    def __init__(self, name: str, params: list[str], docstring: str = "", ints=()):
        self.name = name
        self.params = list(params)
        self.docstring = docstring
        self.ints = tuple(ints)
        if not set(self.ints) <= set(self.params):
            raise StagingError(f"ints {self.ints} must name parameters of {name}")
        self._body: list[Stmt] = []
        self._stack: list[list[Stmt]] = [self._body]
        self._counter = itertools.count()
        self._finished = False

    # -- naming ----------------------------------------------------------
    def fresh(self, prefix: str = "t") -> str:
        return f"{prefix}{next(self._counter)}"

    def var(self, name: str) -> Var:
        """Reference a parameter or existing binding by name."""
        return Var(name)

    # -- emission --------------------------------------------------------
    def emit(self, stmt: Stmt):
        if self._finished:
            raise StagingError("builder already finalized")
        self._stack[-1].append(stmt)

    def comment(self, text: str):
        self.emit(Comment(text))

    def let(self, expr, prefix: str = "t") -> Var:
        """Bind ``expr`` to a fresh name; returns the variable.

        Constants are returned unchanged — a trivial example of partial
        evaluation happening during tracing.
        """
        expr = as_expr(expr)
        if isinstance(expr, (Const, Var)):
            return expr  # no binding needed
        name = self.fresh(prefix)
        self.emit(Let(name, expr))
        return Var(name)

    def mutable(self, init, prefix: str = "m") -> MutableCell:
        """Create a mutable binding initialised to ``init``."""
        name = self.fresh(prefix)
        self.emit(Let(name, as_expr(init)))
        return MutableCell(self, name)

    def load(self, array: str, index) -> Load:
        return Load(array, self._index(index))

    def store(self, array: str, index, value):
        self.emit(Store(array, self._index(index), as_expr(value)))

    def slice(self, start, stop) -> Slice:
        return Slice(as_expr(start), as_expr(stop))

    @staticmethod
    def _index(index) -> tuple:
        if not isinstance(index, tuple):
            index = (index,)
        return tuple(
            i if isinstance(i, (Slice, slice)) or i is Ellipsis else as_expr(i)
            for i in index
        )

    def ret(self, value=None):
        if isinstance(value, tuple):
            self.emit(Return(tuple(as_expr(v) for v in value)))
        else:
            self.emit(Return(as_expr(value) if value is not None else None))

    # -- structured control flow ------------------------------------------
    @contextlib.contextmanager
    def loop(self, var: str, start, stop, kind: str = "range", step: int = 1):
        """Emit a ``For`` statement; the with-body traces the loop body."""
        node = For(
            var=var if var else self.fresh("i"),
            start=as_expr(start),
            stop=as_expr(stop),
            kind=kind,
            step=step,
        )
        self.emit(node)
        self._stack.append(node.body)
        try:
            yield Var(node.var)
        finally:
            self._stack.pop()

    @contextlib.contextmanager
    def if_(self, cond):
        node = If(cond=as_expr(cond))
        self.emit(node)
        self._stack.append(node.then)
        try:
            yield
        finally:
            self._stack.pop()

    @contextlib.contextmanager
    def else_(self):
        """Attach an else-branch to the most recent ``If`` at this level."""
        scope = self._stack[-1]
        if not scope or not isinstance(scope[-1], If):
            raise StagingError("else_ must directly follow an if_ block")
        node = scope[-1]
        if node.orelse:
            raise StagingError("if already has an else branch")
        self._stack.append(node.orelse)
        try:
            yield
        finally:
            self._stack.pop()

    # -- finalisation ------------------------------------------------------
    def build(self) -> Function:
        if self._finished:
            raise StagingError("builder already finalized")
        if len(self._stack) != 1:
            raise StagingError("unclosed control-flow scope at build()")
        self._finished = True
        return Function(
            name=self.name,
            params=self.params,
            body=self._body,
            docstring=self.docstring,
            ints=self.ints,
        )

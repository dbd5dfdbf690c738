"""Residual Python generation for ``L_exc`` (exceptions).

The fourth and last language module through level-2 specialization — and
the most satisfying mapping: ``raise e`` compiles to a Python ``raise``
of a carrier exception and ``try e1 catch x. e2`` to Python
``try/except``, so the host's zero-cost-until-thrown machinery implements
the object language's handler stack.

Monitoring interacts exactly as in the interpreter: ``_post`` hooks
compiled after an expression are skipped when a raise unwinds past them
(they are ordinary statements in the aborted ``try`` body), so the
residual program produces the same unmatched-enter event patterns the
monitored interpreter does — checked against it in the tests.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Sequence

from repro.errors import EvalError
from repro.languages.exceptions import Raise, TryCatch, UncaughtException
from repro.monitoring.compose import MonitorLike, flatten_monitors, validate_observations
from repro.monitoring.derive import check_disjoint
from repro.monitoring.state import MonitorStateVector
from repro.partial_eval.codegen import (
    _PRIM_PY_NAMES,
    _Site,
    GeneratedProgram,
    ResidualRuntime,
    _mangle,
)
from repro.semantics.primitives import PRIMITIVE_TABLE
from repro.semantics.trampoline import raised_recursion_limit
from repro.syntax.ast import (
    Annotated,
    App,
    Const,
    Expr,
    If,
    Lam,
    Let,
    Letrec,
    Var,
)


class _RaisedValue(Exception):
    """The carrier for object-language raised values."""

    __slots__ = ("value",)

    def __init__(self, value) -> None:
        super().__init__(value)
        self.value = value


class ExcResidualRuntime(ResidualRuntime):
    """Adds the raise carrier to the shared residual runtime."""

    raised = _RaisedValue


class _ExcGenerator:
    def __init__(self, monitors: Sequence) -> None:
        self.monitors = list(monitors)
        self.sites: List[_Site] = []
        self.counter = itertools.count()
        self.lines: List[str] = []
        self.indent = 1

    def emit(self, line: str) -> None:
        self.lines.append("    " * self.indent + line)

    def fresh(self, base: str = "t") -> str:
        return f"_{base}{next(self.counter)}"

    def gen(self, expr: Expr, scope: Dict[str, str]) -> str:
        node_type = type(expr)

        if node_type is Const:
            return repr(expr.value)

        if node_type is Var:
            name = expr.name
            if name in scope:
                return scope[name]
            if name == "nil":
                return "_nil"
            if name in PRIMITIVE_TABLE:
                return f"_prim_{_PRIM_PY_NAMES[name][2:]}"
            raise EvalError(f"unbound identifier: {name!r}")

        if node_type is Lam:
            fn_name = self.fresh("fn")
            param_py = _mangle(expr.param) + f"_{next(self.counter)}"
            self.emit(f"def {fn_name}({param_py}):")
            inner = dict(scope)
            inner[expr.param] = param_py
            self.indent += 1
            result = self.gen(expr.body, inner)
            self.emit(f"return {result}")
            self.indent -= 1
            return fn_name

        if node_type is If:
            cond = self.gen(expr.cond, scope)
            out = self.fresh()
            self.emit(f"if _truth({cond}):")
            self.indent += 1
            self.emit(f"{out} = {self.gen(expr.then_branch, scope)}")
            self.indent -= 1
            self.emit("else:")
            self.indent += 1
            self.emit(f"{out} = {self.gen(expr.else_branch, scope)}")
            self.indent -= 1
            return out

        if node_type is App:
            # Saturated primitive fast path.
            if type(expr.fn) is App and type(expr.fn.fn) is Var:
                name = expr.fn.fn.name
                if (
                    name not in scope
                    and name in PRIMITIVE_TABLE
                    and PRIMITIVE_TABLE[name][0] == 2
                ):
                    right = self.gen(expr.arg, scope)
                    left = self.gen(expr.fn.arg, scope)
                    out = self.fresh()
                    self.emit(f"{out} = {_PRIM_PY_NAMES[name]}({left}, {right})")
                    return out
            if type(expr.fn) is Var:
                name = expr.fn.name
                if (
                    name not in scope
                    and name in PRIMITIVE_TABLE
                    and PRIMITIVE_TABLE[name][0] == 1
                ):
                    arg = self.gen(expr.arg, scope)
                    out = self.fresh()
                    self.emit(f"{out} = {_PRIM_PY_NAMES[name]}({arg})")
                    return out
            arg = self.gen(expr.arg, scope)
            fn = self.gen(expr.fn, scope)
            out = self.fresh()
            self.emit(f"{out} = _apply({fn}, {arg})")
            return out

        if node_type is Let:
            bound = self.gen(expr.bound, scope)
            py = _mangle(expr.name) + f"_{next(self.counter)}"
            self.emit(f"{py} = {bound}")
            inner = dict(scope)
            inner[expr.name] = py
            return self.gen(expr.body, inner)

        if node_type is Letrec:
            inner = dict(scope)
            names = {}
            for name, _ in expr.bindings:
                py = _mangle(name) + f"_{next(self.counter)}"
                names[name] = py
                inner[name] = py
            for name, bound in expr.bindings:
                lam = bound
                while isinstance(lam, Annotated):
                    lam = lam.body
                assert isinstance(lam, Lam)
                param_py = _mangle(lam.param) + f"_{next(self.counter)}"
                self.emit(f"def {names[name]}({param_py}):")
                fn_scope = dict(inner)
                fn_scope[lam.param] = param_py
                self.indent += 1
                result = self.gen(lam.body, fn_scope)
                self.emit(f"return {result}")
                self.indent -= 1
            return self.gen(expr.body, inner)

        if node_type is Raise:
            value = self.gen(expr.expr, scope)
            out = self.fresh()
            self.emit(f"raise _raised({value})")
            # Unreachable, but the caller needs an atom.
            self.emit(f"{out} = None")
            return out

        if node_type is TryCatch:
            out = self.fresh()
            self.emit("try:")
            self.indent += 1
            body = self.gen(expr.body, scope)
            self.emit(f"{out} = {body}")
            self.indent -= 1
            exc_name = self.fresh("e")
            self.emit(f"except _raised as {exc_name}:")
            self.indent += 1
            param_py = _mangle(expr.param) + f"_{next(self.counter)}"
            self.emit(f"{param_py} = {exc_name}.value")
            inner = dict(scope)
            inner[expr.param] = param_py
            handler = self.gen(expr.handler, inner)
            self.emit(f"{out} = {handler}")
            self.indent -= 1
            return out

        if node_type is Annotated:
            for monitor in reversed(self.monitors):
                view = monitor.recognize(expr.annotation)
                if view is not None:
                    site = len(self.sites)
                    self.sites.append(_Site(monitor, view, expr.body))
                    literal = (
                        "{"
                        + ", ".join(f"{k!r}: {v}" for k, v in scope.items())
                        + "}"
                    )
                    self.emit(f"_pre({site}, {literal})")
                    atom = self.gen(expr.body, scope)
                    out = self.fresh()
                    self.emit(f"{out} = _post({site}, {literal}, {atom})")
                    return out
            return self.gen(expr.body, scope)

        raise TypeError(f"unknown L_exc expression: {node_type.__name__}")


class GeneratedExcProgram(GeneratedProgram):
    def run(self, *, answers=None, recursion_limit: int = 100_000):
        from repro.semantics.answers import STANDARD_ANSWERS

        answers = answers or STANDARD_ANSWERS
        runtime = ExcResidualRuntime(self._sites, self.monitors)
        try:
            with raised_recursion_limit(recursion_limit):
                value = self._entry(runtime)
        except _RaisedValue as exc:
            raise UncaughtException(exc.value) from None
        states = MonitorStateVector(dict(runtime.states))
        return answers.phi(value), states


def generate_exc_program(
    program: Expr,
    monitors: MonitorLike = (),
    *,
    check_disjointness: bool = True,
) -> GeneratedExcProgram:
    """Specialize the monitored ``L_exc`` interpreter to ``program``."""
    monitor_list = flatten_monitors(monitors)
    validate_observations(monitor_list)
    if check_disjointness:
        check_disjoint(monitor_list, program)

    generator = _ExcGenerator(monitor_list)
    generator.lines.append("def _program(_rt):")
    generator.emit("_apply = _rt.apply")
    generator.emit("_truth = _rt.truth")
    generator.emit("_pre = _rt.pre")
    generator.emit("_post = _rt.post")
    generator.emit("_nil = _rt.nil")
    generator.emit("_raised = _rt.raised")
    used = sorted(
        node.name
        for node in program.walk()
        if isinstance(node, Var) and node.name in PRIMITIVE_TABLE
    )
    for name in sorted(set(used)):
        generator.emit(f"{_PRIM_PY_NAMES[name]} = _rt.prims[{name!r}].fn")
        generator.emit(f"_prim_{_PRIM_PY_NAMES[name][2:]} = _rt.prims[{name!r}]")
    result = generator.gen(program, {})
    generator.emit(f"return {result}")

    source = "\n".join(generator.lines) + "\n"
    namespace: Dict[str, object] = {}
    exec(compile(source, "<exc-residual>", "exec"), namespace)  # noqa: S102
    return GeneratedExcProgram(
        source, namespace["_program"], generator.sites, tuple(monitor_list)
    )

"""Residual Python generation for the lazy (call-by-need) language.

Completes the level-2 story across language modules: strict ``L_lambda``
(:mod:`repro.partial_eval.codegen`), ``L_imp``
(:mod:`repro.partial_eval.imp_codegen`) and — here — call-by-need
``L_lambda`` with strict constructors (the ``lazy`` module).

Laziness compiles directly:

* an application's argument becomes a memoizing thunk over a generated
  nested function (``_T(_d7)``), except that variable arguments pass
  their existing binding through — preserving the interpreter's sharing;
* variable references force (``_force(v_x)``);
* primitives force their argument before applying.

Monitor hooks compile *inside* the thunk bodies, so instrumentation
fires on demand exactly as in the monitored lazy interpreter: an
annotated expression that is never needed produces no events, and a
shared thunk produces them once.  The parity tests check hit counts, not
just answers.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Sequence

from repro.errors import EvalError, NotAFunctionError
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
from repro.semantics.values import PrimFun, value_to_string
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


class _LazyThunk:
    """A memoizing thunk for residual lazy code."""

    __slots__ = ("fn", "value", "forced")

    def __init__(self, fn) -> None:
        self.fn = fn
        self.value = None
        self.forced = False

    def force(self):
        if not self.forced:
            self.value = self.fn()
            self.forced = True
            self.fn = None
        return self.value


class LazyResidualRuntime(ResidualRuntime):
    """Adds thunk helpers to the shared residual runtime."""

    thunk = _LazyThunk

    @staticmethod
    def force(value):
        if type(value) is _LazyThunk:
            return value.force()
        return value

    @staticmethod
    def apply_lazy(fn, delayed):
        """Apply to a possibly-delayed argument: strict for primitives."""
        if isinstance(fn, PrimFun):
            return fn.apply(LazyResidualRuntime.force(delayed))
        if callable(fn):
            return fn(delayed)
        raise NotAFunctionError(
            f"attempt to apply non-function value {value_to_string(fn)!r}"
        )


class _LazyGenerator:
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

    # gen returns an atom holding a WHNF value.
    def gen(self, expr: Expr, scope: Dict[str, str]) -> str:
        node_type = type(expr)

        if node_type is Const:
            return repr(expr.value)

        if node_type is Var:
            name = expr.name
            if name in scope:
                out = self.fresh()
                self.emit(f"{out} = _force({scope[name]})")
                return out
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
            delayed = self._gen_delayed(expr.arg, scope)
            fn_atom = self.gen(expr.fn, scope)
            out = self.fresh()
            self.emit(f"{out} = _apply({fn_atom}, {delayed})")
            return out

        if node_type is Let:
            delayed = self._gen_delayed(expr.bound, scope)
            let_py = _mangle(expr.name) + f"_{next(self.counter)}"
            self.emit(f"{let_py} = {delayed}")
            inner = dict(scope)
            inner[expr.name] = let_py
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

        raise TypeError(f"unknown expression node: {node_type.__name__}")

    def _gen_delayed(self, expr: Expr, scope: Dict[str, str]) -> str:
        """Argument-passing rule: share bindings, constants; delay the rest."""
        if type(expr) is Var and expr.name in scope:
            return scope[expr.name]  # share the binding (thunk or value)
        if type(expr) is Const:
            return repr(expr.value)
        if type(expr) is Var:
            # Globals (primitives, nil) are values already.
            return self.gen(expr, scope)
        thunk_fn = self.fresh("d")
        self.emit(f"def {thunk_fn}():")
        self.indent += 1
        result = self.gen(expr, scope)
        self.emit(f"return {result}")
        self.indent -= 1
        out = self.fresh()
        self.emit(f"{out} = _T({thunk_fn})")
        return out


class GeneratedLazyProgram(GeneratedProgram):
    def run(self, *, answers=None, recursion_limit: int = 100_000):
        from repro.semantics.answers import STANDARD_ANSWERS

        answers = answers or STANDARD_ANSWERS
        runtime = LazyResidualRuntime(self._sites, self.monitors)
        with raised_recursion_limit(recursion_limit):
            value = self._entry(runtime)
        states = MonitorStateVector(dict(runtime.states))
        return answers.phi(value), states


def generate_lazy_program(
    program: Expr,
    monitors: MonitorLike = (),
    *,
    check_disjointness: bool = True,
) -> GeneratedLazyProgram:
    """Specialize the monitored *lazy* interpreter with respect to ``program``."""
    monitor_list = flatten_monitors(monitors)
    validate_observations(monitor_list)
    if check_disjointness:
        check_disjoint(monitor_list, program)

    generator = _LazyGenerator(monitor_list)
    generator.lines.append("def _program(_rt):")
    generator.emit("_apply = _rt.apply_lazy")
    generator.emit("_force = _rt.force")
    generator.emit("_truth = _rt.truth")
    generator.emit("_pre = _rt.pre")
    generator.emit("_post = _rt.post")
    generator.emit("_nil = _rt.nil")
    generator.emit("_T = _rt.thunk")
    used = sorted(_primitives_used(program))
    for name in used:
        generator.emit(f"_prim_{_PRIM_PY_NAMES[name][2:]} = _rt.prims[{name!r}]")
    result = generator.gen(program, {})
    generator.emit(f"return {result}")

    source = "\n".join(generator.lines) + "\n"
    namespace: Dict[str, object] = {}
    exec(compile(source, "<lazy-residual>", "exec"), namespace)  # noqa: S102
    return GeneratedLazyProgram(
        source, namespace["_program"], generator.sites, tuple(monitor_list)
    )


def _primitives_used(program: Expr) -> set:
    used = set()
    for node in program.walk():
        if isinstance(node, Var) and node.name in PRIMITIVE_TABLE:
            used.add(node.name)
    return used

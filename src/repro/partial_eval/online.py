"""Level-3 specialization: an online partial evaluator for ``L_lambda``.

"Specializing the instrumented program ... with respect to some partial
input would produce a specialized program" (Section 9.1, Figure 10).  The
paper used Schism [Con89, Con90] for this; here is a self-contained online
partial evaluator with the standard ingredients:

* **constant folding** — saturated primitive applications of static values
  are computed at specialization time (folding that would *raise* is
  residualized instead, so runtime error behavior is preserved);
* **unfolding** — applications of known closures are inlined; dynamic
  arguments are let-bound, never substituted, so call-by-value work and
  termination behavior are preserved;
* **polyvariant function specialization** — recursive functions applied to
  dynamic arguments are specialized once per static configuration, with a
  memo table producing residual ``letrec`` definitions (and closing the
  loop on recursive calls);
* **annotation preservation** — monitor annotations are dynamic by fiat:
  an ``{mu}: e`` node always residualizes, its body specialized inside, so
  the specialized program performs exactly the monitoring actions, in
  exactly the order, of the original (specializing *instrumented* programs
  is the whole point of Figure 10's third level).

Like every online partial evaluator, this one can fail to terminate on
programs whose static computations diverge or whose static data grows
without bound under dynamic control; a step ``budget`` converts those
cases into :class:`~repro.errors.SpecializationError`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import EvalError, PrimitiveError, SpecializationError
from repro.semantics.primitives import PRIMITIVE_TABLE, make_primitive
from repro.semantics.trampoline import raised_recursion_limit
from repro.semantics.values import (
    NIL,
    Cons,
    PrimFun,
    Value,
    hashable_key,
)
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
from repro.syntax.transform import bound_variables, free_variables


# PE-time values ----------------------------------------------------------------


class PEValue:
    __slots__ = ()


class Static(PEValue):
    """A value fully known at specialization time."""

    __slots__ = ("value",)

    def __init__(self, value: Value) -> None:
        self.value = value

    def __repr__(self) -> str:
        return f"Static({self.value!r})"


class Dynamic(PEValue):
    """A run-time value, represented by the residual expression computing it."""

    __slots__ = ("expr",)

    def __init__(self, expr: Expr) -> None:
        self.expr = expr

    def __repr__(self) -> str:
        return f"Dynamic({self.expr!r})"


class StaticClosure(PEValue):
    """A closure known at specialization time.

    ``rec_name`` is set for letrec-bound closures (the specialization-memo
    identity); ``penv`` is the specialization-time environment.
    """

    __slots__ = ("param", "body", "penv", "rec_name", "group")

    def __init__(self, param, body, penv, rec_name=None, group=None) -> None:
        self.param = param
        self.body = body
        self.penv = penv
        self.rec_name = rec_name
        self.group = group

    def __repr__(self) -> str:
        tag = f" rec={self.rec_name}" if self.rec_name else ""
        return f"StaticClosure({self.param}{tag})"


PEnv = Dict[str, PEValue]


# Statistics ----------------------------------------------------------------------


@dataclass
class SpecializationStats:
    folded: int = 0
    unfolded: int = 0
    specialized_functions: int = 0
    residual_lets: int = 0
    annotations_preserved: int = 0


@dataclass
class SpecializationResult:
    """The outcome of partial evaluation."""

    residual: Expr
    stats: SpecializationStats = field(default_factory=SpecializationStats)


# The specializer ------------------------------------------------------------------


_UNHASHABLE = object()


def _signature_of_value(value: Value, depth: int = 4):
    """A hashable key for a static value, or ``_UNHASHABLE``.

    Used to index the function-specialization memo; an unhashable
    configuration simply isn't memoized (sound, possibly slower).
    """
    if depth <= 0:
        return _UNHASHABLE
    if isinstance(value, PrimFun):
        inner = tuple(_signature_of_value(a, depth - 1) for a in value.args)
        if _UNHASHABLE in inner:
            return _UNHASHABLE
        return ("prim", value.name, inner)
    try:
        return hashable_key(value)
    except Exception:
        return _UNHASHABLE


class _Specializer:
    def __init__(self, budget: int, taken_names: set) -> None:
        self.budget = budget
        self.steps = 0
        self.stats = SpecializationStats()
        self._counter = itertools.count()
        self._taken = set(taken_names)
        #: memo: spec key -> residual function name
        self._memo: Dict[object, str] = {}
        #: residual letrec bindings produced by function specialization
        self._definitions: List[Tuple[str, Optional[Expr]]] = []
        self._definition_index: Dict[str, int] = {}
        #: stack of (rec identity, full-arg signature) guarding static unfolds
        self._unfold_stack: List[object] = []

    # -- plumbing -------------------------------------------------------------

    def _tick(self) -> None:
        self.steps += 1
        if self.steps > self.budget:
            raise SpecializationError(
                f"specialization exceeded budget of {self.budget} steps; "
                "the program's static computation may diverge or grow "
                "unboundedly under dynamic control"
            )

    def fresh(self, base: str) -> str:
        while True:
            candidate = f"{base}_{next(self._counter)}"
            if candidate not in self._taken:
                self._taken.add(candidate)
                return candidate

    # -- residualization --------------------------------------------------------

    def residualize(self, pe_value: PEValue) -> Expr:
        if isinstance(pe_value, Dynamic):
            return pe_value.expr
        if isinstance(pe_value, Static):
            return self._value_to_expr(pe_value.value)
        if isinstance(pe_value, StaticClosure):
            return self._residualize_closure(pe_value)
        raise TypeError(f"unknown PE value: {pe_value!r}")

    def _value_to_expr(self, value: Value) -> Expr:
        if isinstance(value, (bool, int, float, str)):
            return Const(value)
        if value is NIL:
            return Var("nil")
        if isinstance(value, Cons):
            return App(
                App(Var("cons"), self._value_to_expr(value.head)),
                self._value_to_expr(value.tail),
            )
        if isinstance(value, PrimFun):
            expr: Expr = Var(value.name)
            for arg in value.args:
                expr = App(expr, self._value_to_expr(arg))
            return expr
        raise SpecializationError(f"cannot residualize value: {value!r}")

    def _residualize_closure(self, closure: StaticClosure) -> Expr:
        if closure.rec_name is not None:
            # A recursive function escaping as a value: give it a residual
            # definition and refer to it by name.
            pe_ref = self._specialize_function(closure, None)
            return pe_ref.expr
        param = self.fresh(closure.param)
        penv = dict(closure.penv)
        penv[closure.param] = Dynamic(Var(param))
        body = self.residualize(self.spec(closure.body, penv))
        return Lam(param, body)

    # -- the specialization function ------------------------------------------------

    def spec(self, expr: Expr, penv: PEnv) -> PEValue:
        self._tick()
        node_type = type(expr)

        if node_type is Const:
            return Static(expr.value)

        if node_type is Var:
            name = expr.name
            if name in penv:
                return penv[name]
            if name == "nil":
                return Static(NIL)
            if name in PRIMITIVE_TABLE:
                return Static(make_primitive(name))
            # A free variable: a dynamic input of the program.
            return Dynamic(expr)

        if node_type is Lam:
            return StaticClosure(expr.param, expr.body, dict(penv))

        if node_type is Annotated:
            # Annotations are dynamic by fiat: the monitor must observe
            # this evaluation at run time, so the node survives with its
            # body specialized in place.
            self.stats.annotations_preserved += 1
            body_pe = self.spec(expr.body, penv)
            return Dynamic(Annotated(expr.annotation, self.residualize(body_pe)))

        if node_type is If:
            cond_pe = self.spec(expr.cond, penv)
            if isinstance(cond_pe, Static) and cond_pe.value is True:
                return self.spec(expr.then_branch, penv)
            if isinstance(cond_pe, Static) and cond_pe.value is False:
                return self.spec(expr.else_branch, penv)
            then_res = self.residualize(self.spec(expr.then_branch, penv))
            else_res = self.residualize(self.spec(expr.else_branch, penv))
            return Dynamic(If(self.residualize(cond_pe), then_res, else_res))

        if node_type is Let:
            bound_pe = self.spec(expr.bound, penv)
            if isinstance(bound_pe, (Static, StaticClosure)):
                inner = dict(penv)
                inner[expr.name] = bound_pe
                return self.spec(expr.body, inner)
            fresh = self.fresh(expr.name)
            inner = dict(penv)
            inner[expr.name] = Dynamic(Var(fresh))
            body_res = self.residualize(self.spec(expr.body, inner))
            self.stats.residual_lets += 1
            return Dynamic(Let(fresh, bound_pe.expr, body_res))

        if node_type is Letrec:
            inner = dict(penv)
            group = object()
            for name, bound in expr.bindings:
                lam = bound
                while isinstance(lam, Annotated):
                    lam = lam.body
                assert isinstance(lam, Lam)
                inner[name] = StaticClosure(
                    lam.param, lam.body, inner, rec_name=name, group=group
                )
            # The closures' shared penv is `inner` itself — the recursive knot.
            return self.spec(expr.body, inner)

        if node_type is App:
            # Call-by-value order: argument first (purity means the order
            # only affects which residual code is generated first).
            arg_pe = self.spec(expr.arg, penv)
            fn_pe = self.spec(expr.fn, penv)
            return self._apply(fn_pe, arg_pe)

        raise TypeError(f"unknown expression node: {node_type.__name__}")

    # -- application ------------------------------------------------------------------

    def _apply(self, fn_pe: PEValue, arg_pe: PEValue) -> PEValue:
        if isinstance(fn_pe, Static) and isinstance(fn_pe.value, PrimFun):
            prim = fn_pe.value
            if isinstance(arg_pe, Static):
                try:
                    result = prim.apply(arg_pe.value)
                except (PrimitiveError, EvalError):
                    # Fold would raise: keep the application so the error
                    # happens (or not) at run time, exactly as unspecialized.
                    return Dynamic(
                        App(self._value_to_expr(prim), self.residualize(arg_pe))
                    )
                self.stats.folded += 1
                return Static(result)
            return Dynamic(App(self._value_to_expr(prim), self.residualize(arg_pe)))

        if isinstance(fn_pe, StaticClosure):
            return self._apply_closure(fn_pe, arg_pe)

        if isinstance(fn_pe, Static):
            # A static non-function in operator position: a runtime type
            # error; residualize so it occurs at run time.
            return Dynamic(
                App(self._value_to_expr(fn_pe.value), self.residualize(arg_pe))
            )

        return Dynamic(App(fn_pe.expr, self.residualize(arg_pe)))

    def _apply_closure(self, closure: StaticClosure, arg_pe: PEValue) -> PEValue:
        if isinstance(arg_pe, (Static, StaticClosure)):
            # Static argument: unfold, guarding recursive closures against
            # repeating the exact same call (a static loop).
            if closure.rec_name is not None:
                call_sig = self._call_signature(closure, arg_pe)
                if call_sig is not _UNHASHABLE and call_sig in self._unfold_stack:
                    return self._specialize_function(closure, arg_pe)
                self._unfold_stack.append(call_sig)
                try:
                    return self._unfold(closure, arg_pe)
                finally:
                    self._unfold_stack.pop()
            return self._unfold(closure, arg_pe)

        # Dynamic argument.
        if closure.rec_name is not None:
            return self._specialize_function(closure, arg_pe)
        if type(arg_pe.expr) in (Var, Const):
            # An atomic argument is effect-free and duplication-safe:
            # substitute it directly instead of let-binding.
            return self._unfold(closure, arg_pe)
        # Non-recursive closure: unfold with a let-bound parameter so the
        # argument is evaluated exactly once, before the body.
        fresh = self.fresh(closure.param)
        inner = dict(closure.penv)
        inner[closure.param] = Dynamic(Var(fresh))
        body_res = self.residualize(self.spec(closure.body, inner))
        self.stats.residual_lets += 1
        return Dynamic(Let(fresh, arg_pe.expr, body_res))

    def _unfold(self, closure: StaticClosure, arg_pe: PEValue) -> PEValue:
        self.stats.unfolded += 1
        inner = dict(closure.penv)
        inner[closure.param] = arg_pe
        return self.spec(closure.body, inner)

    # -- polyvariant function specialization ----------------------------------------

    def _call_signature(self, closure: StaticClosure, arg_pe: PEValue):
        env_sig = self._env_signature(closure)
        if env_sig is _UNHASHABLE:
            return _UNHASHABLE
        if isinstance(arg_pe, Static):
            arg_sig = _signature_of_value(arg_pe.value)
        else:
            arg_sig = _UNHASHABLE
        if arg_sig is _UNHASHABLE:
            return _UNHASHABLE
        return (id(closure.group), closure.rec_name, env_sig, arg_sig)

    def _env_signature(self, closure: StaticClosure):
        """Hashable summary of the static bindings the closure body can see."""
        relevant = free_variables(Lam(closure.param, closure.body))
        parts = []
        for name in sorted(relevant):
            pe_value = closure.penv.get(name)
            if pe_value is None:
                parts.append((name, "global"))
            elif isinstance(pe_value, Static):
                sig = _signature_of_value(pe_value.value)
                if sig is _UNHASHABLE:
                    return _UNHASHABLE
                parts.append((name, "static", sig))
            elif isinstance(pe_value, StaticClosure):
                if pe_value.group is closure.group:
                    # Sibling of the same letrec: identified by name.
                    parts.append((name, "sibling"))
                else:
                    return _UNHASHABLE
            else:
                parts.append((name, "dynamic", pe_value.expr))
        return tuple(parts)

    def _specialize_function(
        self, closure: StaticClosure, arg_pe: Optional[PEValue]
    ) -> Dynamic:
        """Create (or reuse) a residual definition for this call pattern.

        With ``arg_pe=None`` the reference itself is returned (for a
        recursive function escaping as a value); otherwise the residual
        application of the specialized function to the argument.
        """
        memo_sig = self._memo_signature(closure)

        if memo_sig is not _UNHASHABLE and memo_sig in self._memo:
            spec_name = self._memo[memo_sig]
        else:
            spec_name = self.fresh(f"{closure.rec_name}_spec")
            if memo_sig is not _UNHASHABLE:
                self._memo[memo_sig] = spec_name
            self._definition_index[spec_name] = len(self._definitions)
            self._definitions.append((spec_name, None))  # reserve (in progress)
            self.stats.specialized_functions += 1

            fresh_param = self.fresh(closure.param)
            inner = dict(closure.penv)
            inner[closure.param] = Dynamic(Var(fresh_param))
            body_res = self.residualize(self.spec(closure.body, inner))
            index = self._definition_index[spec_name]
            self._definitions[index] = (spec_name, Lam(fresh_param, body_res))

        if arg_pe is None:
            return Dynamic(Var(spec_name))
        return Dynamic(App(Var(spec_name), self.residualize(arg_pe)))

    def _memo_signature(self, closure: StaticClosure):
        env_sig = self._env_signature(closure)
        if env_sig is _UNHASHABLE:
            return _UNHASHABLE
        return (id(closure.group), closure.rec_name, env_sig)

    # -- assembly ----------------------------------------------------------------------

    def assemble(self, main: Expr) -> Expr:
        incomplete = [name for name, body in self._definitions if body is None]
        if incomplete:  # pragma: no cover - reservations are always completed
            raise SpecializationError(
                f"internal error: unfinished specializations {incomplete}"
            )
        if not self._definitions:
            return main
        bindings = tuple(
            (name, body) for name, body in self._definitions if body is not None
        )
        return Letrec(bindings, main)


def specialize(
    program: Expr,
    static: Optional[Dict[str, Value]] = None,
    *,
    budget: int = 200_000,
) -> SpecializationResult:
    """Partially evaluate ``program`` with respect to ``static`` inputs.

    ``static`` maps free-variable names to known values; every other free
    variable is a dynamic input and remains free in the residual program.
    The residual program, applied to the dynamic inputs, computes the same
    answer (and performs the same monitoring actions) as the original —
    a property the test suite checks on randomized programs and inputs.

    >>> from repro.syntax import parse, pretty
    >>> prog = parse(
    ...     "letrec pow = lambda n. lambda x."
    ...     "  if n = 0 then 1 else x * (pow (n - 1) x)"
    ...     " in pow 3 x")
    >>> pretty(specialize(prog).residual)
    'x * (x * (x * 1))'
    """
    taken = set(bound_variables(program)) | set(free_variables(program))
    specializer = _Specializer(budget=budget, taken_names=taken)
    penv: PEnv = {}
    for name, value in (static or {}).items():
        penv[name] = Static(value)

    # Specialization recurses on the host stack (unlike the trampolined
    # interpreters), so raise the limit for the duration and convert a
    # blown stack into the same diagnosis as a blown budget.
    try:
        with raised_recursion_limit(60_000):
            main = specializer.residualize(specializer.spec(program, penv))
    except RecursionError:
        raise SpecializationError(
            "specialization recursion exceeded the host stack; the "
            "program's static computation may diverge or unfold too deeply"
        ) from None
    residual = specializer.assemble(main)
    return SpecializationResult(residual=residual, stats=specializer.stats)

"""The staged fast-path engine: AST -> Python-closure compilation.

The reference interpreter (:mod:`repro.semantics.standard`) re-examines the
syntax tree on every step: each bounce pays an ``isinstance`` dispatch
chain, an O(depth) linked-environment name search, and a tuple-packed
:class:`~repro.semantics.trampoline.Bounce` allocation.  This module
removes all three overheads by *staging* evaluation:

1. **Resolve pass (lexical addressing).**  At compile time every
   identifier is resolved against the static scope chain to a pair
   ``(frame depth, slot)``; runtime environments become flat Python lists
   (*ribs*, ``[parent, v1, ..., vn]``) indexed directly.  Names bound in
   the initial environment (primitives, ``nil``) are resolved to their
   values outright, so ``+`` or ``<`` never costs a lookup at run time.

2. **AST -> closure compilation.**  Each expression node is translated
   *once* into a Python closure ``code(rib, kont, ms) -> Step``.  The
   trampoline then executes pre-dispatched closures: no ``isinstance``
   test on syntax ever runs inside the loop.  This realizes the paper's
   Section 9 observation that *compilation is specialization of the
   interpreter with respect to the program* — here performed directly,
   closure by closure.  Saturated applications of primitive operators with
   simple operands are additionally collapsed into single in-line
   computations (``n - 1`` costs one Python call, not five bounces).

3. **Monitor specialization.**  The compiler takes the monitor stack as a
   second static input.  Annotations nobody recognizes are *erased* at
   compile time (obliviousness, Definition 7.1, for free); annotations a
   monitor claims compile into code that runs ``updPre``, evaluates the
   body, and composes ``updPost`` into the continuation — exactly the
   ``[[{mu}: s']]`` equation of Definition 4.2, but with the recognition
   test already performed.  Monitored evaluation therefore rides the same
   fast path, and one-monitor stacks thread the copy-free
   :class:`~repro.monitoring.state.SingleSlotVector`.

4. **Telemetry by block weights.**  A run with telemetry executes a
   *metered* closure tree, compiled lazily from the same program with
   every optimization above intact: each closure — a collapsed trivial
   subtree included — charges, once, the reference-interpreter steps and
   ``App`` nodes it stands for, into the run's counter record found
   through the per-thread run context.  ``RunMetrics`` therefore match the
   reference engine's exactly while one cached ``CompiledProgram`` serves
   metrics-on and metrics-off runs alike.

The reference interpreter remains the oracle: `tests/test_engine_parity.py`
checks answers, final monitor states, and raised error types agree on
random programs.  Tail calls use the ``__slots__`` step variants
:class:`~repro.semantics.trampoline.Tail` /
:class:`~repro.semantics.trampoline.KTail`, avoiding argument tuples.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.errors import (
    EvalError,
    NotAFunctionError,
    UnboundIdentifierError,
)
from repro.semantics.answers import AnswerAlgebra, STANDARD_ANSWERS
from repro.semantics.env import Environment
from repro.semantics.primitives import initial_environment
from repro.semantics.trampoline import Done, KTail, Step, Tail, trampoline
from repro.semantics.values import Closure, PrimFun, value_to_string
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
    strip_annotations_shallow,
)

#: A compiled expression: called with the current rib, continuation and
#: monitor state, returns the next machine step.
Code = Callable[[list, Callable, object], Step]

#: Per-thread run context.  Fault-isolated code needs the *current run's*
#: :class:`~repro.monitoring.faults.FaultLog`, and metered code the current
#: run's :class:`~repro.observability.instrument.Telemetry`; burning either
#: into the compiled closures would make a ``CompiledProgram`` a single-run
#: artifact, which the compilation cache cannot share across concurrent
#: requests.  A trampoline run happens entirely on one thread, so
#: :meth:`CompiledProgram.run` parks the run's log and telemetry here and
#: the isolated/metered closures read them back at each activation — one
#: thread-local attribute read, paid only on those (opt-in) paths.
_RUN_STATE = threading.local()


class CompiledClosure:
    """A function value of the compiled engine.

    Stores the pre-compiled body code and the defining rib; application is
    one :class:`Tail` step into ``code`` with a fresh two-element rib.
    ``function_display`` marks it as applicable for
    :func:`repro.semantics.values.is_function` without importing this
    module there.
    """

    __slots__ = ("code", "rib", "param", "name")

    def __init__(self, code: Code, rib: list, param: str, name: Optional[str]) -> None:
        self.code = code
        self.rib = rib
        self.param = param
        self.name = name

    @property
    def function_display(self) -> str:
        # Must match the reference Closure rendering for output parity.
        return f"<fun {self.name or self.param}>"

    def __repr__(self) -> str:
        label = self.name or "lambda"
        return f"<compiled closure {label}({self.param})>"


class _Scope:
    """A compile-time mirror of the runtime rib chain (names only)."""

    __slots__ = ("names", "parent")

    def __init__(self, names: Tuple[str, ...], parent: Optional["_Scope"]) -> None:
        self.names = names
        self.parent = parent


def _resolve(scope: Optional[_Scope], name: str) -> Optional[Tuple[int, int]]:
    """Lexical address ``(depth, slot)`` of ``name``, or ``None`` if free.

    ``slot`` is the runtime list index (binding ``i`` lives at ``i + 1``
    because slot 0 holds the parent rib).
    """
    depth = 0
    while scope is not None:
        names = scope.names
        if name in names:
            return depth, names.index(name) + 1
        depth += 1
        scope = scope.parent
    return None


def _local_getter(depth: int, slot: int):
    """A specialized ``rib -> value`` reader for a lexical address."""
    if depth == 0:
        return lambda rib: rib[slot]
    if depth == 1:
        return lambda rib: rib[0][slot]
    if depth == 2:
        return lambda rib: rib[0][0][slot]
    if depth == 3:
        return lambda rib: rib[0][0][0][slot]

    def getter(rib):
        for _ in range(depth):
            rib = rib[0]
        return rib[slot]

    return getter


class _CompiledContext:
    """Adapter giving monitors name-based access to a compiled rib.

    Monitors observe the semantic context ``A*`` through
    ``maybe_lookup``/``lookup``/``names`` (see
    :func:`repro.monitors.common.context_lookup`); this view translates
    names to lexical addresses using the table computed at compile time,
    falling back to the (static) global environment.
    """

    __slots__ = ("_rib", "_addresses", "_globals")

    def __init__(self, rib: list, addresses: Dict[str, Tuple[int, int]], global_env: Environment) -> None:
        self._rib = rib
        self._addresses = addresses
        self._globals = global_env

    def maybe_lookup(self, name: str):
        address = self._addresses.get(name)
        if address is None:
            return self._globals.maybe_lookup(name)
        depth, slot = address
        rib = self._rib
        for _ in range(depth):
            rib = rib[0]
        return rib[slot]

    def lookup(self, name: str):
        if name in self._addresses or name in self._globals:
            return self.maybe_lookup(name)
        raise UnboundIdentifierError(name)

    def __contains__(self, name: str) -> bool:
        return name in self._addresses or name in self._globals

    def names(self) -> Tuple[str, ...]:
        local = tuple(self._addresses)
        rest = tuple(n for n in self._globals.names() if n not in self._addresses)
        return local + rest

    def __repr__(self) -> str:
        return f"<compiled-context {len(self._addresses)} local bindings>"


def _apply(fn_value, arg_value, kont, ms) -> Step:
    """Apply ``(v1 | Fun) v2 kappa`` — the compiled engine's dispatch."""
    cls = fn_value.__class__
    if cls is CompiledClosure:
        return Tail(fn_value.code, [fn_value.rib, arg_value], kont, ms)
    if cls is PrimFun:
        return KTail(kont, fn_value.apply(arg_value), ms)
    if isinstance(fn_value, Closure):
        raise EvalError(
            "reference-interpreter closure reached the compiled engine; "
            "compile the whole program with one engine"
        )
    raise NotAFunctionError(
        f"attempt to apply non-function value {value_to_string(fn_value)!r}"
    )


def _trivial_weight(expr: Expr) -> Tuple[int, int]:
    """``(steps, applications)`` the reference spends on a trivial subtree.

    Trivial subtrees (see :meth:`_Compiler.trivial`) are constants,
    variables and applications of them, every node of which is evaluated.
    """
    if type(expr) is App:
        fn_steps, fn_apps = _trivial_weight(expr.fn)
        arg_steps, arg_apps = _trivial_weight(expr.arg)
        return fn_steps + arg_steps + 1, fn_apps + arg_apps + 1
    return 1, 0


def _charged(code: Code, steps: int, applications: int) -> Code:
    """``code`` preceded by a charge of its block weight to the run."""

    def code_charged(rib, kont, ms):
        _RUN_STATE.telemetry.charge(steps, applications)
        return code(rib, kont, ms)

    return code_charged


def _charging(fn: Callable, steps: int, applications: int) -> Callable:
    """A value computation (getter, primitive) that charges first.

    Continuations compute their collapsed nodes through these, so the
    charge lands after the subcomputation they resume from.
    """

    def charging(*args):
        _RUN_STATE.telemetry.charge(steps, applications)
        return fn(*args)

    return charging


def _metered_hooks(spec) -> Tuple[Callable, Callable]:
    """``spec``'s hooks routed through the current run's telemetry."""

    def pre(annotation, term, ctx, state, inner=None):
        return _RUN_STATE.telemetry.pre(spec, annotation, term, ctx, state, inner)

    def post(annotation, term, ctx, result, state, inner=None):
        return _RUN_STATE.telemetry.post(
            spec, annotation, term, ctx, result, state, inner
        )

    return pre, post


class _Compiler:
    """One compilation unit: a program, a global env, a monitor stack.

    ``fault_log`` (a :class:`repro.monitoring.faults.FaultLog`, or ``None``
    for the default ``propagate`` policy) switches the monitored closures
    onto the fault-isolated path: every ``updPre``/``updPost`` call site
    checks the current run's disabled set and routes escaping exceptions
    through ``FaultLog.record`` instead of letting them unwind the
    trampoline.  The log itself is *not* burned in — isolated closures
    read the per-run log from :data:`_RUN_STATE`, so one compilation can
    serve many (concurrent) runs, each with its own log.

    ``metered=True`` compiles the variant runs with telemetry use.  It is
    the same closure tree, every collapse optimization included; each
    closure additionally charges, once, the reference-interpreter steps
    and ``App`` nodes it stands for (a collapsed trivial subtree counts
    every node in it), and monitor hooks go through the run's telemetry.
    Continuations charge the nodes the reference enters after the
    subcomputation they resume from, so every charge lands between the
    same hook events as the reference's per-node steps.
    """

    def __init__(
        self,
        global_env: Environment,
        monitors: Tuple,
        fault_log=None,
        metered: bool = False,
    ) -> None:
        self.global_env = global_env
        self.monitors = monitors
        self.fault_log = fault_log
        self.metered = metered

    def _head(self, code: Code, steps: int, applications: int = 0) -> Code:
        """``code`` charging ``steps``/``applications`` on entry when metered."""
        if not self.metered or not (steps or applications):
            return code
        return _charged(code, steps, applications)

    def _then(self, fn: Callable, steps: int, applications: int = 0) -> Callable:
        """``fn`` charging on each call when metered (continuation charges)."""
        if not self.metered:
            return fn
        return _charging(fn, steps, applications)

    # -- the resolve pass's trivial-expression analysis -----------------------

    def trivial(self, expr: Expr, scope: Optional[_Scope]):
        """A direct ``rib -> value`` evaluator for ``expr``, or ``None``.

        Trivial expressions (Reynolds' sense) compute a value without
        touching continuations or monitor state: constants, resolved
        variables, and saturated applications of global primitives to
        trivial operands.  Operand order inside compound trivials matches
        the reference semantics (argument before operator, outermost
        first), so primitive errors surface at the same point.
        """
        cls = type(expr)
        if cls is Const:
            value = expr.value
            return lambda rib: value
        if cls is Var:
            address = _resolve(scope, expr.name)
            if address is not None:
                return _local_getter(*address)
            if expr.name in self.global_env:
                value = self.global_env.lookup(expr.name)
                return lambda rib: value
            return None
        if cls is App:
            # Unfold the application spine; outermost argument first,
            # which is the reference evaluation order (Figure 2: e2
            # before e1).
            spine = []
            node: Expr = expr
            while type(node) is App:
                spine.append(node.arg)
                node = node.fn
            if type(node) is not Var:
                return None
            if _resolve(scope, node.name) is not None:
                return None
            if node.name not in self.global_env:
                return None
            prim = self.global_env.lookup(node.name)
            if type(prim) is not PrimFun or prim.args or prim.arity != len(spine):
                return None
            getters = [self.trivial(arg, scope) for arg in spine]
            if any(getter is None for getter in getters):
                return None
            fn = prim.fn
            if prim.arity == 1:
                get_a = getters[0]
                return lambda rib: fn(get_a(rib))
            if prim.arity == 2:
                get_b, get_a = getters  # spine order: outer (2nd) arg first

                def compute(rib):
                    b = get_b(rib)
                    return fn(get_a(rib), b)

                return compute
            return None
        return None

    # -- compilation proper ---------------------------------------------------

    def compile(self, expr: Expr, scope: Optional[_Scope]) -> Code:
        cls = type(expr)
        if cls is Const:
            value = expr.value

            def code_const(rib, kont, ms):
                return KTail(kont, value, ms)

            return self._head(code_const, 1)

        if cls is Var:
            return self._head(self._compile_var(expr, scope), 1)

        if cls is Lam:
            param = expr.param
            body_code = self.compile(expr.body, _Scope((param,), scope))

            def code_lam(rib, kont, ms):
                return KTail(kont, CompiledClosure(body_code, rib, param, None), ms)

            return self._head(code_lam, 1)

        if cls is If:
            return self._compile_if(expr, scope)

        if cls is App:
            return self._compile_app(expr, scope)

        if cls is Let:
            return self._compile_let(expr, scope)

        if cls is Letrec:
            return self._head(self._compile_letrec(expr, scope), 1)

        if cls is Annotated:
            return self._compile_annotated(expr, scope)

        raise TypeError(f"unknown expression node: {cls.__name__}")

    def _compile_var(self, expr: Var, scope: Optional[_Scope]) -> Code:
        address = _resolve(scope, expr.name)
        if address is not None:
            getter = _local_getter(*address)

            def code_local(rib, kont, ms):
                return KTail(kont, getter(rib), ms)

            return code_local
        if expr.name in self.global_env:
            value = self.global_env.lookup(expr.name)

            def code_global(rib, kont, ms):
                return KTail(kont, value, ms)

            return code_global
        name = expr.name

        def code_unbound(rib, kont, ms):
            raise UnboundIdentifierError(name)

        return code_unbound

    def _compile_if(self, expr: If, scope: Optional[_Scope]) -> Code:
        then_code = self.compile(expr.then_branch, scope)
        else_code = self.compile(expr.else_branch, scope)
        location = expr.location

        get_cond = self.trivial(expr.cond, scope)
        if get_cond is not None:

            def code_if_trivial(rib, kont, ms):
                value = get_cond(rib)
                if value is True:
                    return then_code(rib, kont, ms)
                if value is False:
                    return else_code(rib, kont, ms)
                raise EvalError(
                    f"condition evaluated to non-boolean {value_to_string(value)!r}",
                    location,
                )

            cond_steps, cond_apps = _trivial_weight(expr.cond)
            return self._head(code_if_trivial, 1 + cond_steps, cond_apps)

        cond_code = self.compile(expr.cond, scope)

        def code_if(rib, kont, ms):
            def branch_kont(value, ms_inner):
                if value is True:
                    return then_code(rib, kont, ms_inner)
                if value is False:
                    return else_code(rib, kont, ms_inner)
                raise EvalError(
                    f"condition evaluated to non-boolean {value_to_string(value)!r}",
                    location,
                )

            return cond_code(rib, branch_kont, ms)

        return self._head(code_if, 1)

    def _global_prim(self, node: Expr, scope: Optional[_Scope], arity: int):
        """The primitive a spine head resolves to, if saturated at ``arity``."""
        if type(node) is not Var:
            return None
        if _resolve(scope, node.name) is not None:
            return None
        if node.name not in self.global_env:
            return None
        prim = self.global_env.lookup(node.name)
        if type(prim) is PrimFun and not prim.args and prim.arity == arity:
            return prim
        return None

    def _compile_app(self, expr: App, scope: Optional[_Scope]) -> Code:
        # Block weights: every closure below charges the application node
        # (one step, one application) plus the trivial operands it
        # evaluates; a continuation charges what the reference evaluates
        # after the operand it resumes from (Figure 2: argument, then
        # operator) — the inner application and/or the operator variable.
        compute = self.trivial(expr, scope)
        if compute is not None:

            def code_trivial(rib, kont, ms):
                return KTail(kont, compute(rib), ms)

            return self._head(code_trivial, *_trivial_weight(expr))

        fn_node, arg_node = expr.fn, expr.arg

        # Saturated binary primitive with at most one trivial operand.
        if type(fn_node) is App:
            prim = self._global_prim(fn_node.fn, scope, 2)
            if prim is not None:
                fn2 = self._then(prim.fn, 1)  # the operator variable
                left_node = fn_node.arg
                get_right = self.trivial(arg_node, scope)
                get_left = self.trivial(left_node, scope)
                if get_right is not None:
                    left_code = self.compile(left_node, scope)

                    def code_binop_rt(rib, kont, ms):
                        b = get_right(rib)

                        def left_kont(a, ms_inner):
                            return KTail(kont, fn2(a, b), ms_inner)

                        return left_code(rib, left_kont, ms)

                    right_steps, right_apps = _trivial_weight(arg_node)
                    return self._head(code_binop_rt, 2 + right_steps, 2 + right_apps)
                if get_left is not None:
                    right_code = self.compile(arg_node, scope)
                    left_steps, left_apps = _trivial_weight(left_node)
                    get_left = self._then(get_left, 1 + left_steps, 1 + left_apps)

                    def code_binop_lt(rib, kont, ms):
                        def right_kont(b, ms_inner):
                            return KTail(kont, fn2(get_left(rib), b), ms_inner)

                        return right_code(rib, right_kont, ms)

                    return self._head(code_binop_lt, 1, 1)
                # The inner application is entered once the right operand
                # is done: the left operand's code charges it.
                left_code = self._head(self.compile(left_node, scope), 1, 1)
                right_code = self.compile(arg_node, scope)

                def code_binop(rib, kont, ms):
                    def right_kont(b, ms_right):
                        def left_kont(a, ms_left):
                            return KTail(kont, fn2(a, b), ms_left)

                        return left_code(rib, left_kont, ms_right)

                    return right_code(rib, right_kont, ms)

                return self._head(code_binop, 1, 1)

        # Saturated unary primitive over a general operand.
        prim = self._global_prim(fn_node, scope, 1)
        if prim is not None:
            fn1 = self._then(prim.fn, 1)  # the operator variable
            arg_code = self.compile(arg_node, scope)

            def code_unop(rib, kont, ms):
                def arg_kont(value, ms_inner):
                    return KTail(kont, fn1(value), ms_inner)

                return arg_code(rib, arg_kont, ms)

            return self._head(code_unop, 1, 1)

        # Immediate lambda application ((lambda x. body) arg) — evaluate
        # like let, skipping the closure allocation.  Safe because a bare
        # Lam in operator position is unobservable (no annotation layer).
        if type(fn_node) is Lam:
            body_code = self.compile(fn_node.body, _Scope((fn_node.param,), scope))
            get_arg = self.trivial(arg_node, scope)
            if get_arg is not None:

                def code_beta_trivial(rib, kont, ms):
                    return body_code([rib, get_arg(rib)], kont, ms)

                # The application, its operand, and the operator lambda.
                arg_steps, arg_apps = _trivial_weight(arg_node)
                return self._head(code_beta_trivial, 2 + arg_steps, 1 + arg_apps)
            arg_code = self.compile(arg_node, scope)
            body_code = self._head(body_code, 1)  # the operator lambda

            def code_beta(rib, kont, ms):
                def arg_kont(value, ms_inner):
                    return body_code([rib, value], kont, ms_inner)

                return arg_code(rib, arg_kont, ms)

            return self._head(code_beta, 1, 1)

        # General application.  Figure 2 order: argument before operator.
        get_fn = self.trivial(fn_node, scope)
        get_arg = self.trivial(arg_node, scope)
        if get_fn is not None and get_arg is not None:

            def code_app_tt(rib, kont, ms):
                arg_value = get_arg(rib)
                return _apply(get_fn(rib), arg_value, kont, ms)

            fn_steps, fn_apps = _trivial_weight(fn_node)
            arg_steps, arg_apps = _trivial_weight(arg_node)
            return self._head(
                code_app_tt, 1 + fn_steps + arg_steps, 1 + fn_apps + arg_apps
            )
        if get_fn is not None:
            arg_code = self.compile(arg_node, scope)
            get_fn = self._then(get_fn, *_trivial_weight(fn_node))

            def code_app_ft(rib, kont, ms):
                def arg_kont(arg_value, ms_inner):
                    return _apply(get_fn(rib), arg_value, kont, ms_inner)

                return arg_code(rib, arg_kont, ms)

            return self._head(code_app_ft, 1, 1)
        if get_arg is not None:
            fn_code = self.compile(fn_node, scope)

            def code_app_at(rib, kont, ms):
                arg_value = get_arg(rib)

                def fn_kont(fn_value, ms_inner):
                    return _apply(fn_value, arg_value, kont, ms_inner)

                return fn_code(rib, fn_kont, ms)

            arg_steps, arg_apps = _trivial_weight(arg_node)
            return self._head(code_app_at, 1 + arg_steps, 1 + arg_apps)

        fn_code = self.compile(fn_node, scope)
        arg_code = self.compile(arg_node, scope)

        def code_app(rib, kont, ms):
            def arg_kont(arg_value, ms_arg):
                def fn_kont(fn_value, ms_fn):
                    return _apply(fn_value, arg_value, kont, ms_fn)

                return fn_code(rib, fn_kont, ms_arg)

            return arg_code(rib, arg_kont, ms)

        return self._head(code_app, 1, 1)

    def _compile_let(self, expr: Let, scope: Optional[_Scope]) -> Code:
        body_code = self.compile(expr.body, _Scope((expr.name,), scope))
        get_bound = self.trivial(expr.bound, scope)
        if get_bound is not None:

            def code_let_trivial(rib, kont, ms):
                return body_code([rib, get_bound(rib)], kont, ms)

            bound_steps, bound_apps = _trivial_weight(expr.bound)
            return self._head(code_let_trivial, 1 + bound_steps, bound_apps)

        bound_code = self.compile(expr.bound, scope)

        def code_let(rib, kont, ms):
            def bound_kont(value, ms_inner):
                return body_code([rib, value], kont, ms_inner)

            return bound_code(rib, bound_kont, ms)

        return self._head(code_let, 1)

    def _compile_letrec(self, expr: Letrec, scope: Optional[_Scope]) -> Code:
        names = tuple(name for name, _ in expr.bindings)
        rec_scope = _Scope(names, scope)
        makers = []
        for name, bound in expr.bindings:
            # Figure 2's letrec equation builds the Fun value directly, so
            # annotation layers around the lambda itself are not observable
            # (matching Environment.extend_recursive in the reference).
            lam = strip_annotations_shallow(bound)
            assert isinstance(lam, Lam), "Letrec guarantees lambda bindings"
            body_code = self.compile(lam.body, _Scope((lam.param,), rec_scope))
            makers.append((body_code, lam.param, name))
        body_code = self.compile(expr.body, rec_scope)

        if len(makers) == 1:
            code0, param0, name0 = makers[0]

            def code_letrec1(rib, kont, ms):
                new_rib = [rib, None]
                new_rib[1] = CompiledClosure(code0, new_rib, param0, name0)
                return body_code(new_rib, kont, ms)

            return code_letrec1

        def code_letrec(rib, kont, ms):
            new_rib = [rib]
            append = new_rib.append
            for code_i, param_i, name_i in makers:
                append(CompiledClosure(code_i, new_rib, param_i, name_i))
            return body_code(new_rib, kont, ms)

        return code_letrec

    def _compile_annotated(self, expr: Annotated, scope: Optional[_Scope]) -> Code:
        payload = expr.annotation
        spec = None
        recognized = None
        # derive_all wraps the last monitor outermost, so it gets first
        # claim; with disjoint syntaxes at most one monitor matches anyway.
        for monitor in reversed(self.monitors):
            view = monitor.recognize(payload)
            if view is not None:
                spec, recognized = monitor, view
                break
        if spec is None:
            # Obliviousness (Definition 7.1), performed at compile time:
            # unclaimed annotations cost nothing at run time (metered
            # code still charges the annotated node's step).
            return self._head(self.compile(expr.body, scope), 1)

        body_code = self.compile(expr.body, scope)
        body_ast = expr.body
        addresses = self._address_table(scope)
        global_env = self.global_env
        key = spec.key
        observes = tuple(spec.observes)
        pre, post = _metered_hooks(spec) if self.metered else (spec.pre, spec.post)

        if self.fault_log is not None:
            return self._head(
                self._fault_isolated_annotated(
                    recognized, body_code, body_ast, addresses, key, observes, pre, post
                ),
                1,
            )

        if observes:

            def code_observing(rib, kont, ms):
                ctx = _CompiledContext(rib, addresses, global_env)
                pre_state = pre(
                    recognized, body_ast, ctx, ms.get(key), inner=ms.view(observes)
                )
                ms_pre = ms.set(key, pre_state)

                def kont_post(result, ms_inner):
                    post_state = post(
                        recognized,
                        body_ast,
                        ctx,
                        result,
                        ms_inner.get(key),
                        inner=ms_inner.view(observes),
                    )
                    return KTail(kont, result, ms_inner.set(key, post_state))

                return body_code(rib, kont_post, ms_pre)

            return self._head(code_observing, 1)

        def code_monitored(rib, kont, ms):
            ctx = _CompiledContext(rib, addresses, global_env)
            pre_state = pre(recognized, body_ast, ctx, ms.get(key))
            ms_pre = ms.set(key, pre_state)

            def kont_post(result, ms_inner):
                post_state = post(recognized, body_ast, ctx, result, ms_inner.get(key))
                return KTail(kont, result, ms_inner.set(key, post_state))

            return body_code(rib, kont_post, ms_pre)

        return self._head(code_monitored, 1)

    def _fault_isolated_annotated(
        self, recognized, body_code, body_ast, addresses, key, observes, pre, post
    ) -> Code:
        """A claimed annotation under a non-``propagate`` fault policy.

        Mirrors the reference derivation's fault-isolated path exactly: a
        disabled slot falls through to the bare body code (the
        unclaimed-annotation path, pre-dispatched), a ``pre``/``post``
        exception is recorded on the fault log, and under ``quarantine``
        the slot stays disabled for the rest of the run — including inside
        ``post`` continuations captured before the fault.

        The log is fetched from the per-thread run context at every
        activation (see :data:`_RUN_STATE`), so the compiled code is
        reusable across runs and threads with distinct logs.
        """
        global_env = self.global_env

        def code_isolated(rib, kont, ms):
            fault_log = _RUN_STATE.fault_log
            disabled = fault_log.disabled
            if key in disabled:
                return body_code(rib, kont, ms)
            ctx = _CompiledContext(rib, addresses, global_env)
            state = ms.get(key)
            try:
                if observes:
                    pre_state = pre(
                        recognized, body_ast, ctx, state, inner=ms.view(observes)
                    )
                else:
                    pre_state = pre(recognized, body_ast, ctx, state)
            except Exception as exc:
                fault_log.record(key, "pre", exc)
                if key in disabled:  # quarantined just now
                    return body_code(rib, kont, ms)
                pre_state = state  # log policy: drop the update
            ms_pre = ms.set(key, pre_state)

            def kont_post(result, ms_inner):
                if key in disabled:
                    return KTail(kont, result, ms_inner)
                post_state = ms_inner.get(key)
                try:
                    if observes:
                        post_state = post(
                            recognized,
                            body_ast,
                            ctx,
                            result,
                            post_state,
                            inner=ms_inner.view(observes),
                        )
                    else:
                        post_state = post(
                            recognized, body_ast, ctx, result, post_state
                        )
                except Exception as exc:
                    fault_log.record(key, "post", exc)
                    return KTail(kont, result, ms_inner)
                return KTail(kont, result, ms_inner.set(key, post_state))

            return body_code(rib, kont_post, ms_pre)

        return code_isolated

    @staticmethod
    def _address_table(scope: Optional[_Scope]) -> Dict[str, Tuple[int, int]]:
        """Name -> lexical address for every visible binding, innermost wins."""
        addresses: Dict[str, Tuple[int, int]] = {}
        depth = 0
        while scope is not None:
            for index, name in enumerate(scope.names):
                addresses.setdefault(name, (depth, index + 1))
            depth += 1
            scope = scope.parent
        return addresses


class CompiledProgram:
    """A program staged to Python closures, ready to run repeatedly.

    Compilation is pure: running a compiled program builds fresh ribs and
    threads whatever monitor state the caller supplies, so one
    ``CompiledProgram`` can be executed any number of times and from any
    number of threads *concurrently* (the serving runtime's compilation
    cache relies on this).  Per-run state travels through the per-thread
    run context, never through the closures:

    * ``fault_log`` is per-run mutable bookkeeping.  Sequential callers
      may keep using the compile-time default log (it is reset at each
      :meth:`run`); concurrent callers pass a fresh log per run via
      ``run(fault_log=...)`` and the isolated closures pick it up.
    * ``run(telemetry=...)`` runs the metered closure tree, compiled
      lazily from the same program on first use, which charges that
      run's counters.
    """

    __slots__ = (
        "code", "global_env", "monitors", "fault_log", "_program", "_metered"
    )

    def __init__(
        self,
        code: Code,
        global_env: Environment,
        monitors: Tuple,
        fault_log,
        program: Expr,
    ) -> None:
        self.code = code
        self.global_env = global_env
        self.monitors = monitors
        self.fault_log = fault_log
        self._program = program
        self._metered: Optional[Code] = None

    @property
    def isolated(self) -> bool:
        """True when this program was compiled with fault-isolated hooks."""
        return self.fault_log is not None

    def _metered_code(self) -> Code:
        code = self._metered
        if code is None:
            # A benign race: two threads may both compile the variant;
            # both results are equivalent and either may win.
            compiler = _Compiler(
                self.global_env, self.monitors, self.fault_log, metered=True
            )
            code = compiler.compile(self._program, None)
            self._metered = code
        return code

    def run(
        self,
        *,
        answers: AnswerAlgebra = STANDARD_ANSWERS,
        initial_ms=None,
        max_steps: Optional[int] = None,
        fault_log=None,
        deadline: Optional[float] = None,
        telemetry=None,
    ) -> Tuple[object, object]:
        """Execute, returning ``(answer, monitor_state)``.

        ``fault_log`` supplies this run's fault log (fault-isolated
        programs only); omitting it reuses the compile-time default log,
        reset first — the historical sequential behavior.  ``deadline``
        is a ``perf_counter`` timestamp enforced by the trampoline.
        ``telemetry`` (a :class:`~repro.observability.instrument
        .Telemetry`) runs the metered variant, charging this run's
        counters.
        """
        log = fault_log if fault_log is not None else self.fault_log
        if log is not None and fault_log is None:
            log.reset()
        if initial_ms is None and self.monitors:
            from repro.monitoring.state import MonitorStateVector

            initial_ms = MonitorStateVector.initial(self.monitors)
        phi = answers.phi
        code = self.code if telemetry is None else self._metered_code()

        def final_kont(value, ms) -> Step:
            return Done((phi(value), ms))

        previous = (
            getattr(_RUN_STATE, "fault_log", None),
            getattr(_RUN_STATE, "telemetry", None),
        )
        _RUN_STATE.fault_log = log
        _RUN_STATE.telemetry = telemetry
        try:
            step = code([None], final_kont, initial_ms)
            return trampoline(step, max_steps=max_steps, deadline=deadline)
        finally:
            _RUN_STATE.fault_log, _RUN_STATE.telemetry = previous


def compile_program(
    program: Expr,
    *,
    monitors: Sequence = (),
    env: Optional[Environment] = None,
    fault_log=None,
    fault_policy: Optional[str] = None,
    config=None,
) -> CompiledProgram:
    """Stage ``program`` (and ``monitors``) into a :class:`CompiledProgram`.

    ``env`` is the global environment free identifiers resolve against; it
    defaults to the initial environment of primitives and must not change
    between runs (its bindings are burned into the compiled code).

    Fault isolation: pass either a ready-made
    :class:`~repro.monitoring.faults.FaultLog` (``fault_log``, shared with
    a caller that wants to read the records back) or a ``fault_policy``
    name (``"quarantine"``/``"log"``); omitting both compiles the
    historical ``propagate`` behavior with zero added overhead.

    Telemetry is a run option, not a compile option: pass a
    :class:`~repro.observability.instrument.Telemetry` to
    :meth:`CompiledProgram.run`, or use ``run_monitored(...,
    engine="compiled", config=RunConfig(metrics=...))``.

    ``config`` (a :class:`repro.runtime.config.RunConfig`) is the unified
    alternative: its ``fault_policy`` selects isolation and its ``lint``
    gates compilation.  Combining ``config`` with
    ``fault_log``/``fault_policy`` raises ``TypeError`` — the config is
    meant to *replace* the loose knobs — and so does a config asking for
    telemetry, which a compilation cannot carry.
    """
    if config is not None:
        if fault_log is not None or fault_policy is not None:
            raise TypeError(
                "compile_program: pass either config= or the legacy "
                "fault_log=/fault_policy= knobs, not both"
            )
        from repro.runtime.config import RunConfig

        RunConfig.resolve(config)  # validates
        if config.wants_telemetry():
            raise TypeError(
                "compile_program: metrics/event_sink are per-run options; "
                "pass telemetry= to CompiledProgram.run or use run_monitored"
            )
        fault_policy = config.fault_policy
        if config.lint != "off":
            import sys

            from repro.analysis import StaticAnalysisError, analyze

            report = analyze(program, tuple(monitors))
            if config.lint == "error" and not report.ok():
                raise StaticAnalysisError(report)
            if report.diagnostics:
                print(report.render(), file=sys.stderr)
    if fault_log is None and fault_policy not in (None, "propagate"):
        from repro.monitoring.faults import FaultLog

        fault_log = FaultLog(fault_policy)
    global_env = initial_environment() if env is None else env
    monitor_tuple = tuple(monitors)
    code = _Compiler(global_env, monitor_tuple, fault_log).compile(program, None)
    return CompiledProgram(code, global_env, monitor_tuple, fault_log, program)


def evaluate_compiled(
    program: Expr,
    *,
    env: Optional[Environment] = None,
    answers: AnswerAlgebra = STANDARD_ANSWERS,
    max_steps: Optional[int] = None,
):
    """Evaluate ``program`` on the compiled engine and return the answer."""
    answer, _ = compile_program(program, env=env).run(
        answers=answers, max_steps=max_steps
    )
    return answer


__all__ = [
    "CompiledClosure",
    "CompiledProgram",
    "compile_program",
    "evaluate_compiled",
]

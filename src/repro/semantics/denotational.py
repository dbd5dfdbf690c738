"""A literal, higher-order reference implementation of the semantics.

This module transliterates Figures 2 and 3 as directly as Python permits:

* meanings of programs are *functions* ``MS -> (Ans x MS)`` built with the
  answer transformer ``theta`` (Definition 4.1);
* ``updPre`` and ``updPost`` are composed onto those functions with honest
  function composition, exactly as in Definition 4.2;
* the derived valuation function is the fixpoint of a derived functional.

It exists to *cross-check* the production machine in
:mod:`repro.semantics.standard` / :mod:`repro.monitoring.derive`, which
threads the monitor state through a trampoline instead of composing
closures.  The equivalence of the two implementations on every test program
is itself evidence for the paper's soundness theorem: both compute the same
standard answer and the same final monitor state.

Because this version uses genuine Python recursion (every tail call is a
host call), it is restricted to modest programs; :func:`run_denotational`
raises the recursion limit temporarily to accommodate CPS call chains.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

from repro.errors import EvalError, NotAFunctionError
from repro.semantics.answers import AnswerAlgebra, STANDARD_ANSWERS, theta
from repro.semantics.env import Environment
from repro.semantics.primitives import initial_environment
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

#: ``Ans_bar = MS -> (Ans x MS)``.
AnsBar = Callable[[object], Tuple[object, object]]

#: Expression continuations ``Kont = V -> Ans_bar``.
Kont = Callable[[object], AnsBar]


class DenClosure:
    """``Fun = V -> Kont -> Ans_bar`` — a function value of this semantics.

    Unlike the machine's :class:`~repro.semantics.values.Closure`, this
    wraps a host closure that has already captured the valuation function,
    matching the domain equation literally.
    """

    __slots__ = ("call", "name")

    def __init__(self, call: Callable[[object, Kont], AnsBar], name: str | None = None):
        self.call = call
        self.name = name

    def __repr__(self) -> str:
        return f"<den-closure {self.name or ''}>".replace(" >", ">")


def _compose(ans_bar: AnsBar, update: Callable[[object], object]) -> AnsBar:
    """``ans_bar o update`` — run the state update, then the computation."""

    def composed(sigma):
        return ans_bar(update(sigma))

    return composed


def _apply(fn_value, arg_value, kappa: Kont) -> AnsBar:
    if isinstance(fn_value, DenClosure):
        return fn_value.call(arg_value, kappa)
    if isinstance(fn_value, PrimFun):
        return kappa(fn_value.apply(arg_value))
    raise NotAFunctionError(
        f"attempt to apply non-function value {value_to_string(fn_value)!r}"
    )


def standard_functional_denotational(recur):
    """``G_lambda`` of Figure 2, with answers in ``Ans_bar``.

    ``recur(expr, rho, kappa) -> AnsBar`` is the valuation function being
    defined; the returned function is one unrolling of the functional.
    """

    def valuation(expr: Expr, rho: Environment, kappa: Kont) -> AnsBar:
        node_type = type(expr)

        if node_type is Const:
            return kappa(expr.value)

        if node_type is Var:
            return kappa(rho.lookup(expr.name))

        if node_type is Lam:
            fun = DenClosure(
                lambda v, kont: recur(expr.body, rho.extend(expr.param, v), kont)
            )
            return kappa(fun)

        if node_type is If:

            def branch(v) -> AnsBar:
                if v is True:
                    return recur(expr.then_branch, rho, kappa)
                if v is False:
                    return recur(expr.else_branch, rho, kappa)
                raise EvalError(
                    f"condition evaluated to non-boolean {value_to_string(v)!r}"
                )

            return recur(expr.cond, rho, branch)

        if node_type is App:
            return recur(
                expr.arg,
                rho,
                lambda v2: recur(expr.fn, rho, lambda v1: _apply(v1, v2, kappa)),
            )

        if node_type is Let:
            return recur(
                expr.bound,
                rho,
                lambda v: recur(expr.body, rho.extend(expr.name, v), kappa),
            )

        if node_type is Letrec:
            # rho' = rho[f -> (\v. E[e1] rho'[x -> v]) in Fun], tied with a knot.
            frame: dict = {}
            rho_prime = Environment(frame, rho)
            for name, bound in expr.bindings:
                lam = bound
                while isinstance(lam, Annotated):
                    lam = lam.body
                assert isinstance(lam, Lam)

                def make(lam_node: Lam) -> DenClosure:
                    return DenClosure(
                        lambda v, kont, _lam=lam_node: recur(
                            _lam.body, rho_prime.extend(_lam.param, v), kont
                        )
                    )

                frame[name] = make(lam)
            return recur(expr.body, rho_prime, kappa)

        if node_type is Annotated:
            return recur(expr.body, rho, kappa)

        raise TypeError(f"unknown expression node: {node_type.__name__}")

    return valuation


def derive_functional_denotational(base_functional, monitor):
    """Definition 4.2, literally: wrap annotated terms with updPre/updPost.

    ``monitor`` must provide ``recognize(annotation)`` plus pre/post
    monitoring functions (see :class:`repro.monitoring.spec.MonitorSpec`);
    the semantic context passed to them is the environment ``rho``.
    """

    def functional(recur):
        base = base_functional(recur)

        def valuation(expr: Expr, rho: Environment, kappa: Kont) -> AnsBar:
            if isinstance(expr, Annotated):
                annotation = monitor.recognize(expr.annotation)
                if annotation is not None:
                    body = expr.body

                    def upd_pre(sigma):
                        return monitor.pre(annotation, body, rho, sigma)

                    def kappa_post(v) -> AnsBar:
                        def upd_post(sigma):
                            return monitor.post(annotation, body, rho, v, sigma)

                        return _compose(kappa(v), upd_post)

                    return _compose(recur(body, rho, kappa_post), upd_pre)
            return base(expr, rho, kappa)

        return valuation

    return functional


def _fix(functional):
    def recur(expr, rho, kappa):
        return valuation(expr, rho, kappa)

    valuation = functional(recur)
    return valuation


def run_denotational(
    program: Expr,
    monitor=None,
    *,
    env: Optional[Environment] = None,
    answers: AnswerAlgebra = STANDARD_ANSWERS,
    recursion_limit: int = 20000,
):
    """Evaluate ``program`` in the literal semantics.

    With ``monitor=None`` this is the standard semantics run through the
    monitoring answer algebra with an empty state — by Lemma 7.3 the first
    projection is the standard answer.  With a monitor, the derived
    monitoring semantics of Figure 3 runs and the pair
    ``(answer, final_state)`` is returned.

    Monitor *cascades* (Figure 5) add one explicit state argument per
    derivation level and are exercised through the production machine
    (:mod:`repro.monitoring.compose`), whose agreement with this reference
    on single monitors is property-tested.
    """
    if env is None:
        env = initial_environment()

    if monitor is None:
        functional = standard_functional_denotational
        initial_state = None
    else:
        functional = derive_functional_denotational(
            standard_functional_denotational, monitor
        )
        initial_state = monitor.initial_state()
    valuation = _fix(functional)

    def kappa_init(v) -> AnsBar:
        return theta(answers.phi(v))

    with raised_recursion_limit(recursion_limit):
        answer, final_state = valuation(program, env, kappa_init)(initial_state)
    return answer, final_state

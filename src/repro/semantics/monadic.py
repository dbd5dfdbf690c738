"""The monadic reading of monitoring semantics (the paper's footnote 2).

"It is worth pointing out that there is a relationship between this
transformation and monads as reported in [Mog89, Wad90]."  Concretely:
the monitoring answer domain ``Ans_bar = MS -> (Ans x MS)`` *is* the
state monad over ``MS``, and the answer transformer
``theta alpha = \\sigma. (alpha, sigma)`` is its ``unit``.

This module makes the observation executable.  A single monadic
interpreter for ``L_lambda`` is parameterized by a monad; instantiating it

* with the **identity monad** gives the standard semantics;
* with the **state monad** plus a hook at annotated nodes (get the state,
  apply ``M_pre``; run the body; apply ``M_post``) gives exactly the
  monitoring semantics of Figure 3 —

and the test suite checks both against the production machine.  The
interpreter is written once, in terms of ``unit``/``bind``; only the
monad (and the annotation hook) changes, which is footnote 2's point:
the Definition 4.2 transformation is the state-monad transformer applied
to a computational lambda-calculus semantics.

Like the literal denotational reference, this interpreter recurses on the
host stack and targets modest programs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.errors import EvalError, NotAFunctionError
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


@dataclass(frozen=True)
class Monad:
    """A monad given by its ``unit`` and ``bind`` (Kleisli extension)."""

    name: str
    unit: Callable
    bind: Callable


#: The identity monad: computations are plain values.
IDENTITY = Monad(
    name="identity",
    unit=lambda value: value,
    bind=lambda computation, fn: fn(computation),
)


def state_unit(value):
    """``theta`` (Definition 4.1): inject a value into ``MS -> (Ans x MS)``."""

    def computation(sigma):
        return (value, sigma)

    return computation


def state_bind(computation, fn):
    def bound(sigma):
        value, sigma_prime = computation(sigma)
        return fn(value)(sigma_prime)

    return bound


#: The state monad over the monitor state — the monitoring answer domain.
STATE = Monad(name="state", unit=state_unit, bind=state_bind)


def state_modify(update):
    """Lift a state transformer ``MS -> MS`` into the monad (updPre/updPost)."""

    def computation(sigma):
        return (None, update(sigma))

    return computation


def state_get(sigma):
    return (sigma, sigma)


class MonadicClosure:
    """``Fun = V -> M Ans`` — function values of the monadic semantics."""

    __slots__ = ("call",)

    def __init__(self, call) -> None:
        self.call = call


def make_interpreter(monad: Monad, annotation_hook=None):
    """The monadic valuation function ``E : Exp -> Env -> M V``.

    ``annotation_hook(annotation, body, env, run_body) -> M V`` (when
    given) interprets annotated nodes; without it they are transparent.
    """
    unit, bind = monad.unit, monad.bind

    def evaluate(expr: Expr, env: Environment):
        node_type = type(expr)

        if node_type is Const:
            return unit(expr.value)

        if node_type is Var:
            return unit(env.lookup(expr.name))

        if node_type is Lam:
            return unit(
                MonadicClosure(
                    lambda v: evaluate(expr.body, env.extend(expr.param, v))
                )
            )

        if node_type is If:

            def branch(value):
                if value is True:
                    return evaluate(expr.then_branch, env)
                if value is False:
                    return evaluate(expr.else_branch, env)
                raise EvalError(
                    f"condition evaluated to non-boolean {value_to_string(value)!r}"
                )

            return bind(evaluate(expr.cond, env), branch)

        if node_type is App:
            # Figure 2 order: argument before operator.
            def with_argument(argument):
                def with_function(function):
                    if isinstance(function, MonadicClosure):
                        return function.call(argument)
                    if isinstance(function, PrimFun):
                        return unit(function.apply(argument))
                    raise NotAFunctionError(
                        f"attempt to apply non-function value "
                        f"{value_to_string(function)!r}"
                    )

                return bind(evaluate(expr.fn, env), with_function)

            return bind(evaluate(expr.arg, env), with_argument)

        if node_type is Let:
            return bind(
                evaluate(expr.bound, env),
                lambda value: evaluate(expr.body, env.extend(expr.name, value)),
            )

        if node_type is Letrec:
            frame: dict = {}
            rec_env = Environment(frame, env)
            for name, bound in expr.bindings:
                lam = bound
                while isinstance(lam, Annotated):
                    lam = lam.body
                assert isinstance(lam, Lam)

                def make(lam_node: Lam) -> MonadicClosure:
                    return MonadicClosure(
                        lambda v, _lam=lam_node: evaluate(
                            _lam.body, rec_env.extend(_lam.param, v)
                        )
                    )

                frame[name] = make(lam)
            return evaluate(expr.body, rec_env)

        if node_type is Annotated:
            if annotation_hook is not None:
                return annotation_hook(
                    expr.annotation,
                    expr.body,
                    env,
                    lambda: evaluate(expr.body, env),
                )
            return evaluate(expr.body, env)

        raise TypeError(f"unknown expression node: {node_type.__name__}")

    return evaluate


def monitoring_hook(monitor):
    """The Figure 3 annotated-node equation, in state-monad form.

    get sigma; put (M_pre ...); v <- body; put (M_post ...); return v
    """

    def hook(annotation, body, env, run_body):
        view = monitor.recognize(annotation)
        if view is None:
            return run_body()
        return state_bind(
            state_modify(lambda sigma: monitor.pre(view, body, env, sigma)),
            lambda _: state_bind(
                run_body(),
                lambda value: state_bind(
                    state_modify(
                        lambda sigma: monitor.post(view, body, env, value, sigma)
                    ),
                    lambda _: state_unit(value),
                ),
            ),
        )

    return hook


def run_identity(
    program: Expr,
    *,
    env: Optional[Environment] = None,
    recursion_limit: int = 100_000,
):
    """The standard semantics through the identity monad."""
    if env is None:
        env = initial_environment()
    evaluate = make_interpreter(IDENTITY)
    with raised_recursion_limit(recursion_limit):
        return evaluate(program, env)


def run_state(
    program: Expr,
    monitor=None,
    *,
    env: Optional[Environment] = None,
    recursion_limit: int = 100_000,
):
    """The monitoring semantics through the state monad.

    Returns ``(answer, final_state)`` — the pair the paper's monitoring
    answer domain denotes.  With ``monitor=None`` the state threads
    untouched, exhibiting Lemma 7.3 (the first projection is the standard
    answer).
    """
    if env is None:
        env = initial_environment()
    hook = monitoring_hook(monitor) if monitor is not None else None
    evaluate = make_interpreter(STATE, annotation_hook=hook)
    initial = monitor.initial_state() if monitor is not None else None
    with raised_recursion_limit(recursion_limit):
        return evaluate(program, env)(initial)

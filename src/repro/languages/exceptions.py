"""``L_exc``: ``L_lambda`` with exceptions, in continuation style.

The paper claims its derivation works for "any sequential, deterministic
monitoring activity" over "any language for which a continuation semantics
is available" (Section 1).  Exceptions are the acid test: control can
abandon arbitrarily much pending computation, which in continuation
semantics means *discarding* continuations.  ``L_exc`` adds

::

    raise e                         abort with the value of e
    try e1 catch x. e2              handler: x bound to the raised value

and its valuation functional adds exactly two new cases; the inherited
equations are the standard ones (Figure 2) with the semantic context
widened from ``rho`` to ``(rho, handler)`` — the paper's indexed ``A*_i``
absorbing one more component, which the monitoring derivation passes
through untouched.

The semantic context becomes ``(env, handler)`` where ``handler`` is the
current handler record (a linked stack); ``raise`` evaluates its argument
and transfers to the handler's continuation, discarding the current one.

Interaction with monitoring is the interesting part, and it falls out of
the derivation with no special cases:

* a monitor's ``updPre`` runs when an annotated expression starts;
* if an exception aborts that expression, the continuation holding
  ``updPost`` is discarded — the post event *never fires* — so a tracer
  shows the entry with no matching return, exactly the truth about the
  run.  (An unwinding monitor that needs balanced events can annotate the
  ``try`` instead, which always completes or aborts as a unit.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.errors import EvalError
from repro.languages.base import BaseLanguage
from repro.semantics.env import Environment
from repro.semantics.machine import Functional, Valuation
from repro.semantics.primitives import initial_environment
from repro.semantics.trampoline import Bounce, Step
from repro.semantics.values import Closure, PrimFun, value_to_string
from repro.syntax import lexer
from repro.syntax.ast import Annotated, App, Const, Expr, If, Lam, Let, Letrec, Var
from repro.syntax.lexer import tokenize
from repro.syntax.parser import Parser


@dataclass(frozen=True)
class Raise(Expr):
    """``raise e`` — abort the current continuation with ``e``'s value."""

    expr: Expr

    def children(self) -> Tuple[Expr, ...]:
        return (self.expr,)


@dataclass(frozen=True)
class TryCatch(Expr):
    """``try body catch param. handler``."""

    body: Expr
    param: str
    handler: Expr

    def children(self) -> Tuple[Expr, ...]:
        return (self.body, self.handler)


class UncaughtException(EvalError):
    """A raised value reached the top of the program."""

    def __init__(self, value) -> None:
        super().__init__(f"uncaught exception: {value_to_string(value)}")
        self.value = value


class _Handler:
    """A handler record: where ``raise`` transfers control.

    ``kont`` is the continuation of the whole ``try`` expression; the
    handler body runs in ``env`` extended with the raised value, under the
    ``parent`` handler (so a raise *inside* a handler propagates outward).
    """

    __slots__ = ("param", "handler_expr", "env", "kont", "parent")

    def __init__(self, param, handler_expr, env, kont, parent) -> None:
        self.param = param
        self.handler_expr = handler_expr
        self.env = env
        self.kont = kont
        self.parent = parent


def exceptions_functional(recur: Valuation) -> Valuation:
    """The ``L_exc`` valuation functional.

    Context: ``(env, handler)``.  All inherited equations come from the
    standard functional via an adapter that re-packs the context — the
    same inheritance move as Definition 4.2, applied to a *language*
    extension instead of a monitor.
    """

    def eval_exc(expr: Expr, ctx, kont, ms) -> Step:
        env, handler = ctx
        node_type = type(expr)

        if node_type is Raise:

            def raise_kont(value, ms_inner) -> Step:
                if handler is None:
                    raise UncaughtException(value)
                # Transfer to the handler: the current continuation (and
                # any updPost hooks composed into it) is discarded.
                handler_env = handler.env.extend(handler.param, value)
                return Bounce(
                    recur,
                    (
                        handler.handler_expr,
                        (handler_env, handler.parent),
                        handler.kont,
                        ms_inner,
                    ),
                )

            return Bounce(recur, (expr.expr, ctx, raise_kont, ms))

        if node_type is TryCatch:
            installed = _Handler(expr.param, expr.handler, env, kont, handler)

            def body_kont(value, ms_inner) -> Step:
                # Normal completion: the handler is simply not consulted.
                return Bounce(kont, (value, ms_inner))

            return Bounce(recur, (expr.body, (env, installed), body_kont, ms))

        # Inherited equations.  The standard functional threads a context
        # it never inspects beyond the environment, so adapt: unpack the
        # environment, re-pack the handler into every recursive call.
        return _inherited(expr, env, handler, kont, ms)

    def _inherited(expr: Expr, env: Environment, handler, kont, ms) -> Step:
        node_type = type(expr)

        if node_type is Const:
            return Bounce(kont, (expr.value, ms))
        if node_type is Var:
            return Bounce(kont, (env.lookup(expr.name), ms))
        if node_type is Lam:
            return Bounce(kont, (Closure(expr.param, expr.body, env), ms))
        if node_type is If:

            def branch_kont(value, ms_inner) -> Step:
                if value is True:
                    return Bounce(recur, (expr.then_branch, (env, handler), kont, ms_inner))
                if value is False:
                    return Bounce(recur, (expr.else_branch, (env, handler), kont, ms_inner))
                raise EvalError(
                    f"condition evaluated to non-boolean {value_to_string(value)!r}"
                )

            return Bounce(recur, (expr.cond, (env, handler), branch_kont, ms))
        if node_type is App:

            def arg_kont(arg_value, ms_arg) -> Step:
                def fn_kont(fn_value, ms_fn) -> Step:
                    if isinstance(fn_value, Closure):
                        extended = fn_value.env.extend(fn_value.param, arg_value)
                        return Bounce(
                            recur, (fn_value.body, (extended, handler), kont, ms_fn)
                        )
                    if isinstance(fn_value, PrimFun):
                        return Bounce(kont, (fn_value.apply(arg_value), ms_fn))
                    raise EvalError(
                        f"attempt to apply non-function value "
                        f"{value_to_string(fn_value)!r}"
                    )

                return Bounce(recur, (expr.fn, (env, handler), fn_kont, ms_arg))

            return Bounce(recur, (expr.arg, (env, handler), arg_kont, ms))
        if node_type is Let:

            def bound_kont(value, ms_inner) -> Step:
                extended = env.extend(expr.name, value)
                return Bounce(recur, (expr.body, (extended, handler), kont, ms_inner))

            return Bounce(recur, (expr.bound, (env, handler), bound_kont, ms))
        if node_type is Letrec:
            recursive_env = env.extend_recursive(expr.bindings)
            return Bounce(recur, (expr.body, (recursive_env, handler), kont, ms))
        if node_type is Annotated:
            return Bounce(recur, (expr.body, (env, handler), kont, ms))
        raise TypeError(f"unknown expression node: {node_type.__name__}")

    return eval_exc


class ExceptionsLanguage(BaseLanguage):
    """The ``L_exc`` language module."""

    name = "exceptions"

    def functional(self) -> Functional:
        return exceptions_functional

    def initial_context(self):
        return (initial_environment(), None)

    def parse(self, source: str) -> Expr:
        """Parse ``L_exc`` surface syntax (``raise``/``try ... catch``)."""
        return parse_exc(source)


exceptions_language = ExceptionsLanguage()


# Convenience constructors ----------------------------------------------------


def raise_(expr: Expr) -> Raise:
    return Raise(expr)


def try_catch(body: Expr, param: str, handler: Expr) -> TryCatch:
    return TryCatch(body, param, handler)


# Surface syntax -----------------------------------------------------------------


class ExcParser(Parser):
    """``L_lambda`` plus ``raise e`` and ``try e1 catch x. e2``.

    ``raise``/``try``/``catch`` are contextual keywords of this parser
    only; plain ``L_lambda`` programs may still use them as identifiers.
    """

    application_stop_words = frozenset({"catch"})

    def _parse_unary(self) -> Expr:
        # ``raise`` binds like a unary operator: ``1 + raise x`` is
        # ``1 + (raise x)``; parenthesize compound raise arguments.
        token = self._peek()
        if token.kind == lexer.IDENT and token.value == "raise":
            self._advance()
            return Raise(self._parse_unary()).at(token.location)
        return super()._parse_unary()

    def parse_expr(self) -> Expr:
        token = self._peek()
        if token.kind == lexer.IDENT and token.value == "try":
            self._advance()
            body = self.parse_expr()
            catch = self._peek()
            if not (catch.kind == lexer.IDENT and catch.value == "catch"):
                from repro.errors import ParseError

                raise ParseError(
                    f"expected 'catch', found {catch.value or catch.kind!r}",
                    catch.location,
                )
            self._advance()
            param = self._expect(lexer.IDENT).value
            self._expect(lexer.DOT)
            handler = self.parse_expr()
            return TryCatch(body, param, handler).at(token.location)
        return super().parse_expr()


def parse_exc(source: str) -> Expr:
    """Parse ``L_exc`` surface syntax."""
    return ExcParser(tokenize(source)).parse_program()

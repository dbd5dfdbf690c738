"""Trampoline steps: tail calls for continuation-passing style in Python.

A continuation semantics only ever makes *tail* calls ("values are only
passed forward", Section 7 / Reynolds' serious functions).  Python has no
tail-call elimination, so the machine represents every tail call as a step
object consumed by :func:`trampoline`.  The driver's loop is the only
Python stack frame alive during evaluation, which is how programs recurse
hundreds of thousands of levels deep without touching
``sys.setrecursionlimit``.

Three bounce shapes exist:

* :class:`Bounce` — the generic form ``fn(*args)`` used by the reference
  interpreters.  It packs arguments into a tuple, which is flexible but
  costs an extra allocation per step.
* :class:`Tail` — a pre-dispatched call ``fn(a, b, c)`` with exactly three
  operands, used by the compiled engine for ``code(rib, kont, ms)`` calls.
  Its fields live in ``__slots__`` so no argument tuple is ever built.
* :class:`KTail` — a pre-dispatched continuation invocation ``fn(a, b)``
  (``kont(value, ms)``), the compiled engine's value-delivery step.

:func:`trampoline` drives all of them in a single loop.  The step limit is
checked in batches of :data:`STEP_BATCH`: the inner loop runs an exact
per-chunk budget, so limit semantics stay precise while the unlimited case
pays only one extra integer compare per step.

The evaluators that *do* recurse on the host stack (codegen's residual
programs, the monadic and denotational references, the online
specializer) raise the recursion limit through
:class:`raised_recursion_limit`, the one place that changes it.
"""

from __future__ import annotations

import sys
import threading
from time import perf_counter
from typing import Callable, Optional, Tuple

from repro.errors import EvaluationTimeout, StepLimitExceeded

#: How many bounces the driver executes between step-limit checks.  The
#: inner loop's chunk is clamped to the remaining budget, so limits are
#: still enforced exactly.
STEP_BATCH = 4096


class Step:
    """A pending tail call (:class:`Bounce`/:class:`Tail`/:class:`KTail`) or a :class:`Done`."""

    __slots__ = ()


class Bounce(Step):
    """A suspended tail call ``fn(*args)`` (generic, tuple-packed form)."""

    __slots__ = ("fn", "args")

    def __init__(self, fn: Callable[..., Step], args: Tuple) -> None:
        self.fn = fn
        self.args = args

    def __repr__(self) -> str:
        name = getattr(self.fn, "__name__", repr(self.fn))
        return f"Bounce({name}, {len(self.args)} args)"


class Tail(Step):
    """A suspended three-operand tail call ``fn(a, b, c)``.

    The compiled engine's code objects have the fixed signature
    ``code(rib, kont, ms)``; storing the operands in dedicated slots avoids
    packing and unpacking an argument tuple on every step.
    """

    __slots__ = ("fn", "a", "b", "c")

    def __init__(self, fn: Callable[..., Step], a, b, c) -> None:
        self.fn = fn
        self.a = a
        self.b = b
        self.c = c

    def __repr__(self) -> str:
        name = getattr(self.fn, "__name__", repr(self.fn))
        return f"Tail({name})"


class KTail(Step):
    """A suspended continuation invocation ``kont(value, ms)``.

    Continuations must bounce — invoking them directly would unwind the
    reified continuation chain on the host stack, breaking deep recursion.
    """

    __slots__ = ("fn", "a", "b")

    def __init__(self, fn: Callable[..., Step], a, b) -> None:
        self.fn = fn
        self.a = a
        self.b = b

    def __repr__(self) -> str:
        name = getattr(self.fn, "__name__", repr(self.fn))
        return f"KTail({name})"


class Done(Step):
    """A finished computation carrying the final payload."""

    __slots__ = ("payload",)

    def __init__(self, payload) -> None:
        self.payload = payload

    def __repr__(self) -> str:
        return f"Done({self.payload!r})"


def trampoline(
    step: Step,
    max_steps: Optional[int] = None,
    deadline: Optional[float] = None,
):
    """Run ``step`` to completion and return the :class:`Done` payload.

    ``max_steps`` bounds the number of bounces, allowing the test suite to
    execute possibly-divergent programs; exceeding it raises
    :class:`repro.errors.StepLimitExceeded` carrying both the limit and the
    number of steps actually consumed.

    ``deadline`` is a ``time.perf_counter()`` timestamp; passing one
    enforces a cooperative wall-clock budget (the batch runtime's
    per-request timeouts).  The clock is consulted once per step batch —
    one comparison every :data:`STEP_BATCH` bounces, so the unlimited
    fast path is untouched — and overrunning raises
    :class:`repro.errors.EvaluationTimeout`.
    """
    consumed = 0
    while True:
        if max_steps is None:
            budget = STEP_BATCH
        else:
            budget = max_steps - consumed
            if budget > STEP_BATCH:
                budget = STEP_BATCH
        n = 0
        while n < budget:
            cls = step.__class__
            if cls is Tail:
                step = step.fn(step.a, step.b, step.c)
            elif cls is KTail:
                step = step.fn(step.a, step.b)
            elif cls is Bounce:
                step = step.fn(*step.args)
            else:
                break
            n += 1
        consumed += n
        cls = step.__class__
        if cls is Done:
            return step.payload
        if cls is not Tail and cls is not KTail and cls is not Bounce:
            raise TypeError(
                f"machine step returned {type(step).__name__}; expected Bounce or Done"
            )
        if max_steps is not None and consumed >= max_steps:
            raise StepLimitExceeded(max_steps, consumed=consumed)
        if deadline is not None and perf_counter() >= deadline:
            raise EvaluationTimeout()


# The host recursion limit is process-global, so concurrent runs (the
# batch runtime drives one compiled artifact from many threads) must not
# save/restore it independently — a nesting counter raises it once and
# restores it when the last holder exits.
_RECLIMIT_LOCK = threading.Lock()
_RECLIMIT_DEPTH = 0
_RECLIMIT_SAVED = 0


class raised_recursion_limit:
    """Hold the host recursion limit at ``limit`` or above for a ``with`` block.

    For the evaluators that recurse on the native Python stack (the
    codegen engine's residual programs, the monadic and denotational
    reference semantics, the online specializer).  Holders on different
    threads share one count: the first entry saves the limit, each entry
    raises it to at least its own ``limit``, and only the last exit
    restores the saved value — a short run finishing on one thread never
    lowers the limit under a deep run still going on another.
    """

    __slots__ = ("limit",)

    def __init__(self, limit: int) -> None:
        self.limit = limit

    def __enter__(self) -> "raised_recursion_limit":
        global _RECLIMIT_DEPTH, _RECLIMIT_SAVED
        with _RECLIMIT_LOCK:
            if _RECLIMIT_DEPTH == 0:
                _RECLIMIT_SAVED = sys.getrecursionlimit()
            _RECLIMIT_DEPTH += 1
            if self.limit > sys.getrecursionlimit():
                sys.setrecursionlimit(self.limit)
        return self

    def __exit__(self, *exc_info) -> None:
        global _RECLIMIT_DEPTH
        with _RECLIMIT_LOCK:
            _RECLIMIT_DEPTH -= 1
            if _RECLIMIT_DEPTH == 0:
                sys.setrecursionlimit(_RECLIMIT_SAVED)

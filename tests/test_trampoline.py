"""Tests for the trampoline driver and the shared recursion-limit holder."""

import os
import subprocess
import sys
import threading

import pytest

from repro.errors import StepLimitExceeded
from repro.monitoring.spec import MonitorSpec
from repro.partial_eval.codegen import generate_program
from repro.semantics.monadic import run_state
from repro.semantics.trampoline import (
    STEP_BATCH,
    Bounce,
    Done,
    KTail,
    Tail,
    raised_recursion_limit,
    trampoline,
)
from repro.syntax.annotations import Label
from repro.syntax.parser import parse


def countdown(n):
    if n == 0:
        return Done("done")
    return Bounce(countdown, (n - 1,))


class TestTrampoline:
    def test_immediate_done(self):
        assert trampoline(Done(42)) == 42

    def test_bounce_chain(self):
        assert trampoline(countdown(1000)) == "done"

    def test_very_deep_chain_constant_stack(self):
        assert trampoline(countdown(1_000_000)) == "done"

    def test_step_limit_exceeded(self):
        with pytest.raises(StepLimitExceeded) as exc:
            trampoline(countdown(100), max_steps=50)
        assert exc.value.limit == 50

    def test_step_limit_sufficient(self):
        assert trampoline(countdown(100), max_steps=100) == "done"

    def test_non_step_rejected(self):
        with pytest.raises(TypeError):
            trampoline("not a step")

    def test_exception_propagates(self):
        def boom():
            raise ValueError("boom")

        with pytest.raises(ValueError):
            trampoline(Bounce(boom, ()))

    def test_repr(self):
        assert "countdown" in repr(Bounce(countdown, (1,)))
        assert "Done" in repr(Done(1))


def tail_countdown(n, _b, _c):
    if n == 0:
        return Done("tail-done")
    return Tail(tail_countdown, n - 1, None, None)


def ktail_countdown(n, _b):
    if n == 0:
        return Done("ktail-done")
    return KTail(ktail_countdown, n - 1, None)


class TestSpecializedSteps:
    """The Tail/KTail fast-path step variants drive like Bounce."""

    def test_tail_chain(self):
        assert trampoline(Tail(tail_countdown, 10_000, None, None)) == "tail-done"

    def test_ktail_chain(self):
        assert trampoline(KTail(ktail_countdown, 10_000, None)) == "ktail-done"

    def test_mixed_chain(self):
        def switch(n):
            if n == 0:
                return Done(n)
            if n % 3 == 0:
                return Bounce(switch, (n - 1,))
            if n % 3 == 1:
                return Tail(lambda a, b, c: switch(a), n - 1, None, None)
            return KTail(lambda a, b: switch(a), n - 1, None)

        assert trampoline(switch(999)) == 0

    def test_tail_counts_against_step_limit(self):
        with pytest.raises(StepLimitExceeded):
            trampoline(Tail(tail_countdown, 100, None, None), max_steps=50)


class TestBatchedStepLimit:
    """Limits are exact even though the driver checks them in batches."""

    def test_limit_exactly_at_batch_boundary(self):
        assert trampoline(countdown(STEP_BATCH), max_steps=STEP_BATCH + 1) == "done"

    def test_limit_one_below_needed_at_boundary(self):
        with pytest.raises(StepLimitExceeded) as exc:
            trampoline(countdown(STEP_BATCH + 1), max_steps=STEP_BATCH)
        assert exc.value.limit == STEP_BATCH
        assert exc.value.consumed == STEP_BATCH

    def test_limit_spanning_multiple_batches(self):
        n = 3 * STEP_BATCH + 17
        assert trampoline(countdown(n), max_steps=n + 1) == "done"
        with pytest.raises(StepLimitExceeded) as exc:
            trampoline(countdown(n + 100), max_steps=n)
        assert exc.value.consumed == n

    def test_consumed_reported_on_small_limit(self):
        with pytest.raises(StepLimitExceeded) as exc:
            trampoline(countdown(100), max_steps=7)
        assert exc.value.limit == 7
        assert exc.value.consumed == 7
        assert "7" in str(exc.value)

    def test_consumed_defaults_to_limit(self):
        exc = StepLimitExceeded(50)
        assert exc.limit == 50
        assert exc.consumed == 50


class Rendezvous(MonitorSpec):
    """Calls ``on_pre`` at every labelled site: a hook the test can park in."""

    key = "rendezvous"

    def __init__(self, on_pre):
        self.on_pre = on_pre

    def recognize(self, annotation):
        return annotation if isinstance(annotation, Label) else None

    def initial_state(self):
        return 0

    def pre(self, annotation, term, ctx, state):
        self.on_pre()
        return state + 1


class TestRaisedRecursionLimit:
    def test_nested_holders_restore_once(self):
        before = sys.getrecursionlimit()
        with raised_recursion_limit(before + 5000):
            with raised_recursion_limit(before + 100):
                assert sys.getrecursionlimit() == before + 5000
            assert sys.getrecursionlimit() == before + 5000
        assert sys.getrecursionlimit() == before

    def test_monadic_run_never_lowers_a_deep_codegen_run(self):
        """Thread A sits deep in a codegen run holding a raised limit;
        thread B enters and leaves a monadic run meanwhile.  B's exit
        must not restore the limit it saw on entry under A.

        Runs in a child interpreter: with the race present, the lowered
        limit kills the process with a fatal stack overflow.
        """
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        done = subprocess.run(
            [sys.executable, "-c", "import tests.test_trampoline as t; t.limit_race()"],
            cwd=root,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr[-2000:]
        assert done.stdout.strip() == "ok"


def limit_race():
    before = sys.getrecursionlimit()
    b_inside, a_inside, b_done = (threading.Event() for _ in range(3))
    seen = []
    errors = []

    def park_b():
        b_inside.set()
        assert a_inside.wait(10)

    def park_a():
        a_inside.set()
        assert b_done.wait(10)
        seen.append(sys.getrecursionlimit())

    def thread_b():
        try:
            run_state(parse("{b}: 1"), Rendezvous(park_b), recursion_limit=40_000)
        except BaseException as exc:  # reported by the assertions below
            errors.append(exc)
        finally:
            b_done.set()

    deep = parse(
        "letrec down = lambda n. if n = 0 then {a}: 0 else 1 + down (n - 1) "
        "in down 3000"
    )
    program = generate_program(deep, [Rendezvous(park_a)])
    worker = threading.Thread(target=thread_b)
    worker.start()
    try:
        assert b_inside.wait(10)
        answer, _ = program.run(recursion_limit=50_000)
    finally:
        worker.join(10)
    assert errors == []
    assert answer == 3000
    assert seen and seen[0] >= 50_000, seen
    assert sys.getrecursionlimit() == before
    print("ok")

"""The replay suite: checkpointed seeks are the straight fold, bit for bit.

A :class:`~repro.replay.session.ReplaySession` claims to be
``analyze_trace`` with a cursor — restoring a checkpoint and folding the
gap must land on exactly the state the one-pass fold reaches.  These
tests make that a property (hypothesis-generated programs, recorded
under every engine the language supports, seeked to every checkpoint
boundary), hold the per-trace activation index and ``context_at`` to the
per-event models they replaced at every position, pin the scripted
``repro replay`` transcript to a golden, and cover the satellites: v2
``input``/``deadline`` records, the ``REP401`` history-overflow
diagnostic, the :class:`DebugResult` wire format, and the deprecation
of loose per-option keywords.
"""

import json
import os
import tempfile
import warnings

import pytest
from hypothesis import given, settings

from repro.cli import main
from repro.errors import EvaluationTimeout
from repro.languages.imperative import imperative
from repro.languages.strict import strict
from repro.monitoring.derive import run_monitored
from repro.monitors import HistoryMonitor, ProfilerMonitor
from repro.monitors.interactive import DebugResult, debug
from repro.observability import RunMetrics
from repro.replay import (
    HISTORY_KEY,
    ReplayDebugger,
    ReplaySession,
    default_stack,
)
from repro.runtime import DEFAULT_CHECKPOINT_INTERVAL, RunConfig
from repro.semantics.values import value_to_string
from repro.syntax.parser import parse
from repro.tracing import analyze_trace, read_trace
from repro.tracing.record import record
from repro.tracing.schema import decode_value

from tests.generators import closed_program
from tests.test_imp_properties import closed_imp_program

FAC = (
    "letrec fac = lambda x. {fac(x)}: "
    "if x = 0 then 1 else x * fac (x - 1) in fac 5"
)
LOOP = "letrec loop = lambda x. {loop}: loop (x + 1) in loop 0"

ENGINES = ("reference", "compiled", "codegen")


def _record_tmp(language, program, *, engine="reference"):
    """Record ``program`` into a throwaway path (hypothesis-safe)."""
    handle, path = tempfile.mkstemp(suffix=".jsonl", prefix="replay-")
    os.close(handle)
    record(
        language,
        program,
        path,
        config=RunConfig(engine=engine, metrics=RunMetrics()),
    )
    return path


def _stack():
    return [HistoryMonitor(64, key=HISTORY_KEY)]


def _imp_stack():
    # HistoryMonitor renders every observed value; imperative stores are
    # not renderable, so the L_imp property folds a counting monitor.
    from repro.monitors import LabelCounterMonitor

    return [LabelCounterMonitor()]


def assert_seeks_match_straight_fold(path, *, interval=3, stack=_stack):
    """Every checkpoint-boundary seek equals a from-scratch fold."""
    session = ReplaySession(
        path, stack(), checkpoint_interval=interval, metrics=True
    )
    total = len(session)
    session.seek(total)  # populate the checkpoint index on the way out
    positions = sorted(
        {0, total, *range(interval, total + 1, interval)}
    )
    for position in positions:
        session.seek(position)  # backward: restored from a checkpoint
        fresh = ReplaySession(
            path, stack(), checkpoint_interval=10**9, metrics=True
        )
        fresh.seek(position)  # forward only: the straight-line fold
        for key in session.states.keys():
            assert session.states.get(key) == fresh.states.get(key), (
                f"state {key!r} diverged at position {position}"
            )
        assert session.metrics == fresh.metrics, (
            f"metrics diverged at position {position}"
        )
    return session


class TestCheckpointEquivalence:
    """The tentpole property, engine by engine and language by language."""

    @pytest.mark.parametrize("engine", ENGINES)
    @settings(max_examples=15, deadline=None)
    @given(program=closed_program())
    def test_lambda_seeks_match_fold(self, engine, program):
        path = _record_tmp(strict, program, engine=engine)
        try:
            assert_seeks_match_straight_fold(path)
        finally:
            os.unlink(path)

    @settings(max_examples=15, deadline=None)
    @given(program=closed_imp_program())
    def test_imp_seeks_match_fold(self, program):
        path = _record_tmp(imperative, program)
        try:
            assert_seeks_match_straight_fold(path, stack=_imp_stack)
        finally:
            os.unlink(path)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_analysis_equals_analyze_trace(self, tmp_path, engine):
        path = str(tmp_path / "t.jsonl")
        record(
            strict,
            parse(FAC),
            path,
            config=RunConfig(engine=engine, metrics=RunMetrics()),
        )
        session = ReplaySession(
            path, _stack(), checkpoint_interval=3, metrics=True
        )
        via_session = session.analysis()
        via_fold = analyze_trace(path, _stack(), metrics=True)
        assert via_session.answer == via_fold.answer
        assert (
            via_session.states.get(HISTORY_KEY)
            == via_fold.states.get(HISTORY_KEY)
        )
        assert via_session.metrics == via_fold.metrics

    def test_seek_clamps_and_is_idempotent(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        record(strict, parse(FAC), path)
        session = ReplaySession(path, _stack(), checkpoint_interval=3)
        assert session.seek(10**9) == len(session)
        state_at_end = session.states.get(HISTORY_KEY)
        assert session.seek(-5) == 0
        assert session.seek(len(session)) == len(session)
        assert session.states.get(HISTORY_KEY) == state_at_end


def _incremental_stacks(session):
    """The open-activation stack after every position, as the fold once
    kept it: a tuple grown on ``pre`` and popped (best match) on ``post``."""
    stack = ()
    stacks = [stack]
    for event in session.trace.events:
        site = event.site
        if event.phase == "pre":
            stack = stack + ((site, session.label_of(event)),)
        elif stack and stack[-1][0] == site:
            stack = stack[:-1]
        else:
            for i in range(len(stack) - 1, -1, -1):
                if stack[i][0] == site:
                    stack = stack[:i] + stack[i + 1 :]
                    break
        stacks.append(stack)
    return stacks


def _scanned_context(session, position):
    """``context_at`` as a backward scan towards event 0 once computed it."""
    events = session.trace.events
    if not 0 <= position < len(events):
        return {}
    event = events[position]
    if event.phase == "post":
        for earlier in range(position - 1, -1, -1):
            candidate = events[earlier]
            if (
                candidate.phase == "pre"
                and candidate.site == event.site
                and candidate.occ == event.occ
            ):
                return _scanned_context(session, earlier)
        return {}
    return {
        name: value_to_string(decode_value(value))
        for name, value in (event.bindings or {}).items()
    }


def _rendered(context):
    return {name: value_to_string(context.lookup(name)) for name in context.names()}


def assert_index_matches_models(path, stack=_stack):
    session = ReplaySession(path, stack(), checkpoint_interval=3)
    stacks = _incremental_stacks(session)
    for position, expected in enumerate(stacks):
        assert session.stack_at(position) == expected, position
        assert session.depth_at(position) == len(expected), position
    for position in range(-1, len(session) + 1):
        assert _rendered(session.context_at(position)) == _scanned_context(
            session, position
        ), position
    # The cursor view reads the same index, after backward seeks too.
    for position in sorted(set(range(0, len(stacks), 5)), reverse=True):
        session.seek(position)
        assert session.stack == stacks[position]


class TestActivationIndex:
    """The per-trace indexes equal the per-event models they replaced."""

    @pytest.mark.parametrize("engine", ENGINES)
    @settings(max_examples=15, deadline=None)
    @given(program=closed_program())
    def test_lambda_index_matches_models(self, engine, program):
        path = _record_tmp(strict, program, engine=engine)
        try:
            # History claims every site (contexts come from the plan);
            # the profiler claims only function headers (decoded on demand).
            assert_index_matches_models(path)
            assert_index_matches_models(path, stack=lambda: [ProfilerMonitor()])
        finally:
            os.unlink(path)

    @settings(max_examples=15, deadline=None)
    @given(program=closed_imp_program())
    def test_imp_index_matches_models(self, program):
        path = _record_tmp(imperative, program)
        try:
            assert_index_matches_models(path, stack=_imp_stack)
        finally:
            os.unlink(path)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_timed_out_trace_keeps_unclosed_activations(self, tmp_path, engine):
        # The header annotation wraps the body, which never returns.
        source = (
            "letrec loop = lambda x. {loop(x)}: "
            "if x < 0 then 0 else loop (x + 1) in loop 0"
        )
        path = str(tmp_path / "loop.jsonl")
        with pytest.raises(EvaluationTimeout):
            record(
                strict,
                parse(source),
                path,
                config=RunConfig(engine=engine, timeout=0.02),
            )
        session = ReplaySession(path, _stack())
        assert session.trace.timed_out
        stacks = _incremental_stacks(session)
        assert len(stacks[-1]) > 0  # pre events with no post
        for position, expected in enumerate(stacks):
            assert session.depth_at(position) == len(expected), position
        step = max(1, len(stacks) // 50)
        for position in range(0, len(stacks), step):
            assert session.stack_at(position) == stacks[position], position
        assert session.stack_at(len(session)) == stacks[-1]

    def test_unmatched_post_pops_best_match(self, tmp_path):
        # A hand-edited trace: the inner pre is dropped, so the outer
        # activation's post arrives while another site is on top.
        source = "letrec f = lambda x. {f}: if x = 0 then 0 else {g}: f (x - 1) in f 2"
        path = str(tmp_path / "t.jsonl")
        record(strict, parse(source), path)
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
        events = [i for i, line in enumerate(lines) if '"t":"pre"' in line]
        del lines[events[1]]
        edited = str(tmp_path / "edited.jsonl")
        with open(edited, "w", encoding="utf-8") as handle:
            handle.writelines(line for line in lines if '"t":"end"' not in line)
        session = ReplaySession(edited, _stack())
        stacks = _incremental_stacks(session)
        for position, expected in enumerate(stacks):
            assert session.stack_at(position) == expected, position
            assert _rendered(session.context_at(position)) == _scanned_context(
                session, position
            ), position


class TestTimeTravelDebugger:
    def _session(self, tmp_path, source=FAC, interval=3, capacity=64):
        path = str(tmp_path / "t.jsonl")
        record(strict, parse(source), path)
        return ReplaySession(
            path,
            default_stack(capacity=capacity),
            checkpoint_interval=interval,
        )

    def _run(self, session, script, **kwargs):
        debugger = ReplayDebugger(session, script=script, **kwargs)
        return debugger, debugger.run()

    def test_back_returns_to_previous_activation(self, tmp_path):
        session = self._session(tmp_path)
        _, transcript = self._run(
            session, ["step", "step", "back", "print x", "quit"]
        )
        assert "back at fac (event 2 of 12)" in transcript
        assert "x = 4" in transcript

    def test_goto_and_rewind(self, tmp_path):
        session = self._session(tmp_path)
        _, transcript = self._run(
            session, ["goto 8", "rewind", "quit"]
        )
        assert "at event 8:" in transcript
        assert "rewound to the start of the trace" in transcript

    def test_when_was_finds_the_event(self, tmp_path):
        session = self._session(tmp_path)
        _, transcript = self._run(session, ["when-was fac = 6", "quit"])
        assert "when-was: fac = 6 at event" in transcript

    def test_value_at_numbers_activations(self, tmp_path):
        session = self._session(tmp_path)
        _, transcript = self._run(session, ["value-at fac 1", "quit"])
        assert "value-at: fac activation 1 = 1" in transcript

    def test_omniscient_overflow_carries_rep401(self, tmp_path):
        session = self._session(tmp_path, capacity=2)
        debugger, transcript = self._run(
            session, ["when-was fac = 6", "quit"]
        )
        assert "warning[REP401]" in transcript
        assert any(d.code == "REP401" for d in debugger.diagnostics)
        assert all(d.severity == "warning" for d in debugger.diagnostics)

    def test_ample_capacity_has_no_diagnostic(self, tmp_path):
        session = self._session(tmp_path, capacity=64)
        debugger, _ = self._run(session, ["when-was fac = 6", "quit"])
        assert debugger.diagnostics == []

    def test_shared_grammar_rejects_nothing_live_accepts(self, tmp_path):
        # The live debugger's command set is a subset of the replay
        # set: every live command parses and does something post-hoc.
        session = self._session(tmp_path)
        live_commands = [
            "step",
            "print x",
            "vars",
            "where",
            "breakpoints",
            "help",
            "continue",
            "quit",
        ]
        _, transcript = self._run(session, live_commands)
        assert "unknown command" not in transcript


class TestReplayCli:
    def _trace(self, tmp_path, capsys):
        path = str(tmp_path / "fac.jsonl")
        assert main(["record", "-e", FAC, "-o", path]) == 0
        capsys.readouterr()
        return path

    def test_scripted_session_golden(self, tmp_path, capsys, golden):
        path = self._trace(tmp_path, capsys)
        assert (
            main(
                [
                    "replay",
                    path,
                    "--checkpoint-interval",
                    "3",
                    "--command", "step",
                    "--command", "print x",
                    "--command", "where",
                    "--command", "goto 8",
                    "--command", "back",
                    "--command", "events 4",
                    "--command", "when-was fac = 2",
                    "--command", "value-at fac 2",
                    "--command", "rewind",
                    "--command", "continue",
                    "--command", "quit",
                ]
            )
            == 0
        )
        golden("replay_session.txt", capsys.readouterr().out)

    def test_breakpoints_and_finish(self, tmp_path, capsys):
        path = self._trace(tmp_path, capsys)
        assert (
            main(
                [
                    "replay",
                    path,
                    "--break", "fac",
                    "--command", "finish",
                    "--command", "quit",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "stopped at fac (event 1 of 12)" in out
        assert "fac returned 120" in out

    def test_run_flags_are_shared_with_debug(self):
        # Satellite 2: cmd_debug/cmd_replay share add_run_flags — the
        # same spelling parses on both subcommands.
        parser = __import__("repro.cli", fromlist=["build_parser"]).build_parser()
        for subcommand, extra in (
            ("debug", ["-e", FAC]),
            ("replay", ["t.jsonl"]),
        ):
            args = parser.parse_args(
                [
                    subcommand,
                    *extra,
                    "--break", "fac",
                    "--command", "quit",
                    "--checkpoint-interval", "7",
                    "--fault-policy", "log",
                    "--max-steps", "100",
                ]
            )
            assert args.checkpoint_interval == 7
            assert args.breakpoints == ["fac"]


class TestRecordedDebugSessions:
    """v2 ``input`` records: a live session becomes a replayable trace."""

    def test_commands_become_input_records(self, tmp_path):
        script = ["step", "print x", "continue", "quit"]
        result = debug(
            parse(FAC),
            script=script,
            source=lambda: None,
            output=lambda line: None,
            config=RunConfig(mode="record", record_dir=str(tmp_path)),
        )
        assert result.trace is not None
        trace = read_trace(result.trace)
        consumed = trace.commands()
        assert consumed[: len(script)] == script[: len(consumed)]
        assert consumed  # at least one command was consumed and recorded
        # input positions are within the event stream
        assert all(0 <= i.pos <= len(trace.events) for i in trace.inputs)

    def test_recorded_session_replays(self, tmp_path):
        result = debug(
            parse(FAC),
            script=["continue", "quit"],
            source=lambda: None,
            output=lambda line: None,
            config=RunConfig(mode="record", record_dir=str(tmp_path)),
        )
        session = ReplaySession(
            result.trace, default_stack(), checkpoint_interval=3
        )
        assert session.analysis().answer == 120

    def test_debug_without_record_dir_is_an_error(self):
        from repro.tracing.schema import TraceError

        with pytest.raises(TraceError):
            debug(
                parse(FAC),
                script=["quit"],
                source=lambda: None,
                output=lambda line: None,
                config=RunConfig(mode="record"),
            )


class TestDeadlineRecords:
    """v2 ``deadline`` records: a timed-out run is complete, not broken."""

    def _timed_out_trace(self, tmp_path):
        path = str(tmp_path / "loop.jsonl")
        with pytest.raises(EvaluationTimeout):
            record(
                strict,
                parse(LOOP),
                path,
                config=RunConfig(timeout=0.05),
            )
        return path

    def test_deadline_marks_complete_not_truncated(self, tmp_path):
        path = self._timed_out_trace(tmp_path)
        trace = read_trace(path)  # no allow_truncated needed
        assert trace.timed_out
        assert not trace.truncated
        assert trace.deadline["events"] == len(trace.events)

    def test_timed_out_trace_replays_to_its_deadline(self, tmp_path):
        path = self._timed_out_trace(tmp_path)
        session = ReplaySession(path, _stack(), checkpoint_interval=16)
        session.seek(len(session))
        assert session.position == len(session.trace.events)
        debugger = ReplayDebugger(session, script=["continue", "quit"])
        transcript = debugger.run()
        assert "run timed out after" in transcript


class TestDebugResultWire:
    def _result(self):
        return debug(
            parse(FAC),
            script=["step", "print x", "continue", "quit"],
            source=lambda: None,
            output=lambda line: None,
        )

    def test_roundtrip(self):
        result = self._result()
        wire = result.to_dict()
        back = DebugResult.from_dict(wire)
        assert back.ok == result.ok
        # ``to_dict`` renders the answer for the wire, like RunResult.
        assert back.answer in (120, "120")
        assert back.transcript == result.transcript
        assert back.stops == result.stops
        assert back.duration == result.duration
        assert back.monitored is None

    def test_wire_is_json_and_run_result_shaped(self):
        wire = self._result().to_dict()
        json.dumps(wire)  # serializable end to end
        # The RunResult conventions: ok/answer/reports/duration present.
        assert set(("ok", "answer", "reports", "duration")) <= set(wire)
        assert wire["reports"]["debug"] == self._result().transcript

    def test_report_spelling_still_works(self):
        result = self._result()
        assert result.report() == result.transcript
        assert result.healthy()


class TestDeprecatedKwargs:
    def test_run_monitored_loose_kwarg_warns(self):
        with pytest.warns(DeprecationWarning, match="run_monitored"):
            run_monitored(
                strict, parse(FAC), [ProfilerMonitor()], engine="reference"
            )

    def test_debug_loose_kwarg_warns(self):
        with pytest.warns(DeprecationWarning, match="debug"):
            debug(
                parse(FAC),
                script=["quit"],
                source=lambda: None,
                output=lambda line: None,
                max_steps=100_000,
            )

    def test_config_path_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            run_monitored(
                strict,
                parse(FAC),
                [ProfilerMonitor()],
                config=RunConfig(engine="reference"),
            )
            debug(
                parse(FAC),
                script=["quit"],
                source=lambda: None,
                output=lambda line: None,
                config=RunConfig(max_steps=100_000),
            )

    def test_internal_callers_stay_off_the_legacy_path(self):
        # The acceptance bar: importing and exercising the public
        # entry points with config= must never warn from inside repro.
        from repro.monitoring.validate import assert_valid_monitor
        from repro.toolbox import evaluate

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            assert_valid_monitor(ProfilerMonitor())
            evaluate("profile", FAC, config=RunConfig())


class TestCheckpointIntervalConfig:
    def test_default_and_override(self):
        assert RunConfig().checkpoint_interval == DEFAULT_CHECKPOINT_INTERVAL == 64
        assert RunConfig(checkpoint_interval=8).checkpoint_interval == 8

    @pytest.mark.parametrize("bad", [0, -3, True, 2.5, "16"])
    def test_invalid_interval_rejected(self, bad):
        with pytest.raises(Exception):
            RunConfig(checkpoint_interval=bad).validate()

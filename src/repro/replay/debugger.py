"""The time-travel debugger: the live command set plus a reverse gear.

Where :class:`~repro.monitors.debugger.DebuggerMonitor` rides *inside* a
running program, this debugger drives a :class:`~repro.replay.session.
ReplaySession` over a finished one.  Both parse the same grammar
(:mod:`repro.monitors.commands`), so ``print``/``step``/``continue``
mean the same thing at a live break site and three days later over the
shipped trace — the replay set merely adds what only a recording can
offer:

* ``back [N]`` / ``goto K`` / ``rewind`` — move the cursor *backward*;
  the session seeks via its checkpoint index, so this is cheap even on
  long traces;
* ``events [N]`` — the history ring at the cursor, as the history
  monitor saw it at that moment;
* ``when-was L = V`` / ``value-at L N`` — omniscient queries over the
  *whole* run's history.  When the history ring overflowed
  (``dropped > 0``) the answer carries a ``REP401`` diagnostic instead
  of silently pretending to be complete.

Commands come from a script (goldens, tests) and then a live source
(the console), exactly like the forward debugger; the transcript is the
deliverable.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

from repro.analysis.diagnostics import Diagnostic
from repro.monitors import commands as cmd
from repro.monitors.common import context_lookup
from repro.monitors.history import History, HistoryMonitor
from repro.replay.session import ReplaySession
from repro.semantics.values import value_to_string
from repro.syntax.pretty import pretty
from repro.tracing.schema import decode_value

#: The history monitor key the replay stack uses by default.
HISTORY_KEY = "history"


def default_stack(capacity: int = 4096) -> List[HistoryMonitor]:
    """The monitor stack ``repro replay`` folds: one history monitor."""
    return [HistoryMonitor(capacity, key=HISTORY_KEY)]


class ReplayDebugger:
    """Drive one replay session interactively (or from a script)."""

    def __init__(
        self,
        session: ReplaySession,
        *,
        breakpoints: Optional[Sequence[str]] = None,
        script: Sequence[str] = (),
        source: Optional[Callable[[], Optional[str]]] = None,
        echo: Optional[Callable[[str], None]] = None,
    ) -> None:
        self.session = session
        #: ``None`` = stop at every annotated site, like the live default.
        self.breakpoints = (
            frozenset(breakpoints) if breakpoints is not None else None
        )
        self._script = list(script)
        self._cursor = 0
        self._source = source
        self._echo = echo
        self.transcript: List[str] = []
        self.diagnostics: List[Diagnostic] = []
        self.stops = 0
        self._added: frozenset = frozenset()
        self._removed: frozenset = frozenset()
        self._history_spec = next(
            (
                spec
                for spec in session.monitors
                if isinstance(spec, HistoryMonitor)
            ),
            None,
        )
        self._full_history: Optional[History] = None

    # -- plumbing --------------------------------------------------------------

    def _emit(self, text: str) -> None:
        self.transcript.append(text)
        if self._echo is not None:
            self._echo(text)

    def _next_command(self) -> Optional[str]:
        if self._cursor < len(self._script):
            command = self._script[self._cursor]
            self._cursor += 1
            return command
        if self._source is not None:
            return self._source()
        return None

    def _enabled(self, label: str) -> bool:
        if label in self._removed:
            return False
        if label in self._added:
            return True
        return self.breakpoints is None or label in self.breakpoints

    # -- histories -------------------------------------------------------------

    def _history_at_cursor(self) -> Optional[History]:
        if self._history_spec is None:
            return None
        state = self.session.state_of(self._history_spec.key)
        return self._history_spec.report(state)

    def _whole_history(self) -> Optional[History]:
        """The history of the complete run (cursor preserved)."""
        if self._history_spec is None:
            return None
        if self._full_history is None:
            here = self.session.position
            self.session.seek(len(self.session))
            state = self.session.state_of(self._history_spec.key)
            self._full_history = self._history_spec.report(state)
            self.session.seek(here)
        return self._full_history

    def _check_drops(self, history: History, query: str) -> None:
        diagnostic = history.drop_diagnostic(query)
        if diagnostic is not None:
            self.diagnostics.append(diagnostic)
            self._emit(f"warning[REP401]: {diagnostic.message}")

    # -- stop-position search --------------------------------------------------

    def _next_stop(self, mode: str) -> Optional[int]:
        """The position to stop at next, scanning forward from the cursor.

        Returns the position *after* applying the stop event (what
        ``seek`` takes), or ``None`` when the rest of the trace has no
        stop under ``mode``.
        """
        session = self.session
        events = session.trace.events
        for index in range(session.position, len(events)):
            event = events[index]
            if event.phase == "pre":
                label = session.label_of(event)
                if mode == "step" or (mode == "break" and self._enabled(label)):
                    return index + 1
            elif mode == "finish" and session.depth_at(index + 1) < self._finish_depth:
                return index + 1
        return None

    # -- the session loop ------------------------------------------------------

    def run(self) -> str:
        """Play the session: stop, interact, move, until trace end or quit.

        Returns the full transcript (also available line-by-line in
        ``self.transcript``; omniscient-query caveats accumulate in
        ``self.diagnostics``).
        """
        mode = "break"
        self._finish_depth = 0
        while True:
            target = self._next_stop(mode)
            if target is None:
                self.session.seek(len(self.session))
                self._emit(self._end_line())
                break
            self.session.seek(target)
            event = self.session.current_event
            label = self.session.label_of(event)
            if event.phase == "post":
                value = value_to_string(decode_value(event.value))
                self._emit(f"{label} returned {value}")
            else:
                self._emit(
                    f"stopped at {label} "
                    f"(event {self.session.position} of {len(self.session)})"
                )
            self.stops += 1
            mode = self._interact()
            if mode == "quit":
                break
            if mode == "finish":
                # Stop once the depth drops below where we stand now —
                # i.e. when the activation we are inside returns.
                self._finish_depth = self.session.depth_at(self.session.position)
        return "\n".join(self.transcript) + ("\n" if self.transcript else "")

    def _end_line(self) -> str:
        trace = self.session.trace
        if trace.timed_out:
            events = trace.deadline.get("events")
            return f"end of trace: run timed out after {events} event(s)"
        if trace.truncated:
            return "end of trace: truncated (recorder died mid-write)"
        return f"end of trace: answer = {value_to_string(trace.answer())}"

    # -- one stopped interaction ----------------------------------------------

    def _interact(self) -> str:
        while True:
            command = self._next_command()
            if command is None:
                return "quit"
            parsed = cmd.parse_command(command)
            session = self.session

            if isinstance(parsed, cmd.PrintVar):
                ctx = session.context_at(session.position - 1)
                value = context_lookup(ctx, parsed.name)
                if value is None:
                    self._emit(f"{parsed.name} is not bound here")
                else:
                    self._emit(f"{parsed.name} = {value_to_string(value)}")
            elif isinstance(parsed, cmd.Vars):
                ctx = session.context_at(session.position - 1)
                names = [n for n in ctx.names() if not n.startswith("__")]
                self._emit("vars: " + ", ".join(names[:12]))
            elif isinstance(parsed, cmd.Where):
                frames = " > ".join(label for _, label in session.stack)
                self._emit(f"where: {frames or '(top level)'}")
            elif isinstance(parsed, cmd.Depth):
                self._emit(f"depth: {session.depth_at(session.position)}")
            elif isinstance(parsed, cmd.ShowSource):
                event = session.current_event
                if event is None:
                    self._emit("source: (before the first event)")
                else:
                    try:
                        text = pretty(session.sites[event.site].body)
                    except Exception:
                        text = session.sites[event.site].rendered
                    self._emit(f"source: {text}")
            elif isinstance(parsed, cmd.AddBreak):
                self._added = self._added | {parsed.label}
                self._removed = self._removed - {parsed.label}
                self._emit(f"breakpoint added: {parsed.label}")
            elif isinstance(parsed, cmd.DeleteBreak):
                self._added = self._added - {parsed.label}
                self._removed = self._removed | {parsed.label}
                self._emit(f"breakpoint removed: {parsed.label}")
            elif isinstance(parsed, cmd.ListBreaks):
                static = set(self.breakpoints or ())
                effective = sorted((static | self._added) - self._removed)
                shown = ", ".join(effective) if effective else (
                    "(every annotated site)"
                    if self.breakpoints is None
                    else "(none)"
                )
                self._emit(f"breakpoints: {shown}")
            elif isinstance(parsed, cmd.Help):
                self._emit(cmd.render_help(replay=True))
            elif isinstance(parsed, cmd.Continue):
                return "break"
            elif isinstance(parsed, cmd.StepCmd):
                return "step"
            elif isinstance(parsed, cmd.Finish):
                return "finish"
            elif isinstance(parsed, cmd.Quit):
                return "quit"

            # -- the reverse gear ------------------------------------------
            elif isinstance(parsed, cmd.Back):
                self._travel_back(parsed.count)
            elif isinstance(parsed, cmd.Goto):
                position = session.seek(parsed.position)
                self._emit(f"at event {position}: {self._describe_cursor()}")
            elif isinstance(parsed, cmd.Rewind):
                session.seek(0)
                self._emit("rewound to the start of the trace")
            elif isinstance(parsed, cmd.ShowEvents):
                history = self._history_at_cursor()
                if history is None:
                    self._emit("events: no history monitor in the replay stack")
                else:
                    rendered = history.render(parsed.limit)
                    self._emit(rendered if rendered else "events: (none yet)")
            elif isinstance(parsed, cmd.WhenWas):
                self._when_was(parsed.name, parsed.value)
            elif isinstance(parsed, cmd.ValueAt):
                self._value_at(parsed.label, parsed.activation)

            elif isinstance(parsed, cmd.Malformed):
                self._emit(f"malformed command: {parsed.reason}")
            else:
                self._emit(f"unknown command: {parsed.text!r}")

    def _describe_cursor(self) -> str:
        event = self.session.current_event
        if event is None:
            return "start of trace"
        label = self.session.label_of(event)
        if event.phase == "pre":
            return f"entering {label}"
        return f"{label} returned {value_to_string(decode_value(event.value))}"

    def _travel_back(self, count: int) -> None:
        """Seek to the ``count``-th previous ``pre`` event (step's mirror)."""
        events = self.session.trace.events
        remaining = count
        for index in range(self.session.position - 2, -1, -1):
            if events[index].phase == "pre":
                remaining -= 1
                if remaining == 0:
                    self.session.seek(index + 1)
                    event = self.session.current_event
                    self._emit(
                        f"back at {self.session.label_of(event)} "
                        f"(event {self.session.position} of {len(self.session)})"
                    )
                    return
        self.session.seek(0)
        self._emit("back at the start of the trace")

    # -- omniscient queries ----------------------------------------------------

    def _when_was(self, name: str, value: str) -> None:
        """Both readings of ``when-was X = V``: bindings and return values.

        Recorded ``pre`` bindings are scanned directly from the trace
        (complete by construction); exits of a *label* named ``X`` come
        from the whole-run history, which may have dropped events — in
        that case the REP401 caveat rides along.
        """
        hits: List[Tuple[int, str]] = []
        for index, event in enumerate(self.session.trace.events):
            if event.phase != "pre" or not event.bindings:
                continue
            bound = event.bindings.get(name)
            if bound is None:
                continue
            if value_to_string(decode_value(bound)) == value:
                label = self.session.label_of(event)
                hits.append((index + 1, f"entering {label}"))
        history = self._whole_history()
        if history is not None:
            self._check_drops(history, f"when-was {name} = {value}")
            for event in history.when_was(name, value):
                hits.append((event.sequence + 1, f"{name} returned {value}"))
        if not hits:
            self._emit(f"when-was: {name} = {value} was never observed")
            return
        for position, what in hits:
            self._emit(f"when-was: {name} = {value} at event {position} ({what})")

    def _value_at(self, label: str, activation: int) -> None:
        history = self._whole_history()
        if history is None:
            self._emit("value-at: no history monitor in the replay stack")
            return
        self._check_drops(history, f"value-at {label} {activation}")
        value = history.nth_return_value(label, activation)
        if value is None:
            self._emit(
                f"value-at: no recorded return #{activation} of {label}"
            )
        else:
            self._emit(f"value-at: {label} activation {activation} = {value}")


__all__ = ["HISTORY_KEY", "ReplayDebugger", "default_stack"]

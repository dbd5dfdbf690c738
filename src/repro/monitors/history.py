"""An execution-history monitor: a bounded event log with queries.

Records every monitored event — entries and exits with values, nesting
depth and a global sequence number — in a bounded ring (keeping the most
recent ``capacity`` events).  This is the substrate a time-travel debugger
replays: given the history, "what was the value of the 3rd activation of
``f``?" is a pure query over the final monitor state rather than a rerun.

Like all monitors here the state is a persistent value.  The ring is a
functional deque of two cons lists that successive states share: a push
allocates one cell and one state, and dropping the oldest event drops one
cell.  When the oldest-first half runs empty, the newest-first half is
reversed into it: O(capacity) once per ``capacity`` drops.  So a replay
checkpoint holds a reference into the shared cells, not a private copy of
the history.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.monitoring.spec import MonitorSpec
from repro.monitors.common import recognize_with_namespace
from repro.semantics.values import value_to_string
from repro.syntax.annotations import Annotation, FnHeader, Label


@dataclass(frozen=True)
class HistoryEvent:
    sequence: int
    kind: str  # "enter" | "exit"
    label: str
    depth: int
    value: Optional[str] = None  # rendered result, exits only

    def render(self) -> str:
        arrow = "->" if self.kind == "enter" else "<-"
        suffix = f" = {self.value}" if self.value is not None else ""
        return f"#{self.sequence:04d} {'  ' * self.depth}{arrow} {self.label}{suffix}"


def _cells(cells) -> List[HistoryEvent]:
    """The events of a cons list ``(head, (next, ... ()))``, head first."""
    out = []
    while cells:
        out.append(cells[0])
        cells = cells[1]
    return out


def _history_state(events, dropped, next_sequence, depth, capacity):
    """Rebuild a pickled :class:`HistoryState` from its flat event list."""
    back = ()
    for event in events:
        back = (event, back)
    return HistoryState((), back, len(events), dropped, next_sequence, depth, capacity)


class HistoryState:
    """Bounded event history: a purely functional ring of shared cons cells.

    ``front`` holds the oldest events as a cons list, oldest first;
    ``back`` holds the rest as a cons list ``(newest, (older, ... ()))``.
    After any push ``back`` is non-empty, so ``back[0]`` is always the
    newest event.  Instances are immutable by convention: every operation
    returns a new state sharing the old one's cells.

    Equality, hashing, ``repr`` and pickling walk the cells in a loop, so
    a history of any length neither recurses nor depends on where the
    split between ``front`` and ``back`` falls.
    """

    __slots__ = ("front", "back", "size", "dropped", "next_sequence", "depth", "capacity")

    def __init__(
        self,
        front: tuple = (),
        back: tuple = (),
        size: int = 0,
        dropped: int = 0,
        next_sequence: int = 0,
        depth: int = 0,
        capacity: int = 1024,
    ) -> None:
        self.front = front
        self.back = back
        self.size = size
        self.dropped = dropped
        self.next_sequence = next_sequence
        self.depth = depth
        self.capacity = capacity

    def push(self, event: HistoryEvent, depth: int) -> "HistoryState":
        """The state after recording ``event``, at nesting ``depth``."""
        back = (event, self.back)
        front = self.front
        size = self.size + 1
        dropped = self.dropped
        if size > self.capacity:
            if not front:
                # Reverse every event but the newest into the front half.
                node = back[1]
                while node:
                    front = (node[0], front)
                    node = node[1]
                back = (event, ())
            front = front[1]
            size -= 1
            dropped += 1
        return HistoryState(
            front, back, size, dropped, self.next_sequence + 1, depth, self.capacity
        )

    def events(self) -> List[HistoryEvent]:
        newest_first = _cells(self.back)
        newest_first.reverse()
        return _cells(self.front) + newest_first

    def _scalars(self) -> Tuple[int, int, int, int, int]:
        return (self.size, self.dropped, self.next_sequence, self.depth, self.capacity)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, HistoryState):
            return NotImplemented
        if self._scalars() != other._scalars():
            return False
        if self.front is other.front and self.back is other.back:
            return True
        return self.events() == other.events()

    def __hash__(self) -> int:
        return hash((self._scalars(), tuple(self.events())))

    def __repr__(self) -> str:
        return (
            f"HistoryState(events={self.events()!r}, dropped={self.dropped}, "
            f"next_sequence={self.next_sequence}, depth={self.depth}, "
            f"capacity={self.capacity})"
        )

    def __reduce__(self):
        return (
            _history_state,
            (self.events(), self.dropped, self.next_sequence, self.depth, self.capacity),
        )


class HistoryMonitor(MonitorSpec):
    """Record the (bounded) history of all monitored events."""

    def __init__(
        self,
        capacity: int = 1024,
        *,
        key: str = "history",
        namespace: Optional[str] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("history capacity must be positive")
        self.key = key
        self.namespace = namespace
        self.capacity = capacity

    def recognize(self, annotation: Annotation):
        return recognize_with_namespace(annotation, self.namespace, (Label, FnHeader))

    def initial_state(self) -> HistoryState:
        return HistoryState(capacity=self.capacity)

    def pre(self, annotation, term, ctx, state: HistoryState) -> HistoryState:
        depth = state.depth
        event = HistoryEvent(state.next_sequence, "enter", annotation.name, depth)
        return state.push(event, depth + 1)

    def post(self, annotation, term, ctx, result, state: HistoryState) -> HistoryState:
        depth = state.depth - 1
        event = HistoryEvent(
            state.next_sequence, "exit", annotation.name, depth, value_to_string(result)
        )
        return state.push(event, depth)

    def report(self, state: HistoryState) -> "History":
        return History(state.events(), dropped=state.dropped)


class History:
    """Query interface over a recorded history."""

    def __init__(self, events: List[HistoryEvent], dropped: int = 0) -> None:
        self.events = events
        self.dropped = dropped

    def __len__(self) -> int:
        return len(self.events)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, History)
            and self.events == other.events
            and self.dropped == other.dropped
        )

    def __repr__(self) -> str:
        return f"<history {len(self.events)} events, {self.dropped} dropped>"

    def filter(self, predicate: Callable[[HistoryEvent], bool]) -> List[HistoryEvent]:
        return [event for event in self.events if predicate(event)]

    def activations_of(self, label: str) -> List[HistoryEvent]:
        return self.filter(lambda e: e.label == label and e.kind == "enter")

    def returns_of(self, label: str) -> List[HistoryEvent]:
        return self.filter(lambda e: e.label == label and e.kind == "exit")

    def nth_return_value(self, label: str, n: int) -> Optional[str]:
        """The value of the n-th (0-based) completed activation of ``label``."""
        exits = self.returns_of(label)
        if 0 <= n < len(exits):
            return exits[n].value
        return None

    def when_was(self, label: str, value: str) -> List[HistoryEvent]:
        """Every exit of ``label`` whose rendered value equals ``value``."""
        return self.filter(
            lambda e: e.label == label and e.kind == "exit" and e.value == value
        )

    def drop_diagnostic(self, query: str):
        """The REP401 diagnostic for an omniscient query over a lossy ring.

        The ring keeps only the most recent ``capacity`` events; once
        ``dropped > 0``, any whole-history query (``when-was``,
        ``value-at``, activation counting) may silently miss evicted
        matches or mis-number activations.  Historically that wrong
        answer was returned without comment — now callers attach this
        diagnostic so the caveat travels with the result.  Returns
        ``None`` while the history is complete.
        """
        if not self.dropped:
            return None
        from repro.analysis.diagnostics import Diagnostic

        return Diagnostic(
            code="REP401",
            severity="warning",
            message=(
                f"history ring dropped {self.dropped} earlier event(s); "
                f"{query} may be missing matches or mis-numbering "
                "activations"
            ),
            subject="history",
            hint=(
                "raise HistoryMonitor(capacity=...) above the run's event "
                "count, or re-record and replay the full trace"
            ),
        )

    def at_sequence(self, sequence: int) -> Optional[HistoryEvent]:
        for event in self.events:
            if event.sequence == sequence:
                return event
        return None

    def render(self, limit: Optional[int] = None) -> str:
        shown = self.events if limit is None else self.events[-limit:]
        lines = [event.render() for event in shown]
        if self.dropped:
            lines.insert(0, f"... {self.dropped} earlier events dropped ...")
        return "\n".join(lines)

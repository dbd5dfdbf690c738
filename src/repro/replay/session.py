"""The replay session: an incremental, seekable trace fold.

:func:`repro.tracing.analyze_trace` folds a monitor stack over a whole
trace in one pass.  A time-travel debugger needs the same fold *stopped
anywhere*: the state after event 17, then after event 3, then after
event 40_000.  :class:`ReplaySession` is that — the same kernel
(:class:`~repro.tracing.analyze.Fold`) over the same decoded-once event
plan, restructured around a cursor:

* ``seek(k)`` moves the cursor to "k events applied".  Going forward
  from the current position folds just the gap; going *backward* — the
  whole point — restores the nearest :class:`~repro.replay.checkpoints.
  Checkpoint` at or before ``k`` and folds forward from there, so a
  ``back`` in the debugger costs at most ``checkpoint_interval`` events,
  never a refold from zero.
* checkpoints are taken automatically at every interval boundary as the
  fold first passes it.  A checkpoint holds only fold state: monitor
  states are persistent values, so it is one reference plus a shallow
  copy of the metric counters.  What comes from the trace alone — the
  ``pre`` each ``post`` closes, the open activations at each position —
  is computed once per session, not carried through the fold.

Equivalence with the straight fold is a tested property, not an
aspiration: ``tests/test_replay.py`` drives generated programs under
all three engines through ``record → seek(every boundary)`` and asserts
state-vector and metrics equality against :func:`analyze_trace`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

from repro.monitoring.faults import check_fault_policy
from repro.monitoring.spec import MonitorSpec
from repro.monitoring.state import MonitorStateVector
from repro.observability.metrics import RunMetrics
from repro.replay.checkpoints import Checkpoint, CheckpointIndex, copy_metrics
from repro.runtime import DEFAULT_CHECKPOINT_INTERVAL
from repro.tracing.analyze import (
    Fold,
    ReplayContext,
    TraceAnalysis,
    _EMPTY_CONTEXT,
    _resolve_program,
    _resolve_trace,
    build_plan,
    decode_context,
    resolve_claims,
)
from repro.tracing.schema import Site, Trace, TraceEvent

#: One open activation in the index: ``(depth, site, label, caller)``.
Frame = Tuple[int, int, str, Optional[tuple]]


def _site_label(site: Site) -> str:
    return getattr(site.annotation, "name", None) or site.rendered


def _close(top: Optional[Frame], site: int) -> Optional[Frame]:
    """Pop the innermost open activation of ``site`` (unchanged if none).

    Usually that is the top frame; when it is not (a sampled-out
    ``pre``, or control escaped an activation), the best match below is
    dropped and the frames above it are re-linked onto its caller.
    """
    above = []
    frame = top
    while frame is not None and frame[1] != site:
        above.append(frame)
        frame = frame[3]
    if frame is None:
        return top
    rest = frame[3]
    for _, above_site, label, _ in reversed(above):
        rest = (rest[0] + 1 if rest else 1, above_site, label, rest)
    return rest


class ReplaySession(Fold):
    """One trace, one monitor stack, a cursor, and a checkpoint index.

    ``metrics=True`` (the default) folds with a fresh accumulator so
    positions can be compared counter-for-counter with an inline run;
    ``fault_policy`` replicates ``analyze_trace``'s behaviors, with the
    fault record tuple and disabled-slot set part of the checkpointed
    fold state (so seeking backward also rewinds quarantines).
    """

    def __init__(
        self,
        trace: Union[str, Trace],
        monitors: Union[MonitorSpec, Sequence[MonitorSpec]],
        *,
        program=None,
        fault_policy: str = "propagate",
        metrics: Union[bool, None] = True,
        check_disjointness: bool = True,
        checkpoint_interval: int = DEFAULT_CHECKPOINT_INTERVAL,
        allow_truncated: bool = True,
    ) -> None:
        from repro.monitoring.compose import flatten_monitors, validate_observations
        from repro.monitoring.derive import check_disjoint

        check_fault_policy(fault_policy)
        self.trace = _resolve_trace(trace, allow_truncated)
        self.monitors: List[MonitorSpec] = flatten_monitors(monitors)
        validate_observations(self.monitors)
        self.program, self.sites = _resolve_program(self.trace, program)
        if check_disjointness:
            check_disjoint(self.monitors, self.program)
        self._labels = [_site_label(site) for site in self.sites]
        self._plan = build_plan(
            self.trace.events, self.sites, resolve_claims(self.sites, self.monitors)
        )
        #: The trace index (see :meth:`_trace_index`), built on first use.
        self._index: Optional[Tuple[List[Optional[Frame]], List[int]]] = None
        self.checkpoints = CheckpointIndex(checkpoint_interval)
        super().__init__(
            MonitorStateVector.initial(self.monitors),
            RunMetrics() if metrics else None,
            fault_policy,
        )
        self._origin = Checkpoint.capture(self)

        #: Events folded since construction — the seek-cost meter the
        #: benchmark (and the curious) read.
        self.replayed_events = 0

    def _restore(self, point: Checkpoint) -> None:
        self.position = point.position
        self.states = point.states
        self.metrics = copy_metrics(point.metrics)
        self.faults = point.faults
        self.disabled = point.disabled

    # -- the cursor ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.trace.events)

    def seek(self, position: int) -> int:
        """Move the cursor to "``position`` events applied"; returns it.

        Positions clamp to ``[0, len(self)]``.  Backward (or far-forward)
        seeks restart from the best checkpoint at or before the target;
        the fold forward takes checkpoints at each interval boundary it
        first crosses, so later seeks into the same region are cheap.
        """
        target = max(0, min(int(position), len(self.trace.events)))
        if target != self.position:
            point = self.checkpoints.nearest(target)
            if target < self.position:
                self._restore(point if point is not None else self._origin)
            elif point is not None and point.position > self.position:
                self._restore(point)
        plan = self._plan
        checkpoints = self.checkpoints
        start = self.position
        try:
            boundary = checkpoints.next_boundary(start)
            while boundary <= target:
                self.advance(plan, boundary)
                checkpoints.note(Checkpoint.capture(self))
                boundary = checkpoints.next_boundary(boundary)
            self.advance(plan, target)
        finally:
            self.replayed_events += self.position - start
        return self.position

    def event_at(self, position: int) -> Optional[TraceEvent]:
        """The event applied by step ``position + 1`` (None past the end)."""
        events = self.trace.events
        if 0 <= position < len(events):
            return events[position]
        return None

    @property
    def current_event(self) -> Optional[TraceEvent]:
        """The most recently applied event (None at position 0)."""
        return self.event_at(self.position - 1)

    def context_at(self, position: int) -> ReplayContext:
        """The recorded bindings in scope at event ``position``.

        For a ``pre`` event, its own bindings; for a ``post``, the
        bindings of the ``pre`` it closes (the recorder pairs them by
        (site, occurrence)).  Claimed events read the plan's decoded
        context; others are paired by the trace index and decoded on
        demand.
        """
        event = self.event_at(position)
        if event is None:
            return _EMPTY_CONTEXT
        entry = self._plan[position]
        if entry is not None:
            return entry[1]
        if event.phase == "post":
            opener = self._trace_index()[1][position]
            if opener < 0:
                return _EMPTY_CONTEXT
            event = self.trace.events[opener]
        return decode_context(event)

    # -- the trace index -------------------------------------------------------

    def _trace_index(self) -> Tuple[List[Optional[Frame]], List[int]]:
        """``(frames, pre_of)``, one pass over the trace on first use.

        ``frames[k]`` is the innermost open activation after ``k``
        events (a linked :data:`Frame`, ``None`` at top level);
        ``pre_of[i]`` is, for a ``post`` at any site, the index of the
        ``pre`` it closes (``-1`` for none, and for every ``pre``).
        """
        if self._index is None:
            labels = self._labels
            top: Optional[Frame] = None
            frames = [top]
            pre_of = [-1] * len(self.trace.events)
            open_pres = {}
            for index, event in enumerate(self.trace.events):
                site = event.site
                if event.phase == "pre":
                    top = (top[0] + 1 if top else 1, site, labels[site], top)
                    open_pres[(site, event.occ)] = index
                else:
                    top = _close(top, site)
                    pre_of[index] = open_pres.pop((site, event.occ), -1)
                frames.append(top)
            self._index = (frames, pre_of)
        return self._index

    def stack_at(self, position: int) -> Tuple[Tuple[int, str], ...]:
        """The open activations after ``position`` events, outermost first."""
        frames = []
        frame = self._trace_index()[0][position]
        while frame is not None:
            frames.append((frame[1], frame[2]))
            frame = frame[3]
        return tuple(reversed(frames))

    def depth_at(self, position: int) -> int:
        """How many activations are open after ``position`` events."""
        frame = self._trace_index()[0][position]
        return frame[0] if frame is not None else 0

    @property
    def stack(self) -> Tuple[Tuple[int, str], ...]:
        """The open activations at the cursor: ``(site, label)`` pairs."""
        return self.stack_at(self.position)

    def label_of(self, event: TraceEvent) -> str:
        return self._labels[event.site]

    def state_of(self, key: str):
        """The monitor state for ``key`` at the current cursor."""
        return self.states.get(key)

    # -- whole-fold views ------------------------------------------------------

    def analysis(self) -> TraceAnalysis:
        """Seek to the end and package the fold as a ``TraceAnalysis``.

        Field-for-field what :func:`repro.tracing.analyze_trace` returns
        for the same trace/stack/policy (footer step counters included)
        — the equivalence suite compares the two directly.
        """
        self.seek(len(self.trace.events))
        metrics = copy_metrics(self.metrics)
        if metrics is not None:
            footer = self.trace.footer or {}
            if isinstance(footer.get("steps"), int):
                metrics.steps = footer["steps"]
            if isinstance(footer.get("applications"), int):
                metrics.applications = footer["applications"]
        return TraceAnalysis(
            answer=self.trace.answer(),
            states=self.states,
            monitors=tuple(self.monitors),
            faults=self.faults,
            fault_policy=self.fault_policy,
            metrics=metrics,
            events=len(self.trace.events),
            truncated=self.trace.truncated,
        )


__all__ = ["ReplaySession"]

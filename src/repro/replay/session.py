"""The replay session: an incremental, seekable trace fold.

:func:`repro.tracing.analyze_trace` folds a monitor stack over a whole
trace in one pass.  A time-travel debugger needs the same fold *stopped
anywhere*: the state after event 17, then after event 3, then after
event 40_000.  :class:`ReplaySession` is that — the identical event
semantics (claim resolution per site, metric charging before the hook,
the three fault policies), restructured around a cursor:

* ``seek(k)`` moves the cursor to "k events applied".  Going forward
  from the current position folds just the gap; going *backward* — the
  whole point — restores the nearest :class:`~repro.replay.checkpoints.
  Checkpoint` at or before ``k`` and folds forward from there, so a
  ``back`` in the debugger costs at most ``checkpoint_interval`` events,
  never a refold from zero.
* checkpoints are taken automatically at every interval boundary as the
  fold first passes it (and persisted to the sidecar on request);
  monitor states are persistent values, so a checkpoint is O(1) plus a
  shallow copy of the metric counters.

Equivalence with the straight fold is a tested property, not an
aspiration: ``tests/test_replay.py`` drives generated programs under
all three engines through ``record → seek(every boundary)`` and asserts
state-vector and metrics equality against :func:`analyze_trace`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

from repro.monitoring.faults import MonitorFault, check_fault_policy
from repro.monitoring.spec import MonitorSpec
from repro.monitoring.state import MonitorStateVector
from repro.observability.metrics import RunMetrics
from repro.replay.checkpoints import (
    Checkpoint,
    CheckpointIndex,
    copy_metrics,
    sidecar_path,
)
from repro.tracing.analyze import (
    ReplayContext,
    TraceAnalysis,
    _resolve_program,
    _resolve_trace,
    resolve_claims,
)
from repro.tracing.schema import Site, Trace, TraceEvent, decode_value

_EMPTY_CONTEXT = ReplayContext({})


def _site_label(site: Site) -> str:
    return getattr(site.annotation, "name", None) or site.rendered


def _stack_identity(monitors: Sequence[MonitorSpec]) -> str:
    """A cheap stack fingerprint for sidecar validation."""
    return "|".join(
        f"{type(spec).__name__}:{spec.key}" for spec in monitors
    )


class ReplaySession:
    """One trace, one monitor stack, a cursor, and a checkpoint index.

    ``metrics=True`` (the default) folds with a fresh accumulator so
    positions can be compared counter-for-counter with an inline run;
    ``fault_policy`` replicates ``analyze_trace``'s behaviors, with the
    fault record list and disabled-slot set part of the checkpointed
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
        checkpoint_interval: int = 512,
        allow_truncated: bool = True,
        use_sidecar: bool = False,
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
        self.fault_policy = fault_policy
        self._with_metrics = bool(metrics)

        self._claims = resolve_claims(self.sites, self.monitors)
        self._labels = [_site_label(site) for site in self.sites]

        fingerprint = str(self.trace.header.get("fingerprint", ""))
        identity = _stack_identity(self.monitors)
        self._sidecar_key = (fingerprint, identity)
        self._sidecar = (
            sidecar_path(self.trace.path)
            if use_sidecar and self.trace.path not in ("<trace>", "<stream>")
            else None
        )
        self.checkpoints = None
        if self._sidecar is not None:
            self.checkpoints = CheckpointIndex.load(
                self._sidecar,
                fingerprint=fingerprint,
                stack=identity,
                interval=checkpoint_interval,
            )
        if self.checkpoints is None:
            self.checkpoints = CheckpointIndex(checkpoint_interval)

        #: Events folded since construction — the seek-cost meter the
        #: benchmark (and the curious) read.
        self.replayed_events = 0

        self._restore(self._origin())

    # -- fold state ------------------------------------------------------------

    def _origin(self) -> Checkpoint:
        return Checkpoint(
            position=0,
            states=MonitorStateVector.initial(self.monitors),
            stack=(),
            metrics=RunMetrics() if self._with_metrics else None,
            pending={},
            faults=(),
            disabled=frozenset(),
        )

    def _restore(self, point: Checkpoint) -> None:
        thawed = point.thaw()
        self.position = thawed.position
        self.states = thawed.states
        self.stack = thawed.stack
        self.metrics = thawed.metrics
        self._pending = thawed.pending
        self.faults = thawed.faults
        self.disabled = thawed.disabled

    def _snapshot(self, position: int) -> Checkpoint:
        return Checkpoint.capture(
            position=position,
            states=self.states,
            stack=self.stack,
            metrics=self.metrics,
            pending=self._pending,
            faults=self.faults,
            disabled=self.disabled,
        )

    # -- the single-event step (analyze_trace's loop body) ---------------------

    def _apply(self, event: TraceEvent) -> None:
        site = event.site
        label = self._labels[site]
        if event.phase == "pre":
            self.stack = self.stack + ((site, label),)
        else:
            if self.stack and self.stack[-1][0] == site:
                self.stack = self.stack[:-1]
            else:  # sampled-out pre, or control escaped: drop best match
                for i in range(len(self.stack) - 1, -1, -1):
                    if self.stack[i][0] == site:
                        self.stack = self.stack[:i] + self.stack[i + 1 :]
                        break

        claim = self._claims[site]
        if claim is None:
            return
        spec, view, observes = claim
        key = spec.key
        if key in self.disabled:
            return
        term = self.sites[site].body
        state = self.states.get(key)
        inner = self.states.view(observes) if observes else None
        metrics = self.metrics
        if event.phase == "pre":
            ctx = (
                ReplayContext(
                    {k: decode_value(v) for k, v in event.bindings.items()}
                )
                if event.bindings
                else _EMPTY_CONTEXT
            )
            self._pending[(site, event.occ)] = ctx
            if metrics is not None:
                metrics.activations[key] = metrics.activations.get(key, 0) + 1
                metrics.pre_calls[key] = metrics.pre_calls.get(key, 0) + 1
            try:
                if observes:
                    new_state = spec.pre(view, term, ctx, state, inner=inner)
                else:
                    new_state = spec.pre(view, term, ctx, state)
            except Exception as exc:
                self._fault(key, "pre", exc)
                return
        else:
            ctx = self._pending.pop((site, event.occ), _EMPTY_CONTEXT)
            result = decode_value(event.value)
            if metrics is not None:
                metrics.post_calls[key] = metrics.post_calls.get(key, 0) + 1
            try:
                if observes:
                    new_state = spec.post(view, term, ctx, result, state, inner=inner)
                else:
                    new_state = spec.post(view, term, ctx, result, state)
            except Exception as exc:
                self._fault(key, "post", exc)
                return
        if new_state is not state:
            if metrics is not None:
                metrics.state_transitions += 1
            self.states = self.states.set(key, new_state)

    def _fault(self, key: str, phase: str, exc: Exception) -> None:
        if self.fault_policy == "propagate":
            raise exc
        fault = MonitorFault(
            monitor_key=key,
            phase=phase,
            error_type=type(exc).__name__,
            message=str(exc),
            error=exc,
        )
        self.faults = self.faults + (fault,)
        if self.fault_policy == "quarantine":
            self.disabled = self.disabled | {key}
        if self.metrics is not None:
            self.metrics.faults[key] = self.metrics.faults.get(key, 0) + 1

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
        if target < self.position:
            point = self.checkpoints.nearest(target)
            self._restore(point if point is not None else self._origin())
        elif target > self.position:
            point = self.checkpoints.nearest(target)
            if point is not None and point.position > self.position:
                self._restore(point)
        events = self.trace.events
        apply = self._apply
        checkpoints = self.checkpoints
        start = position = self.position
        boundary = checkpoints.next_boundary(position)
        try:
            while position < target:
                apply(events[position])
                position += 1
                if position == boundary:
                    checkpoints.note(self._snapshot(position))
                    boundary = checkpoints.next_boundary(position)
        finally:
            # A propagated hook fault leaves the cursor before its event.
            self.position = position
            self.replayed_events += position - start
        return position

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
        bindings of the matching ``pre`` (the recorder pairs them by
        (site, occurrence)).
        """
        event = self.event_at(position)
        if event is None:
            return _EMPTY_CONTEXT
        if event.phase == "pre":
            if event.bindings:
                return ReplayContext(
                    {k: decode_value(v) for k, v in event.bindings.items()}
                )
            return _EMPTY_CONTEXT
        for earlier in range(position - 1, -1, -1):
            candidate = self.trace.events[earlier]
            if (
                candidate.phase == "pre"
                and candidate.site == event.site
                and candidate.occ == event.occ
            ):
                return self.context_at(earlier)
        return _EMPTY_CONTEXT

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

    def save_checkpoints(self) -> bool:
        """Persist the index to the sidecar (if enabled and picklable)."""
        if self._sidecar is None:
            return False
        fingerprint, identity = self._sidecar_key
        return self.checkpoints.save(
            self._sidecar, fingerprint=fingerprint, stack=identity
        )


__all__ = ["ReplaySession"]

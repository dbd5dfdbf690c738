"""The instrumentation layer: how telemetry attaches to the engines.

The design rule is *pay only when observed*: with no metrics object and no
(real) event sink, ``run_monitored`` runs exactly the code it always did —
zero instructions are added to the hot paths.  When telemetry is
requested, one per-run :class:`Telemetry` record collects everything:

* :func:`instrument_functional` wraps the (derived) valuation functional
  of the **reference engine** outermost, so every ``recur`` — one per
  expression-node evaluation — bumps the step counters.  This defines
  the counts.
* The **fast engines** keep every collapse optimization and charge
  *static block weights* instead (Jahier & Ducassé: instrument few
  events, derive the rest).  At generation time each straight-line
  block — a residual-code block in :mod:`repro.partial_eval.codegen`, a
  compiled closure in :mod:`repro.semantics.compiled` — knows how many
  reference steps and ``App`` nodes it stands for, and charges them once
  through :meth:`Telemetry.charge`.  The charges live in a separate,
  lazily built *metered* variant of the cached artifact, reached only
  when a run carries telemetry, so metrics-off runs pay nothing and
  metrics-on runs share the metrics-off cache entry.
* Monitor hook calls are counted by :meth:`Telemetry.pre` /
  :meth:`Telemetry.post`: activations, hook calls, state transitions,
  monitoring wall-clock and the typed events.  The fast engines call
  them from their per-run hook dispatch; the reference engine through
  :class:`InstrumentedSpec`.  Hook exceptions are re-raised, so fault
  policies behave identically with telemetry on.

Faults are observed through :class:`repro.monitoring.faults.FaultLog`'s
``observer`` hook (:meth:`Telemetry.fault_observer`), which every engine
already shares — fault counts and fault events therefore agree across
engines by construction.
"""

from __future__ import annotations

from time import perf_counter
from typing import Optional

from repro.monitoring.spec import MonitorSpec
from repro.observability.events import Event
from repro.observability.metrics import RunMetrics
from repro.observability.sinks import EventSink, is_null_sink
from repro.syntax.ast import App


def _annotation_name(view) -> str:
    """The JSON-safe display name of a recognized annotation."""
    name = getattr(view, "name", None)
    return name if isinstance(name, str) else str(view)


class Telemetry:
    """One run's telemetry hub: a metrics object plus an optional sink.

    This is the per-run counter record every engine charges into: the
    reference engine through :func:`instrument_functional` and
    :class:`InstrumentedSpec`, the fast engines through :meth:`charge`
    (static block weights) and :meth:`pre` / :meth:`post` (hook
    bookkeeping), reached from their per-run context.
    """

    __slots__ = ("metrics", "sink", "wants_steps", "_seq")

    def __init__(self, metrics: RunMetrics, sink: Optional[EventSink]) -> None:
        self.metrics = metrics
        self.sink = sink
        self.wants_steps = sink is not None and bool(sink.wants_steps)
        self._seq = 0

    @classmethod
    def create(
        cls,
        metrics: Optional[RunMetrics] = None,
        event_sink: Optional[EventSink] = None,
    ) -> Optional["Telemetry"]:
        """The gatekeeper: ``None`` means "stay on the uninstrumented path".

        A :class:`~repro.observability.sinks.NullSink` counts as no sink —
        that is the null-sink fast path the benchmark gate enforces.
        """
        sink = None if is_null_sink(event_sink) else event_sink
        if metrics is None and sink is None:
            return None
        return cls(metrics if metrics is not None else RunMetrics(), sink)

    # -- event emission --------------------------------------------------------

    def emit(self, kind: str, slot: Optional[str] = None, **payload) -> None:
        sink = self.sink
        if sink is None:
            return
        self._seq += 1
        sink.emit(Event(self._seq, kind, slot, payload))

    def charge(self, steps: int, applications: int = 0) -> None:
        """Charge one straight-line block's static weight.

        ``steps``/``applications`` are the reference-interpreter node
        evaluations (and ``App`` nodes among them) the block stands for.
        A sink that wants steps gets ``steps`` ``step`` events here, at
        the block's head — the fast engines end every block at a monitor
        hook or call, so the stream interleaves with hook events exactly
        as the reference's per-node steps do.
        """
        metrics = self.metrics
        metrics.steps += steps
        metrics.applications += applications
        if self.wants_steps:
            for _ in range(steps):
                self.emit("step")

    # -- monitor hook bookkeeping ----------------------------------------------

    def pre(self, spec: MonitorSpec, annotation, term, ctx, state, inner=None):
        """Call ``spec.pre`` counting the activation, its time and events.

        Exceptions escaping the hook are re-raised unchanged (after the
        activation is counted and the time charged), so the fault-isolation
        layer sees exactly what it would see without telemetry.
        """
        metrics = self.metrics
        key = spec.key
        activations, pre_calls = metrics.activations, metrics.pre_calls
        activations[key] = activations.get(key, 0) + 1
        pre_calls[key] = pre_calls.get(key, 0) + 1
        sink = self.sink
        if sink is not None:
            name = _annotation_name(annotation)
            self.emit("annotation-enter", key, annotation=name)
        start = perf_counter()
        try:
            if spec.observes:
                new_state = spec.pre(annotation, term, ctx, state, inner=inner)
            else:
                new_state = spec.pre(annotation, term, ctx, state)
        finally:
            metrics.monitor_time += perf_counter() - start
        changed = new_state is not state
        if changed:
            metrics.state_transitions += 1
        if sink is not None:
            self.emit("monitor-pre", key, annotation=name, changed=changed)
            if changed:
                self.emit("state-update", key, phase="pre")
        return new_state

    def post(
        self, spec: MonitorSpec, annotation, term, ctx, result, state, inner=None
    ):
        """Call ``spec.post`` with the same bookkeeping as :meth:`pre`."""
        metrics = self.metrics
        key = spec.key
        post_calls = metrics.post_calls
        post_calls[key] = post_calls.get(key, 0) + 1
        start = perf_counter()
        try:
            if spec.observes:
                new_state = spec.post(
                    annotation, term, ctx, result, state, inner=inner
                )
            else:
                new_state = spec.post(annotation, term, ctx, result, state)
        finally:
            metrics.monitor_time += perf_counter() - start
        changed = new_state is not state
        if changed:
            metrics.state_transitions += 1
        if self.sink is not None:
            name = _annotation_name(annotation)
            self.emit("monitor-post", key, annotation=name, changed=changed)
            if changed:
                self.emit("state-update", key, phase="post")
            self.emit("annotation-exit", key, annotation=name)
        return new_state

    def fault_observer(self, fault, quarantined: bool) -> None:
        """The ``FaultLog`` observer: count and emit fault/quarantine."""
        metrics = self.metrics
        key = fault.monitor_key
        metrics.faults[key] = metrics.faults.get(key, 0) + 1
        self.emit(
            "fault",
            key,
            phase=fault.phase,
            error_type=fault.error_type,
            message=fault.message,
        )
        if quarantined:
            self.emit("quarantine", key)


def instrument_functional(base_functional, telemetry: Telemetry):
    """Wrap a valuation functional with step/application counting.

    Applied *outermost* (after monitor derivation), so every node
    evaluation — including annotated nodes and fall-through paths — is
    charged exactly once per entry through ``recur``: a block of one.
    """
    charge = telemetry.charge

    def functional(recur):
        base_eval = base_functional(recur)

        def eval_counted(term, ctx, kont, ms):
            charge(1, 1 if type(term) is App else 0)
            return base_eval(term, ctx, kont, ms)

        return eval_counted

    return functional


class InstrumentedSpec(MonitorSpec):
    """A transparent telemetry wrapper around any monitor specification.

    The reference engine derives its semantics over these wrappers, so
    every hook call goes through :meth:`Telemetry.pre` /
    :meth:`Telemetry.post` — the same bookkeeping the fast engines call
    directly from their per-run hook dispatch.  State shape, recognition
    and reporting are the base monitor's own.
    """

    __slots__ = ("base", "key", "observes", "_telemetry")

    def __init__(self, base: MonitorSpec, telemetry: Telemetry) -> None:
        self.base = base
        self.key = base.key
        self.observes = base.observes
        self._telemetry = telemetry

    def recognize(self, annotation):
        return self.base.recognize(annotation)

    def initial_state(self):
        return self.base.initial_state()

    def report(self, state):
        return self.base.report(state)

    def pre(self, annotation, term, ctx, state, inner=None):
        return self._telemetry.pre(self.base, annotation, term, ctx, state, inner)

    def post(self, annotation, term, ctx, result, state, inner=None):
        return self._telemetry.post(
            self.base, annotation, term, ctx, result, state, inner
        )

    def __repr__(self) -> str:
        return f"<instrumented {self.base!r}>"


def instrument_monitors(monitors, telemetry: Optional[Telemetry]):
    """Wrap every spec in ``monitors`` when telemetry is active."""
    if telemetry is None:
        return list(monitors)
    return [InstrumentedSpec(monitor, telemetry) for monitor in monitors]


__all__ = [
    "InstrumentedSpec",
    "Telemetry",
    "instrument_functional",
    "instrument_monitors",
]

"""Post-hoc monitoring: fold a monitor stack over a recorded trace.

Jahier & Ducassé's observation — any monitor is a fold over an execution
trace — made operational for this framework: :func:`analyze_trace`
replays a trace's ``pre``/``post`` events through an arbitrary
:class:`~repro.monitoring.spec.MonitorSpec` stack and reconstructs the
:class:`~repro.monitoring.derive.MonitoredResult` the same stack would
have produced inline, down to the ``RunMetrics`` counters and the
``FaultLog`` records.  The §7 soundness theorem is the license (the
monitors could not have changed the recorded run), and
``tests/test_trace_equivalence.py`` is the machine check.

The fold runs in two steps.  :func:`build_plan` decodes the trace once
into an event plan — per event, the claiming hook and its decoded
context or result — and :class:`Fold` is the one kernel that steps a
monitor stack over a span of it.  ``analyze_trace`` folds ``[0, n)``;
:class:`~repro.replay.session.ReplaySession` folds ``[checkpoint,
target)`` with the same kernel.  The kernel mirrors the inline
machinery exactly:

* hook dispatch — at most one monitor claims each site (Section 6
  disjointness, checked here as inline), resolved once per site rather
  than once per event;
* counters — activations/pre_calls are charged *before* ``pre`` runs
  (a faulting hook still counts, as in ``InstrumentedSpec``), post_calls
  before ``post``, state_transitions only on a successful
  identity-changing return;
* fault policy — ``propagate`` lets the hook exception escape the fold,
  ``quarantine`` records the fault and skips the slot's remaining
  events, ``log`` records and drops just that update — the replica of
  ``_derive_isolated``'s three behaviors.

Because a trace is immutable and the fold allocates per-stack state,
N independent stacks fold concurrently over one trace
(:func:`analyze_many`), which is the cheap fan-out inline monitoring
never had: record once, monitor many ways.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple, Union

from repro.errors import UnboundIdentifierError
from repro.monitoring.derive import MonitoredResult, check_disjoint
from repro.monitoring.faults import MonitorFault, check_fault_policy
from repro.monitoring.spec import MonitorSpec
from repro.monitoring.state import MonitorStateVector
from repro.observability.metrics import RunMetrics
from repro.tracing.schema import (
    Site,
    Trace,
    TraceError,
    TraceEvent,
    TraceFormatError,
    build_site_table,
    decode_value,
    read_trace,
)


def parse_program(language_name: str, source: str):
    """Parse surface syntax under the named language's grammar."""
    if language_name == "imperative":
        from repro.languages.imp_syntax import parse_imp

        return parse_imp(source)
    if language_name == "exceptions":
        from repro.languages.exceptions import parse_exc

        return parse_exc(source)
    from repro.syntax.parser import parse

    return parse(source)


class ReplayContext:
    """The semantic context a replayed hook sees: the recorded bindings.

    Implements the same ``maybe_lookup``/``lookup``/``names`` surface as
    the live contexts (``Environment``, ``Store``, codegen's
    ``_DictContext``), so ``context_lookup`` works unchanged.  A name the
    recorder did not capture reads as unbound — the same miss behavior
    monitors already tolerate inline.
    """

    __slots__ = ("_bindings",)

    def __init__(self, bindings: Dict[str, object]) -> None:
        self._bindings = bindings

    def maybe_lookup(self, name: str):
        return self._bindings.get(name)

    def lookup(self, name: str):
        try:
            return self._bindings[name]
        except KeyError:
            raise UnboundIdentifierError(name) from None

    def names(self) -> Tuple[str, ...]:
        return tuple(self._bindings)

    def __repr__(self) -> str:
        return f"<replay-ctx {sorted(self._bindings)}>"


_EMPTY_CONTEXT = ReplayContext({})


@dataclass
class TraceAnalysis(MonitoredResult):
    """A ``MonitoredResult`` reconstructed from a trace fold.

    Field-compatible with the inline result (that is the point — the
    equivalence suite compares them directly); ``events`` counts the
    trace events folded and ``truncated`` flags a partial trace."""

    events: int = 0
    truncated: bool = False


def _resolve_trace(trace: Union[str, Trace], allow_truncated: bool) -> Trace:
    if isinstance(trace, Trace):
        return trace
    return read_trace(trace, allow_truncated=allow_truncated)


def _resolve_program(trace: Trace, program) -> Tuple[object, List[Site]]:
    if program is None:
        source = trace.program_source
        if source is None:
            raise TraceError(
                f"{trace.path}: trace does not embed its program; pass the "
                "original program (program=/--program) to analyze it"
            )
        program = source
    if isinstance(program, str):
        program = parse_program(trace.language, program)
    table = build_site_table(program)
    if len(table) != trace.site_count:
        raise TraceFormatError(
            f"{trace.path}: program has {len(table)} annotated sites but the "
            f"trace was recorded over {trace.site_count} — not the program "
            "this trace came from"
        )
    return program, table


#: A site's claimant: the monitor, its recognized view, and the keys it observes.
Claim = Tuple[MonitorSpec, object, Tuple[str, ...]]


def resolve_claims(
    sites: Sequence[Site], monitors: Sequence[MonitorSpec]
) -> List[Optional[Claim]]:
    """Claim resolution once per *site*, not once per event.

    For each site, the first (and by disjointness only) monitor whose
    ``recognize()`` accepts the annotation, with its recognized view;
    ``None`` where no monitor claims the site.
    """
    claims: List[Optional[Claim]] = []
    for site in sites:
        claim = None
        for spec in monitors:
            view = spec.recognize(site.annotation)
            if view is not None:
                claim = (spec, view, tuple(spec.observes))
                break
        claims.append(claim)
    return claims


#: A claimed hook at one site: ``(hook, is_pre, key, view, term,
#: observes)``, where ``hook`` is the claimant's bound ``pre`` or ``post``.
HookClaim = Tuple[object, bool, str, object, object, Tuple[str, ...]]

#: One planned event, the kernel's whole input for it: ``(claim, ctx,
#: result)``.  ``ctx`` is the decoded bindings of the ``pre`` (for a
#: ``post``, of the ``pre`` it closes); ``result`` is the decoded
#: ``post`` value (``None`` for a ``pre``).
PlanEntry = Tuple[HookClaim, ReplayContext, object]


#: Encoded values that decode to themselves (see ``decode_value``).
_PLAIN_VALUES = frozenset((type(None), bool, int, float, str))


def decode_context(event: TraceEvent) -> ReplayContext:
    """A ``pre`` event's recorded bindings, decoded.

    Bindings that are all plain values decode to themselves, so the
    context shares the event's (never mutated) dictionary.
    """
    bindings = event.bindings
    if not bindings:
        return _EMPTY_CONTEXT
    for value in bindings.values():
        if value.__class__ not in _PLAIN_VALUES:
            bindings = {k: decode_value(v) for k, v in bindings.items()}
            break
    return ReplayContext(bindings)


def build_plan(
    events: Sequence[TraceEvent],
    sites: Sequence[Site],
    claims: Sequence[Optional[Claim]],
) -> List[Optional[PlanEntry]]:
    """Decode a trace once into the fold's event plan.

    ``plan[i]`` is event ``i``'s :data:`PlanEntry`, or ``None`` where no
    monitor claims its site.  Only claimed events are decoded, so a
    corrupt value nobody reads never raises.  A ``post`` is paired here
    with the ``pre`` it closes — the latest unclosed ``pre`` with the
    same (site, occurrence); none for a sampled-out ``pre`` — because
    pairing is a function of the trace alone, not of the fold.
    """
    pre_claims: List[Optional[HookClaim]] = []
    post_claims: List[Optional[HookClaim]] = []
    for site, claim in zip(sites, claims):
        if claim is None:
            pre_claims.append(None)
            post_claims.append(None)
        else:
            spec, view, observes = claim
            head = (spec.key, view, site.body, observes)
            pre_claims.append((spec.pre, True) + head)
            post_claims.append((spec.post, False) + head)
    plan: List[Optional[PlanEntry]] = [None] * len(events)
    open_pres: Dict[Tuple[int, int], int] = {}
    for index, event in enumerate(events):
        site = event.site
        if event.phase == "pre":
            claim = pre_claims[site]
            if claim is not None:
                open_pres[(site, event.occ)] = index
                ctx = decode_context(event)
                plan[index] = (claim, ctx, None)
        else:
            claim = post_claims[site]
            if claim is not None:
                opener = open_pres.pop((site, event.occ), -1)
                ctx = plan[opener][1] if opener >= 0 else _EMPTY_CONTEXT
                result = event.value
                if result.__class__ not in _PLAIN_VALUES:
                    result = decode_value(result)
                plan[index] = (claim, ctx, result)
    return plan


class Fold:
    """The state of one monitor-stack fold, and the one kernel that steps it.

    :func:`analyze_trace` runs :meth:`advance` over ``[0, n)``; a
    :class:`~repro.replay.session.ReplaySession` is a ``Fold`` that runs
    it over ``[checkpoint, target)``.  ``states``, ``faults`` and
    ``disabled`` are persistent values; ``metrics`` (if any) is the one
    mutable accumulator.
    """

    __slots__ = ("position", "states", "metrics", "faults", "disabled", "fault_policy")

    def __init__(
        self,
        states: MonitorStateVector,
        metrics: Optional[RunMetrics] = None,
        fault_policy: str = "propagate",
    ) -> None:
        self.position = 0
        self.states = states
        self.metrics = metrics
        self.faults: Tuple[MonitorFault, ...] = ()
        self.disabled: FrozenSet[str] = frozenset()
        self.fault_policy = fault_policy

    def advance(self, plan: Sequence[Optional[PlanEntry]], stop: int) -> None:
        """Apply ``plan[self.position:stop]``, mirroring the inline machinery.

        A propagated hook fault leaves ``position`` before its event.
        """
        start = position = self.position
        states = self.states
        metrics = self.metrics
        faults: List[MonitorFault] = []
        disabled = self.disabled
        policy = self.fault_policy
        try:
            for position in range(start, stop):
                entry = plan[position]
                if entry is None:
                    continue
                claim, ctx, result = entry
                hook, pre, key, view, term, observes = claim
                if key in disabled:
                    continue
                state = states.get(key)
                if metrics is not None:
                    if pre:
                        metrics.activations[key] = metrics.activations.get(key, 0) + 1
                        metrics.pre_calls[key] = metrics.pre_calls.get(key, 0) + 1
                    else:
                        metrics.post_calls[key] = metrics.post_calls.get(key, 0) + 1
                try:
                    if pre:
                        if observes:
                            new_state = hook(
                                view, term, ctx, state, inner=states.view(observes)
                            )
                        else:
                            new_state = hook(view, term, ctx, state)
                    elif observes:
                        new_state = hook(
                            view, term, ctx, result, state, inner=states.view(observes)
                        )
                    else:
                        new_state = hook(view, term, ctx, result, state)
                except Exception as exc:
                    if policy == "propagate":
                        raise
                    # quarantine: slot now disabled; log: update dropped
                    faults.append(
                        MonitorFault(
                            monitor_key=key,
                            phase="pre" if pre else "post",
                            error_type=type(exc).__name__,
                            message=str(exc),
                            error=exc,
                        )
                    )
                    if policy == "quarantine":
                        disabled = disabled | {key}
                    if metrics is not None:
                        metrics.faults[key] = metrics.faults.get(key, 0) + 1
                    continue
                if new_state is not state:
                    if metrics is not None:
                        metrics.state_transitions += 1
                    states = states.set(key, new_state)
            else:
                position = max(start, stop)
        finally:
            self.position = position
            self.states = states
            if faults:
                self.faults += tuple(faults)
            self.disabled = disabled


def analyze_trace(
    trace: Union[str, Trace],
    monitors: Union[MonitorSpec, Sequence[MonitorSpec]],
    *,
    program=None,
    fault_policy: str = "propagate",
    metrics: Union[None, bool, RunMetrics] = None,
    check_disjointness: bool = True,
    allow_truncated: bool = False,
) -> TraceAnalysis:
    """Fold ``monitors`` over ``trace``; the post-hoc ``run_monitored``.

    ``trace`` is a path or an already-read :class:`Trace`.  ``program``
    (AST or source) overrides the header's embedded program — required
    when the trace carries none.  ``fault_policy`` and ``metrics`` mean
    what they mean on :func:`~repro.monitoring.derive.run_monitored`
    (``metrics=True`` allocates a fresh accumulator); step/application
    counts come from the trace's end record when the recording itself
    ran with metrics.
    """
    from repro.monitoring.compose import flatten_monitors, validate_observations

    check_fault_policy(fault_policy)
    resolved = _resolve_trace(trace, allow_truncated)
    monitor_list: List[MonitorSpec] = flatten_monitors(monitors)
    validate_observations(monitor_list)
    program, table = _resolve_program(resolved, program)
    if check_disjointness:
        check_disjoint(monitor_list, program)

    run_metrics: Optional[RunMetrics]
    if metrics is None or metrics is False:
        run_metrics = None
    elif metrics is True:
        run_metrics = RunMetrics()
    else:
        run_metrics = metrics

    start = perf_counter() if run_metrics is not None else 0.0
    plan = build_plan(resolved.events, table, resolve_claims(table, monitor_list))
    fold = Fold(MonitorStateVector.initial(monitor_list), run_metrics, fault_policy)
    fold.advance(plan, len(plan))

    if run_metrics is not None:
        footer = resolved.footer or {}
        if isinstance(footer.get("steps"), int):
            run_metrics.steps = footer["steps"]
        if isinstance(footer.get("applications"), int):
            run_metrics.applications = footer["applications"]
        run_metrics.wall_time += perf_counter() - start

    return TraceAnalysis(
        answer=resolved.answer(),
        states=fold.states,
        monitors=tuple(monitor_list),
        faults=fold.faults,
        fault_policy=fault_policy,
        metrics=run_metrics,
        events=len(resolved.events),
        truncated=resolved.truncated,
    )


def analyze_many(
    trace: Union[str, Trace],
    stacks: Sequence[Union[MonitorSpec, Sequence[MonitorSpec]]],
    *,
    workers: Optional[int] = None,
    program=None,
    allow_truncated: bool = False,
    **options,
) -> List[TraceAnalysis]:
    """Fold N independent monitor stacks over one trace, concurrently.

    The trace is read and the program parsed *once*; each stack folds
    over the shared immutable events in a thread pool (folds are pure
    Python over per-stack state, so threads interleave cleanly even
    GIL-bound — the win over inline is not re-running the program N
    times).  Results come back in stack order; ``options`` pass through
    to :func:`analyze_trace` (``fault_policy``, ``metrics``, ...).
    """
    resolved = _resolve_trace(trace, allow_truncated)
    resolved_program, _ = _resolve_program(resolved, program)
    if not stacks:
        return []

    def fold(stack):
        return analyze_trace(
            resolved,
            stack,
            program=resolved_program,
            allow_truncated=allow_truncated,
            **options,
        )

    if len(stacks) == 1 or (workers is not None and workers <= 1):
        return [fold(stack) for stack in stacks]
    from concurrent.futures import ThreadPoolExecutor

    width = min(len(stacks), workers if workers is not None else len(stacks))
    with ThreadPoolExecutor(max_workers=width) as pool:
        return list(pool.map(fold, stacks))


__all__ = [
    "Fold",
    "ReplayContext",
    "TraceAnalysis",
    "analyze_many",
    "analyze_trace",
    "build_plan",
    "decode_context",
    "parse_program",
    "resolve_claims",
]

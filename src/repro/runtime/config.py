"""``RunConfig``: one frozen value for every run option the system takes.

Before the serving runtime existed, the options controlling a single run —
``engine``, ``fault_policy``, ``max_steps``, ``metrics``, ``event_sink``,
``answers``, ``check_disjointness`` — were re-declared as keyword
arguments on five different entry points (``run_monitored``, the toolbox
``evaluate``, ``Session.evaluate``, ``compile_program``, and every CLI
subcommand), and they drifted: ``debug`` shipped without ``--fault-policy``
until PR 3 caught it.  :class:`RunConfig` is the consolidation: build the
options once, pass ``config=`` anywhere, reuse it for a thousand requests.

Legacy keyword arguments keep working on every entry point.  The merge
rule (:meth:`RunConfig.resolve`) is:

* no ``config`` — the legacy kwargs (with their historical defaults)
  build a fresh ``RunConfig``;
* ``config`` given — it wins, and a legacy kwarg *explicitly changed from
  its default* that disagrees with the config raises ``TypeError`` with
  both values spelled out.  (A kwarg left at its default is
  indistinguishable from "not passed" and is ignored.)

``timeout`` is the one field beyond the historical kwargs: a per-run
wall-clock budget in seconds, enforced cooperatively by the trampoline
(see :func:`repro.semantics.trampoline.trampoline`) and used by the batch
runtime for per-request timeouts.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, fields, replace
from time import perf_counter
from typing import Dict, Optional

from repro.monitoring.faults import check_fault_policy
from repro.observability.metrics import RunMetrics
from repro.observability.sinks import EventSink
from repro.runtime import DEFAULT_CHECKPOINT_INTERVAL
from repro.semantics.answers import AnswerAlgebra, STANDARD_ANSWERS


class _Unset:
    """Sentinel type for "this keyword was not passed at all"."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<unset>"


#: Default for legacy per-option keywords on the public entry points:
#: distinguishes "caller never passed this" from "caller passed the
#: historical default", so only *explicit* legacy usage warns.
UNSET = _Unset()


@dataclass(frozen=True)
class RunConfig:
    """The options governing one (or many identical) monitored runs.

    Frozen so a config can be shared across threads and reused as a
    default for a whole batch without aliasing surprises.  Note that
    ``metrics`` is a *mutable accumulator*: sharing one config across
    concurrent runs shares the counters too, which is why the batch
    runner swaps in a fresh ``RunMetrics`` per request
    (:meth:`with_fresh_metrics`).
    """

    engine: str = "reference"
    fault_policy: str = "propagate"
    max_steps: Optional[int] = None
    metrics: Optional[RunMetrics] = None
    event_sink: Optional[EventSink] = None
    answers: AnswerAlgebra = STANDARD_ANSWERS
    check_disjointness: bool = True
    timeout: Optional[float] = None
    #: Static-analysis gate: "off" skips the analyzer, "warn" attaches
    #: diagnostics to the result, "error" rejects failing programs at
    #: admission with a StaticAnalysisError (see repro.analysis).
    lint: str = "off"
    #: Execution mode: "inline" runs monitors live (the historical
    #: behavior); "record" runs the program once with the trace recorder
    #: instead, writing an event trace under ``record_dir`` and returning
    #: the trace path on the result — fold stacks over it later with
    #: :func:`repro.tracing.analyze_trace`.
    mode: str = "inline"
    #: Directory record-mode traces are written to (one file per run).
    record_dir: Optional[str] = None
    #: Deterministic activation sampling for record mode: the fraction of
    #: activations kept (1.0 = everything), decided per (seed, site,
    #: occurrence) — never wall clock — so traces are seed-reproducible.
    sample_rate: float = 1.0
    #: The sampling seed (see :func:`repro.tracing.sample_includes`).
    trace_seed: int = 0
    #: Replay checkpoint cadence: when a recorded trace is opened for
    #: time travel (``repro replay``, :class:`repro.replay.ReplaySession`)
    #: the fold snapshots its monitor-state vector every this-many events,
    #: so seeking to event *k* replays at most ``checkpoint_interval``
    #: events from the nearest checkpoint instead of all *k* from the
    #: start.  Smaller = faster seeks, more checkpoints (each one a
    #: reference to the persistent states plus a copy of the counters).
    checkpoint_interval: int = DEFAULT_CHECKPOINT_INTERVAL
    #: Static-optimization level: "none" (default) changes nothing;
    #: "flow" runs the claim-flow analysis (:mod:`repro.analysis.flow`)
    #: and lets consumers exploit it — codegen erases hooks at provably
    #: unreachable sites, record mode skips tracing them, and the lint
    #: gate includes the ``REP5xx`` pass.  Observable behavior (reports,
    #: metrics, fault records) is property-tested identical either way.
    optimize: str = "none"

    def validate(self) -> "RunConfig":
        """Check the enumerated fields; returns ``self`` for chaining."""
        from repro.languages.base import check_engine

        check_engine(self.engine)
        check_fault_policy(self.fault_policy)
        if self.lint != "off":
            # The analyzer owns the lint levels; a lint-off run never
            # loads it.
            from repro.analysis.diagnostics import check_lint_level

            check_lint_level(self.lint)
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError(f"timeout must be positive, got {self.timeout!r}")
        if self.mode not in ("inline", "record"):
            raise ValueError(
                f"mode must be 'inline' or 'record', got {self.mode!r}"
            )
        if isinstance(self.sample_rate, bool) or not isinstance(
            self.sample_rate, (int, float)
        ):
            raise ValueError(
                f"sample_rate must be a number, got {self.sample_rate!r}"
            )
        if not 0.0 <= self.sample_rate <= 1.0:
            raise ValueError(
                f"sample_rate must be within [0, 1], got {self.sample_rate!r}"
            )
        if isinstance(self.trace_seed, bool) or not isinstance(
            self.trace_seed, int
        ):
            raise ValueError(
                f"trace_seed must be an integer, got {self.trace_seed!r}"
            )
        if (
            isinstance(self.checkpoint_interval, bool)
            or not isinstance(self.checkpoint_interval, int)
            or self.checkpoint_interval < 1
        ):
            raise ValueError(
                "checkpoint_interval must be a positive integer, got "
                f"{self.checkpoint_interval!r}"
            )
        if self.optimize not in ("none", "flow"):
            raise ValueError(
                f"optimize must be 'none' or 'flow', got {self.optimize!r}"
            )
        return self

    def deadline(self) -> Optional[float]:
        """The ``perf_counter`` deadline this run must finish by, or ``None``."""
        if self.timeout is None:
            return None
        return perf_counter() + self.timeout

    def wants_telemetry(self) -> bool:
        from repro.observability.sinks import is_null_sink

        return self.metrics is not None or not is_null_sink(self.event_sink)

    def with_fresh_metrics(self) -> "RunConfig":
        """A copy whose ``metrics`` is a new accumulator (if metrics are on).

        The batch runner calls this per request so concurrent runs never
        share counters (per-request isolation).
        """
        if self.metrics is None:
            return self
        return replace(self, metrics=RunMetrics())

    #: The JSON-safe subset of the fields — everything a run option can be
    #: on the far side of a process boundary.  ``metrics``, ``event_sink``
    #: and ``answers`` are deliberately absent: accumulators and sinks are
    #: per-process objects (workers attach their own), and answer algebras
    #: carry functions.
    SCALAR_FIELDS = (
        "engine",
        "fault_policy",
        "max_steps",
        "check_disjointness",
        "timeout",
        "lint",
        "mode",
        "record_dir",
        "sample_rate",
        "trace_seed",
        "checkpoint_interval",
        "optimize",
    )

    def scalars(self) -> Dict[str, object]:
        """The config's JSON-safe fields, for the process-pool wire format.

        ``ProcessPoolRunner`` ships these to workers instead of the config
        object itself; :meth:`from_scalars` rebuilds an equivalent config
        on the other side.  Non-scalar fields (``metrics``, ``event_sink``,
        ``answers``) do not cross the boundary — each worker supplies its
        own.
        """
        return {name: getattr(self, name) for name in self.SCALAR_FIELDS}

    @classmethod
    def from_scalars(cls, data: Dict[str, object]) -> "RunConfig":
        """Rebuild a validated config from :meth:`scalars` output."""
        unknown = set(data) - set(cls.SCALAR_FIELDS)
        if unknown:
            raise ValueError(f"unknown run config scalar(s): {sorted(unknown)}")
        return cls(**data).validate()  # type: ignore[arg-type]

    @classmethod
    def resolve(
        cls, config: "Optional[RunConfig]", **legacy: object
    ) -> "RunConfig":
        """Merge an optional ``config`` with legacy keyword arguments.

        ``legacy`` maps field names to the values the caller's keyword
        arguments currently hold.  See the module docstring for the merge
        rule; the result is always validated.
        """
        defaults = _field_defaults()
        unknown = set(legacy) - set(defaults)
        if unknown:
            raise TypeError(f"unknown run option(s): {sorted(unknown)}")
        if config is None:
            return cls(**legacy).validate()  # type: ignore[arg-type]
        if not isinstance(config, cls):
            raise TypeError(
                f"config must be a RunConfig, got {type(config).__name__}"
            )
        conflicts = []
        for name, value in legacy.items():
            if _differs(value, defaults[name]) and _differs(
                value, getattr(config, name)
            ):
                conflicts.append(
                    f"{name}={value!r} (config has {getattr(config, name)!r})"
                )
        if conflicts:
            raise TypeError(
                "got both config= and conflicting legacy keyword(s): "
                + ", ".join(conflicts)
                + " — set the option on the RunConfig instead"
            )
        return config.validate()

    @classmethod
    def from_kwargs(
        cls,
        config: "Optional[RunConfig]" = None,
        *,
        caller: str = "this function",
        **legacy: object,
    ) -> "RunConfig":
        """The one entry-point normalizer: kwargs in, validated config out.

        Entry points declare their legacy per-option keywords with the
        :data:`UNSET` default and forward them all here; only keywords the
        caller *explicitly passed* survive the filter, and any survivor
        puts the call on the deprecated path — a ``DeprecationWarning``
        names the keywords and the replacement.  The merge semantics are
        :meth:`resolve`'s (config wins; explicit conflicts raise
        ``TypeError``), so behavior is unchanged, just announced.
        """
        passed = {
            name: value
            for name, value in legacy.items()
            if not isinstance(value, _Unset)
        }
        if passed:
            warnings.warn(
                f"{caller}: per-option keyword arguments "
                f"({', '.join(sorted(passed))}) are deprecated; pass "
                "config=RunConfig(...) instead",
                DeprecationWarning,
                stacklevel=3,
            )
        return cls.resolve(config, **passed)


def _field_defaults() -> Dict[str, object]:
    return {f.name: f.default for f in fields(RunConfig)}


def _differs(a: object, b: object) -> bool:
    """Inequality that never raises (sinks and algebras may lack ``__eq__``)."""
    if a is b:
        return False
    try:
        return bool(a != b)
    except Exception:
        return True


__all__ = ["RunConfig", "UNSET"]

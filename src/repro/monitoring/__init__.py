"""Parameterized monitoring semantics (Sections 4–7).

The pipeline mirrors Figure 1 of the paper:

1. A language module supplies a standard continuation semantics as a
   *functional* (``Den``).
2. :func:`repro.monitoring.derive.derive_functional` produces the
   parameterized monitoring semantics ``M(Den)`` (Definition 4.2).
3. Instantiating it with a :class:`repro.monitoring.spec.MonitorSpec`
   (Definition 5.1) yields a complete monitor.
4. :mod:`repro.monitoring.compose` cascades monitors (Section 6).
5. :mod:`repro.monitoring.soundness` checks Theorem 7.7 executably.
"""

from repro import _lazy_exports
# Eager: ``compose`` is also a submodule name (see _lazy_exports).
from repro.monitoring.compose import compose

__all__ = [
    "FAULT_POLICIES",
    "FaultLog",
    "FlakyMonitor",
    "InjectedFault",
    "MonitorFault",
    "MonitorSpec",
    "MonitorStack",
    "MonitorStateVector",
    "MonitoredResult",
    "bounded",
    "check_fault_policy",
    "compose",
    "derive_functional",
    "filtered",
    "mapped_report",
    "nested_answer",
    "renamed",
    "run_monitored",
    "sampled",
]

__getattr__, __dir__ = _lazy_exports(
    globals(),
    {
        "MonitorStack": "repro.monitoring.compose",
        "nested_answer": "repro.monitoring.compose",
        "MonitoredResult": "repro.monitoring.derive",
        "derive_functional": "repro.monitoring.derive",
        "run_monitored": "repro.monitoring.derive",
        "FAULT_POLICIES": "repro.monitoring.faults",
        "FaultLog": "repro.monitoring.faults",
        "FlakyMonitor": "repro.monitoring.faults",
        "InjectedFault": "repro.monitoring.faults",
        "MonitorFault": "repro.monitoring.faults",
        "check_fault_policy": "repro.monitoring.faults",
        "MonitorSpec": "repro.monitoring.spec",
        "MonitorStateVector": "repro.monitoring.state",
        "bounded": "repro.monitoring.transformers",
        "filtered": "repro.monitoring.transformers",
        "mapped_report": "repro.monitoring.transformers",
        "renamed": "repro.monitoring.transformers",
        "sampled": "repro.monitoring.transformers",
    },
)

"""The monitor toolbox (Sections 8 and 9.2).

Reproductions of every monitor specified in the paper:

* :class:`repro.monitors.counters.PairCounterMonitor` — Figure 4's simple
  profiler counting ``{A}``/``{B}`` evaluations.
* :class:`repro.monitors.profiler.ProfilerMonitor` — Figure 6's function
  call profiler.
* :class:`repro.monitors.tracer.TracerMonitor` — Figure 7's fancy
  indenting tracer.
* :class:`repro.monitors.demon.UnsortedListDemon` — Figure 8's demon, plus
  the generic :class:`repro.monitors.demon.PredicateDemon`.
* :class:`repro.monitors.collecting.CollectingMonitor` — Figure 9's
  collecting interpretation monitor.

plus the toolbox extras the Haskell environment ships (Section 9.2):

* :class:`repro.monitors.stepper.StepperMonitor` — an execution stepper.
* :class:`repro.monitors.debugger.DebuggerMonitor` — a scriptable
  dbx-style symbolic debugger.
* :class:`repro.monitors.coverage.CoverageMonitor` — label coverage.
* :class:`repro.monitors.watcher.WatchMonitor` /
  :class:`repro.monitors.watcher.InvariantMonitor` — watchpoints and
  invariant demons.
"""

from repro import _lazy_exports

__all__ = [
    "CallGraphMonitor",
    "CollectingMonitor",
    "CoverageMonitor",
    "DebuggerMonitor",
    "HistoryMonitor",
    "InvariantMonitor",
    "LabelCounterMonitor",
    "PairCounterMonitor",
    "PredicateDemon",
    "ProfilerMonitor",
    "StatisticsMonitor",
    "StepperMonitor",
    "TracerMonitor",
    "UnsortedListDemon",
    "UnwindMonitor",
    "WatchMonitor",
]

__getattr__, __dir__ = _lazy_exports(
    globals(),
    {
        "CallGraphMonitor": "repro.monitors.callgraph",
        "CollectingMonitor": "repro.monitors.collecting",
        "LabelCounterMonitor": "repro.monitors.counters",
        "PairCounterMonitor": "repro.monitors.counters",
        "CoverageMonitor": "repro.monitors.coverage",
        "DebuggerMonitor": "repro.monitors.debugger",
        "PredicateDemon": "repro.monitors.demon",
        "UnsortedListDemon": "repro.monitors.demon",
        "HistoryMonitor": "repro.monitors.history",
        "ProfilerMonitor": "repro.monitors.profiler",
        "StatisticsMonitor": "repro.monitors.statistics",
        "StepperMonitor": "repro.monitors.stepper",
        "TracerMonitor": "repro.monitors.tracer",
        "UnwindMonitor": "repro.monitors.unwind",
        "InvariantMonitor": "repro.monitors.watcher",
        "WatchMonitor": "repro.monitors.watcher",
    },
)

"""Time travel over recorded traces: checkpointed replay and debugging.

The PR 8 trace backend made a run a *value* (record once, fold monitor
stacks over it later); this package makes that value *navigable*:

* :class:`~repro.replay.session.ReplaySession` — the incremental,
  seekable trace fold: the kernel ``analyze_trace`` runs, over an event
  plan decoded once per session, with automatic checkpoints every
  ``checkpoint_interval`` events (default 64) so ``seek(k)`` replays at
  most one interval, not the whole prefix;
* :class:`~repro.replay.checkpoints.CheckpointIndex` — the in-memory
  checkpoint store.  A checkpoint holds only fold state (monitor states,
  counters, faults, disabled slots); refolding is cheap enough that
  nothing is persisted between sessions;
* :class:`~repro.replay.debugger.ReplayDebugger` — the time-travel
  debugger behind ``repro replay``: the live command set plus ``back``,
  ``goto``, ``rewind``, ``events``, and the omniscient queries
  ``when-was``/``value-at`` over :mod:`repro.monitors.history` state.

Recording is engine- and language-generic (the recorder is an ordinary
monitor), so anything ``repro run --mode record`` produced — reference,
compiled, or codegen; L_lambda, L_imp, or L_exc — replays here.
"""

from repro import _lazy_exports

__all__ = [
    "Checkpoint",
    "CheckpointIndex",
    "HISTORY_KEY",
    "ReplayDebugger",
    "ReplaySession",
    "default_stack",
]

__getattr__, __dir__ = _lazy_exports(
    globals(),
    {
        "Checkpoint": "repro.replay.checkpoints",
        "CheckpointIndex": "repro.replay.checkpoints",
        "HISTORY_KEY": "repro.replay.debugger",
        "ReplayDebugger": "repro.replay.debugger",
        "default_stack": "repro.replay.debugger",
        "ReplaySession": "repro.replay.session",
    },
)

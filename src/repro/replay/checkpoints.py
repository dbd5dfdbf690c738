"""Checkpointed fold state: the seek index under time travel.

Monitor states are persistent values (the whole framework is built on
that), so a checkpoint of the :class:`~repro.monitoring.state.
MonitorStateVector` is one reference — O(1) to take, O(1) to restore.
The fault records and the disabled-slot set are persistent too.  The
one mutable piece of a replay fold is the :class:`~repro.observability.
metrics.RunMetrics` accumulator; it is copied both when a checkpoint is
*taken* and when it is *restored*, so stepping forward from a restore
never corrupts the stored snapshot.

Everything else a seek needs is a function of the trace alone — the
decoded event plan, the ``pre`` each ``post`` closes, the open
activations at each position — so it lives on the session, computed
once, and not in any checkpoint.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.monitoring.faults import MonitorFault
from repro.monitoring.state import MonitorStateVector
from repro.observability.metrics import RunMetrics


def copy_metrics(metrics: Optional[RunMetrics]) -> Optional[RunMetrics]:
    """An independent accumulator with the same counters (times included)."""
    if metrics is None:
        return None
    return RunMetrics(
        steps=metrics.steps,
        applications=metrics.applications,
        activations=dict(metrics.activations),
        pre_calls=dict(metrics.pre_calls),
        post_calls=dict(metrics.post_calls),
        state_transitions=metrics.state_transitions,
        faults=dict(metrics.faults),
        wall_time=metrics.wall_time,
        monitor_time=metrics.monitor_time,
    )


@dataclass(frozen=True)
class Checkpoint:
    """The complete fold state after ``position`` trace events.

    ``states``/``faults``/``disabled`` are shared (persistent);
    ``metrics`` is owned by this checkpoint (copied in :meth:`capture`),
    so the snapshot is immune to later mutation by the fold that took it.
    """

    position: int
    states: MonitorStateVector
    metrics: Optional[RunMetrics]
    faults: Tuple[MonitorFault, ...]
    disabled: frozenset

    @classmethod
    def capture(cls, fold) -> "Checkpoint":
        """Snapshot a :class:`~repro.tracing.analyze.Fold` where it stands."""
        return cls(
            position=fold.position,
            states=fold.states,
            metrics=copy_metrics(fold.metrics),
            faults=fold.faults,
            disabled=fold.disabled,
        )


class CheckpointIndex:
    """Checkpoints at every ``interval`` events, sorted by position.

    ``nearest(k)`` answers "the latest checkpoint at or before event k"
    in O(log n); :meth:`note` keeps the invariant that positions are
    strictly increasing (re-noting a known position is a no-op, so a
    session may fold the same span twice without duplicating).
    """

    def __init__(self, interval: int) -> None:
        if interval < 1:
            raise ValueError(
                f"checkpoint interval must be positive, got {interval!r}"
            )
        self.interval = interval
        self._positions: List[int] = []
        self._points: List[Checkpoint] = []

    def __len__(self) -> int:
        return len(self._points)

    @property
    def positions(self) -> Tuple[int, ...]:
        return tuple(self._positions)

    def next_boundary(self, position: int) -> int:
        """The first checkpoint position after ``position`` (``>= 0``)."""
        return (position // self.interval + 1) * self.interval

    def note(self, point: Checkpoint) -> None:
        index = bisect_right(self._positions, point.position)
        if index and self._positions[index - 1] == point.position:
            return
        self._positions.insert(index, point.position)
        self._points.insert(index, point)

    def nearest(self, position: int) -> Optional[Checkpoint]:
        index = bisect_right(self._positions, position)
        if not index:
            return None
        return self._points[index - 1]


__all__ = ["Checkpoint", "CheckpointIndex", "copy_metrics"]

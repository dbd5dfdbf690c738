"""Checkpointed fold state: the seek index under time travel.

Monitor states are persistent values (the whole framework is built on
that), so a checkpoint of the :class:`~repro.monitoring.state.
MonitorStateVector` is one reference — O(1) to take, O(1) to restore.
The only mutable pieces of a replay fold are the :class:`~repro.
observability.metrics.RunMetrics` accumulator, the pending pre-context
map, and the fault bookkeeping; those are copied (shallowly — contexts
and fault records are themselves immutable) both when a checkpoint is
*taken* and when it is *restored*, so stepping forward from a restore
never corrupts the stored snapshot.

The index can persist to a sidecar file next to the trace
(``<trace>.ckpt``): a JSON envelope naming the trace fingerprint, the
monitor-stack identity, and the cadence, around a base64 pickle of the
checkpoints.  On load, any mismatch — different program, different
stack, different interval, unreadable pickle — silently yields "no
index" and the session rebuilds from scratch; a sidecar is a cache,
never a source of truth.  Only load sidecars you wrote: they are
pickles.
"""

from __future__ import annotations

import base64
import json
import os
import pickle
from bisect import bisect_right
from dataclasses import dataclass, replace as dc_replace
from typing import Dict, List, Optional, Tuple

from repro.monitoring.faults import MonitorFault
from repro.monitoring.state import MonitorStateVector
from repro.observability.metrics import RunMetrics

#: Bump when the sidecar envelope or Checkpoint layout changes.
SIDECAR_VERSION = 2


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

    ``states`` is shared (persistent); ``metrics``/``pending`` are owned
    by this checkpoint (copied in :meth:`capture`), so the snapshot is
    immune to later mutation by the fold that took it.
    """

    position: int
    states: MonitorStateVector
    stack: Tuple[Tuple[int, str], ...]  # open activations: (site, label)
    metrics: Optional[RunMetrics]
    pending: Dict[Tuple[int, int], object]  # (site, occ) -> ReplayContext
    faults: Tuple[MonitorFault, ...]
    disabled: frozenset

    @classmethod
    def capture(
        cls,
        *,
        position: int,
        states: MonitorStateVector,
        stack: Tuple[Tuple[int, str], ...],
        metrics: Optional[RunMetrics],
        pending: Dict[Tuple[int, int], object],
        faults: Tuple[MonitorFault, ...],
        disabled: frozenset,
    ) -> "Checkpoint":
        return cls(
            position=position,
            states=states,
            stack=stack,
            metrics=copy_metrics(metrics),
            pending=dict(pending),
            faults=faults,
            disabled=disabled,
        )

    def thaw(self) -> "Checkpoint":
        """A mutable-parts copy safe to fold forward from."""
        return dc_replace(
            self, metrics=copy_metrics(self.metrics), pending=dict(self.pending)
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

    # -- sidecar persistence ---------------------------------------------------

    def save(self, path: str, *, fingerprint: str, stack: str) -> bool:
        """Write the sidecar; ``False`` (no file) if any state resists pickle."""
        try:
            blob = pickle.dumps(self._points, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            return False
        envelope = {
            "sidecar_version": SIDECAR_VERSION,
            "fingerprint": fingerprint,
            "stack": stack,
            "interval": self.interval,
            "checkpoints": len(self._points),
            "data": base64.b64encode(blob).decode("ascii"),
        }
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(envelope, handle)
            handle.write("\n")
        os.replace(tmp, path)
        return True

    @classmethod
    def load(
        cls, path: str, *, fingerprint: str, stack: str, interval: int
    ) -> Optional["CheckpointIndex"]:
        """Reload a sidecar if it matches this trace+stack+cadence exactly."""
        try:
            with open(path, "r", encoding="utf-8") as handle:
                envelope = json.load(handle)
            if (
                envelope.get("sidecar_version") != SIDECAR_VERSION
                or envelope.get("fingerprint") != fingerprint
                or envelope.get("stack") != stack
                or envelope.get("interval") != interval
            ):
                return None
            points = pickle.loads(base64.b64decode(envelope["data"]))
        except Exception:
            return None
        index = cls(interval)
        for point in points:
            if isinstance(point, Checkpoint):
                index.note(point)
        return index


def sidecar_path(trace_path: str) -> str:
    """Where a trace's checkpoint index lives (``<trace>.ckpt``)."""
    return f"{trace_path}.ckpt"


__all__ = [
    "Checkpoint",
    "CheckpointIndex",
    "SIDECAR_VERSION",
    "copy_metrics",
    "sidecar_path",
]

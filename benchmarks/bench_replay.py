"""T-REPLAY: checkpointed seeks against full-refold time travel.

Run:  python benchmarks/bench_replay.py            # full workload -> stdout
      python benchmarks/bench_replay.py --quick    # CI smoke (smaller trace)

The replay session's claim is that a backward ``seek`` costs at most one
checkpoint interval of folding, never a refold from event zero.  This
script measures that claim on a long recorded trace:

* **Seek-to-midpoint**: ``seek(N)`` then ``seek(N/2)`` on a session with
  the default checkpoint interval, against the same pair of seeks on a
  session whose interval exceeds the trace (so every backward seek *is*
  a full refold).  The checkpointed arm folds ~interval events; the
  refold arm folds ~N/2.
* **Random walk**: a scripted ``back``-heavy cursor walk over the same
  trace, both ways.
* **Ring overflow**: seek-to-midpoint with ``repro replay``'s default
  stack (a 4096-event history ring) over a trace longer than the ring,
  so every folded event past the ring's capacity also drops the oldest.
* **Random seek**: a fresh session at the default interval seeking to
  seeded random positions, as a debugger user jumping around does; the
  p50 of one ``seek``.
* **First full fold**: open a session and ``seek`` to the end, at the
  default interval and at the old default of 512: what dense
  checkpoints cost on the first pass.

All five rows are **informational only — there is no gate**: the suite
runs on a single-core CI container where wall-clock ratios flake under
load, so the report records the measured speedup and the event counts,
and a human reads them.  The script merges a ``"replay"`` section into
``BENCH_report.json`` (preserving other sections) and always exits 0.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import tempfile
import time

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, _REPO_ROOT)
sys.path.insert(0, os.path.join(_REPO_ROOT, "src"))

from repro.monitors import HistoryMonitor
from repro.replay import HISTORY_KEY, ReplaySession, default_stack
from repro.runtime import DEFAULT_CHECKPOINT_INTERVAL
from repro.runtime.config import RunConfig
from repro.tracing import read_trace, record

from benchmarks.workloads import loop_with_trace_hits

from repro.languages.strict import strict

#: Every loop iteration passes through the traced helper: the trace
#: length is what we are scaling, not the program's own work.
FULL_ITERATIONS = 4_000
QUICK_ITERATIONS = 600

#: The default interval under test.
INTERVAL = DEFAULT_CHECKPOINT_INTERVAL
#: The default before checkpoints held only fold state.
SPARSE_INTERVAL = 512
#: Seeded positions for the random-seek row.
RANDOM_SEEKS = 200

#: 5,000 events: past default_stack()'s 4096-event ring in both modes.
OVERFLOW_ITERATIONS = 2_500


def _stack():
    # An ample ring: the bench measures folding, not overflow handling.
    return [HistoryMonitor(1_000_000, key="history")]


def _record_trace(iterations: int) -> str:
    handle, path = tempfile.mkstemp(suffix=".jsonl", prefix="bench-replay-")
    os.close(handle)
    program = loop_with_trace_hits(iterations, iterations)
    record(strict, program, path, config=RunConfig(engine="codegen"))
    return path


def _timed(thunk, repeats: int = 5) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        thunk()
        best = min(best, time.perf_counter() - start)
    return best


def measure_seek_to_midpoint(path: str) -> dict:
    checkpointed = ReplaySession(path, _stack(), checkpoint_interval=INTERVAL)
    total = len(checkpointed)
    checkpointed.seek(total)  # populate the index once, outside timing

    def seek_checkpointed():
        checkpointed.seek(total)
        checkpointed.seek(total // 2)

    refolder = ReplaySession(path, _stack(), checkpoint_interval=10**9)
    refolder.seek(total)

    def seek_refold():
        refolder.seek(total)
        refolder.seek(total // 2)

    with_ckpt = _timed(seek_checkpointed)
    without = _timed(seek_refold)
    return {
        "events": total,
        "interval": INTERVAL,
        "checkpointed_ms": with_ckpt * 1000,
        "full_refold_ms": without * 1000,
        "speedup": without / max(with_ckpt, 1e-9),
    }


def measure_backward_walk(path: str) -> dict:
    """A back-heavy cursor walk: debugger usage, not a single seek."""

    def walk(session):
        total = len(session)
        session.seek(total)
        position = total
        while position > 0:
            position = max(0, position - max(1, total // 16))
            session.seek(position)

    checkpointed = ReplaySession(path, _stack(), checkpoint_interval=INTERVAL)
    checkpointed.seek(len(checkpointed))
    refolder = ReplaySession(path, _stack(), checkpoint_interval=10**9)
    refolder.seek(len(refolder))

    with_ckpt = _timed(lambda: walk(checkpointed), repeats=3)
    without = _timed(lambda: walk(refolder), repeats=3)
    return {
        "steps": 16,
        "checkpointed_ms": with_ckpt * 1000,
        "full_refold_ms": without * 1000,
        "speedup": without / max(with_ckpt, 1e-9),
    }


def measure_ring_overflow() -> dict:
    """Seek-to-midpoint on the default stack, its history ring overflowing."""
    path = _record_trace(OVERFLOW_ITERATIONS)
    try:
        stack = default_stack()
        session = ReplaySession(path, stack, checkpoint_interval=INTERVAL)
        total = len(session)
        session.seek(total)  # populate the index once, outside timing
        dropped = session.state_of(HISTORY_KEY).dropped

        def seek_midpoint():
            session.seek(total)
            session.seek(total // 2)

        return {
            "workload": (
                f"loop_with_trace_hits({OVERFLOW_ITERATIONS}, {OVERFLOW_ITERATIONS})"
            ),
            "events": total,
            "capacity": stack[0].capacity,
            "dropped_at_end": dropped,
            "interval": INTERVAL,
            "checkpointed_ms": _timed(seek_midpoint) * 1000,
        }
    finally:
        os.unlink(path)


def _p50(samples) -> float:
    ordered = sorted(samples)
    return ordered[len(ordered) // 2]


def measure_random_seek(path: str) -> dict:
    """Seeded random seeks on a fresh session at the default interval."""
    session = ReplaySession(path, _stack(), checkpoint_interval=INTERVAL)
    rng = random.Random(0)
    samples = []
    for _ in range(RANDOM_SEEKS):
        position = rng.randint(0, len(session))
        start = time.perf_counter()
        session.seek(position)
        samples.append(time.perf_counter() - start)
    return {
        "events": len(session),
        "interval": INTERVAL,
        "seeks": RANDOM_SEEKS,
        "p50_ms": _p50(samples) * 1000,
        "events_per_seek": session.replayed_events / RANDOM_SEEKS,
    }


def measure_first_fold(path: str) -> dict:
    """Open + ``seek(end)`` on a fresh session, dense vs sparse checkpoints."""
    trace = read_trace(path)

    def first_fold(interval):
        def thunk():
            session = ReplaySession(trace, _stack(), checkpoint_interval=interval)
            session.seek(len(session))

        return _timed(thunk) * 1000

    return {
        "events": len(trace.events),
        "interval": INTERVAL,
        "default_ms": first_fold(INTERVAL),
        "sparse_interval": SPARSE_INTERVAL,
        "sparse_ms": first_fold(SPARSE_INTERVAL),
    }


def run_matrix(quick: bool) -> dict:
    iterations = QUICK_ITERATIONS if quick else FULL_ITERATIONS
    path = _record_trace(iterations)
    try:
        return {
            "workload": f"loop_with_trace_hits({iterations}, {iterations})",
            "quick": quick,
            "seek_to_midpoint": measure_seek_to_midpoint(path),
            "backward_walk": measure_backward_walk(path),
            "ring_overflow": measure_ring_overflow(),
            "random_seek": measure_random_seek(path),
            "first_fold": measure_first_fold(path),
            # Single-core CI box: wall-clock ratios are reported for a
            # human to read, never asserted (see docs/DEBUGGING.md).
            "gate": {"met": True, "informational_only": True},
        }
    finally:
        os.unlink(path)


def print_matrix(result: dict) -> None:
    seek = result["seek_to_midpoint"]
    walk = result["backward_walk"]
    print("T-REPLAY: checkpointed seek vs full refold (informational)")
    print(f"  workload           {result['workload']}")
    print(
        f"  seek-to-midpoint   ckpt {seek['checkpointed_ms']:.2f} ms vs "
        f"refold {seek['full_refold_ms']:.2f} ms "
        f"-> {seek['speedup']:.1f}x over {seek['events']} events "
        f"(interval {seek['interval']})"
    )
    print(
        f"  backward walk      ckpt {walk['checkpointed_ms']:.2f} ms vs "
        f"refold {walk['full_refold_ms']:.2f} ms -> {walk['speedup']:.1f}x"
    )
    ring = result["ring_overflow"]
    print(
        f"  ring overflow      ckpt {ring['checkpointed_ms']:.2f} ms over "
        f"{ring['events']} events, ring {ring['capacity']} "
        f"({ring['dropped_at_end']} dropped at the end)"
    )
    rand = result["random_seek"]
    print(
        f"  random seek        p50 {rand['p50_ms']:.3f} ms over {rand['seeks']} "
        f"seeks, {rand['events_per_seek']:.1f} events folded per seek "
        f"(interval {rand['interval']})"
    )
    first = result["first_fold"]
    print(
        f"  first full fold    {first['default_ms']:.2f} ms at interval "
        f"{first['interval']} vs {first['sparse_ms']:.2f} ms at "
        f"{first['sparse_interval']} over {first['events']} events"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="smaller trace for CI smoke runs"
    )
    parser.add_argument(
        "--output",
        default=os.path.join(_REPO_ROOT, "BENCH_report.json"),
        help="report file to merge the 'replay' section into",
    )
    args = parser.parse_args(argv)

    result = run_matrix(args.quick)
    print_matrix(result)
    from benchmarks.reporting import merge_section

    merge_section(args.output, "replay", result)
    print(f"\nmerged 'replay' section into {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

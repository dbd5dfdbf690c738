"""Shared helpers: paths, statistics, memory, provenance and the history file.

Nothing here imports ``repro``: the workload modules import it during
their own set-up, so that its cost lands in the phase that measures it.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from time import perf_counter
from typing import Dict, Iterable, List, Optional, Sequence

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
#: Scratch space for sockets, traces and span dumps; removed after each run.
TMP_ROOT = os.path.join(ROOT, ".perfbench_tmp")
HISTORY = os.path.join(BENCH_DIR, "history.jsonl")


class InvalidRun(Exception):
    """The run could not hold its load discipline; it reports nothing."""


def have_sources() -> bool:
    return os.path.isfile(os.path.join(SRC, "repro", "__init__.py"))


def use_sources() -> None:
    """Make ``import repro`` resolve to this checkout's ``src/``."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def child_env() -> Dict[str, str]:
    """Environment for ``python -m repro`` children: this checkout's sources."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("PYTHONPROFILEIMPORTTIME", None)
    return env


def timed_setup(args: List[str], repeats: int, pace: "Pace") -> List[float]:
    """Spawn-to-ready seconds of ``setup_probe.py`` children, run in turn."""
    samples = []
    for _ in range(repeats):
        pace.burst()
        began = perf_counter()
        child = subprocess.Popen(
            [sys.executable, os.path.join(BENCH_DIR, "setup_probe.py")] + args,
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.PIPE,
            text=True,
        )
        line = child.stdout.readline()
        samples.append(perf_counter() - began)
        child.stdout.read()
        child.stdout.close()
        if child.wait(timeout=120) != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe {args} failed")
    return samples


class WorkloadBase:
    """Defaults shared by the workloads.

    A workload sets itself up (returning set-up times), builds its
    oracle, then measures, reports ``named`` metrics and, when traced,
    ``layers``.  ``probe`` is the ``setup_probe.py`` argument list whose
    fresh-process run times the workload's set-up.
    """

    probe: List[str] = []
    #: Calibration samples; run.py gives set-up and measurement each a new one.
    pace: "Pace"

    def setup(self, repeats: int) -> List[float]:
        return timed_setup(self.probe, repeats, self.pace)

    def extra_rss_mb(self) -> float:
        """Peak RSS of processes outside this one's waited-for children."""
        return 0.0

    def close(self) -> None:
        pass


#: The calibration kernel's median time on the reference host (ms); see
#: :class:`Pace`.
NOMINAL_KERNEL_MS = 1.25


def _kernel() -> int:
    """Integer arithmetic only: it allocates nothing the garbage collector
    tracks, so its time does not depend on the size of this process's heap
    (a kernel that built tuples and dicts varied twice as much as the
    workloads it was meant to calibrate)."""
    total = 0
    for i in range(20000):
        total += i * i % 7
    return total


class Pace:
    """Times (ms) of a fixed pure-Python kernel, taken between operations.

    The benchmark's host may change speed by half for minutes at a time
    (shared vCPUs), for plain Python loops as much as for the workloads.
    Workloads call :meth:`tick` between operations, when nothing they
    started is running, so the kernel times only the host; end-to-end
    times are scaled to the speed at which the kernel's median takes
    :data:`NOMINAL_KERNEL_MS`.
    """

    def __init__(self, every_s: float = 0.05) -> None:
        self.samples: List[float] = []
        self.every_s = every_s
        self._due = 0.0

    def _sample(self) -> None:
        began = perf_counter()
        _kernel()
        self.samples.append((perf_counter() - began) * 1e3)

    def tick(self) -> None:
        """One kernel sample if ``every_s`` has passed since the last."""
        if perf_counter() >= self._due:
            self._sample()
            self._due = perf_counter() + self.every_s

    def burst(self, seconds: float = 0.1) -> None:
        """Kernel samples back to back for ``seconds`` (idle points only)."""
        end = perf_counter() + seconds
        while perf_counter() < end:
            self._sample()

    def scale(self) -> float:
        """Nominal over measured kernel time: < 1 on a slow host."""
        return NOMINAL_KERNEL_MS / median(self.samples)


def cores() -> int:
    return os.cpu_count() or 1


# -- statistics -----------------------------------------------------------------


def quantile(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile by linear interpolation (0 for an empty sample)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def ratio(num: float, den: float) -> float:
    """``num / den``, or 0 when nothing was measured (``den == 0``)."""
    return num / den if den else 0.0


# -- memory -----------------------------------------------------------------------


def _kb_to_mb(kb: float) -> float:
    # ru_maxrss and VmHWM are KiB on Linux.
    return kb / 1024.0


def self_peak_rss_mb() -> float:
    return _kb_to_mb(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def children_peak_rss_mb() -> float:
    """Largest peak RSS among waited-for children (and their descendants)."""
    return _kb_to_mb(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


def process_tree_hwm_mb(pid: int) -> float:
    """Sum of the peak RSS (``VmHWM``) of ``pid`` and its live descendants."""
    total = 0.0
    pending = [pid]
    seen = set()
    while pending:
        current = pending.pop()
        if current in seen:
            continue
        seen.add(current)
        try:
            with open(f"/proc/{current}/status", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total += _kb_to_mb(float(line.split()[1]))
            with open(
                f"/proc/{current}/task/{current}/children", encoding="ascii"
            ) as handle:
                pending.extend(int(tok) for tok in handle.read().split())
        except (OSError, ValueError):
            continue
    return total


# -- provenance and history ----------------------------------------------------


def source_digest() -> str:
    """SHA-256 over every file under ``src/`` (path and bytes).

    The benchmark may run from a checkout that is not a git repository;
    this digest still identifies the code measured.
    """
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(SRC):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith((".pyc", ".pyo")):
                continue
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, SRC).encode("utf-8"))
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def git_sha() -> Optional[str]:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def provenance(seed: int, workload: str, params: Dict[str, object]) -> Dict[str, object]:
    return {
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "cpu_count": cores(),
        "python": platform.python_version(),
        "seed": seed,
        "workload": workload,
        "params": params,
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def append_history(record: Dict[str, object]) -> None:
    with open(HISTORY, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")


def share(flags: Iterable[bool]) -> float:
    items = list(flags)
    return ratio(sum(1 for flag in items if flag), len(items))


def mix_shares(requests: List[Dict[str, object]]) -> Dict[str, float]:
    """Measured share of requests with each property an optimization keys on.

    Each request dict carries ``metrics``, ``new``, ``lint``,
    ``monitored`` and ``engine``.
    """
    return {
        "mix.metrics_on": share(r["metrics"] for r in requests),
        "mix.new_to_daemon": share(r["new"] for r in requests),
        "mix.lint_gated": share(r["lint"] for r in requests),
        "mix.monitored": share(r["monitored"] for r in requests),
        "mix.engine.codegen": share(r["engine"] == "codegen" for r in requests),
        "mix.engine.compiled": share(r["engine"] == "compiled" for r in requests),
        "mix.engine.reference": share(r["engine"] == "reference" for r in requests),
    }

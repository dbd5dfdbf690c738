"""The serving runtime: run configuration, compilation cache, batching.

This package is the system's "many requests" layer, sitting above the
single-run monitoring pipeline:

* :mod:`repro.runtime.config` — :class:`RunConfig`, the one frozen value
  consolidating every run option (``engine``, ``fault_policy``,
  ``max_steps``, telemetry, ``answers``, ``check_disjointness``,
  ``timeout``), accepted as ``config=`` by every entry point;
* :mod:`repro.runtime.cache` — :class:`CompilationCache`, a thread-safe
  LRU over compiled programs keyed by (program hash, language,
  monitor-stack identity, fault policy, engine, optimize);
* :mod:`repro.runtime.batch` — :class:`BatchRunner`/:func:`run_batch`
  executing :class:`RunRequest` batches over a worker pool with
  per-request isolation and timeouts, and the :class:`Runtime` facade
  tying config + cache + pool together;
* :mod:`repro.runtime.process_pool` — :class:`ProcessPoolRunner`, the
  multi-core tier: forked workers with pre-warmed per-worker caches,
  program-fingerprint request routing, bounded-queue backpressure
  (:class:`OverloadedError`) and crash detection + restart;
* :mod:`repro.runtime.serve` — :class:`Server`, the long-lived
  JSONL-over-socket daemon (``repro serve``) in front of the process
  pool.

Import order matters here: ``config`` has no dependency on the rest of
the package and is imported first; ``batch`` reaches back into
``monitoring``/``toolbox`` lazily (inside functions) so that those
modules may in turn lazily import :class:`RunConfig` without a cycle.
"""

from repro.runtime.config import RunConfig
from repro.runtime.cache import CacheStats, CompilationCache, cache_key, program_fingerprint
from repro.runtime.batch import (
    DEFAULT_WORKERS,
    BatchRunner,
    RunRequest,
    RunResult,
    Runtime,
    admission_failure,
    check_timeout,
    execute_request,
    language_by_name,
    run_batch,
)
from repro.runtime.process_pool import (
    DEFAULT_QUEUE_DEPTH,
    OverloadedError,
    ProcessPoolRunner,
    route_key,
)
from repro.runtime.serve import Server

__all__ = [
    "DEFAULT_QUEUE_DEPTH",
    "DEFAULT_WORKERS",
    "BatchRunner",
    "CacheStats",
    "CompilationCache",
    "OverloadedError",
    "ProcessPoolRunner",
    "RunConfig",
    "RunRequest",
    "RunResult",
    "Runtime",
    "Server",
    "admission_failure",
    "cache_key",
    "check_timeout",
    "execute_request",
    "language_by_name",
    "program_fingerprint",
    "route_key",
    "run_batch",
]

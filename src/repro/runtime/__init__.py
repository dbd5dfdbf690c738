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

Every export resolves on first use, so ``from repro.runtime import
RunConfig`` loads ``config`` alone, never the pool or the daemon;
``batch`` reaches back into ``monitoring``/``toolbox`` inside functions
so that those modules may import :class:`RunConfig` without a cycle.
"""

from repro import _lazy_exports

#: Replay checkpoint spacing in trace events: the default of
#: ``RunConfig.checkpoint_interval``, ``ReplaySession`` and ``repro
#: replay --checkpoint-interval``.  It lives here, outside ``config``, so
#: the CLI can name it in ``--help`` without loading the run layer.
DEFAULT_CHECKPOINT_INTERVAL = 64

__all__ = [
    "DEFAULT_CHECKPOINT_INTERVAL",
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

__getattr__, __dir__ = _lazy_exports(
    globals(),
    {
        "RunConfig": "repro.runtime.config",
        "CacheStats": "repro.runtime.cache",
        "CompilationCache": "repro.runtime.cache",
        "cache_key": "repro.runtime.cache",
        "program_fingerprint": "repro.runtime.cache",
        "DEFAULT_WORKERS": "repro.runtime.batch",
        "BatchRunner": "repro.runtime.batch",
        "RunRequest": "repro.runtime.batch",
        "RunResult": "repro.runtime.batch",
        "Runtime": "repro.runtime.batch",
        "admission_failure": "repro.runtime.batch",
        "check_timeout": "repro.runtime.batch",
        "execute_request": "repro.runtime.batch",
        "language_by_name": "repro.runtime.batch",
        "run_batch": "repro.runtime.batch",
        "DEFAULT_QUEUE_DEPTH": "repro.runtime.process_pool",
        "OverloadedError": "repro.runtime.process_pool",
        "ProcessPoolRunner": "repro.runtime.process_pool",
        "route_key": "repro.runtime.process_pool",
        "Server": "repro.runtime.serve",
    },
)

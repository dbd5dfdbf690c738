"""Per-layer metrics from spans and from small untimed probes.

A layer a workload never calls reads 0 here: no span, no time.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from common import median, quantile, ratio
from spans import ROOT, Span, attribute, by_request, self_times

COMPILE_SPANS = ("partial_eval.codegen.generate", "semantics.compiled.compile")


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def span_layers(spans: List[Span], cache=None) -> Dict[str, float]:
    """Layer metrics every workload derives the same way from its spans."""
    selfs = self_times(spans)
    named: Dict[str, List[Span]] = {}
    for span in spans:
        named.setdefault(span.name, []).append(span)
    by_id = {span.sid: span for span in spans}

    def mean_self_ms(name: str) -> float:
        return 1e3 * _mean([selfs[s.sid] for s in named.get(name, ())])

    def mean_ms(name: str) -> float:
        return 1e3 * _mean([s.end - s.start for s in named.get(name, ())])

    compiles = [s for name in COMPILE_SPANS for s in named.get(name, ())]
    miss_ids = {s.parent for s in compiles}
    lookups = named.get("runtime.cache.get_or_compile", [])
    hits = [s for s in lookups if s.sid not in miss_ids]
    misses = [s for s in lookups if s.sid in miss_ids]
    uncached = [
        s
        for s in compiles
        if s.parent is None
        or by_id.get(s.parent) is None
        or by_id[s.parent].name != "runtime.cache.get_or_compile"
    ]
    requests = len(named.get(ROOT, ())) or 1
    out = {
        "syntax.parse_ms": mean_self_ms("syntax.parse"),
        "syntax.nodes": _mean([s.attrs.get("nodes", 0) for s in named.get("syntax.parse", ())]),
        "analysis.lint_ms": mean_self_ms("analysis.lint"),
        "analysis.flow_ms": mean_self_ms("analysis.flow"),
        "runtime.cache.hit_ratio": ratio(len(hits), len(lookups)),
        "runtime.cache.lookup_us": 1e6 * _mean([selfs[s.sid] for s in hits]),
        "runtime.cache.compile_ms": 1e3 * _mean([s.end - s.start for s in misses]),
        "partial_eval.codegen.generate_ms": mean_ms("partial_eval.codegen.generate"),
        "partial_eval.codegen.source_bytes": _mean(
            [s.attrs.get("source_bytes", 0) for s in named.get("partial_eval.codegen.generate", ())]
        ),
        "semantics.compiled.compile_ms": mean_ms("semantics.compiled.compile"),
        "observability.uncached_compiles": len(uncached) / requests,
        "tracing.read_ms": mean_ms("tracing.read"),
    }
    if cache is not None:
        stats = cache.stats()
        flow = cache.flow_stats()
        out["runtime.cache.evictions"] = float(stats.evictions)
        out["analysis.flow_hit_ratio"] = ratio(flow["hits"], flow["hits"] + flow["misses"])
    return out


def accounting(spans: List[Span]) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Per-request self-time split, summed over requests.

    Returns (totals, checks): ``totals`` maps each span name (and
    ``unattributed``) to its summed self time in seconds; ``checks``
    holds the request count, summed wall time, the largest per-request
    gap between wall time and the sum of its parts, and the mean share
    of wall time left unattributed.
    """
    totals: Dict[str, float] = {}
    walls = 0.0
    worst = 0.0
    shares = []
    groups = by_request(spans)
    for rid, group in groups.items():
        if not any(s.name == ROOT for s in group):
            continue
        wall, parts = attribute(group)
        walls += wall
        worst = max(worst, abs(wall - sum(parts.values())))
        shares.append(ratio(parts.get("unattributed", 0.0), wall))
        for name, seconds in parts.items():
            totals[name] = totals.get(name, 0.0) + seconds
    checks = {
        "requests": float(len(shares)),
        "wall_s": walls,
        "trace.sum_error_ms": worst * 1e3,
        "trace.unattributed_share": _mean(shares),
    }
    return totals, checks


# -- probes -----------------------------------------------------------------------


def stack(tools: str) -> list:
    """Monitor specs for a ``"profile & trace"`` tool string."""
    from repro.toolbox.registry import make_tool

    return [make_tool(name.strip()) for name in tools.split("&") if name.strip()]


def best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = perf_counter()
        fn()
        best = min(best, perf_counter() - start)
    return best


def exec_probe(
    pairs_by_engine: Dict[str, Iterable[Tuple[str, str, Optional[str]]]],
    repeats: int = 3,
) -> Dict[str, float]:
    """Evaluation time with an empty stack, and the share monitor hooks add.

    For each engine, every distinct (source, tools, language) the
    workload sends is run with its stack and with an empty stack:
    ``exec.<engine>.eval_ms`` is the mean empty-stack time per program,
    ``monitoring.hook_share.<engine>`` is (monitored - unmonitored) /
    monitored summed over the monitored requests.
    """
    from repro.monitoring.derive import run_monitored
    from repro.monitoring.state import MonitorStateVector
    from repro.runtime import CompilationCache, RunConfig, language_by_name
    from repro.syntax.parser import parse
    from repro.languages.imp_syntax import parse_imp
    from repro.languages import strict

    out: Dict[str, float] = {}
    for engine, pairs in pairs_by_engine.items():
        pairs = list(dict.fromkeys(pairs))
        cache = CompilationCache(4 * len(pairs) + 8)
        plain: Dict[Tuple[str, Optional[str]], float] = {}
        monitored_total = 0.0
        unmonitored_total = 0.0

        def timed(program, language, monitors):
            if engine == "reference":
                config = RunConfig(engine="reference", check_disjointness=False)
                return best_of(
                    lambda: run_monitored(language, program, monitors, config=config),
                    repeats,
                )
            artifact = cache.get_or_compile(language, program, monitors, engine=engine)
            initial = MonitorStateVector.initial(monitors)
            return best_of(lambda: artifact.run(initial_ms=initial), repeats)

        for source, tools, lang in pairs:
            language = language_by_name(lang) or strict
            program = parse_imp(source) if lang == "imperative" else parse(source)
            key = (source, lang)
            if key not in plain:
                plain[key] = timed(program, language, [])
            monitors = stack(tools)
            if monitors:
                monitored_total += timed(program, language, monitors)
                unmonitored_total += plain[key]
        out[f"exec.{engine}.eval_ms"] = 1e3 * _mean(list(plain.values()))
        out[f"monitoring.hook_share.{engine}"] = ratio(
            monitored_total - unmonitored_total, monitored_total
        )
    return out


def metrics_probe(
    pairs_by_engine: Dict[str, Iterable[Tuple[str, str]]], repeats: int = 3
) -> Dict[str, float]:
    """``observability.metrics_ratio.<engine>``: metrics-on time / metrics-off
    time for the same warm requests, summed over the workload's pairs."""
    from repro.observability.metrics import RunMetrics
    from repro.runtime import CompilationCache, RunConfig, RunRequest, execute_request

    out: Dict[str, float] = {}
    for engine, pairs in pairs_by_engine.items():
        pairs = list(dict.fromkeys(pairs))
        cache = CompilationCache(2 * len(pairs) + 8)
        on_total = off_total = 0.0
        off = RunConfig(engine=engine)
        on = RunConfig(engine=engine, metrics=RunMetrics())
        for source, tools in pairs:
            request_off = RunRequest(source, tools, config=off)
            request_on = RunRequest(source, tools, config=on)
            execute_request(0, request_off, config=off, cache=cache)  # warm
            off_total += best_of(lambda: execute_request(0, request_off, config=off, cache=cache), repeats)
            on_total += best_of(lambda: execute_request(0, request_on, config=on, cache=cache), repeats)
        out[f"observability.metrics_ratio.{engine}"] = ratio(on_total, off_total)
    return out


def latency_ms(values: Sequence[float], tail: float = 0.9) -> Tuple[float, float]:
    """(p50, p``tail``) in ms of a sample in seconds."""
    return 1e3 * median(values), 1e3 * quantile(values, tail)


# -- imports ----------------------------------------------------------------------

#: The packages ``import.<pkg>_ms`` breaks ``import repro`` into.
IMPORT_PACKAGES = (
    "monitors",
    "partial_eval",
    "syntax",
    "runtime",
    "semantics",
    "analysis",
    "languages",
    "monitoring",
    "tracing",
    "observability",
    "replay",
    "toolbox",
    "cli",
    "prelude",
)


def parse_importtime(stderr: str) -> Dict[str, float]:
    """Import-layer metrics from one process's ``-X importtime`` log.

    ``import.repro_ms`` sums the cumulative time of the outermost
    ``repro`` imports (everything ``repro`` pulled in, third-party
    included); ``import.<pkg>_ms`` sums the self time of ``repro.<pkg>``
    and its submodules; ``import.modules`` counts ``repro`` modules.
    """
    out = {"import.repro_ms": 0.0, "import.modules": 0.0}
    out.update({f"import.{pkg}_ms": 0.0 for pkg in IMPORT_PACKAGES})
    outer: Optional[int] = None
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        self_us, cumulative_us = int(fields[0]), int(fields[1])
        name = fields[2].rstrip()
        depth = len(name) - len(name.lstrip())
        module = name.strip()
        if module != "repro" and not module.startswith("repro."):
            continue
        out["import.modules"] += 1
        parts = module.split(".")
        if len(parts) > 1 and parts[1] in IMPORT_PACKAGES:
            out[f"import.{parts[1]}_ms"] += self_us / 1e3
        # importtime logs children before parents; an outer import is one
        # no later repro line at smaller depth will absorb.
        if outer is None or depth <= outer:
            if outer is not None and depth < outer:
                out["import.repro_ms"] = 0.0
            outer = depth
            out["import.repro_ms"] += cumulative_us / 1e3
    return out


def importtime_probe(args: List[str]) -> Dict[str, float]:
    """Import metrics of a fresh ``setup_probe.py`` child run under ``-X importtime``."""
    import os
    import subprocess
    import sys

    from common import BENCH_DIR, ROOT, child_env

    done = subprocess.run(
        [sys.executable, "-X", "importtime", os.path.join(BENCH_DIR, "setup_probe.py")] + args,
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr[-2000:]}")
    return parse_importtime(done.stderr)

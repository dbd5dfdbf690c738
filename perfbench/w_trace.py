"""trace-replay: record, fold four stacks, then seek back and forth.

Each cycle, on one thread: ``repro.record`` a seeded program on
``codegen`` (trace writes), ``analyze_many`` over four stacks (trace
reads and folds), and a ``ReplaySession`` with the history monitor
seeking to seeded positions in random order (checkpointed replay).
Writes beside reads show a trace-codec change that helps one side and
costs the other.
"""

from __future__ import annotations

import os
import random
from time import perf_counter
from typing import Dict, List

from common import WorkloadBase, mix_shares, ratio
from layers import best_of, latency_ms, span_layers, stack
from oracle import Oracle
from programs import FIB, FOLD_STACKS, TRACE_PROGRAMS, dealt, loop
from spans import ROOT

SEEKS = 120
#: Ample: the benchmark measures folding, not ring overflow.
HISTORY_CAPACITY = 1_000_000


def _last(state):
    if state.back:
        return state.back[0]
    return state.front[-1] if state.front else None


class Workload(WorkloadBase):
    name = "trace-replay"
    probe = ["trace"]

    def __init__(self, rng: random.Random, tiny: bool, tmp: str) -> None:
        self.rng = rng
        self.tmp = tmp
        self.programs = [loop(200, 50), FIB % 8] if tiny else list(TRACE_PROGRAMS)
        self.seeks = 20 if tiny else SEEKS
        self.stream = dealt(self.programs, rng)
        self.params = {"programs": len(self.programs), "seeks": self.seeks, "stacks": list(FOLD_STACKS)}
        self.records: List[Dict[str, float]] = []
        self.history_events: Dict[str, list] = {}

    def build_oracle(self, oracle: Oracle) -> None:
        """Inline ``run_monitored`` of each stack on the reference engine."""
        from repro import RunConfig, parse, run_monitored, strict
        from repro.monitors import HistoryMonitor

        config = RunConfig(engine="reference")
        for source in self.programs:
            program = parse(source)
            for tools in FOLD_STACKS:
                result = run_monitored(strict, program, stack(tools), config=config)
                oracle.expect((source, tools), (result.answer, result.reports()))
            history = run_monitored(
                strict, program, [HistoryMonitor(HISTORY_CAPACITY)], config=config
            )
            oracle.expect((source, "history"), history.reports())
            self.history_events[source] = history.report().events

    def setup(self, repeats: int) -> List[float]:
        samples = super().setup(repeats)
        self._warm()
        return samples

    def _warm(self) -> None:
        """One untimed cycle per program, so the first timed cycle is not
        the first to touch each code path."""
        from repro import ReplaySession, RunConfig, analyze_many, parse, record, strict
        from repro.monitors import HistoryMonitor

        path = os.path.join(self.tmp, "warm.jsonl")
        for source in self.programs:
            record(strict, parse(source), path, config=RunConfig(engine="codegen"))
            analyze_many(path, [stack(tools) for tools in FOLD_STACKS])
            ReplaySession(path, [HistoryMonitor(HISTORY_CAPACITY)]).seek(1 << 30)
            os.unlink(path)

    def measure(self, seconds: float, oracle: Oracle, recorder=None) -> Dict[str, object]:
        from contextlib import nullcontext

        from spans import install

        uninstall = install(recorder) if recorder is not None else None
        # Imported after install() so these names are the wrapped ones.
        from repro import ReplaySession, RunConfig, analyze_many, parse, record, strict
        from repro.monitors import HistoryMonitor

        config = RunConfig(engine="codegen")
        stacks = [stack(tools) for tools in FOLD_STACKS]
        records, folds, seeks, cycles = [], [], [], []
        folded = seek_count = 0
        attempted = failed = 0
        sources = []
        start = perf_counter()
        try:
            while perf_counter() - start < seconds:
                source = next(self.stream)
                path = os.path.join(self.tmp, f"trace-{len(cycles)}.jsonl")
                span = (
                    recorder.span(ROOT, rid=len(cycles))
                    if recorder is not None
                    else nullcontext()
                )
                began = perf_counter()
                with span:
                    program = parse(source)
                    recorded = record(strict, program, path, config=config)
                    wrote = perf_counter()
                    analyses = analyze_many(path, stacks)
                    read = perf_counter()
                    opened = (
                        recorder.span("replay.open") if recorder is not None else nullcontext()
                    )
                    with opened:
                        session = ReplaySession(path, [HistoryMonitor(HISTORY_CAPACITY)])
                    positions = [self.rng.randint(0, len(session)) for _ in range(self.seeks)]
                    before = session.replayed_events
                    checks = []
                    for position in positions:
                        seek_began = perf_counter()
                        landed = session.seek(position)
                        seeks.append(perf_counter() - seek_began)
                        checks.append((position, landed, _last(session.state_of("history"))))
                    folded += session.replayed_events - before
                    seek_count += len(positions)
                ended = perf_counter()
                cycles.append(ended - began)
                records.append(wrote - began)
                folds.append(read - wrote)
                sources.append(source)
                self.records.append({"events": recorded.events, "bytes": os.path.getsize(path)})
                # Checks, untimed: record answer and every fold against the
                # inline reference runs; every seek against the reference history.
                attempted += 2 + len(FOLD_STACKS) + len(positions)
                for tools, analysis in zip(FOLD_STACKS, analyses):
                    observed = (recorded.answer, analysis.reports())
                    failed += not oracle.check((source, tools), observed, request=(source, tools))
                events = self.history_events[source]
                for position, landed, last in checks:
                    expected = (position, events[position - 1] if position else None)
                    failed += not oracle.compare(
                        expected, (landed, last), request=(source, "seek", position)
                    )
                failed += not oracle.check(
                    (source, "history"), session.analysis().reports(), request=(source, "history")
                )
                os.unlink(path)
                self.pace.tick()
        finally:
            if uninstall is not None:
                uninstall()
        p50, p90 = latency_ms(seeks)
        return {
            "attempted": attempted,
            "failed": failed,
            "samples": len(seeks),
            "p50_ms": p50,
            "p90_ms": p90,
            "tail_ms": p90,
            "ops_per_s": ratio(len(cycles), sum(cycles)),
            "record_p50_ms": latency_ms(records)[0],
            "fold_p50_ms": latency_ms(folds)[0],
            "events_per_seek": ratio(folded, seek_count),
            "sources": sources,
            "mix": mix_shares(
                [
                    {"metrics": False, "new": False, "lint": False, "monitored": True, "engine": "codegen"}
                    for _ in sources
                ]
            ),
        }

    def named(self, result: Dict[str, object]) -> Dict[str, object]:
        return {
            "record_p50_ms": (result["record_p50_ms"], "ms"),
            "fold_p50_ms": (result["fold_p50_ms"], "ms"),
            "seek_p50_ms": (result["p50_ms"], "ms"),
            "seek_p90_ms": (result["p90_ms"], "ms"),
        }

    def layers(self, result: Dict[str, object], recorder) -> Dict[str, float]:
        from repro import RunConfig, evaluate, parse, record, strict

        out = span_layers(recorder.spans)
        spans = recorder.spans
        opens = [s.end - s.start for s in spans if s.name == "replay.open"]
        folds = [s for s in spans if s.name == "tracing.analyze_trace"]
        out["replay.open_ms"] = 1e3 * ratio(sum(opens), len(opens))
        out["replay.events_folded_per_seek"] = result["events_per_seek"]
        out["tracing.fold_events_per_s"] = ratio(
            sum(s.attrs.get("events", 0) for s in folds), sum(s.end - s.start for s in folds)
        )
        out["tracing.events"] = ratio(sum(r["events"] for r in self.records), len(self.records))
        out["tracing.trace_bytes"] = ratio(sum(r["bytes"] for r in self.records), len(self.records))
        # Record time over a plain codegen run of the same program, both
        # compiling from scratch, summed over the programs this run drew.
        config = RunConfig(engine="codegen")
        recorded = plain = 0.0
        path = os.path.join(self.tmp, "probe.jsonl")
        for source in sorted(set(result["sources"])):
            program = parse(source)

            def write():
                record(strict, program, path, config=config)
                os.unlink(path)

            recorded += best_of(write, 3)
            plain += best_of(lambda: evaluate([], program, config=config), 3)
        out["tracing.record_overhead"] = ratio(recorded, plain)
        return out

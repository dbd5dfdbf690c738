"""batch-warm: one caller making fixed-size ``Runtime.run_batch`` calls.

Thread executor, ``workers`` = core count, ``lint="off"``, compilation
cache filled during set-up.  Steady-state execution, monitor hooks and
telemetry dominate; compilation, lint, IPC and import barely appear.
"""

from __future__ import annotations

import random
from time import perf_counter
from typing import Dict, List

from common import WorkloadBase, cores, median, mix_shares, ratio
from layers import exec_probe, latency_ms, metrics_probe, span_layers
from oracle import Oracle, outcome, reference_outcome
from programs import batch_deck, dealt, program_for

BATCH = 8
#: Seconds of serve-lint load whose serve/pool layers the traced run reports.
SERVE_PROBE_S = 4.0


def _key(request: Dict[str, object]):
    return (request["program"], request["tools"], request["language"], request["metrics"])


def make_runtime():
    from repro.runtime import RunConfig, Runtime

    return Runtime(config=RunConfig(lint="off"), workers=cores(), cache_size=512)


def run_request(request: Dict[str, object]):
    from repro.observability.metrics import RunMetrics
    from repro.runtime import RunConfig, RunRequest, language_by_name

    return RunRequest(
        program=program_for(request["program"], request["language"]),
        tools=request["tools"],
        language=language_by_name(request["language"]),
        config=RunConfig(
            engine=request["engine"],
            lint="off",
            metrics=RunMetrics() if request["metrics"] else None,
        ),
    )


def prewarm(runtime, deck: List[Dict[str, object]]) -> None:
    """Compile every cacheable request of the deck once."""
    distinct = {}
    for request in deck:
        if not request["metrics"]:
            distinct[(request["program"], request["tools"], request["engine"])] = request
    runtime.run_batch([run_request(r) for r in distinct.values()])


class Workload(WorkloadBase):
    name = "batch-warm"

    def __init__(self, rng: random.Random, tiny: bool, tmp: str) -> None:
        self.rng = rng
        self.tmp = tmp
        self.tiny = tiny
        self.deck = batch_deck()
        if tiny:
            self.deck = self.rng.sample(self.deck, 48)
        self.stream = dealt(self.deck, rng)
        self.runtime = None
        self.params = {"batch": BATCH, "workers": cores(), "deck": len(self.deck), "lint": "off"}
        self.probe = ["batch"] + (["--tiny"] if tiny else [])

    def build_oracle(self, oracle: Oracle) -> None:
        for request in self.deck:
            key = _key(request)
            if key not in oracle:
                oracle.expect(
                    key,
                    reference_outcome(
                        request["program"],
                        request["tools"],
                        language=request["language"],
                        metrics=request["metrics"],
                    ),
                )

    def setup(self, repeats: int) -> List[float]:
        """Fresh-process set-up times (import, runtime, prewarm); then the
        same set-up in this process for the measurement."""
        samples = super().setup(repeats)
        self.runtime = make_runtime()
        prewarm(self.runtime, self.deck)
        return samples

    def measure(self, seconds: float, oracle: Oracle, recorder=None) -> Dict[str, object]:
        from spans import install

        batch_no = [0]
        uninstall = None
        if recorder is not None:
            uninstall = install(
                recorder, batch_ids=lambda args, kwargs: (batch_no[0], args[0])
            )
        calls: List[float] = []
        durations: List[float] = []
        sent: List[Dict[str, object]] = []
        failed = 0
        start = perf_counter()
        try:
            while perf_counter() - start < seconds:
                batch = [next(self.stream) for _ in range(BATCH)]
                requests = [run_request(r) for r in batch]
                batch_no[0] += 1
                began = perf_counter()
                results = self.runtime.run_batch(requests)
                calls.append(perf_counter() - began)
                for request, result in zip(batch, results):
                    durations.append(result.duration)
                    observed = outcome(
                        result.to_dict(), result.metrics if request["metrics"] else None
                    )
                    matched = oracle.check(_key(request), observed, request=request)
                    if not (result.ok and matched):
                        failed += 1
                sent += batch
                self.pace.tick()
        finally:
            if uninstall is not None:
                uninstall()
        p50, p90 = latency_ms(calls)
        busy = sum(calls)
        return {
            "attempted": len(sent),
            "failed": failed,
            "samples": len(calls),
            "p50_ms": p50,
            "p90_ms": p90,
            "tail_ms": p90,
            "ops_per_s": ratio(len(sent), busy),
            "durations": durations,
            "busy": busy,
            "mix": mix_shares(
                [
                    {
                        "metrics": r["metrics"],
                        "new": False,
                        "lint": False,
                        "monitored": bool(r["tools"]),
                        "engine": r["engine"],
                    }
                    for r in sent
                ]
            ),
        }

    def named(self, result: Dict[str, object]) -> Dict[str, object]:
        return {
            "batch_rps": (result["ops_per_s"], "req/s"),
            "batch_p90_ms": (result["p90_ms"], "ms"),
        }

    def layers(self, result: Dict[str, object], recorder) -> Dict[str, float]:
        out = span_layers(recorder.spans, cache=self.runtime.cache)
        out["runtime.batch.service_p50_ms"] = 1e3 * median(result["durations"])
        out["runtime.batch.overhead_share"] = 1.0 - ratio(
            sum(result["durations"]), cores() * result["busy"]
        )
        by_engine = {}
        for request in self.deck:
            by_engine.setdefault(request["engine"], []).append(
                (request["program"], request["tools"], request["language"])
            )
        out.update(exec_probe(by_engine, repeats=self.repeats))
        counted = {}
        for request in self.deck:
            if request["metrics"]:
                counted.setdefault(request["engine"], []).append(
                    (request["program"], request["tools"])
                )
        out.update(metrics_probe(counted, repeats=self.repeats))
        if not self.tiny:
            from w_serve import serve_probe

            out.update(serve_probe(self.tmp, SERVE_PROBE_S))
        return out

    @property
    def repeats(self) -> int:
        return 1 if self.tiny else 3

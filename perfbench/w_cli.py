"""cli-cold: one ``python -m repro`` subprocess at a time.

A cold run is what an interactive user waits for, and most of it is
``import repro``.  The traced run swaps ``python -m repro`` for
``python -X importtime perfbench/cli_traced.py``, which wraps the layers
and then calls ``repro.cli.main(argv)``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from time import perf_counter
from typing import Dict, List

from common import BENCH_DIR, ROOT, WorkloadBase, child_env, mix_shares, ratio
from layers import exec_probe, latency_ms, parse_importtime, span_layers
from oracle import Oracle
from programs import cli_deck, dealt
from spans import ROOT as ROOT_SPAN
from spans import Span


def reference_argv(argv: List[str]) -> List[str]:
    """The same invocation on the reference engine."""
    out = list(argv)
    if "--engine" in out:
        out[out.index("--engine") + 1] = "reference"
    return out


def engine_of(argv: List[str]) -> str:
    return argv[argv.index("--engine") + 1] if "--engine" in argv else "reference"


class Workload(WorkloadBase):
    name = "cli-cold"
    #: Interpreter start plus ``import repro.cli``: paid before any request.
    probe = ["cli"]

    def __init__(self, rng: random.Random, tiny: bool, tmp: str) -> None:
        self.deck = cli_deck()
        if tiny:
            self.deck = self.deck[::4]
        self.stream = dealt(self.deck, rng)
        self.tmp = tmp
        self.params = {"deck": len(self.deck), "subcommands": ["run", "profile", "check"]}

    def build_oracle(self, oracle: Oracle) -> None:
        import repro.cli

        for argv in self.deck:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = repro.cli.main(reference_argv(argv))
            oracle.expect(tuple(argv), (code, out.getvalue()))

    def measure(self, seconds: float, oracle: Oracle, recorder=None) -> Dict[str, object]:
        walls: List[float] = []
        sent: List[List[str]] = []
        failed = 0
        imports: Dict[str, float] = {}
        spans_file = os.path.join(self.tmp, "spans.json")
        start = perf_counter()
        while perf_counter() - start < seconds:
            argv = next(self.stream)
            if recorder is None:
                command = [sys.executable, "-m", "repro"] + argv
            else:
                traced = os.path.join(BENCH_DIR, "cli_traced.py")
                command = [sys.executable, "-X", "importtime", traced, spans_file] + argv
            began = perf_counter()
            done = subprocess.run(
                command, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=120
            )
            ended = perf_counter()
            walls.append(ended - began)
            sent.append(argv)
            if not oracle.check(tuple(argv), (done.returncode, done.stdout), request=argv):
                failed += 1
            self.pace.tick()
            if recorder is not None:
                self._adopt(recorder, spans_file, began, ended, len(sent))
                for name, value in parse_importtime(done.stderr).items():
                    imports[name] = imports.get(name, 0.0) + value
        p50, p90 = latency_ms(walls)
        # 45-70 invocations per run leave fewer than ten samples beyond
        # p90; p75 is this workload's tail.
        tail = latency_ms(walls, tail=0.75)[1]
        return {
            "attempted": len(sent),
            "failed": failed,
            "samples": len(walls),
            "p50_ms": p50,
            "p90_ms": p90,
            "tail_ms": tail,
            "ops_per_s": ratio(len(walls), sum(walls)),
            "imports": {name: value / max(1, len(sent)) for name, value in imports.items()},
            "mix": mix_shares(
                [
                    {
                        "metrics": False,
                        "new": False,
                        "lint": False,
                        "monitored": "--tools" in argv or argv[0] == "profile",
                        "engine": engine_of(argv),
                    }
                    for argv in sent
                ]
            ),
        }

    @staticmethod
    def _adopt(recorder, path: str, began: float, ended: float, rid: int) -> None:
        """Take the child's spans under a root span timed by this process.

        ``perf_counter`` reads the system-wide monotonic clock on Linux,
        so the child's timestamps and ours share one time line.
        """
        with open(path, encoding="utf-8") as handle:
            child = [Span.from_dict(data) for data in json.load(handle)]
        os.unlink(path)
        base = 1_000_000 * rid  # child span ids stay below this
        root = Span(base, ROOT_SPAN, began, ended, None, rid, {})
        recorder.spans.append(root)
        for span in child:
            span.sid += base
            span.parent = base if span.parent is None else span.parent + base
            span.rid = rid
            recorder.spans.append(span)

    def named(self, result: Dict[str, object]) -> Dict[str, object]:
        return {
            "cli_p50_ms": (result["p50_ms"], "ms"),
            "cli_p90_ms": (result["p90_ms"], "ms"),
        }

    def layers(self, result: Dict[str, object], recorder) -> Dict[str, float]:
        out = span_layers(recorder.spans)
        out.update(result["imports"])
        by_engine: Dict[str, list] = {}
        for argv in self.deck:
            if argv[0] != "run":
                continue
            tools = argv[argv.index("--tools") + 1] if "--tools" in argv else ""
            language = argv[argv.index("--language") + 1] if "--language" in argv else None
            source = argv[argv.index("-e") + 1]
            by_engine.setdefault(engine_of(argv), []).append((source, tools, language))
        out.update(exec_probe(by_engine))
        return out

"""Tests of the benchmark itself, on the tiny size of every workload.

Run: python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import os
import random
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from common import ROOT, TMP_ROOT, Pace, use_sources  # noqa: E402
from spans import ROOT as ROOT_SPAN  # noqa: E402
from spans import Span, attribute  # noqa: E402

use_sources()

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
WORKLOADS = ("cli-cold", "batch-warm", "serve-lint", "trace-replay")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def run_bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "2", "--trace", str(trace), "--tiny"],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_spec_shape():
    data = spec()
    assert set(data) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    names = [w["name"] for w in data["workloads"]]
    assert set(names) <= set(WORKLOADS) and len(names) >= 2
    metrics = data["end_to_end"] + data["per_layer"]
    all_names = [m["name"] for m in metrics] + names
    assert len(all_names) == len(set(all_names))
    for metric in metrics:
        assert NAME.match(metric["name"]), metric
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
    for metric in data["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = [m for m in data["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in data["end_to_end"])


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_metric(workload, trace):
    done = run_bench(workload, trace)
    assert done.returncode == 0, done.stderr[-3000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = spec()["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], float)
        assert NAME.match(metric["name"])
    if trace:
        # Per request, self times plus ``unattributed`` add up to wall time.
        assert result["metrics"]["trace.sum_error_ms"]["value"] < 1e-6
        shares = [v["value"] for k, v in result["metrics"].items() if k.startswith("self_share.")]
        assert sum(shares) == pytest.approx(1.0, abs=1e-6)
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_attribution_sums_to_wall_with_concurrent_children():
    spans = [
        Span(1, ROOT_SPAN, 0.0, 10.0, None, "r", {}),
        Span(2, "fan", 1.0, 9.0, 1, "r", {}),
        Span(3, "a", 2.0, 6.0, 2, "r", {}),  # two children on other threads,
        Span(4, "b", 4.0, 8.0, 2, "r", {}),  # overlapping in [4, 6]
        Span(5, "a.inner", 2.5, 3.0, 3, "r", {}),
    ]
    wall, parts = attribute(spans)
    assert wall == 10.0
    assert sum(parts.values()) == pytest.approx(10.0)
    assert parts["unattributed"] == pytest.approx(2.0)
    assert parts["fan"] == pytest.approx(2.0)
    assert parts["a.inner"] == pytest.approx(0.5)
    assert parts["a"] == pytest.approx(1.5 + 1.0)
    assert parts["b"] == pytest.approx(1.0 + 2.0)


def test_oracle_rejects_a_corrupted_expectation():
    import w_batch
    from oracle import Oracle

    tmp = os.path.join(TMP_ROOT, "test-oracle")
    os.makedirs(tmp, exist_ok=True)
    workload = w_batch.Workload(random.Random(5), tiny=True, tmp=tmp)
    workload.pace = Pace()
    oracle = Oracle()
    try:
        workload.build_oracle(oracle)
        key = next(iter(oracle.expected))
        corrupted = dict(oracle.expected[key])
        corrupted["answer"] = "not the answer"
        oracle.expect(key, corrupted)
        workload.deck = [r for r in workload.deck if w_batch._key(r) == key]
        workload.stream = iter(workload.deck * 64)
        workload.runtime = w_batch.make_runtime()
        result = workload.measure(0.01, oracle)
    finally:
        workload.close()
        shutil.rmtree(tmp, ignore_errors=True)
    assert result["failed"] == result["attempted"] > 0
    assert oracle.mismatches and "not the answer" in oracle.mismatches[0]


def test_fails_without_the_sources():
    bare = os.path.join(TMP_ROOT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__", "history.jsonl"))
        done = run_bench("batch-warm", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout

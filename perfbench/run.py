"""The repository benchmark: one workload, one seed, one JSON result line.

Usage:
    python3 perfbench/run.py --workload {cli-cold,batch-warm,serve-lint,trace-replay}
        --seed N --seconds S --trace {0,1} [--tiny]

Run from the repository root.  The run builds its inputs from ``--seed``,
computes every expected answer on the reference engine before timing
starts, times its set-up several times, measures for ``--seconds``, and
checks every output against the oracle.  ``--trace 0`` reports the
end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` measures half the
time untraced and half with layer spans, and reports the per-layer
metrics.  The last stdout line is the JSON result; the lines before it
name each workload-specific metric with its unit.  Every result is
appended to ``perfbench/history.jsonl`` with its provenance.  The exit
code is 0 only when every operation succeeded and matched the oracle.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import random
import shutil
import sys
from typing import Dict

from common import (
    ROOT,
    TMP_ROOT,
    InvalidRun,
    Pace,
    append_history,
    children_peak_rss_mb,
    have_sources,
    median,
    provenance,
    ratio,
    self_peak_rss_mb,
    use_sources,
)

WORKLOADS = {
    "cli-cold": "w_cli",
    "batch-warm": "w_batch",
    "serve-lint": "w_serve",
    "trace-replay": "w_trace",
}
SETUP_REPEATS = 3


def load_spec() -> Dict[str, object]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def run(args) -> int:
    spec = load_spec()
    use_sources()
    module = importlib.import_module(WORKLOADS[args.workload])
    tmp = os.path.join(TMP_ROOT, str(os.getpid()))
    os.makedirs(tmp, exist_ok=True)
    workload = module.Workload(random.Random(args.seed), tiny=args.tiny, tmp=tmp)
    from oracle import Oracle

    oracle = Oracle()
    workload.pace = setup_pace = Pace()
    try:
        setup = workload.setup(1 if args.tiny else SETUP_REPEATS)
        setup_pace.burst()
        workload.build_oracle(oracle)
        workload.pace = Pace()
        if args.trace:
            from layers import accounting, importtime_probe
            from spans import SpanRecorder

            plain = workload.measure(args.seconds / 2, oracle)
            recorder = SpanRecorder()
            result = workload.measure(args.seconds / 2, oracle, recorder=recorder)
            layers = workload.layers(result, recorder)
            if "import.repro_ms" not in layers:
                layers.update(importtime_probe(workload.probe))
            totals, checks = accounting(recorder.spans)
            layers.update(checks)
            layers["trace.overhead_p50_ms"] = result["p50_ms"] - plain["p50_ms"]
            layers["trace.overhead_ops_share"] = 1.0 - ratio(
                result["ops_per_s"], plain["ops_per_s"]
            )
            for name, seconds in totals.items():
                layers[f"self_share.{name}"] = ratio(seconds, checks["wall_s"])
            attempted = plain["attempted"] + result["attempted"]
            failed = plain["failed"] + result["failed"]
        else:
            result = workload.measure(args.seconds, oracle)
            attempted, failed = result["attempted"], result["failed"]
        workload.pace.burst()
        peak = self_peak_rss_mb() + max(children_peak_rss_mb(), workload.extra_rss_mb())
    finally:
        workload.close()
        shutil.rmtree(tmp, ignore_errors=True)

    correct = not oracle.mismatches and oracle.checked > 0
    oracle.report()
    # Times scaled to the nominal interpreter speed (see common.Pace).
    scale = workload.pace.scale()
    measured = {
        "setup_s": (median(setup) * setup_pace.scale(), "s"),
        "peak_rss_mb": (peak, "MB"),
        "p50_ms": (result["p50_ms"] * scale, "ms"),
        "tail_ms": (result["tail_ms"] * scale, "ms"),
        "ops_per_s": (result["ops_per_s"] / scale, "1/s"),
    }
    named = dict(workload.named(result))
    named.update(
        {
            "setup_s": (median(setup), "s"),
            "fail_ratio": (ratio(failed, attempted), "ratio"),
            "peak_rss_mb": (peak, "MB"),
            "kernel_ms": (median(workload.pace.samples), "ms"),
            "setup_kernel_ms": (median(setup_pace.samples), "ms"),
        }
    )
    print(f"{args.workload} seed={args.seed} trace={args.trace} samples={result['samples']}")
    for name, (value, unit) in sorted(named.items()):
        print(f"  {name} = {value:.6g} {unit}")
    if args.trace:
        layers["fail_ratio"] = ratio(failed, attempted)
        layers["calibration.kernel_ms"] = median(workload.pace.samples)
        layers.update(result["mix"])
        metrics = {
            m["name"]: {"value": float(layers.get(m["name"], 0.0)), "unit": m["unit"]}
            for m in spec["per_layer"]
        }
    else:
        metrics = {
            m["name"]: {"value": float(measured[m["name"]][0]), "unit": m["unit"]}
            for m in spec["end_to_end"]
        }
    record = provenance(args.seed, args.workload, workload.params)
    record.update(
        {
            "trace": args.trace,
            "seconds": args.seconds,
            "tiny": args.tiny,
            "attempted": attempted,
            "failed": failed,
            "correct": correct,
            "samples": result["samples"],
            "metrics": metrics,
            "named": {name: value for name, (value, _) in named.items()},
            "mix": result["mix"],
        }
    )
    append_history(record)
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0 if correct and failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="small pools and one set-up sample (self-test)"
    )
    args = parser.parse_args(argv)
    if not have_sources():
        print(f"error: no sources to benchmark under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    os.chdir(ROOT)  # relative paths (the serve socket) resolve from the root
    try:
        return run(args)
    except InvalidRun as exc:
        print(f"error: invalid run, nothing reported: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

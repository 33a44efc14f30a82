"""Harness self-test: every workload's shape at a tiny corpus size.

Checks that every workload and metric named in BENCHMARK.json is defined
here and emitted with its unit, that span counts match the pipeline's
structure, that span self times add up to each stage's wall time, that
the span patching reaches names bound in other modules, and that the
output check catches a tampered report.  Run with ``python3 perfbench/run.py --self-test``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from check import OutputCheck
from spans import Instrumented, Tracer
from timed import END_TO_END, run_timed
from traced import COUNTERS, PER_LAYER, run_traced
from workloads import PRIMARY_SEED, STAGES, WORKLOADS, make_inputs

N_MESSAGES = 120
ROOT = Path(__file__).resolve().parent.parent


def _declared(kind: str) -> dict[str, str]:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    key = "why" if kind == "workloads" else "unit"
    return {m["name"]: m[key] for m in bench[kind]}


def _patching_problems() -> list[str]:
    from topicaudit import cli, pipeline, scoring, uncertainty

    original = scoring.js_divergence
    problems = []
    with Instrumented(Tracer(), COUNTERS):
        if uncertainty.js_divergence is not scoring.js_divergence:
            problems.append("uncertainty.js_divergence was not rebound")
        if scoring.js_divergence is original:
            problems.append("scoring.js_divergence was not wrapped")
        if cli.COMMANDS["score"][0] is not pipeline.cmd_score:
            problems.append("cli.COMMANDS still holds the unwrapped stage")
    if scoring.js_divergence is not original or (
            uncertainty.js_divergence is not original):
        problems.append("patches were not undone")
    return problems


def _expected_counts(workload, n: int) -> dict[str, float]:
    kernel = n if workload.config.get("classifier") == "svm" else 0
    return {
        "attribution.write_supports.calls": 2,
        "attribution.read_supports.calls": 4,
        "attribution.read_supports.reads_per_file": 2,
        "uncertainty.all_representations.calls": n + 2,
        "uncertainty.topic_neighborhoods.calls": n + 2,
        "scoring.misclassification_score.calls": n,
        "features.fit_space.calls": 1,
        # prepare vectorizes every message, and fit_space the training
        # half (split_ratio 0.5) once more.
        "features.vectorize.calls": n + n // 2,
        "attribution.kernel_shap.calls": kernel,
    }


def self_test(workdir: Path) -> int:
    problems = []
    if END_TO_END != _declared("end_to_end"):
        problems.append("end-to-end metrics differ from BENCHMARK.json")
    if PER_LAYER != _declared("per_layer"):
        problems.append("per-layer metrics differ from BENCHMARK.json")
    for name, why in _declared("workloads").items():
        if name not in WORKLOADS or WORKLOADS[name].why != why:
            problems.append(f"workload {name} differs from BENCHMARK.json")
    problems += _patching_problems()

    for workload in WORKLOADS.values():
        inputs = make_inputs(workload, PRIMARY_SEED, workdir / workload.name,
                             n_messages=N_MESSAGES)
        tag = f"{workload.name} (n={N_MESSAGES})"

        timed = run_timed(inputs, ROOT / "src", ROOT, 0.0, OutputCheck(None))
        if timed["failed"] or timed["attempted"] != len(STAGES):
            problems.append(f"{tag}: timed pipeline failed")
        for name in END_TO_END:
            values = timed["samples"].get(name, [])
            if not values or min(values) <= 0:
                problems.append(f"{tag}: {name} missing or not positive")

        check = OutputCheck(None)
        traced = run_traced(inputs, 0.0, check)
        if traced["failed"]:
            problems.append(f"{tag}: traced run failed")
        problems += [f"{tag}: {e}" for e in traced["structure_errors"]]
        metrics = traced["metrics"]
        if set(metrics) != set(PER_LAYER):
            problems.append(f"{tag}: per-layer metric names differ")
        for name, want in _expected_counts(workload, N_MESSAGES).items():
            if metrics.get(name) != want:
                problems.append(f"{tag}: {name} = {metrics.get(name)}, "
                                f"expected {want}")
        for stage in STAGES:
            if not metrics.get(f"pipeline.{stage}.wall_s", 0) > 0:
                problems.append(f"{tag}: no span for stage {stage}")

        report = inputs.out_dir / "detector_report.json"
        obj = json.loads(report.read_text(encoding="utf-8"))
        obj["subsets"]["positive"]["n"] += 1
        report.write_text(json.dumps(obj), encoding="utf-8")
        if check.failed_stages(inputs.out_dir) != ["evaluate"]:
            problems.append(f"{tag}: output check missed a tampered report")
        print(f"self-test {tag}: {traced['n_spans']} spans", flush=True)

    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print("self-test passed" if not problems
          else f"self-test failed: {len(problems)} problem(s)")
    return 1 if problems else 0

"""Traced run: the eight stages in this process, with every public
function of the measured modules wrapped in a span (see ``spans``).

Untraced in-process pipelines run first; their median wall time is the
base for ``trace.overhead_s``.  One traced pipeline follows, and the
per-layer metrics come from its spans.
"""

from __future__ import annotations

import os
import shutil
import statistics
import sys
import time
import traceback
import warnings
from pathlib import Path

import numpy as np

from check import OutputCheck
from spans import Instrumented, Tracer
from workloads import STAGES, Inputs


def _bytes_of_path(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0] if args else kwargs["path"])}


def _active_cols(args, kwargs, result):
    from topicaudit import attribution
    x = np.asarray(args[1] if len(args) > 1 else kwargs["x"], dtype=float)
    background = args[2] if len(args) > 2 else kwargs["background"]
    return {"active_cols": int(np.count_nonzero(
        np.abs(x - background.mean) > attribution.ACTIVE_TOL))}


def _rows(args, kwargs, result):
    X = args[1] if len(args) > 1 else kwargs["X"]
    return {"rows": np.atleast_2d(X).shape[0]}


def _iters(args, kwargs, result):
    return {"iters": len(result[2])}


# Work counts recorded at span boundaries, keyed by span name.
COUNTERS = {
    "attribution.write_supports": _bytes_of_path,
    "attribution.read_supports": _bytes_of_path,
    "uncertainty.write_representations": _bytes_of_path,
    "attribution.kernel_shap": _active_cols,
    "classifiers.probability_function": _rows,
    "profiling.nmf": _iters,
}

UNITS = {"self_s": "s", "total_s": "s", "wall_s": "s", "bytes": "B",
         "calls": "count", "rows": "count", "iters": "count",
         "active_cols": "count", "warnings": "count"}

# span name -> statistics reported for it
REPORTED = {
    "attribution.write_supports": ("self_s", "calls", "bytes"),
    "attribution.read_supports": ("self_s", "calls", "bytes"),
    "features.write_vectors": ("self_s",),
    "features.read_vectors": ("self_s",),
    "features.stack": ("self_s",),
    "uncertainty.write_representations": ("self_s", "bytes"),
    "attribution.kernel_shap": ("self_s", "calls", "active_cols"),
    "classifiers.probability_function": ("self_s", "rows"),
    "uncertainty.all_representations": ("total_s", "calls"),
    "uncertainty.rel_u_vector": ("self_s",),
    "uncertainty.dissonance_vector": ("self_s",),
    "uncertainty.aleatory_vector": ("self_s",),
    "uncertainty.topic_neighborhoods": ("calls",),
    "scoring.js_divergence": ("self_s", "calls"),
    "scoring.misclassification_score": ("self_s", "calls"),
    "profiling.feature_stats": ("self_s",),
    "profiling.build_matrix": ("self_s",),
    "profiling.nmf": ("self_s", "iters"),
    "classifiers.train_logreg": ("self_s",),
    "classifiers.train_svm": ("self_s",),
    "classifiers.train_nb": ("self_s",),
    "classifiers.predict_all": ("self_s",),
    "corpus.load_dataset": ("self_s",),
    "corpus.preprocess": ("self_s",),
    "corpus.read_dataset": ("self_s",),
    "features.fit_space": ("self_s", "calls"),
    "features.vectorize": ("self_s", "calls"),
    "cli.main": ("self_s",),
    "config.load_config": ("self_s",),
    **{f"pipeline.{stage}": ("wall_s", "self_s", "warnings")
       for stage in STAGES},
}

PER_LAYER = {f"{span}.{stat}": UNITS[stat]
             for span, stats in REPORTED.items() for stat in stats}
PER_LAYER["attribution.read_supports.reads_per_file"] = "ratio"
PER_LAYER["trace.overhead_s"] = "s"


def run_pipeline(config: Path) -> tuple[list[int], list[int]]:
    """All stages through ``cli.main`` in this process, stopping at the
    first failure: (exit codes, warnings caught per stage)."""
    from topicaudit import cli

    codes, warned = [], []
    for stage in STAGES:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = cli.main([stage, "--config", str(config)])
            except Exception:
                traceback.print_exc()
                code = -1
        codes.append(code)
        warned.append(len(caught))
        if code != 0:
            print(f"stage {stage} exited {code}", file=sys.stderr)
            break
    return codes, warned


def _checked_pipeline(inputs: Inputs, check: OutputCheck):
    """(wall s, attempted, failed, warnings per stage) of one pipeline."""
    if inputs.out_dir.exists():
        shutil.rmtree(inputs.out_dir)
    start = time.perf_counter()
    codes, warned = run_pipeline(inputs.config)
    wall = time.perf_counter() - start
    failed = sum(code != 0 for code in codes)
    if not failed:
        bad = check.failed_stages(inputs.out_dir)
        for stage in bad:
            print(f"output check failed after {stage}", file=sys.stderr)
        failed += len(bad)
    return wall, len(codes), failed, warned


def structure_errors(tracer: Tracer) -> list[str]:
    """Each stage span's self time plus its descendants' self times must
    add up to the stage's wall time."""
    errors = []
    own = tracer.self_times()
    for i, (name, parent, start, end) in enumerate(tracer.spans):
        if name.startswith("pipeline."):
            total = tracer.subtree_self_sum(i, own)
            if abs(total - (end - start)) > 1e-6 * max(1.0, end - start):
                errors.append(f"{name}: self times sum to {total:.6f} s, "
                              f"wall is {end - start:.6f} s")
    return errors


def run_traced(inputs: Inputs, seconds: float, check: OutputCheck) -> dict:
    import topicaudit.cli  # noqa: F401  (imports every measured module)

    # The first pipeline warms lazy imports and allocator pools, so it
    # is checked but not timed; untraced pipelines then run while there
    # is room left for one more and the traced one.
    attempted = failed = 0
    untraced = []
    begin = time.perf_counter()
    while True:
        wall, tried, bad, _ = _checked_pipeline(inputs, check)
        if attempted:
            untraced.append(wall)
        attempted += tried
        failed += bad
        elapsed = time.perf_counter() - begin
        if untraced and elapsed + 2.5 * statistics.median(untraced) > seconds:
            break

    tracer = Tracer()
    with Instrumented(tracer, COUNTERS):
        traced_wall, tried, bad, warned = _checked_pipeline(inputs, check)
    attempted += tried
    failed += bad

    summary = tracer.summary()
    metrics = {}
    for span, stats in REPORTED.items():
        entry = summary.get(span, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for stat in stats:
            if stat == "wall_s":
                value = entry["total_s"]
            elif stat == "warnings":
                stage = span.split(".", 1)[1]
                k = STAGES.index(stage)
                value = warned[k] if k < len(warned) else 0
            elif stat in entry:
                value = entry[stat]
            else:
                value = tracer.counters.get(f"{span}.{stat}", 0)
            metrics[f"{span}.{stat}"] = value
    files = metrics["attribution.write_supports.calls"]
    metrics["attribution.read_supports.reads_per_file"] = (
        metrics["attribution.read_supports.calls"] / files if files else 0.0)
    metrics["trace.overhead_s"] = traced_wall - statistics.median(untraced)

    spans_path = inputs.config.parent / "spans.json"
    tracer.write(spans_path)
    return {"metrics": metrics, "summary": summary,
            "structure_errors": structure_errors(tracer),
            "untraced_s": untraced, "traced_s": traced_wall,
            "spans_file": str(spans_path), "n_spans": len(tracer.spans),
            "attempted": attempted, "failed": failed}

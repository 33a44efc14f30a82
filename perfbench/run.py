"""topicaudit benchmark: one workload through all eight pipeline stages.

Run from the repository root:

    python3 perfbench/run.py --workload nb-tall --seed 7 --seconds 60 --trace 0

``--trace 0`` times whole pipelines of ``topicaudit <stage> --config``
processes and reports the end-to-end metrics; ``--trace 1`` runs the
stages in this process with spans around every public function and
reports the per-layer metrics.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` (stage invocations)
and ``metrics``.  The full record, with every sample and the machine it
ran on, goes to ``.perfbench/results/``.

``--self-test`` checks the harness on tiny corpora, and
``--record-reference SEEDS`` records the reports the output check
compares against.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"


def _require_program() -> None:
    """Refuse to run without the program's source next to the benchmark,
    rather than measuring some other installed copy."""
    if not (SRC / "topicaudit" / "cli.py").is_file():
        print(f"error: no program source at {SRC / 'topicaudit'}; run from "
              "a checkout of the repository", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import topicaudit
    if Path(topicaudit.__file__).resolve().parent != SRC / "topicaudit":
        print(f"error: imported topicaudit from {topicaudit.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        raise SystemExit(2)


def environment(out_dir: Path) -> dict:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):  # numpy without show_config(mode=...)
        blas = "unknown"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        fs = subprocess.run(["stat", "-f", "-c", "%T", str(out_dir)],
                            capture_output=True, text=True,
                            timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        fs = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "loadavg_at_start": list(os.getloadavg()),
        "out_dir_fs": fs,
        "platform": platform.platform(),
    }


def highest_percentile(values: list[float]) -> tuple[int, float] | None:
    """The highest percentile with at least ten samples above it, by
    nearest rank; None when only the median (or less) is supported."""
    n = len(values)
    if n < 20:
        return None
    pct = math.floor(100 * (n - 10) / n)
    return pct, sorted(values)[math.ceil(pct / 100 * n) - 1]


def _print_metric(name: str, value: float, unit: str, samples=None) -> None:
    line = f"  {name:<48} {value:>14.6g} {unit}"
    if samples is not None:
        tail = highest_percentile(samples)
        line += f"   median of {len(samples)}"
        line += (f", p{tail[0]} {tail[1]:.6g}" if tail else
                 ", too few samples for a percentile above the median")
    print(line)


def timed_mode(args, workload, inputs, check) -> dict:
    from timed import END_TO_END, run_timed

    res = run_timed(inputs, SRC, ROOT, args.seconds, check)
    metrics = {}
    print(f"end-to-end, {workload.name} seed {args.seed}:")
    for name, unit in END_TO_END.items():
        samples = res["samples"][name]
        value = statistics.median(samples) if samples else 0.0
        metrics[name] = {"value": value, "unit": unit}
        _print_metric(name, value, unit, samples)
    rate = res["failed"] / res["attempted"]
    print(f"  {'fail_rate':<48} {rate:>14.6g} share   "
          f"({res['failed']} of {res['attempted']} stage invocations)")
    return {"metrics": metrics, "detail": res}


def traced_mode(args, workload, inputs, check) -> dict:
    from traced import PER_LAYER, run_traced

    res = run_traced(inputs, args.seconds, check)
    print(f"per-layer, {workload.name} seed {args.seed} "
          f"({res['n_spans']} spans):")
    metrics = {}
    for name, unit in PER_LAYER.items():
        metrics[name] = {"value": res["metrics"][name], "unit": unit}
        _print_metric(name, res["metrics"][name], unit)
    top = sorted(res["summary"].items(), key=lambda kv: -kv[1]["self_s"])
    print("top self time:")
    for span, entry in top[:10]:
        share = entry["self_s"] / res["traced_s"]
        print(f"  {span:<48} {entry['self_s']:>10.3f} s {share:>6.1%}"
              f"  ({entry['calls']} calls)")
    for err in res["structure_errors"]:
        print(f"span structure: {err}", file=sys.stderr)
    res["failed"] += len(res["structure_errors"])
    return {"metrics": metrics, "detail": res}


def measure(args) -> int:
    from check import OutputCheck, load_reference
    from workloads import WORKLOADS, make_inputs

    workload = WORKLOADS[args.workload]
    mode = "trace" if args.trace else "timed"
    workdir = WORK / "work" / f"{workload.name}-seed{args.seed}-{mode}"
    inputs = make_inputs(workload, args.seed, workdir)
    env = environment(inputs.out_dir)
    try:
        expected = load_reference(workload.name, args.seed,
                                  inputs.corpus_sha256, workload.n_messages)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    check = OutputCheck(expected)
    run = (traced_mode if args.trace else timed_mode)(
        args, workload, inputs, check)
    detail = run["detail"]
    for err in check.errors[:20]:
        print(f"mismatch: {err}", file=sys.stderr)

    result = {"correct": detail["failed"] == 0,
              "attempted": detail["attempted"], "failed": detail["failed"],
              "metrics": run["metrics"]}
    record = {**result, "workload": workload.name,
              "n_messages": workload.n_messages, "config": workload.config,
              "seed": args.seed, "seconds": args.seconds, "mode": mode,
              "corpus_sha256": inputs.corpus_sha256,
              "reference_checked": check.reference_used,
              "environment": env, "detail": detail,
              "finished_at": time.strftime("%Y-%m-%dT%H:%M:%S%z")}
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    out = results / f"BENCH_{workload.name}_seed{args.seed}_{mode}.json"
    out.write_text(json.dumps(record, indent=1, default=str) + "\n",
                   encoding="utf-8")
    print(f"environment: {json.dumps(env)}")
    print(f"corpus sha256 {inputs.corpus_sha256}; output check against "
          f"{'recorded reference' if check.reference_used else 'first pipeline of this run'}"
          f"; record in {out.relative_to(ROOT)}")
    if result["correct"]:
        shutil.rmtree(inputs.out_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def record_references(args) -> int:
    from check import read_reports, record_reference
    from traced import run_pipeline
    from workloads import STAGES, WORKLOADS, make_inputs

    workload = WORKLOADS[args.workload]
    for seed in _parse_seeds(args.record_reference):
        workdir = WORK / "work" / f"{workload.name}-seed{seed}-reference"
        inputs = make_inputs(workload, seed, workdir)
        codes, _ = run_pipeline(inputs.config)
        if any(codes) or len(codes) != len(STAGES):
            print(f"seed {seed}: pipeline failed, nothing recorded",
                  file=sys.stderr)
            return 1
        record_reference(workload.name, workload.n_messages, seed,
                         inputs.corpus_sha256, read_reports(inputs.out_dir))
        shutil.rmtree(workdir)
        print(f"recorded {workload.name} seed {seed}", flush=True)
    return 0


def _parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7,
                        help="corpus seed for topicaudit.demo.generate")
    parser.add_argument("--seconds", type=float, default=60.0,
                        help="length of the measured window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check the harness on tiny corpora")
    parser.add_argument("--record-reference", metavar="SEEDS",
                        help="record reference reports, e.g. 0-31,1009")
    args = parser.parse_args(argv)
    _require_program()
    if args.self_test:
        from selftest import self_test
        return self_test(WORK / "selftest")
    if args.workload is None:
        parser.error("--workload is required")
    if args.record_reference:
        return record_references(args)
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())

"""Timed run: whole pipelines of eight ``topicaudit <stage>`` processes.

Closed loop, one client: each stage process starts when the previous one
has exited, and a new pipeline starts only while it is expected to end
inside the measured window.  Wall time is taken around spawn and reap;
CPU time and peak RSS come from ``os.wait4`` for each stage process.
"""

from __future__ import annotations

import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from check import OutputCheck
from workloads import STAGES, Inputs

# Set-up probes: a few before the first pipeline and a few after each
# one, so that the median samples the whole window, not one moment of it.
SETUP_PROBES_FIRST = 3
SETUP_PROBES_EACH = 2

# name -> unit, in the order they are printed.
END_TO_END = {
    "pipeline_s": "s",
    "explain_s": "s",
    "profile_s": "s",
    "score_s": "s",
    "pipeline_cpu_s": "s",
    "peak_rss_mb": "MB",
    "artifact_mb": "MB",
    "setup_s": "s",
}


def spawn(argv: list[str], env: dict, cwd: Path, log: Path):
    """Run one process to completion: (exit code, wall s, cpu s, maxrss MB)."""
    with open(log, "wb") as sink:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=sink,
                                stderr=sink, env=env, cwd=cwd)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    return proc.returncode, wall, cpu, usage.ru_maxrss * 1024 / 1e6


def program_env(src: Path) -> dict:
    """The caller's environment with every PYTHON* variable replaced by a
    PYTHONPATH of this checkout's ``src``, so no other copy is measured."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(src)
    return env


def measure_setup(src: Path, cwd: Path, logs: Path, probes: int) -> list[float]:
    """Wall times of starting Python and importing ``topicaudit.cli``."""
    argv = [sys.executable, "-c", "import topicaudit.cli"]
    times = []
    for _ in range(probes):
        code, wall, _, _ = spawn(argv, program_env(src), cwd,
                                 logs / "setup.log")
        if code != 0:
            raise RuntimeError(f"importing topicaudit.cli exited {code}; "
                               f"see {logs / 'setup.log'}")
        times.append(wall)
    return times


def _tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def run_timed(inputs: Inputs, src: Path, cwd: Path, seconds: float,
              check: OutputCheck) -> dict:
    logs = inputs.config.parent / "logs"
    logs.mkdir(exist_ok=True)
    env = program_env(src)
    # The first probe fills the bytecode cache and is not counted.
    measure_setup(src, cwd, logs, 1)

    pipelines, attempted, failed = [], 0, 0
    begin = time.perf_counter()
    setup = measure_setup(src, cwd, logs, SETUP_PROBES_FIRST)
    while True:
        if inputs.out_dir.exists():
            shutil.rmtree(inputs.out_dir)
        stages = {}
        for stage in STAGES:
            argv = [sys.executable, "-m", "topicaudit.cli", stage,
                    "--config", str(inputs.config)]
            code, wall, cpu, rss = spawn(argv, env, cwd,
                                         logs / f"{stage}.log")
            attempted += 1
            stages[stage] = {"code": code, "wall_s": wall, "cpu_s": cpu,
                             "maxrss_mb": rss}
            if code != 0:
                failed += 1
                tail = (logs / f"{stage}.log").read_text(
                    encoding="utf-8", errors="replace")[-2000:]
                print(f"stage {stage} exited {code}:\n{tail}",
                      file=sys.stderr)
                break
        else:
            bad = check.failed_stages(inputs.out_dir)
            failed += len(bad)
            for stage in bad:
                print(f"output check failed after {stage}", file=sys.stderr)
        pipelines.append({
            "stages": stages,
            "pipeline_s": sum(s["wall_s"] for s in stages.values()),
            "pipeline_cpu_s": sum(s["cpu_s"] for s in stages.values()),
            "peak_rss_mb": max(s["maxrss_mb"] for s in stages.values()),
            "artifact_mb": (_tree_bytes(inputs.out_dir) / 1e6
                            if inputs.out_dir.exists() else 0.0),
        })
        setup += measure_setup(src, cwd, logs, SETUP_PROBES_EACH)
        elapsed = time.perf_counter() - begin
        typical = statistics.median(p["pipeline_s"] for p in pipelines)
        if elapsed + typical > seconds:
            break

    samples = {name: [p[name] for p in pipelines]
               for name in ("pipeline_s", "pipeline_cpu_s", "peak_rss_mb",
                            "artifact_mb")}
    for stage in ("explain", "profile", "score"):
        samples[f"{stage}_s"] = [p["stages"][stage]["wall_s"]
                                 for p in pipelines if stage in p["stages"]]
    samples["setup_s"] = setup
    return {"samples": samples, "pipelines": pipelines,
            "attempted": attempted, "failed": failed}

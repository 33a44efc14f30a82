"""Benchmark workloads: a demo corpus size plus config overrides each.

Every workload is ``topicaudit.demo.generate(n, seed)`` written as TSV,
with a config that sets only the fields named here; the program sees
nothing but that TSV and that config.  Sizes are well below the sizes
the workloads were first profiled at (1600 / 400 / 3200), so that many
whole pipelines fit in one measured window and their median is steady
on a noisy 2-core machine.  ``logreg-demo`` runs by hand only: it is not
listed in BENCHMARK.json (see README.md).
"""

from __future__ import annotations

import hashlib
import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path

STAGES = ("prepare", "train", "explain", "profile", "score", "evaluate",
          "repair", "report")

# The corpus seed every claim is first made on, and the one held out for
# confirming a claim afterwards.
PRIMARY_SEED = 7
HELD_OUT_SEED = 1009


@dataclass(frozen=True)
class Workload:
    name: str
    n_messages: int
    config: dict = field(default_factory=dict)
    why: str = ""


WORKLOADS = {w.name: w for w in (
    Workload(
        "logreg-demo", 400, {},
        why="default config; dense linear SHAP makes the supports CSV "
            "layer dominate"),
    Workload(
        "svm-kernel", 200,
        {"classifier": "svm", "background_size": 10, "n_coalitions": 512},
        why="only path through kernel_shap and Platt SVM training; sparse "
            "supports bypass the artifact layer"),
    Workload(
        "nb-tall", 400,
        {"classifier": "nb", "nb_linear_attribution": True,
         "word_quota": 300, "phrase_quota": 500},
        why="NB train and transform; dense linear supports plus per-message "
            "representation maths that grows with the message count"),
)}


@dataclass(frozen=True)
class Inputs:
    corpus: Path
    config: Path
    out_dir: Path
    corpus_sha256: str


def make_inputs(workload: Workload, seed: int, workdir: Path,
                n_messages: int | None = None) -> Inputs:
    """Write the workload's corpus and config under a fresh workdir."""
    from topicaudit import demo

    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    n = workload.n_messages if n_messages is None else n_messages
    corpus = workdir / "corpus.tsv"
    demo.write_tsv(str(corpus), demo.generate(n_messages=n, seed=seed))
    out_dir = workdir / "out"
    config = workdir / "config.json"
    config.write_text(json.dumps(
        {"dataset_path": str(corpus), "out_dir": str(out_dir),
         **workload.config}, sort_keys=True) + "\n", encoding="utf-8")
    sha = hashlib.sha256(corpus.read_bytes()).hexdigest()
    return Inputs(corpus, config, out_dir, sha)

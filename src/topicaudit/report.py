"""Human-readable markdown report over the pipeline's score artifacts.

Three tables: per-group divergence of each representation, detector
quality (AUROC / FRR at the fixed TRR), and the repair layer's recovery
versus leakage accounting.
"""

from __future__ import annotations

import numpy as np

from .atomic import atomic_open
from .config import PipelineConfig
from .pipeline import (BASE_METHODS, REPRESENTATIONS, SUBSETS, XMAP_COLUMNS,
                       _load, _load_rows, _path, _stage)
from .scoring import LN2

# (column header, predicted label, gold label)
GROUP_COLUMNS = (
    ("TP vs TP profile", 1, 1),
    ("FP vs TP profile", 1, 0),
    ("TN vs TN profile", 0, 0),
    ("FN vs TN profile", 0, 1),
)


def _fmt(value, digits: int = 4) -> str:
    if value is None:
        return "NA"
    if isinstance(value, str):
        return value
    return f"{value:.{digits}f}"


def _mean_std(values) -> str:
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return "NA"
    return f"{arr.mean():.4f} +/- {arr.std():.4f}"


def _divergence_table(scores: dict[str, np.ndarray], gold: np.ndarray,
                      test: np.ndarray) -> list[str]:
    lines = ["| Representation | " + " | ".join(h for h, _, _ in GROUP_COLUMNS)
             + " |",
             "|---" * (1 + len(GROUP_COLUMNS)) + "|"]
    omitted = []
    for rep, col in zip(REPRESENTATIONS, XMAP_COLUMNS):
        cells = []
        for _, predicted, label in GROUP_COLUMNS:
            group = (test & (scores["predicted"] == predicted)
                     & (gold == label) & ~np.isnan(scores[col]))
            cells.append(_mean_std(scores[col][group]))
        if all(c == "NA" for c in cells):
            omitted.append(rep)
            continue
        lines.append(f"| {rep} | " + " | ".join(cells) + " |")
    if omitted:
        lines.append("")
        lines.append("Omitted (no scores in any group): "
                     + ", ".join(omitted) + ".")
    return lines


def _detector_table(report: dict) -> list[str]:
    subsets = report["subsets"]
    names = [name for name, _ in SUBSETS]
    header = "| Detector |"
    rule = "|---|"
    for name in names:
        header += f" {name} AUROC | {name} FRR@{report['trr_fix']:.0%} TRR |"
        rule += "---|---|"
    lines = [header, rule]
    for det in list(BASE_METHODS) + list(XMAP_COLUMNS):
        cells = []
        for name in names:
            entry = subsets[name]["detectors"][det]
            cells.append(_fmt(entry["auroc"]))
            cells.append(_fmt(entry["frr_at_trr"]))
        lines.append(f"| {det} | " + " | ".join(cells) + " |")
    return lines


def _repair_table(report: dict) -> list[str]:
    lines = ["| Representation | RecovR | LeakR | #Recovery | #Leakage "
             "| #Correct Fix |",
             "|---|---|---|---|---|---|"]
    for rep in REPRESENTATIONS:
        entry = report["representations"][rep]
        lines.append(
            f"| {rep} | {_fmt(entry['recov_r'])} | {_fmt(entry['leak_r'])} "
            f"| {entry['n_recovery']} | {entry['n_leakage']} "
            f"| {entry['n_correct_fix']} |")
    lines.append("")
    lines.append("#Correct Fix = #Recovery - #Leakage; every rejected "
                 "message is either re-accepted or stays rejected.")
    open_gates = []
    for subset, key in (("positive", "tau_plus"), ("negative", "tau_minus")):
        reps = [rep for rep in REPRESENTATIONS
                if report["representations"][rep][key] >= LN2]
        if reps:
            open_gates.append(f"{subset} ({', '.join(reps)})")
    if open_gates:
        lines.append("")
        lines.append("Open repair gate (tau at the ln 2 bound, the default "
                     "when training has no misclassifications of that "
                     "polarity; every rejection of it is re-accepted): "
                     + "; ".join(open_gates) + ".")
    return lines


def _repair_section(report: dict) -> tuple[str, list[str]]:
    """The base detector and the repair layer's lines."""
    subsets = report["subsets"]
    return report["base_detector"], [
        f"Base rejections: {subsets['positive']['n_rejected']} positive / "
        f"{subsets['negative']['n_rejected']} negative.",
        "", *_repair_table(report)]


@_stage("report")
def cmd_report(cfg: PipelineConfig) -> None:
    scores, gold, train = _load_rows(cfg, "scores.npz")
    # Each report goes through its table, so a missing key at any depth
    # names the file and its producer.
    detector = _load(cfg, "detector_report.json", build=_detector_table)
    base_detector, repair = _load(cfg, "repair_report.json",
                                  build=_repair_section)

    test = ~train
    n_test = int(test.sum())
    n_mis = int((test & (scores["predicted"] != gold)).sum())
    lines = [
        "# Misclassification profile report",
        "",
        f"Config digest: `{cfg.digest()}`",
        "",
        f"Test messages: {n_test} ({n_mis} misclassified). Base "
        f"detector for rejection: {base_detector}; repair gate "
        f"calibrated per polarity on the training split.",
        "",
        "## Divergence from the reliable-group profiles",
        "",
        "Mean +/- std of the Jensen-Shannon divergence between each test "
        "message and the profile of the group its prediction claims.",
        "",
        *_divergence_table(scores, gold, test),
        "",
        "## Detector quality",
        "",
        *detector,
        "",
        "## Repair layer",
        "",
        *repair,
        "",
    ]
    with atomic_open(_path(cfg, "report.md")) as fh:
        fh.write("\n".join(lines))

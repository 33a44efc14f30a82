"""Human-readable markdown report over the pipeline's score artifacts.

Three tables: per-group divergence of each representation, detector
quality (AUROC / FRR at the fixed TRR), and the repair layer's recovery
versus leakage accounting.
"""

from __future__ import annotations

import json

import numpy as np

from .config import PipelineConfig
from .pipeline import (BASE_METHODS, REPRESENTATIONS, SUBSETS, XMAP_COLUMNS,
                       StageError, _read_scores, _require, _stage, paths_for)

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


def _divergence_table(scores: dict[str, np.ndarray]) -> list[str]:
    test = scores["split"] == "test"
    lines = ["| Representation | " + " | ".join(h for h, _, _ in GROUP_COLUMNS)
             + " |",
             "|---" * (1 + len(GROUP_COLUMNS)) + "|"]
    omitted = []
    for rep, col in zip(REPRESENTATIONS, XMAP_COLUMNS):
        cells = []
        for _, predicted, gold in GROUP_COLUMNS:
            group = (test & (scores["predicted"] == predicted)
                     & (scores["gold"] == gold) & ~np.isnan(scores[col]))
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
    return lines


@_stage("report")
def cmd_report(cfg: PipelineConfig) -> None:
    p = paths_for(cfg)
    scores = _read_scores(cfg, "report")
    _require(p.detector_report, "report", "evaluate")
    _require(p.repair_report, "report", "repair")
    with open(p.detector_report, encoding="utf-8") as fh:
        detector = json.load(fh)
    with open(p.repair_report, encoding="utf-8") as fh:
        repair = json.load(fh)
    for name, report in (("detector_report.json", detector),
                         ("repair_report.json", repair)):
        if report.get("config_digest") != cfg.digest():
            raise StageError("report", f"{name} carries a different config "
                                       "digest; rerun upstream stages")

    test = scores["split"] == "test"
    n_test = int(test.sum())
    n_mis = int((test & ~scores["correct"]).sum())
    lines = [
        "# Misclassification profile report",
        "",
        f"Config digest: `{cfg.digest()}`",
        "",
        f"Test messages: {n_test} ({n_mis} misclassified). Base "
        f"detector for rejection: {repair['base_detector']}; repair gate "
        f"calibrated per polarity on the training split.",
        "",
        "## Divergence from the reliable-group profiles",
        "",
        "Mean +/- std of the Jensen-Shannon divergence between each test "
        "message and the profile of the group its prediction claims.",
        "",
        *_divergence_table(scores),
        "",
        "## Detector quality",
        "",
        *_detector_table(detector),
        "",
        "## Repair layer",
        "",
        f"Base rejections: "
        f"{repair['subsets']['positive']['n_rejected']} positive / "
        f"{repair['subsets']['negative']['n_rejected']} negative.",
        "",
        *_repair_table(repair),
        "",
    ]
    with open(p.report, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))

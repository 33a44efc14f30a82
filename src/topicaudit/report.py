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
                       _load, _load_scores, _path, _stage)
from .scoring import LN2

# (column header, predicted label, gold label)
GROUP_COLUMNS = (
    ("TP vs TP profile", 1, 1),
    ("FP vs TP profile", 1, 0),
    ("TN vs TN profile", 0, 0),
    ("FN vs TN profile", 0, 1),
)


def _fmt(value, digits: int = 4) -> str:
    """A metric to ``digits`` places, or NA for None; ValueError for a
    string or a bool, which no report holds as a metric."""
    if isinstance(value, bool):
        raise ValueError(f"{value!r} is not a metric")
    return "NA" if value is None else f"{value:.{digits}f}"


def _count(value) -> str:
    """A count's digits; ValueError unless it is an int (not a bool)."""
    if type(value) is not int:
        raise ValueError(f"{value!r} is not a count")
    return str(value)


def _mean_std(values) -> str:
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return "NA"
    return f"{arr.mean():.4f} +/- {arr.std():.4f}"


def _table(header, rows) -> list[str]:
    """A markdown table's lines: the header, its rule, a line per row."""
    lines = ["| " + " | ".join(map(str, cells)) + " |"
             for cells in (header, *rows)]
    lines.insert(1, "|---" * len(header) + "|")
    return lines


def _divergence_table(scores: dict[str, np.ndarray], gold: np.ndarray,
                      test: np.ndarray) -> list[str]:
    rows, omitted = [], []
    for rep, col in zip(REPRESENTATIONS, XMAP_COLUMNS):
        cells = []
        for _, predicted, label in GROUP_COLUMNS:
            group = (test & (scores["predicted"] == predicted)
                     & (gold == label) & ~np.isnan(scores[col]))
            cells.append(_mean_std(scores[col][group]))
        if all(c == "NA" for c in cells):
            omitted.append(rep)
            continue
        rows.append([rep, *cells])
    lines = _table(["Representation", *(h for h, _, _ in GROUP_COLUMNS)],
                   rows)
    if omitted:
        lines.append("")
        lines.append("Omitted (no scores in any group): "
                     + ", ".join(omitted) + ".")
    return lines


def _detector_table(report: dict) -> list[str]:
    subsets = report["subsets"]
    names = [name for name, _ in SUBSETS]
    header = ["Detector", *(cell for name in names for cell in (
        f"{name} AUROC", f"{name} FRR@{report['trr_fix']:.0%} TRR"))]
    return _table(header, [
        [det, *(_fmt(subsets[name]["detectors"][det][key]) for name in names
                for key in ("auroc", "frr_at_trr"))]
        for det in (*BASE_METHODS, *XMAP_COLUMNS)])


def _repair_table(report: dict) -> list[str]:
    entries = report["representations"]
    lines = _table(
        ["Representation", "RecovR", "LeakR", "#Recovery", "#Leakage",
         "#Correct Fix"],
        [[rep, _fmt(entries[rep]["recov_r"]), _fmt(entries[rep]["leak_r"]),
          *(_count(entries[rep][key])
            for key in ("n_recovery", "n_leakage", "n_correct_fix"))]
         for rep in REPRESENTATIONS])
    lines.append("")
    lines.append("#Correct Fix = #Recovery - #Leakage; every rejected "
                 "message is either re-accepted or stays rejected.")
    open_gates = []
    for subset, key in (("positive", "tau_plus"), ("negative", "tau_minus")):
        reps = [rep for rep in REPRESENTATIONS if entries[rep][key] >= LN2]
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
        f"Base rejections: {_count(subsets['positive']['n_rejected'])} "
        f"positive / {_count(subsets['negative']['n_rejected'])} negative.",
        "", *_repair_table(report)]


@_stage("report")
def cmd_report(cfg: PipelineConfig) -> None:
    scores, gold, train = _load_scores(cfg)
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

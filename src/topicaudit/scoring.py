"""Misclassification scoring, detector metrics, and the repair layer.

The misclassification score is the Jensen-Shannon divergence between a
message's topic representation and the reliable-group profile matching
its predicted label.  Detectors are evaluated by AUROC and by the false
rejection rate at a fixed true rejection rate; the repair layer
re-accepts base-detector rejections whose divergence stays under a
per-polarity threshold, with recovery and leakage accounting.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

LN2 = math.log(2.0)


def js_divergence(p: np.ndarray, q: np.ndarray) -> float | np.ndarray:
    """Jensen-Shannon divergence, natural log, bounded by ln 2.

    The distributions lie along the last axis and the leading axes
    broadcast, so two vectors give a float and stacks of them give an
    array of divergences.  Zero entries follow the 0*ln(0/x) = 0
    convention.  Each term's ratio to the mixture (p+q)/2 is taken as
    2a/(p+q): the same number, with a denominator that stays positive
    wherever a > 0 even when halving would underflow to zero.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape[-1:] != q.shape[-1:]:
        raise ValueError(f"shape mismatch: {p.shape} vs {q.shape}")
    if np.any(p < 0) or np.any(q < 0):
        raise ValueError("distributions must be nonnegative")
    total = p + q

    def kl(a: np.ndarray) -> np.ndarray:
        pos = a > 0
        return np.where(pos, a * np.log(np.where(pos, 2.0 * a, 1.0)
                                        / np.where(pos, total, 1.0)),
                        0.0).sum(axis=-1)

    out = 0.5 * kl(p) + 0.5 * kl(q)
    return float(out) if out.ndim == 0 else out


def misclassification_score(vectors: np.ndarray, profiles: np.ndarray,
                            predicted: np.ndarray) -> np.ndarray:
    """Per-representation JS distance to the predicted label's group.

    vectors (n, R, M) holds each message's representations, profiles
    (2, R, M) the TN profile at index 0 and the TP profile at index 1, so
    positive predictions compare against TP and negative against TN.  A
    NaN (NA) vector or profile yields NaN, excluding the message from
    that representation's metrics.  Returns (n, R).
    """
    refs = profiles[np.asarray(predicted, dtype=int)]
    valid = ~(np.isnan(vectors).any(axis=-1) | np.isnan(refs).any(axis=-1))
    scores = np.full(valid.shape, np.nan)
    scores[valid] = js_divergence(vectors[valid], refs[valid])
    return scores


def auroc(scores: np.ndarray, is_misclassified: np.ndarray) -> float | None:
    """Mann-Whitney AUROC with midrank tie handling.

    Probability that a random misclassified sample scores above a random
    correct one; None when either class is absent.
    """
    scores = np.asarray(scores, dtype=float)
    flags = np.asarray(is_misclassified, dtype=bool)
    n_pos = int(flags.sum())
    n_neg = len(flags) - n_pos
    if n_pos == 0 or n_neg == 0:
        return None
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty(len(scores))
    sorted_scores = scores[order]
    i = 0
    while i < len(scores):
        j = i
        while j + 1 < len(scores) and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    u = ranks[flags].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def trr_cutoff(scores: np.ndarray, flags: np.ndarray,
               trr_target: float) -> float:
    """Largest cutoff (reject iff score >= cutoff) with TRR >= target.

    That is the k-th largest misclassified score, k = ceil(target * n).
    With no misclassified samples the requirement is vacuous and the
    cutoff is +inf (reject nothing).
    """
    if not 0.0 < trr_target <= 1.0:
        raise ValueError(f"trr target must be in (0,1], got {trr_target}")
    scores = np.asarray(scores, dtype=float)
    flags = np.asarray(flags, dtype=bool)
    mis = np.sort(scores[flags])[::-1]
    if mis.size == 0:
        return math.inf
    k = math.ceil(trr_target * mis.size)
    return float(mis[k - 1])


def frr_at_trr(scores: np.ndarray, flags: np.ndarray,
               trr_target: float = 0.95) -> float | None:
    """Share of correct samples rejected at the TRR-target cutoff."""
    scores = np.asarray(scores, dtype=float)
    flags = np.asarray(flags, dtype=bool)
    n_correct = int((~flags).sum())
    if flags.sum() == 0 or n_correct == 0:
        return None
    cutoff = trr_cutoff(scores, flags, trr_target)
    return float((scores[~flags] >= cutoff).sum() / n_correct)


@dataclass(frozen=True)
class Rejection:
    """One detector's rejection decision over a message subset."""

    threshold: float
    rejected_ids: tuple[int, ...]
    true_rejections: tuple[int, ...]
    false_rejections: tuple[int, ...]


def reject_set(scores: np.ndarray, flags: np.ndarray, ids: list[int],
               trr_fix: float = 0.95) -> Rejection:
    """Apply the TRR-fix cutoff and partition the rejected messages."""
    scores = np.asarray(scores, dtype=float)
    flags = np.asarray(flags, dtype=bool)
    cutoff = trr_cutoff(scores, flags, trr_fix)
    rejected = [i for i in range(len(ids)) if scores[i] >= cutoff]
    return Rejection(
        threshold=cutoff,
        rejected_ids=tuple(ids[i] for i in rejected),
        true_rejections=tuple(ids[i] for i in rejected if flags[i]),
        false_rejections=tuple(ids[i] for i in rejected if not flags[i]),
    )


@dataclass(frozen=True)
class RepairReport:
    base_detector: str
    representation: str
    recov_r: float | None
    leak_r: float | None
    n_recovery: int
    n_leakage: int
    n_false_rejections: int
    n_true_rejections: int
    re_accepted_ids: tuple[int, ...]

    @property
    def n_correct_fix(self) -> int:
        return self.n_recovery - self.n_leakage


def repair(rejections: list[Rejection], xmap_scores: dict[int, float | None],
           tau_of_polarity: dict[str, float], polarity_of: dict[int, str],
           base_detector: str = "", representation: str = "") -> RepairReport:
    """Re-accept rejected messages whose divergence clears the gate.

    A message returns iff its score is <= tau for its predicted polarity;
    NA scores never repair (conservative).  RecovR is the share of false
    rejections recovered, LeakR the share of true rejections mistakenly
    re-accepted; either is None when its denominator is empty.
    """
    false_rej: list[int] = []
    true_rej: list[int] = []
    for rej in rejections:
        false_rej.extend(rej.false_rejections)
        true_rej.extend(rej.true_rejections)

    def comes_back(msg_id: int) -> bool:
        score = xmap_scores.get(msg_id)
        if score is None:
            return False
        return score <= tau_of_polarity[polarity_of[msg_id]]

    recovered = sorted(i for i in false_rej if comes_back(i))
    leaked = sorted(i for i in true_rej if comes_back(i))
    return RepairReport(
        base_detector=base_detector,
        representation=representation,
        recov_r=len(recovered) / len(false_rej) if false_rej else None,
        leak_r=len(leaked) / len(true_rej) if true_rej else None,
        n_recovery=len(recovered),
        n_leakage=len(leaked),
        n_false_rejections=len(false_rej),
        n_true_rejections=len(true_rej),
        re_accepted_ids=tuple(sorted(recovered + leaked)),
    )


def calibrate_tau(train_xmap: np.ndarray, train_flags: np.ndarray,
                  trr_fix: float = 0.95) -> float:
    """Repair gate: the divergence cutoff where the score itself reaches
    the fixed TRR on training predictions.  With no training
    misclassifications the gate opens fully at the ln 2 bound."""
    train_flags = np.asarray(train_flags, dtype=bool)
    if train_flags.sum() == 0:
        warnings.warn("no training misclassifications; repair gate "
                      "defaults to ln 2", UserWarning, stacklevel=2)
        return LN2
    return trr_cutoff(np.asarray(train_xmap, dtype=float), train_flags,
                      trr_fix)

"""Misclassification scoring, detector metrics, and the repair layer.

The misclassification score is the Jensen-Shannon divergence between a
message's topic representation and the reliable-group profile matching
its predicted label; js_divergence broadcasts, so the rows predicted
one label score against that label's profile in one call.  Detectors
are evaluated by AUROC and by the false rejection rate at a fixed true
rejection rate (TRR).

Both rejection and repair are boolean masks over the score rows.  A
detector rejects the rows scoring at or above its TRR cutoff; the repair
layer re-accepts a rejected row iff its divergence is <= the threshold
of its predicted polarity, which splits the re-accepted rows into
recoveries (false rejections) and leakages (true rejections).
"""

from __future__ import annotations

import math
import warnings

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
    # A tie group over sorted positions start..start+count-1 (0-based)
    # takes the midrank start + (count+1)/2, a half-integer, so exact.
    _, inverse, counts = np.unique(scores, return_inverse=True,
                                   return_counts=True)
    starts = np.cumsum(counts) - counts
    ranks = (starts + 0.5 * (counts + 1))[inverse]
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


def rejected_at_trr(scores: np.ndarray, flags: np.ndarray,
                    trr_fix: float = 0.95) -> tuple[float, np.ndarray]:
    """(cutoff, mask) of the rows rejected at the TRR-fix cutoff: reject
    iff score >= cutoff, so a NaN score is never rejected."""
    scores = np.asarray(scores, dtype=float)
    cutoff = trr_cutoff(scores, flags, trr_fix)
    return cutoff, scores >= cutoff


def repair(rejected: np.ndarray, misclassified: np.ndarray,
           xmap: np.ndarray, predicted: np.ndarray, tau_plus: float,
           tau_minus: float) -> tuple[np.ndarray, np.ndarray, dict]:
    """Re-accept the rejected rows whose divergence is <= the tau of
    their predicted polarity (tau_plus for label 1, tau_minus for 0); a
    NaN (NA) score compares False and never repairs.

    Returns the (recovered, leaked) masks, which split the re-accepted
    rows into false rejections and true ones, and the accounting:
    RecovR, the share of false rejections recovered, and LeakR, the
    share of true rejections re-accepted (None for an empty pool), with
    #Correct Fix = #Recovery - #Leakage.
    """
    rejected = np.asarray(rejected, dtype=bool)
    misclassified = np.asarray(misclassified, dtype=bool)
    tau = np.where(np.asarray(predicted) == 1, tau_plus, tau_minus)
    back = rejected & (np.asarray(xmap, dtype=float) <= tau)
    recovered, leaked = back & ~misclassified, back & misclassified
    false_rej, true_rej = rejected & ~misclassified, rejected & misclassified
    n_recovery, n_leakage = int(recovered.sum()), int(leaked.sum())
    return recovered, leaked, {
        "tau_plus": tau_plus,
        "tau_minus": tau_minus,
        "recov_r": share(recovered, false_rej),
        "leak_r": share(leaked, true_rej),
        "n_recovery": n_recovery,
        "n_leakage": n_leakage,
        "n_correct_fix": n_recovery - n_leakage,
        "n_false_rejections": int(false_rej.sum()),
        "n_true_rejections": int(true_rej.sum()),
    }


def share(hits: np.ndarray, pool: np.ndarray) -> float | None:
    """Share of the pool rows that are hits; None for an empty pool."""
    n = int(np.sum(pool))
    return int(np.sum(hits & pool)) / n if n else None


def frr_at_trr(rejected: np.ndarray, flags: np.ndarray) -> float | None:
    """Share of correct samples rejected, given the rejected mask at the
    TRR-target cutoff (rejected_at_trr); None unless both classes are
    present."""
    flags = np.asarray(flags, dtype=bool)
    if flags.all() or not flags.any():
        return None
    return share(rejected, ~flags)


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

"""Topic-level uncertainty representations and output-probability scores.

Each representation maps a message's topic-contribution vector (or its
normalized distribution) to a simplex vector that highlights a different
failure signature: raw topic mix, missing evidence, conflicting
evidence, entropy among related topics, and topic-wise analogues of
output-probability detectors.  A parallel set of scalar scores applies
the same detector families directly to a classifier's output
probability.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .scoring import js_divergence

CLIP = 1e-12

REPRESENTATIONS = ("original", "vacuity", "dissonance", "aleatory",
                   "doctor_alpha", "doctor_beta", "odin", "rel_u")

OUTPUT_UQ_METHODS = ("entropy", "doctor_alpha", "doctor_beta", "odin",
                     "rel_u", "vacuity", "dissonance")


@dataclass(frozen=True)
class Representation:
    """One topic representation; degenerate marks an all-zero fallback."""

    name: str
    vector: np.ndarray | None
    degenerate: bool = False

    def __post_init__(self):
        if self.vector is not None:
            if np.any(self.vector < 0) or not np.all(np.isfinite(self.vector)):
                raise ValueError(f"{self.name}: invalid representation vector")
            if abs(self.vector.sum() - 1.0) > 1e-9:
                raise ValueError(f"{self.name}: not on the simplex")


def _normalized(name: str, raw: np.ndarray) -> Representation:
    total = raw.sum()
    if total <= 0.0:
        m = raw.size
        return Representation(name, np.full(m, 1.0 / m), degenerate=True)
    return Representation(name, raw / total)


def evidence_scale(tcs: list[np.ndarray]) -> float:
    """Median total contribution of the calibration group; the unit that
    turns topic contributions into dimensionless evidence."""
    totals = [float(tc.sum()) for tc in tcs]
    s = float(np.median(totals)) if totals else 0.0
    if s <= 0.0:
        warnings.warn("evidence scale is not positive; falling back to 1.0",
                      UserWarning, stacklevel=2)
        return 1.0
    return s


def original(tc: np.ndarray) -> Representation:
    """The topic mix itself, L1-normalized."""
    return _normalized("original", np.asarray(tc, dtype=float))


def vacuity_vector(tc: np.ndarray, s: float) -> Representation:
    """Per-topic lack of evidence: weak topics get the large entries."""
    if s <= 0:
        raise ValueError(f"evidence scale must be positive, got {s}")
    r = np.asarray(tc, dtype=float) / s
    return _normalized("vacuity", 1.0 / (1.0 + r))


def _balance(x: np.ndarray, y: float) -> np.ndarray:
    total = x + y
    return np.where(total > 0.0, 1.0 - np.abs(x - y) / np.where(total > 0, total, 1.0), 0.0)


def dissonance_vector(tc: np.ndarray, s: float) -> Representation:
    """Conflict among comparably supported topics.

    Beliefs are evidence shares; each topic's dissonance weighs the other
    beliefs by how balanced they are against it, so a single dominant
    topic carries none.
    """
    if s <= 0:
        raise ValueError(f"evidence scale must be positive, got {s}")
    tc = np.asarray(tc, dtype=float)
    m = tc.size
    r = tc / s
    b = r / (m + r.sum())
    d = np.zeros(m)
    for i in range(m):
        others = np.delete(b, i)
        denom = others.sum()
        if denom > 0.0:
            d[i] = b[i] * float((others * _balance(others, b[i])).sum()) / denom
    return _normalized("dissonance", d)


def topic_neighborhoods(H: np.ndarray, k: int) -> np.ndarray:
    """k most cosine-similar topics to each topic (by H rows), excluding
    itself; ties resolve to the lower topic index."""
    m = H.shape[0]
    if k >= m:
        raise ValueError(f"k={k} must be below the topic count {m}")
    norms = np.linalg.norm(H, axis=1)
    safe = np.where(norms > 0, norms, 1.0)
    unit = H / safe[:, None]
    sim = unit @ unit.T
    hoods = np.empty((m, k), dtype=int)
    for i in range(m):
        order = np.lexsort((np.arange(m), -sim[i]))
        hoods[i] = [j for j in order if j != i][:k]
    return hoods


def aleatory_vector(p: np.ndarray, H: np.ndarray, k: int) -> Representation:
    """Entropy of the topic distribution restricted to each topic's
    neighborhood of related topics."""
    p = np.asarray(p, dtype=float)
    hoods = topic_neighborhoods(H, k)
    m = p.size
    a = np.zeros(m)
    for i in range(m):
        members = np.concatenate(([i], hoods[i]))
        mass = p[members].sum()
        if mass <= 0.0:
            continue
        q = p[members] / mass
        pos = q[q > 0]
        a[i] = float(-(pos * np.log(pos)).sum())
    return _normalized("aleatory", a)


def doctor_alpha_vector(p: np.ndarray) -> Representation:
    """Topic-wise (1-g)/g on the binary split (p_m, 1-p_m)."""
    p = np.asarray(p, dtype=float)
    g = p ** 2 + (1.0 - p) ** 2
    return _normalized("doctor_alpha", (1.0 - g) / g)


def doctor_beta_vector(p: np.ndarray) -> Representation:
    """Topic-wise min/max odds of the binary split."""
    p = np.asarray(p, dtype=float)
    hi = np.maximum(p, 1.0 - p)
    lo = np.minimum(p, 1.0 - p)
    return _normalized("doctor_beta", np.where(hi > 0, lo / np.where(hi > 0, hi, 1.0), 0.0))


def odin_vector(p: np.ndarray, temperature: float) -> Representation:
    """Temperature-scaled topic distribution, scored by binary margin."""
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    p = np.clip(np.asarray(p, dtype=float), CLIP, None)
    logits = np.log(p) / temperature
    logits -= logits.max()
    q = np.exp(logits)
    q /= q.sum()
    o = 1.0 - np.maximum(q, 1.0 - q)
    return _normalized("odin", o)


def rel_u_vector(p: np.ndarray, references: list[np.ndarray],
                 k_nn: int) -> Representation:
    """Per-topic disagreement with the nearest reliable references.

    Neighbors are the k_nn references closest in JS divergence; the
    per-topic value is the mean absolute probability gap.  No references
    means no representation (NA).
    """
    if not references:
        return Representation("rel_u", None)
    p = np.asarray(p, dtype=float)
    k = min(k_nn, len(references))
    dists = _js_to_many(p, np.stack(references))
    order = np.lexsort((np.arange(len(references)), dists))[:k]
    gaps = np.stack([np.abs(p - references[i]) for i in order])
    return _normalized("rel_u", gaps.mean(axis=0))


def _js_to_many(p: np.ndarray, refs: np.ndarray) -> np.ndarray:
    """JS divergence from p to every row of refs, broadcast in one shot.

    Same zero convention as scoring.js_divergence; the mixture vanishes
    only where both sides do, and those terms contribute nothing.
    """
    m = 0.5 * (p[None, :] + refs)
    safe = np.where(m > 0, m, 1.0)
    lift_p = np.where(p > 0, p, 1.0)[None, :]
    lift_q = np.where(refs > 0, refs, 1.0)
    kl_p = np.where(p[None, :] > 0, p[None, :] * np.log(lift_p / safe),
                    0.0).sum(axis=1)
    kl_q = np.where(refs > 0, refs * np.log(lift_q / safe), 0.0).sum(axis=1)
    return 0.5 * (kl_p + kl_q)


def all_representations(tc: np.ndarray, s: float, H: np.ndarray, k: int,
                        temperature: float, references: list[np.ndarray],
                        k_nn: int) -> dict[str, Representation]:
    """Every representation of one message's topic contributions."""
    ori = original(tc)
    p = ori.vector
    return {
        "original": ori,
        "vacuity": vacuity_vector(tc, s),
        "dissonance": dissonance_vector(tc, s),
        "aleatory": aleatory_vector(p, H, k),
        "doctor_alpha": doctor_alpha_vector(p),
        "doctor_beta": doctor_beta_vector(p),
        "odin": odin_vector(p, temperature),
        "rel_u": rel_u_vector(p, references, k_nn),
    }


def output_uq_score(p_pos: float, method: str,
                    temperature: float = 2.0) -> float:
    """Scalar uncertainty of one output probability; higher = more
    uncertain.  All methods except vacuity are monotone in the distance
    from 0.5; probability-only evidence makes vacuity constant."""
    if not 0.0 <= p_pos <= 1.0:
        raise ValueError(f"p_pos outside [0,1]: {p_pos}")
    p = float(p_pos)
    lo = min(p, 1.0 - p)
    if method == "entropy":
        out = 0.0
        for term in (p, 1.0 - p):
            if term > 0.0:
                out -= term * math.log(term)
        return out
    if method == "doctor_alpha":
        g = p ** 2 + (1.0 - p) ** 2
        return (1.0 - g) / g
    if method == "doctor_beta":
        return lo / max(p, 1.0 - p)
    if method == "odin":
        a = math.log(max(p, CLIP)) / temperature
        b = math.log(max(1.0 - p, CLIP)) / temperature
        hi = max(a, b)
        q = math.exp(a - hi) / (math.exp(a - hi) + math.exp(b - hi))
        return min(q, 1.0 - q)
    if method == "rel_u":
        return 1.0 - abs(2.0 * p - 1.0)
    if method == "vacuity":
        # Evidence (2p, 2(1-p)) with prior weight 2 always sums to 2, so
        # vacuity is constant: probabilities alone carry no evidence mass.
        return 0.5
    if method == "dissonance":
        return 0.5 * (1.0 - abs(2.0 * p - 1.0))
    raise ValueError(f"unknown uncertainty method {method!r}")

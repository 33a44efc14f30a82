"""Topic-level uncertainty representations and output-probability scores.

Each representation maps topic-contribution vectors (or their normalized
distributions) to simplex vectors that highlight a different failure
signature: raw topic mix, missing evidence, conflicting evidence,
entropy among related topics, and topic-wise analogues of
output-probability detectors.  Every function works on arrays whose last
axis holds the M topics, so a whole message set is one call; each
representation returns its vectors and a degenerate flag per vector
(an all-zero raw vector replaced by the uniform one).  A parallel set of
scores applies the same detector families directly to a classifier's
output probabilities.
"""

from __future__ import annotations

import warnings

import numpy as np

from .scoring import js_divergence

CLIP = 1e-12

# Messages per block of the (messages x references) JS matrix behind
# rel_u; bounds the memory it takes independently of the message count.
ROW_BLOCK = 64

REPRESENTATIONS = ("original", "vacuity", "dissonance", "aleatory",
                   "doctor_alpha", "doctor_beta", "odin", "rel_u")

OUTPUT_UQ_METHODS = ("entropy", "doctor_alpha", "doctor_beta", "odin",
                     "rel_u", "vacuity", "dissonance")


def _normalized(raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(raw L1-normalized along the last axis, degenerate flags); a
    vector without mass becomes uniform and is flagged."""
    total = raw.sum(axis=-1, keepdims=True)
    massless = total <= 0.0
    vectors = np.where(massless, 1.0 / raw.shape[-1],
                       raw / np.where(massless, 1.0, total))
    return vectors, massless[..., 0]


def _plogp(x: np.ndarray) -> np.ndarray:
    """x * ln(x) with 0 * ln(0) = 0."""
    pos = x > 0.0
    return np.where(pos, x * np.log(np.where(pos, x, 1.0)), 0.0)


def _check_scale(s: float) -> None:
    if s <= 0:
        raise ValueError(f"evidence scale must be positive, got {s}")


def evidence_scale(tcs: np.ndarray) -> float:
    """Median total contribution of the calibration group (rows of tcs);
    the unit that turns topic contributions into dimensionless evidence."""
    totals = np.asarray(tcs, dtype=float).sum(axis=-1)
    s = float(np.median(totals)) if totals.size else 0.0
    if s <= 0.0:
        warnings.warn("evidence scale is not positive; falling back to 1.0",
                      UserWarning, stacklevel=2)
        return 1.0
    return s


def original(tc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The topic mix itself, L1-normalized."""
    return _normalized(np.asarray(tc, dtype=float))


def vacuity_vector(tc: np.ndarray, s: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-topic lack of evidence: weak topics get the large entries."""
    _check_scale(s)
    r = np.asarray(tc, dtype=float) / s
    return _normalized(1.0 / (1.0 + r))


def dissonance_vector(tc: np.ndarray, s: float) -> tuple[np.ndarray, np.ndarray]:
    """Conflict among comparably supported topics.

    Beliefs are evidence shares; each topic's dissonance weighs the other
    beliefs by how balanced they are against it, so a single dominant
    topic carries none.
    """
    _check_scale(s)
    tc = np.asarray(tc, dtype=float)
    m = tc.shape[-1]
    r = tc / s
    b = r / (m + r.sum(axis=-1, keepdims=True))
    # others[i] lists every topic but i, in index order.
    others = np.arange(m - 1)[None, :]
    others = others + (others >= np.arange(m)[:, None])
    b_other = np.take(b, others, axis=-1)
    b_self = b[..., :, None]
    total = b_other + b_self
    balance = np.where(total > 0.0, 1.0 - np.abs(b_other - b_self)
                       / np.where(total > 0.0, total, 1.0), 0.0)
    denom = b_other.sum(axis=-1)
    d = np.where(denom > 0.0, b * (b_other * balance).sum(axis=-1)
                 / np.where(denom > 0.0, denom, 1.0), 0.0)
    return _normalized(d)


def topic_neighborhoods(H: np.ndarray, k: int) -> np.ndarray:
    """k most cosine-similar topics to each topic (by H rows), excluding
    itself; ties resolve to the lower topic index."""
    m = H.shape[0]
    if k >= m:
        raise ValueError(f"k={k} must be below the topic count {m}")
    norms = np.linalg.norm(H, axis=1)
    safe = np.where(norms > 0, norms, 1.0)
    unit = H / safe[:, None]
    order = np.argsort(-(unit @ unit.T), axis=1, kind="stable")
    return order[order != np.arange(m)[:, None]].reshape(m, m - 1)[:, :k]


def aleatory_vector(p: np.ndarray, H: np.ndarray,
                    k: int) -> tuple[np.ndarray, np.ndarray]:
    """Entropy of the topic distribution restricted to each topic's
    neighborhood of related topics."""
    p = np.asarray(p, dtype=float)
    hoods = topic_neighborhoods(H, k)
    members = np.concatenate([np.arange(p.shape[-1])[:, None], hoods], axis=1)
    p_hood = np.take(p, members, axis=-1)
    mass = p_hood.sum(axis=-1, keepdims=True)
    q = p_hood / np.where(mass > 0.0, mass, 1.0)
    a = np.where(mass[..., 0] > 0.0, (-_plogp(q)).sum(axis=-1), 0.0)
    return _normalized(a)


def doctor_alpha_vector(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Topic-wise (1-g)/g on the binary split (p_m, 1-p_m)."""
    p = np.asarray(p, dtype=float)
    g = p ** 2 + (1.0 - p) ** 2
    return _normalized((1.0 - g) / g)


def doctor_beta_vector(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Topic-wise min/max odds of the binary split."""
    p = np.asarray(p, dtype=float)
    hi = np.maximum(p, 1.0 - p)
    lo = np.minimum(p, 1.0 - p)
    return _normalized(np.where(hi > 0, lo / np.where(hi > 0, hi, 1.0), 0.0))


def odin_vector(p: np.ndarray,
                temperature: float) -> tuple[np.ndarray, np.ndarray]:
    """Temperature-scaled topic distribution, scored by binary margin."""
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    p = np.clip(np.asarray(p, dtype=float), CLIP, None)
    logits = np.log(p) / temperature
    logits -= logits.max(axis=-1, keepdims=True)
    q = np.exp(logits)
    q /= q.sum(axis=-1, keepdims=True)
    return _normalized(1.0 - np.maximum(q, 1.0 - q))


def rel_u_vector(p: np.ndarray, references: np.ndarray,
                 k_nn: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-topic disagreement with the nearest reliable references.

    Neighbors are the k_nn references (rows) closest in JS divergence,
    ties to the lower row; the per-topic value is the mean absolute
    probability gap.  No references means no representation: NaN
    vectors (NA), not flagged degenerate.
    """
    p = np.asarray(p, dtype=float)
    if len(references) == 0:
        return np.full(p.shape, np.nan), np.zeros(p.shape[:-1], dtype=bool)
    refs = np.asarray(references, dtype=float)
    k = min(k_nn, len(refs))
    rows = p.reshape(-1, p.shape[-1])
    gaps = np.empty(rows.shape)
    for start in range(0, len(rows), ROW_BLOCK):
        block = rows[start:start + ROW_BLOCK, None, :]
        dists = js_divergence(block, refs[None, :, :])
        nearest = np.argsort(dists, axis=1, kind="stable")[:, :k]
        gaps[start:start + ROW_BLOCK] = np.abs(block - refs[nearest]).mean(
            axis=1)
    return _normalized(gaps.reshape(p.shape))


def _check_simplex(vectors: np.ndarray) -> None:
    """Every vector that is not NA (all NaN) must be finite, nonnegative
    and on the simplex."""
    na = np.isnan(vectors).all(axis=-1)
    bad = ~na & (~np.isfinite(vectors).all(axis=-1)
                 | (vectors < 0).any(axis=-1)
                 | (np.abs(vectors.sum(axis=-1) - 1.0) > 1e-9))
    if bad.any():
        name = REPRESENTATIONS[np.argwhere(bad)[0][-1]]
        raise ValueError(f"{name}: invalid representation vector")


def representations(tc: np.ndarray, s: float, H: np.ndarray, k: int,
                    temperature: float, references: np.ndarray,
                    k_nn: int) -> tuple[np.ndarray, np.ndarray]:
    """Every representation of each row of topic contributions tc (n, M):
    the (n, 8, M) vectors in REPRESENTATIONS order, NaN where one is NA,
    and the (n, 8) degenerate flags.  ``references`` are the reliable
    group's distributions rel_u compares against, one per row."""
    p, p_degenerate = original(tc)
    parts = [(p, p_degenerate), vacuity_vector(tc, s),
             dissonance_vector(tc, s), aleatory_vector(p, H, k),
             doctor_alpha_vector(p), doctor_beta_vector(p),
             odin_vector(p, temperature), rel_u_vector(p, references, k_nn)]
    vectors = np.stack([vec for vec, _ in parts], axis=-2)
    _check_simplex(vectors)
    return vectors, np.stack([flag for _, flag in parts], axis=-1)


def output_uq_score(p_pos: np.ndarray, method: str,
                    temperature: float = 2.0) -> np.ndarray:
    """Uncertainty of each output probability; higher = more uncertain.
    All methods except vacuity are monotone in the distance from 0.5;
    probability-only evidence makes vacuity constant."""
    p = np.asarray(p_pos, dtype=float)
    if not np.all((p >= 0.0) & (p <= 1.0)):
        raise ValueError(f"p_pos outside [0,1]: {p_pos}")
    lo = np.minimum(p, 1.0 - p)
    if method == "entropy":
        out = -(_plogp(p) + _plogp(1.0 - p))
    elif method == "doctor_alpha":
        g = p ** 2 + (1.0 - p) ** 2
        out = (1.0 - g) / g
    elif method == "doctor_beta":
        out = lo / np.maximum(p, 1.0 - p)
    elif method == "odin":
        a = np.log(np.maximum(p, CLIP)) / temperature
        b = np.log(np.maximum(1.0 - p, CLIP)) / temperature
        hi = np.maximum(a, b)
        q = np.exp(a - hi) / (np.exp(a - hi) + np.exp(b - hi))
        out = np.minimum(q, 1.0 - q)
    elif method == "rel_u":
        out = 1.0 - np.abs(2.0 * p - 1.0)
    elif method == "vacuity":
        # Evidence (2p, 2(1-p)) with prior weight 2 always sums to 2, so
        # vacuity is constant: probabilities alone carry no evidence mass.
        out = np.full(p.shape, 0.5)
    elif method == "dissonance":
        out = 0.5 * (1.0 - np.abs(2.0 * p - 1.0))
    else:
        raise ValueError(f"unknown uncertainty method {method!r}")
    return out[()]

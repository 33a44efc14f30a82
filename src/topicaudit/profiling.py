"""Feature ranking, support matrices, NMF topics and topic contributions.

Each polarity gets its own track: polarity supports are ranked by how
often and how strongly features contribute, the top columns are selected
under per-family quotas, the resulting nonnegative matrix is factorized
with multiplicative-update NMF, and each selected column is assigned to
one topic, so a message's supports sum into per-topic contributions.
Every function takes and returns plain arrays: a polarity's topics are
its selected columns and H, which pipeline stores; the assignment is
derived from H (assign_topics) wherever contributions are summed, so no
stored assignment can disagree with its H.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

EPS = 1e-12


class NMFError(RuntimeError):
    """The multiplicative updates broke their monotonicity guarantee."""


def feature_stats(supports: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(presence, cond_mean) of each column of one polarity's supports:
    presence_j = share of messages (rows) with nonzero support;
    cond_mean_j = mean support over exactly those messages (0 when never
    active)."""
    n, n_columns = supports.shape
    if n < 1:
        raise ValueError("feature_stats needs at least one message")
    active = np.count_nonzero(supports, axis=0)
    total = supports.sum(axis=0)
    cond_mean = np.divide(total, active, out=np.zeros(n_columns),
                          where=active > 0)
    return active / n, cond_mean


def rank_score(presence: np.ndarray, cond_mean: np.ndarray,
               tau_p: float) -> np.ndarray:
    """r_j = cond_mean_j * sqrt(max(presence_j, tau_p)).

    The floor keeps rare-but-strong features from being wiped out, while
    never-active columns stay at exactly 0 through the zero cond_mean.
    """
    if not 0.0 < tau_p <= 1.0:
        raise ValueError(f"presence floor must be in (0,1], got {tau_p}")
    return cond_mean * np.sqrt(np.maximum(presence, tau_p))


def select_top(r: np.ndarray, families: np.ndarray, quotas: dict[str, float],
               k: int) -> np.ndarray:
    """Quota-balanced top columns, ascending index order.

    Family f gets floor(quota_f * k) slots; leftover slots from rounding
    go to the word family.  Ties in r break toward the lower column index,
    and zero-r columns are never selected; an unfillable quota shrinks
    with a warning.
    """
    if not math.isclose(sum(quotas.values()), 1.0, abs_tol=1e-9):
        raise ValueError("family quotas must sum to 1")
    slots = {fam: int(math.floor(share * k)) for fam, share in quotas.items()}
    slots["word"] = slots.get("word", 0) + (k - sum(slots.values()))
    chosen: list[int] = []
    for fam in sorted(slots):
        cols = np.flatnonzero((families == fam) & (r > 0.0))
        order = cols[np.lexsort((cols, -r[cols]))]
        if len(order) < slots[fam]:
            warnings.warn(
                f"{fam} family has {len(order)} rankable columns for quota "
                f"{slots[fam]}; shrinking", UserWarning, stacklevel=2)
        chosen.extend(order[:slots[fam]].tolist())
    return np.array(sorted(chosen), dtype=int)


def nmf(X: np.ndarray, n_topics: int, max_iters: int = 500,
        tol: float = 1e-5, seed: int = 0) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """Multiplicative-update NMF minimizing the Frobenius objective.

    Lee & Seung (2001) updates.  The objective comes from the products
    the updates already make, without forming X - WH:

        ||X - WH||^2 = ||X||^2 - 2 <W'X, H> + <W'W, HH'>

    W'X and W'W also feed the next H update, and HH' the W update.  The
    identity cancels when the objective is small against ||X||^2: it
    carries rounding noise of order 1e-15 ||X||^2, so near an exact fit
    it can read slightly above the previous value, or below zero, where
    it is floored at 0.

    Stops when the relative objective decrease drops below tol or, with
    a warning naming the last decrease, at the iteration cap.  The
    objective trace is returned and verified nonincreasing; the
    multiplicative updates guarantee that, so a rise beyond float noise
    is a bug.
    """
    X = np.asarray(X, dtype=float)
    if np.any(X < 0):
        raise ValueError("NMF input must be nonnegative")
    n, d = X.shape
    if n_topics > min(n, d):
        raise ValueError(f"{n_topics} topics exceed matrix rank bound "
                         f"min({n}, {d})")
    rng = np.random.default_rng(seed)
    scale = np.sqrt(X.mean() / n_topics)
    W = (1.0 - rng.random((n, n_topics))) * scale
    H = (1.0 - rng.random((n_topics, d))) * scale
    # Each inner product is a pairwise sum of the elementwise product,
    # which rounds less than a BLAS dot.
    norm_x = float(np.sum(X * X))

    def objective() -> float:
        return max(0.0, float(norm_x - 2.0 * np.sum(WtX * H)
                              + np.sum(WtW * HHt)))

    WtX, WtW, HHt = W.T @ X, W.T @ W, H @ H.T
    trace = [objective()]
    for _ in range(max_iters):
        H *= WtX / (WtW @ H + EPS)
        HHt = H @ H.T
        W *= (X @ H.T) / (W @ HHt + EPS)
        WtX, WtW = W.T @ X, W.T @ W
        obj = objective()
        prev = trace[-1]
        if obj > prev + 1e-9 * max(1.0, prev):
            raise NMFError("NMF objective increased; update bug")
        trace.append(obj)
        decrease = (prev - obj) / max(prev, EPS)
        if prev == 0.0 or decrease < tol:
            break
    else:
        if max_iters > 0:
            warnings.warn(f"NMF stopped at the {max_iters}-iteration cap "
                          f"with relative decrease {decrease:.3g} still "
                          f"above tol {tol:g}", UserWarning, stacklevel=2)
    return W, H, trace


def assign_topics(H: np.ndarray) -> np.ndarray:
    """Hard assignment: column -> argmax topic, ties to the lowest index."""
    assignment = np.argmax(H, axis=0)
    dead = np.flatnonzero(~H.any(axis=0))
    if dead.size:
        warnings.warn(f"{dead.size} selected column(s) have all-zero topic "
                      "loadings; assigned to topic 0", UserWarning,
                      stacklevel=2)
    return assignment


def topic_contributions(rows: np.ndarray, assignment: np.ndarray,
                        n_topics: int) -> np.ndarray:
    """tc[..., m] = sum of each row's support over columns assigned to
    topic m; one row (C,) gives (M,), a matrix (n, C) gives (n, M)."""
    rows = np.asarray(rows, dtype=float)
    if rows.shape[-1:] != assignment.shape:
        raise ValueError("row and assignment must align")
    tc = np.zeros(rows.shape[:-1] + (n_topics,))
    # Column by column in index order, so every row sums as it would alone.
    np.add.at(tc.T, assignment, rows.T)
    return tc


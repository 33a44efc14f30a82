"""Feature ranking, support matrices, NMF topics, and group profiles.

Each polarity gets its own track: polarity supports are ranked by how
often and how strongly features contribute, the top columns are selected
under per-family quotas, the resulting nonnegative matrix is factorized
with multiplicative-update NMF, and reliably classified messages are
averaged into simplex profiles that later serve as reference
distributions.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

EPS = 1e-12


class NMFError(RuntimeError):
    """The multiplicative updates broke their monotonicity guarantee."""


@dataclass(frozen=True)
class FeatureStats:
    """Per-column activity summary of one polarity's supports."""

    presence: np.ndarray
    cond_mean: np.ndarray


@dataclass
class TopicModel:
    polarity: str
    columns: np.ndarray
    H: np.ndarray
    assignment: np.ndarray
    objective: float
    seed: int = 0
    config_digest: str = ""

    @property
    def n_topics(self) -> int:
        return self.H.shape[0]


def feature_stats(supports: np.ndarray) -> FeatureStats:
    """presence_j = share of messages (rows) with nonzero support;
    cond_mean_j = mean support over exactly those messages (0 when never
    active)."""
    n, n_columns = supports.shape
    if n < 1:
        raise ValueError("feature_stats needs at least one message")
    active = np.count_nonzero(supports, axis=0)
    total = supports.sum(axis=0)
    presence = active / n
    cond_mean = np.divide(total, active, out=np.zeros(n_columns),
                          where=active > 0)
    return FeatureStats(presence=presence, cond_mean=cond_mean)


def rank_score(stats: FeatureStats, tau_p: float) -> np.ndarray:
    """r_j = cond_mean_j * sqrt(max(presence_j, tau_p)).

    The floor keeps rare-but-strong features from being wiped out, while
    never-active columns stay at exactly 0 through the zero cond_mean.
    """
    if not 0.0 < tau_p <= 1.0:
        raise ValueError(f"presence floor must be in (0,1], got {tau_p}")
    return stats.cond_mean * np.sqrt(np.maximum(stats.presence, tau_p))


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


def build_matrix(supports: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """Dense message-by-selected-column slice of the supports.

    Row-major, because NMF's matrix products round differently on the
    column-major array that fancy indexing returns."""
    return np.ascontiguousarray(supports[:, columns])


def nmf(X: np.ndarray, n_topics: int, max_iters: int = 500,
        tol: float = 1e-5, seed: int = 0) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """Multiplicative-update NMF minimizing the Frobenius objective.

    Stops when the relative objective decrease drops below tol or at the
    iteration cap.  The objective trace is returned and verified
    nonincreasing; the multiplicative updates guarantee that, so a rise
    beyond float noise is a bug.
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

    def objective() -> float:
        return float(np.linalg.norm(X - W @ H, "fro") ** 2)

    trace = [objective()]
    for _ in range(max_iters):
        H *= (W.T @ X) / (W.T @ W @ H + EPS)
        W *= (X @ H.T) / (W @ (H @ H.T) + EPS)
        obj = objective()
        prev = trace[-1]
        if obj > prev + 1e-9 * max(1.0, prev):
            raise NMFError("NMF objective increased; update bug")
        trace.append(obj)
        if prev == 0.0 or (prev - obj) / max(prev, EPS) < tol:
            break
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


def write_topics(path: str | Path, model: TopicModel) -> None:
    obj = {
        "config_digest": model.config_digest,
        "polarity": model.polarity,
        "columns": model.columns.tolist(),
        "H": [row.tolist() for row in model.H],
        "assignment": model.assignment.tolist(),
        "n_topics": model.n_topics,
        "seed": model.seed,
        "objective": model.objective,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True)
        fh.write("\n")


def read_topics(path: str | Path) -> TopicModel:
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    return TopicModel(
        polarity=obj["polarity"],
        columns=np.array(obj["columns"], dtype=int),
        H=np.array(obj["H"]),
        assignment=np.array(obj["assignment"], dtype=int),
        objective=obj["objective"],
        seed=obj["seed"],
        config_digest=obj["config_digest"],
    )


def write_profiles(path: str | Path,
                   profiles: dict[str, dict[str, list[float] | None]],
                   polarity_of: dict[str, str],
                   config_digest: str = "") -> None:
    """profiles: group -> representation -> M-vector or None (NA)."""
    obj = {"config_digest": config_digest, "groups": {}}
    for group in sorted(profiles):
        obj["groups"][group] = {
            "polarity": polarity_of[group],
            "representations": {
                name: (list(vec) if vec is not None else None)
                for name, vec in sorted(profiles[group].items())
            },
        }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True)
        fh.write("\n")


def read_profiles(path: str | Path) -> tuple[dict, str]:
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    groups = {}
    for group, entry in obj["groups"].items():
        groups[group] = {
            "polarity": entry["polarity"],
            "representations": {
                name: (np.array(vec) if vec is not None else None)
                for name, vec in entry["representations"].items()
            },
        }
    return groups, obj.get("config_digest", "")

"""Per-message SHAP attributions and their polarity supports.

Linear models get exact attributions in closed form.  Nonlinear
probability outputs (calibrated SVM, NB) go through a kernel explainer:
coalition values are Shapley-kernel weighted and regressed with the
local-accuracy constraint eliminated into the system, so base plus
attributions always reproduces the explained output.  Attributions are
restricted to the active set, the columns where the message actually
deviates from the background mean; pinned columns provably carry zero
attribution under the independence assumption.
"""

from __future__ import annotations

import hashlib
import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .classifiers import LinearModel, NBModel, nb_log_odds

ACTIVE_TOL = 1e-12
ENUMERATION_LIMIT = 12
RIDGE = 1e-8


@dataclass(frozen=True)
class ShapVector:
    """Additive attribution: base_value + sum(phi) = explained output."""

    id: int
    phi: dict[int, float]
    base_value: float

    def total(self) -> float:
        return self.base_value + sum(self.phi.values())


@dataclass(frozen=True)
class Background:
    """Training rows the explainer perturbs against."""

    rows: np.ndarray
    ids: tuple[int, ...]

    @property
    def mean(self) -> np.ndarray:
        return self.rows.mean(axis=0)

    def digest(self) -> str:
        h = hashlib.sha256()
        h.update(json.dumps(list(self.ids)).encode())
        h.update(self.rows.tobytes())
        return h.hexdigest()


def make_background(X_train: np.ndarray, y_train: np.ndarray,
                    ids: list[int], size: int = 50, seed: int = 0) -> Background:
    """Stratified sample of training rows, class counts by largest remainder."""
    y_train = np.asarray(y_train)
    n = len(y_train)
    if size >= n:
        order = np.argsort(ids)
        return Background(rows=X_train[order].copy(),
                          ids=tuple(int(ids[i]) for i in order))
    labels = sorted(set(y_train.tolist()))
    exact = {lab: size * int((y_train == lab).sum()) / n for lab in labels}
    take = {lab: int(math.floor(exact[lab])) for lab in labels}
    for lab in sorted(labels, key=lambda l: (-(exact[l] - take[l]), l)):
        if sum(take.values()) == size:
            break
        take[lab] += 1
    rng = np.random.default_rng(seed)
    chosen: list[int] = []
    for lab in labels:
        pool = sorted(np.flatnonzero(y_train == lab), key=lambda i: ids[i])
        picked = rng.permutation(len(pool))[:take[lab]]
        chosen.extend(pool[i] for i in picked)
    chosen.sort(key=lambda i: ids[i])
    return Background(rows=X_train[chosen].copy(),
                      ids=tuple(int(ids[i]) for i in chosen))


def linear_shap(model: LinearModel | NBModel, X: np.ndarray,
                mu: np.ndarray) -> tuple[np.ndarray, float]:
    """Exact attributions for a model linear in its explained output.

    Returns (phi, base value): phi = w * (x - mu) for one vector x or for
    each row of a matrix X, and base = w.mu + b, so base + sum(phi) is the
    explained output.  For NB that output is the log-odds, linear in the
    model's transformed feature space; X and mu are mapped through the
    scaler before the closed form applies.
    """
    X = np.asarray(X, dtype=float)
    mu = np.asarray(mu, dtype=float)
    if isinstance(model, NBModel):
        w, b = nb_log_odds(model)
    else:
        w, b = model.weights, model.bias
    if X.shape[-1:] != w.shape or mu.shape != w.shape:
        raise ValueError(f"expected vectors of length {w.size}, got "
                         f"{X.shape} and {mu.shape}")
    if isinstance(model, NBModel):
        X, mu = model.transform(X), model.transform(mu)
    return w * (X - mu), float(w @ mu + b)


def _shapley_kernel_weights(m: int, sizes: np.ndarray) -> np.ndarray:
    out = np.empty(len(sizes))
    for i, s in enumerate(sizes):
        out[i] = (m - 1) / (math.comb(m, int(s)) * s * (m - s))
    return out


def _enumerate_coalitions(m: int) -> tuple[np.ndarray, np.ndarray]:
    """All proper nonempty subsets of m features with exact kernel weights."""
    count = 2 ** m - 2
    masks = np.zeros((count, m), dtype=bool)
    for row, code in enumerate(range(1, 2 ** m - 1)):
        for j in range(m):
            masks[row, j] = bool(code >> j & 1)
    sizes = masks.sum(axis=1)
    return masks, _shapley_kernel_weights(m, sizes)


def _sample_coalitions(m: int, n_coalitions: int,
                       rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Kernel-distributed paired sampling; equal weights by importance."""
    sizes = np.arange(1, m)
    size_p = 1.0 / (sizes * (m - sizes))
    size_p /= size_p.sum()
    masks = np.zeros((n_coalitions, m), dtype=bool)
    row = 0
    while row < n_coalitions:
        s = int(rng.choice(sizes, p=size_p))
        members = rng.choice(m, size=s, replace=False)
        masks[row, members] = True
        row += 1
        if row < n_coalitions:
            masks[row] = ~masks[row - 1]
            row += 1
    return masks, np.ones(len(masks))


def _coalition_values(predict_fn, x: np.ndarray, background: np.ndarray,
                      active: np.ndarray, masks: np.ndarray,
                      batch: int = 64) -> np.ndarray:
    """v(S) = mean over background rows of f with S pinned to x.

    Inactive columns always keep x's values, so v(full set) is exactly
    f(x) and pinned columns cannot influence the regression.
    """
    n_bg = background.shape[0]
    base_rows = np.repeat(x[None, :], n_bg, axis=0)
    base_rows[:, active] = background[:, active]
    values = np.empty(len(masks))
    for start in range(0, len(masks), batch):
        chunk = masks[start:start + batch]
        synth = np.repeat(base_rows[None, :, :], len(chunk), axis=0)
        for i, mask in enumerate(chunk):
            cols = active[mask]
            synth[i, :, cols] = x[cols, None]
        flat = synth.reshape(-1, x.size)
        values[start:start + batch] = np.asarray(
            predict_fn(flat)).reshape(len(chunk), n_bg).mean(axis=1)
    return values


def kernel_shap(predict_fn, x: np.ndarray, background: Background,
                n_coalitions: int | None = None, seed: int = 0,
                msg_id: int = -1) -> ShapVector:
    """Constrained weighted least squares over feature coalitions.

    Full enumeration when the active set has at most 12 columns, paired
    kernel-distributed sampling above that (default 2*|active| + 2048
    coalitions).  The sum constraint is eliminated exactly, so local
    accuracy holds regardless of sampling noise.  Deterministic for a
    fixed (seed, msg_id) pair.
    """
    x = np.asarray(x, dtype=float)
    mu = background.mean
    active = np.flatnonzero(np.abs(x - mu) > ACTIVE_TOL)
    m = len(active)
    base_value = float(np.asarray(predict_fn(
        _pinned_rows(x, background.rows, active))).mean())
    if m == 0:
        warnings.warn(f"message {msg_id}: no deviation from background; "
                      "all attributions zero", UserWarning, stacklevel=2)
        return ShapVector(id=msg_id, phi={}, base_value=base_value)
    full_value = float(np.asarray(predict_fn(x[None, :]))[0])
    delta = full_value - base_value
    if m == 1:
        return ShapVector(id=msg_id, phi={int(active[0]): delta},
                          base_value=base_value)

    if m <= ENUMERATION_LIMIT:
        masks, weights = _enumerate_coalitions(m)
    else:
        rng = np.random.default_rng(np.random.SeedSequence([seed, msg_id + 1]))
        if n_coalitions is None:
            n_coalitions = 2 * m + 2048
        masks, weights = _sample_coalitions(m, n_coalitions, rng)

    values = _coalition_values(predict_fn, x, background.rows, active, masks)
    z = masks.astype(float)
    # Eliminate the constraint sum(phi) = delta: solve for the first m-1
    # coordinates against columns z_j - z_last, recover the last by identity.
    target = values - base_value - z[:, -1] * delta
    design = z[:, :-1] - z[:, -1:]
    sw = np.sqrt(weights)
    a = design * sw[:, None]
    b = target * sw
    phi_head, _, rank, _ = np.linalg.lstsq(a, b, rcond=None)
    if rank < m - 1:
        warnings.warn(f"message {msg_id}: singular attribution system; "
                      f"ridge-stabilizing with {RIDGE}", UserWarning,
                      stacklevel=2)
        gram = a.T @ a + RIDGE * np.eye(m - 1)
        phi_head = np.linalg.solve(gram, a.T @ b)
    phi_vals = np.append(phi_head, delta - phi_head.sum())
    phi = {int(col): float(val) for col, val in zip(active, phi_vals)
           if val != 0.0}
    return ShapVector(id=msg_id, phi=phi, base_value=base_value)


def _pinned_rows(x: np.ndarray, background: np.ndarray,
                 active: np.ndarray) -> np.ndarray:
    rows = np.repeat(x[None, :], background.shape[0], axis=0)
    rows[:, active] = background[:, active]
    return rows


def polarity_supports(phi: np.ndarray, polarity: str) -> np.ndarray:
    """One polarity of the sign split of attributions: S_plus = max(phi, 0),
    S_minus = max(-phi, 0), so S_plus - S_minus = phi with disjoint
    supports."""
    if polarity == "plus":
        return np.maximum(phi, 0.0)
    if polarity == "minus":
        return np.maximum(-phi, 0.0)
    raise ValueError(f"polarity must be plus or minus, got {polarity!r}")

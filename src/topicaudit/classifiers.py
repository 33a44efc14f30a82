"""Three base classifiers trained from first principles.

LogReg minimizes L2-regularized logistic loss by full-batch gradient
descent with backtracking line search.  The SVM minimizes the hinge
objective by deterministic averaged subgradient descent, then calibrates
probabilities with sigmoid scaling fitted on 5-fold out-of-fold margins.
NB is multinomial with additive smoothing, treating TF-IDF weights as
fractional counts.  Everything is deterministic for a fixed seed, and all
models expose (margin, p_pos) through one predict entry point.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

GRAD_TOL = 1e-5


class TrainingError(RuntimeError):
    """Non-finite loss or an impossible training configuration."""


@dataclass
class LinearModel:
    """Raw-space linear scorer: margin = w.x + b.

    For svm, ``calibration`` holds (A, B) of p = sigmoid(A*margin + B);
    logreg has no calibration since its margin already is the log-odds.
    """

    kind: str
    weights: np.ndarray
    bias: float
    calibration: tuple[float, float] | None = None
    seed: int = 0
    config_digest: str = ""

    def __post_init__(self):
        if self.kind not in ("logreg", "svm"):
            raise ValueError(f"unknown linear model kind {self.kind!r}")
        if not np.all(np.isfinite(self.weights)) or not np.isfinite(self.bias):
            raise TrainingError("non-finite model parameters")
        if (self.calibration is not None) != (self.kind == "svm"):
            raise ValueError("calibration is present iff kind is svm")


@dataclass
class NBModel:
    """Multinomial NB over nonnegative feature mass.

    Structural columns (the trailing block starting at structural_start)
    are min-max scaled to [0,1] with train-split bounds; test values are
    clipped into the same range so likelihood mass stays nonnegative.
    """

    log_prior: np.ndarray
    log_theta: np.ndarray
    alpha: float
    structural_start: int
    struct_min: np.ndarray
    struct_max: np.ndarray
    seed: int = 0
    config_digest: str = ""

    def __post_init__(self):
        if not np.all(np.isfinite(self.log_theta)):
            raise TrainingError("non-finite NB likelihood table")
        total = np.exp(self.log_prior).sum()
        if not abs(total - 1.0) <= 1e-9:
            raise ValueError(f"NB log_prior exponentiates to a total of "
                             f"{total}, not 1")

    def transform(self, X: np.ndarray) -> np.ndarray:
        X = np.array(X, dtype=float, copy=True)
        lo, hi = self.struct_min, self.struct_max
        span = np.where(hi > lo, hi - lo, 1.0)
        block = (X[..., self.structural_start:] - lo) / span
        X[..., self.structural_start:] = np.clip(block, 0.0, 1.0)
        return X


@dataclass(frozen=True)
class Prediction:
    """Margins, positive-class probabilities and labels: arrays over
    messages from predict_all, scalars from predict_proba."""

    p_pos: np.ndarray | float
    label: np.ndarray | int
    margin: np.ndarray | float

    def __post_init__(self):
        p = np.asarray(self.p_pos)
        if not np.all((p >= 0.0) & (p <= 1.0)):
            raise ValueError(f"p_pos outside [0,1]: {self.p_pos}")
        if not np.array_equal(self.label, p >= 0.5):
            raise ValueError("label inconsistent with p_pos threshold")


def _sigmoid(z: np.ndarray | float) -> np.ndarray | float:
    return np.where(z >= 0, 1.0 / (1.0 + np.exp(-np.abs(z))),
                    np.exp(-np.abs(z)) / (1.0 + np.exp(-np.abs(z))))


def _signs(y: np.ndarray) -> np.ndarray:
    return np.where(np.asarray(y) > 0, 1.0, -1.0)


def _column_scale(X: np.ndarray) -> np.ndarray:
    # Large-magnitude columns (structural counts) are shrunk to unit scale
    # for optimization only; weights are folded back to raw space on exit.
    return np.maximum(X.std(axis=0), 1.0)


def _logistic_loss_grad(wb: np.ndarray, X: np.ndarray, y_pm: np.ndarray,
                        l2: float) -> tuple[float, np.ndarray]:
    """Average logistic loss with L2 on weights (not bias), and gradient."""
    n = X.shape[0]
    w, b = wb[:-1], wb[-1]
    z = y_pm * (X @ w + b)
    # log(1 + exp(-z)) evaluated stably for both signs of z.
    loss = float(np.mean(np.logaddexp(0.0, -z)) + 0.5 * l2 * np.dot(w, w) / n)
    coef = -y_pm * _sigmoid(-z) / n
    grad = np.empty_like(wb)
    grad[:-1] = X.T @ coef + l2 * w / n
    grad[-1] = coef.sum()
    return loss, grad


def train_logreg(X: np.ndarray, y: np.ndarray, l2_strength: float = 1.0,
                 epochs: int = 500, seed: int = 0,
                 config_digest: str = "") -> LinearModel:
    """Full-batch gradient descent with backtracking line search.

    Stops when the gradient infinity-norm falls below 1e-5 or the epoch
    cap is hit.  The margin is the log-odds, so no calibration is stored.
    """
    X = np.asarray(X, dtype=float)
    y_pm = _signs(y)
    scale = _column_scale(X)
    Xs = X / scale
    wb = np.zeros(X.shape[1] + 1)
    loss, grad = _logistic_loss_grad(wb, Xs, y_pm, l2_strength)
    step = 1.0
    for _ in range(epochs):
        if not np.isfinite(loss):
            raise TrainingError("logistic loss diverged; check feature scaling")
        if np.max(np.abs(grad)) <= GRAD_TOL:
            break
        direction = -grad
        slope = float(grad @ direction)
        step = min(step * 2.0, 1e6)
        while True:
            cand = wb + step * direction
            cand_loss, cand_grad = _logistic_loss_grad(cand, Xs, y_pm, l2_strength)
            if cand_loss <= loss + 1e-4 * step * slope:
                break
            step *= 0.5
            if step < 1e-16:
                cand, cand_loss, cand_grad = wb, loss, grad
                break
        if cand is wb:
            break
        wb, loss, grad = cand, cand_loss, cand_grad
    return LinearModel(kind="logreg", weights=wb[:-1] / scale,
                       bias=float(wb[-1]), seed=seed,
                       config_digest=config_digest)


def _hinge_objective(w: np.ndarray, b: float, X: np.ndarray, y_pm: np.ndarray,
                     lam: float) -> float:
    margins = y_pm * (X @ w + b)
    return float(np.mean(np.maximum(0.0, 1.0 - margins))
                 + 0.5 * lam * np.dot(w, w))


def _train_svm_raw(X: np.ndarray, y_pm: np.ndarray, C: float,
                   epochs: int) -> tuple[np.ndarray, float]:
    """Averaged full-batch subgradient descent on the hinge objective."""
    n, d = X.shape
    lam = 1.0 / (C * n)
    w = np.zeros(d)
    b = 0.0
    w_sum = np.zeros(d)
    b_sum = 0.0
    for t in range(1, epochs + 1):
        margins = y_pm * (X @ w + b)
        viol = margins < 1.0
        g_w = lam * w - (X[viol].T @ y_pm[viol]) / n
        g_b = -float(y_pm[viol].sum()) / n
        eta = 1.0 / np.sqrt(t)
        w = w - eta * g_w
        b = b - eta * g_b
        w_sum += w
        b_sum += b
    w_avg, b_avg = w_sum / epochs, b_sum / epochs
    # The averaged iterate is the convergence guarantee; keep the final one
    # when it happens to score better (both are deterministic).
    if _hinge_objective(w, b, X, y_pm, lam) < _hinge_objective(w_avg, b_avg, X, y_pm, lam):
        return w, b
    return w_avg, b_avg


def _fit_sigmoid(margins: np.ndarray, y_pm: np.ndarray) -> tuple[float, float]:
    """Newton fit of p = sigmoid(A*margin + B) with smoothed targets."""
    n_pos = int((y_pm > 0).sum())
    n_neg = y_pm.size - n_pos
    target = np.where(y_pm > 0, (n_pos + 1.0) / (n_pos + 2.0),
                      1.0 / (n_neg + 2.0))
    A, B = 1.0, 0.0
    for _ in range(100):
        p = _sigmoid(A * margins + B)
        grad_z = p - target
        gA = float(grad_z @ margins)
        gB = float(grad_z.sum())
        hess = p * (1.0 - p)
        hAA = float(hess @ (margins ** 2)) + 1e-12
        hAB = float(hess @ margins)
        hBB = float(hess.sum()) + 1e-12
        det = hAA * hBB - hAB * hAB
        if abs(det) < 1e-18:
            break
        dA = (hBB * gA - hAB * gB) / det
        dB = (hAA * gB - hAB * gA) / det
        A, B = A - dA, B - dB
        if max(abs(dA), abs(dB)) < 1e-10:
            break
    return float(A), float(B)


def train_svm(X: np.ndarray, y: np.ndarray, C: float = 1.0,
              epochs: int = 2000, seed: int = 0,
              config_digest: str = "") -> LinearModel:
    """Hinge-loss linear SVM plus sigmoid probability calibration.

    Calibration margins come from 5 out-of-fold refits so the sigmoid never
    sees margins of its own training rows.  Any fold whose training part is
    single-class aborts calibration to the A=1, B=0 fallback with a warning.
    """
    X = np.asarray(X, dtype=float)
    y_pm = _signs(y)
    scale = _column_scale(X)
    Xs = X / scale
    w, b = _train_svm_raw(Xs, y_pm, C, epochs)

    fold_of = np.empty(len(y_pm), dtype=int)
    for cls in (-1.0, 1.0):
        idx = np.flatnonzero(y_pm == cls)
        fold_of[idx] = np.arange(idx.size) % 5
    oof_margins = np.empty(len(y_pm))
    calibration = None
    for fold in range(5):
        hold = fold_of == fold
        if not hold.any():
            continue
        y_fit = y_pm[~hold]
        if np.unique(y_fit).size < 2:
            warnings.warn("single-class calibration fold; falling back to "
                          "A=1, B=0 sigmoid", UserWarning, stacklevel=2)
            calibration = (1.0, 0.0)
            break
        w_f, b_f = _train_svm_raw(Xs[~hold], y_fit, C, epochs)
        oof_margins[hold] = Xs[hold] @ w_f + b_f
    if calibration is None:
        calibration = _fit_sigmoid(oof_margins, y_pm)
    return LinearModel(kind="svm", weights=w / scale, bias=float(b),
                       calibration=calibration, seed=seed,
                       config_digest=config_digest)


def train_nb(X: np.ndarray, y: np.ndarray, alpha: float = 1.0,
             structural_start: int | None = None, seed: int = 0,
             config_digest: str = "") -> NBModel:
    """Multinomial NB over TF-IDF mass with additive smoothing.

    TF-IDF values act as fractional counts.  The structural block would
    otherwise dominate the per-class mass, so it is min-max scaled to
    [0,1] using training bounds stored in the model.
    """
    if alpha <= 0:
        raise ValueError(f"smoothing alpha must be positive, got {alpha}")
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    if structural_start is None:
        structural_start = X.shape[1]
    lo = X[:, structural_start:].min(axis=0)
    hi = X[:, structural_start:].max(axis=0)
    model = NBModel(log_prior=np.log(np.array([0.5, 0.5])),
                    log_theta=np.zeros((2, X.shape[1])), alpha=alpha,
                    structural_start=structural_start,
                    struct_min=lo, struct_max=hi,
                    seed=seed, config_digest=config_digest)
    Xt = model.transform(X)
    n = len(y)
    log_prior = np.empty(2)
    log_theta = np.empty((2, X.shape[1]))
    for cls in (0, 1):
        rows = Xt[y == cls]
        if rows.shape[0] == 0:
            raise TrainingError(f"class {cls} absent from training labels")
        log_prior[cls] = np.log(rows.shape[0] / n)
        mass = rows.sum(axis=0) + alpha
        log_theta[cls] = np.log(mass) - np.log(mass.sum())
    model.log_prior = log_prior
    model.log_theta = log_theta
    return model


def nb_log_odds(model: NBModel) -> tuple[np.ndarray, float]:
    """Linear form of the NB log-odds in the transformed feature space."""
    w = model.log_theta[1] - model.log_theta[0]
    b = float(model.log_prior[1] - model.log_prior[0])
    return w, b


def predict_all(model: LinearModel | NBModel, X: np.ndarray) -> Prediction:
    """Margin, calibrated positive-class probability and label of every
    row of X."""
    margin = decision_function(model, X)
    p_pos = _probability(model, margin)
    return Prediction(p_pos=p_pos, label=(p_pos >= 0.5).astype(int),
                      margin=margin)


def predict_proba(model: LinearModel | NBModel, x: np.ndarray) -> Prediction:
    """Score one message: margin plus calibrated positive-class probability."""
    x = np.asarray(x, dtype=float)
    n_cols = (model.weights.size if isinstance(model, LinearModel)
              else model.log_theta.shape[1])
    if x.shape != (n_cols,):
        raise ValueError(f"expected feature vector of length {n_cols}, "
                         f"got shape {x.shape}")
    pred = predict_all(model, x[None, :])
    return Prediction(p_pos=float(pred.p_pos[0]), label=int(pred.label[0]),
                      margin=float(pred.margin[0]))


def decision_function(model: LinearModel | NBModel, X: np.ndarray) -> np.ndarray:
    """Batch margins (log-odds for logreg/NB, raw hinge margin for svm)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if isinstance(model, LinearModel):
        return X @ model.weights + model.bias
    w, b = nb_log_odds(model)
    return model.transform(X) @ w + b


def _probability(model: LinearModel | NBModel,
                 margin: np.ndarray) -> np.ndarray:
    if isinstance(model, LinearModel) and model.kind == "svm":
        A, B = model.calibration
        margin = A * margin + B
    return np.asarray(_sigmoid(margin))


def probability_function(model: LinearModel | NBModel, X: np.ndarray) -> np.ndarray:
    """Batch p_pos; the function kernel attribution explains for svm/NB."""
    return _probability(model, decision_function(model, X))


def write_model(path: str | Path, model: LinearModel | NBModel) -> None:
    if isinstance(model, LinearModel):
        obj = {"kind": model.kind, "weights": model.weights.tolist(),
               "bias": model.bias,
               "calibration": list(model.calibration) if model.calibration else None,
               "seed": model.seed, "config_digest": model.config_digest}
    else:
        obj = {"kind": "nb", "log_prior": model.log_prior.tolist(),
               "log_theta": [row.tolist() for row in model.log_theta],
               "alpha": model.alpha,
               "structural_start": model.structural_start,
               "struct_min": model.struct_min.tolist(),
               "struct_max": model.struct_max.tolist(),
               "seed": model.seed, "config_digest": model.config_digest}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True)
        fh.write("\n")


def read_model(path: str | Path) -> LinearModel | NBModel:
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    if obj["kind"] in ("logreg", "svm"):
        cal = tuple(obj["calibration"]) if obj["calibration"] else None
        return LinearModel(kind=obj["kind"], weights=np.array(obj["weights"]),
                           bias=obj["bias"], calibration=cal,
                           seed=obj["seed"], config_digest=obj["config_digest"])
    return NBModel(log_prior=np.array(obj["log_prior"]),
                   log_theta=np.array(obj["log_theta"]), alpha=obj["alpha"],
                   structural_start=obj["structural_start"],
                   struct_min=np.array(obj["struct_min"]),
                   struct_max=np.array(obj["struct_max"]),
                   seed=obj["seed"], config_digest=obj["config_digest"])

"""Three base classifiers trained from first principles.

LogReg minimizes L2-regularized logistic loss by full-batch gradient
descent with backtracking line search.  The SVM minimizes the hinge
objective by deterministic averaged subgradient descent, then calibrates
probabilities with sigmoid scaling fitted on 5-fold out-of-fold margins.
NB is multinomial with additive smoothing, treating TF-IDF weights as
fractional counts, and is kept as its log-odds, linear in its scaled
features.  Every trainer returns a LinearModel and draws no random
number.  predict_all gives every message's positive-class probability
and label; decision_function the margins.
"""

from __future__ import annotations

import dataclasses
import warnings
from dataclasses import dataclass

import numpy as np

from . import features

GRAD_TOL = 1e-5


class TrainingError(ValueError):
    """Non-finite loss or parameters, or an impossible training
    configuration.  It stops a diverged run at train; pipeline's loader
    refuses a stored non-finite parameter before a model is built."""


@dataclass
class LinearModel:
    """Linear scorer: margin = w.t(x) + b.

    t is the identity for logreg and svm.  For nb the structural columns
    (the trailing block starting at structural_start) are min-max scaled
    to [0,1] with train-split bounds, and test values are clipped into
    the same range so likelihood mass stays nonnegative; the margin is
    then NB's log-odds.  For svm, ``calibration`` holds (A, B) of
    p = sigmoid(A*margin + B); logreg and nb have no calibration since
    their margin already is the log-odds.
    """

    kind: str
    weights: np.ndarray
    bias: float
    calibration: tuple[float, float] | None = None
    structural_start: int | None = None
    struct_min: np.ndarray | None = None
    struct_max: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("logreg", "svm", "nb"):
            raise ValueError(f"unknown linear model kind {self.kind!r}")
        if not all(np.all(np.isfinite(values)) for values in (
                self.weights, self.bias, self.calibration, self.struct_min,
                self.struct_max) if values is not None):
            raise TrainingError("non-finite model parameters")
        if (self.calibration is not None) != (self.kind == "svm"):
            raise ValueError("calibration is present iff kind is svm")
        bounds = (self.structural_start, self.struct_min, self.struct_max)
        if [f is not None for f in bounds] != [self.kind == "nb"] * 3:
            raise ValueError("structural_start, struct_min and struct_max "
                             "are present iff kind is nb")
        if self.kind == "nb":
            shape = (self.weights.size - self.structural_start,)
            if not self.struct_min.shape == self.struct_max.shape == shape:
                raise ValueError(f"struct_min and struct_max of shapes "
                                 f"{self.struct_min.shape} and "
                                 f"{self.struct_max.shape}, expected {shape}")

    def transform(self, X: np.ndarray, columns=None) -> np.ndarray:
        """t(X): X itself for logreg and svm; for nb a copy of X with its
        structural columns scaled.  X may hold only the given columns
        (indices or a slice), of which the structural ones are scaled.
        Each column is mapped on its own, so a column slice of the result
        is the transform of the slice, bit for bit."""
        if self.structural_start is None:
            return X
        X = np.array(X, dtype=float, copy=True)
        lo, hi = self.struct_min, self.struct_max
        span = np.where(hi > lo, hi - lo, 1.0)
        at, own = slice(self.structural_start, None), slice(None)
        if columns is not None:
            columns = np.arange(self.weights.size)[columns]
            at = np.flatnonzero(columns >= self.structural_start)
            own = columns[at] - self.structural_start
        block = (X[..., at] - lo[own]) / span[own]
        X[..., at] = np.clip(block, 0.0, 1.0)
        return X


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
                 epochs: int = 500) -> LinearModel:
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
                       bias=float(wb[-1]))


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
              epochs: int = 2000) -> LinearModel:
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
        if (y_fit > 0).all() or (y_fit < 0).all():
            warnings.warn("single-class calibration fold; falling back to "
                          "A=1, B=0 sigmoid", UserWarning, stacklevel=2)
            calibration = (1.0, 0.0)
            break
        w_f, b_f = _train_svm_raw(Xs[~hold], y_fit, C, epochs)
        oof_margins[hold] = Xs[hold] @ w_f + b_f
    if calibration is None:
        calibration = _fit_sigmoid(oof_margins, y_pm)
    return LinearModel(kind="svm", weights=w / scale, bias=float(b),
                       calibration=calibration)


def train_nb(X: np.ndarray, y: np.ndarray, alpha: float = 1.0,
             structural_start: int | None = None) -> LinearModel:
    """Multinomial NB over TF-IDF mass with additive smoothing, as the
    linear model of its log-odds.

    TF-IDF values act as fractional counts.  The structural block would
    otherwise dominate the per-class mass, so it is min-max scaled to
    [0,1] using training bounds stored in the model.  The weights are
    log theta_1 - log theta_0 of the per-class word likelihoods, the bias
    the log prior ratio.
    """
    if alpha <= 0:
        raise ValueError(f"smoothing alpha must be positive, got {alpha}")
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    if structural_start is None:
        structural_start = X.shape[1]
    scaler = LinearModel(kind="nb", weights=np.zeros(X.shape[1]), bias=0.0,
                         structural_start=structural_start,
                         struct_min=X[:, structural_start:].min(axis=0),
                         struct_max=X[:, structural_start:].max(axis=0))
    Xt = scaler.transform(X)
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
    return dataclasses.replace(scaler, weights=log_theta[1] - log_theta[0],
                               bias=float(log_prior[1] - log_prior[0]))


def predict_all(model: LinearModel,
                X: features.CSR) -> tuple[np.ndarray, np.ndarray]:
    """(p_pos, label): the calibrated positive-class probability of every
    row of X and its label, 1 iff p_pos >= 0.5.  The margins come from
    dense blocks of features.ROW_BLOCK rows (features.blocks), which give
    every row the bits the whole matrix would."""
    margin = np.empty(X.shape[0])
    for rows in features.blocks(X.shape[0], features.ROW_BLOCK):
        margin[rows] = decision_function(model, X.dense(rows))
    p_pos = _probability(model, margin)
    return p_pos, (p_pos >= 0.5).astype(int)


def decision_function(model: LinearModel, X: np.ndarray) -> np.ndarray:
    """Batch margins (log-odds for logreg/NB, raw hinge margin for svm)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    return model.transform(X) @ model.weights + model.bias


def _probability(model: LinearModel, margin: np.ndarray) -> np.ndarray:
    if model.calibration is not None:
        A, B = model.calibration
        margin = A * margin + B
    return np.asarray(_sigmoid(margin))


def probability_function(model: LinearModel, X: np.ndarray) -> np.ndarray:
    """Batch p_pos; the function kernel attribution explains for svm/NB."""
    return _probability(model, decision_function(model, X))

"""Per-message SHAP attributions and their polarity supports.

Linear models get exact attributions in closed form.  Nonlinear
probability outputs (calibrated SVM, NB) go through a kernel explainer:
coalition values are Shapley-kernel weighted and regressed with the
local-accuracy constraint eliminated into the system, so base plus
attributions always reproduces the explained output.  Attributions are
restricted to the active set, the columns where the message actually
deviates from the background mean; pinned columns provably carry zero
attribution under the independence assumption.

Given the model itself, the explainer scores coalitions in margin
space: both models' margins are sums of per-column terms, so every
coalition's margin against every background row is one small matrix
product, and only the link function is applied per value.  Any other
callable is evaluated on the synthetic rows themselves.  The regression
is solved through its normal equations, with a ridge added only when
the system is numerically singular.

kernel_explain runs kernel_shap over every message.  A message's
attributions depend only on (seed, msg_id), so the messages are spread
over a fork process pool, one worker per available core where the
process may fork safely, and the result is the same bits for any number
of workers.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import threading
import warnings
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import BLAS_THREAD_VARS
from .classifiers import (LinearModel, NBModel, _probability,
                          decision_function, nb_log_odds,
                          probability_function)

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
    by_size = np.array([(m - 1) / (math.comb(m, s) * s * (m - s))
                        for s in range(1, m)])
    return by_size[sizes - 1]


def _enumerate_coalitions(m: int) -> tuple[np.ndarray, np.ndarray]:
    """All proper nonempty subsets of m features with exact kernel weights;
    row r is the subset whose bit pattern is the integer r + 1."""
    codes = np.arange(1, 2 ** m - 1)
    masks = ((codes[:, None] >> np.arange(m)) & 1).astype(bool)
    return masks, _shapley_kernel_weights(m, masks.sum(axis=1))


def _sample_coalitions(m: int, n_coalitions: int,
                       rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Kernel-distributed paired sampling; equal weights by importance.

    Each even row draws a size from the kernel's size distribution by
    inverting its CDF (the draw Generator.choice(sizes, p=...) makes,
    without re-validating p every time), then that many members; each
    odd row is the complement of the row before it.
    """
    sizes = np.arange(1, m)
    size_p = 1.0 / (sizes * (m - sizes))
    size_p /= size_p.sum()
    cdf = size_p.cumsum()
    cdf /= cdf[-1]
    masks = np.zeros((n_coalitions, m), dtype=bool)
    for row in range(0, n_coalitions, 2):
        s = sizes[cdf.searchsorted(rng.random(), side="right")]
        masks[row, rng.choice(m, size=s, replace=False)] = True
    masks[1::2] = ~masks[0:n_coalitions - 1:2]
    return masks, np.ones(n_coalitions)


def _coalition_values(predict_fn, x: np.ndarray, background: np.ndarray,
                      active: np.ndarray, masks: np.ndarray,
                      batch: int = 64) -> np.ndarray:
    """v(S) = mean over background rows of f with S pinned to x.

    Inactive columns always keep x's values, so v(full set) is exactly
    f(x) and pinned columns cannot influence the regression.
    """
    n_bg = background.shape[0]
    base_rows = _pinned_rows(x, background, active)
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


def _margin_coalition_values(model: LinearModel | NBModel, x: np.ndarray,
                             background: np.ndarray, active: np.ndarray,
                             masks: np.ndarray) -> np.ndarray:
    """_coalition_values of probability_function(model, .), from margins.

    Both models' margins are sums of per-column terms w_j * t_j(z_j) plus
    a bias (t is NBModel.transform, which maps each column on its own,
    and the identity for LinearModel), so pinning the coalition S to x
    moves a background row's margin by the sum over S of
    w_j * (t(x)_j - t(row)_j): one (n_coal, m) @ (m, n_bg) product
    instead of n_coal * n_bg synthetic rows of full width.
    """
    if isinstance(model, NBModel):
        w, _ = nb_log_odds(model)
        tx, tbg = model.transform(x), model.transform(background)
    else:
        w, tx, tbg = model.weights, x, background
    shift = w[active] * (tx[active] - tbg[:, active])
    base_margin = decision_function(model, _pinned_rows(x, background, active))
    margins = base_margin[None, :] + masks.astype(float) @ shift.T
    return _probability(model, margins).mean(axis=1)


def kernel_shap(model: LinearModel | NBModel | Callable, x: np.ndarray,
                background: Background,
                n_coalitions: int | None = None, seed: int = 0,
                msg_id: int = -1) -> ShapVector:
    """Constrained weighted least squares over feature coalitions.

    ``model`` is a LinearModel or NBModel, whose probability_function is
    explained, or any callable mapping an (n, d) array to n outputs.
    Full enumeration when the active set has at most 12 columns, paired
    kernel-distributed sampling above that (default 2*|active| + 2048
    coalitions).  The sum constraint is eliminated exactly, so local
    accuracy holds regardless of sampling noise.  Deterministic for a
    fixed (seed, msg_id) pair.
    """
    x = np.asarray(x, dtype=float)
    margin_model = isinstance(model, (LinearModel, NBModel))
    predict_fn = (functools.partial(probability_function, model)
                  if margin_model else model)
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

    if margin_model:
        values = _margin_coalition_values(model, x, background.rows, active,
                                          masks)
    else:
        values = _coalition_values(predict_fn, x, background.rows, active,
                                   masks)
    z = masks.astype(float)
    # Eliminate the constraint sum(phi) = delta: solve for the first m-1
    # coordinates against columns z_j - z_last, recover the last by identity.
    target = values - base_value - z[:, -1] * delta
    design = z[:, :-1] - z[:, -1:]
    sw = np.sqrt(weights)
    a = design * sw[:, None]
    b = target * sw
    gram = a.T @ a
    eig = np.linalg.eigvalsh(gram)
    if eig[0] <= (m - 1) * np.finfo(float).eps * eig[-1]:
        warnings.warn(f"message {msg_id}: singular attribution system; "
                      f"ridge-stabilizing with {RIDGE}", UserWarning,
                      stacklevel=2)
        gram = gram + RIDGE * np.eye(m - 1)
    phi_head = np.linalg.solve(gram, a.T @ b)
    phi_vals = np.append(phi_head, delta - phi_head.sum())
    phi = {int(col): float(val) for col, val in zip(active, phi_vals)
           if val != 0.0}
    return ShapVector(id=msg_id, phi=phi, base_value=base_value)


def _default_workers() -> int:
    """kernel_explain's pool size: one worker per core this process may
    run on, or 1 where it should not fork.  A fork is safe only from a
    single-threaded process: no other Python thread, and a numpy BLAS
    without threads, which it has only when each of BLAS_THREAD_VARS was
    1 as numpy loaded (the CLI's explain stage sets them).
    os.sched_getaffinity exists only where fork does."""
    if (not hasattr(os, "sched_getaffinity")
            or threading.active_count() > 1
            or any(os.environ.get(var) != "1" for var in BLAS_THREAD_VARS)):
        return 1
    return len(os.sched_getaffinity(0))


def _explain_rows(job, rows) -> tuple:
    """kernel_shap of the given rows as (counts, indices, data, base
    values) of their CSR rows, plus the warnings raised on the way as
    (message, filename, lineno)."""
    model, X, background, ids, n_coalitions, seed = job
    counts, indices, data, bases = [], [], [], []
    with warnings.catch_warnings(record=True) as caught:
        for i in rows:
            shap = kernel_shap(model, X[i], background,
                               n_coalitions=n_coalitions, seed=seed,
                               msg_id=ids[i])
            counts.append(len(shap.phi))
            indices.extend(shap.phi)
            data.extend(shap.phi.values())
            bases.append(shap.base_value)
    return (np.array(counts, dtype=np.int64),
            np.array(indices, dtype=np.int64), np.array(data, dtype=float),
            np.array(bases, dtype=float),
            [(w.message, w.filename, w.lineno) for w in caught])


_job = None  # a pool worker's kernel_explain arguments, set at its start


def _set_job(job) -> None:
    global _job
    _job = job


def _explain_chunk(rows) -> tuple:
    return _explain_rows(_job, rows)


def kernel_explain(model: LinearModel | NBModel | Callable, X: np.ndarray,
                   background: Background, ids,
                   n_coalitions: int | None = None, seed: int = 0
                   ) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """kernel_shap of every row of X, row i as message ids[i].

    Returns the CSR fields (shape, indptr, indices, data) of the (n, d)
    attributions, each row's active columns in ascending order with its
    nonzero values, and the n base values.  The rows run in a fork
    process pool of _default_workers() processes, at most one per
    message, or in this process when that is one.  A worker's warnings
    are raised again here in message order, and its exception propagates.
    """
    ids = [int(i) for i in ids]
    n = len(ids)
    workers = min(_default_workers(), n)
    job = (model, X, background, ids, n_coalitions, seed)
    if workers > 1:
        # Imported here: at the top they would add 7 ms to every stage's
        # start.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # fork, not spawn: a spawned worker re-imports numpy and is sent
        # X.  Eight chunks per worker even out messages of unequal cost;
        # a worker that dies raises BrokenProcessPool here.
        chunks = np.array_split(np.arange(n), min(n, 8 * workers))
        with ProcessPoolExecutor(
                workers, mp_context=multiprocessing.get_context("fork"),
                initializer=_set_job, initargs=(job,)) as pool:
            parts = list(pool.map(_explain_chunk, chunks))
    else:
        parts = [_explain_rows(job, range(n))]
    *columns, warned = zip(*parts)
    for caught in warned:
        for message, filename, lineno in caught:
            warnings.warn_explicit(message, type(message), filename, lineno)
    counts, indices, data, bases = map(np.concatenate, columns)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return {"shape": np.array((n, X.shape[1]), dtype=np.int64),
            "indptr": indptr, "indices": indices, "data": data}, bases


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

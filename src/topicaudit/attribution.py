"""Per-message SHAP attributions and their polarity supports.

Every model is a LinearModel, whose margin gets exact attributions in
closed form.  Its probability output, explained for calibrated SVM and
NB, is not linear and goes through a kernel explainer: coalition values
are Shapley-kernel weighted and regressed with the local-accuracy
constraint eliminated into the system, so base plus attributions always
reproduces the explained output.  Attributions are restricted to the
active set, the columns where the message actually deviates from the
background mean; pinned columns provably carry zero attribution under
the independence assumption.

Given the model itself, the explainer scores coalitions in margin
space: a LinearModel's margin is a sum of per-column terms, so every
coalition's margin against every background row is one small matrix
product, and only the link function is applied per value.  Any other
callable is evaluated on the synthetic rows themselves.  The regression
is solved through its normal equations, with a ridge added only when
the system is numerically singular; sampled coalitions come in
complementary pairs, so half the design rows give the whole Gram.

The kernel background is the training rows background_rows picks, a
stratified sample; the pipeline keeps only their mean, since the rows
follow from the labels, the split and the config.

kernel_explain runs kernel_shap over every message.  A message's
attributions depend only on (seed, msg_id), so the messages are spread
over a fork process pool, one worker per available core where the
process may fork safely, and the result is the same bits for any number
of workers.  It keeps only the values on each message's active set:
the features and the background mean determine the columns, and
kernel_phi puts the values back on them.
"""

from __future__ import annotations

import functools
import math
import os
import threading
import warnings
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import BLAS_THREAD_VARS, features
from .classifiers import (LinearModel, _probability, decision_function,
                          probability_function)
from .corpus import stratified_sample
from .features import CSR

ACTIVE_TOL = 1e-12
ENUMERATION_LIMIT = 12
RIDGE = 1e-8
# float32 holds every integer up to 2**24, so a Gram entry summed over
# fewer pairs than this is exact in it.
MAX_PAIRS = 2 ** 24


@dataclass(frozen=True, eq=False)
class ShapVector:
    """Additive attribution: base_value + sum(values) = explained output.

    ``values`` holds the attribution of every active column, zeros
    included, in the ascending order of ``columns``; every other column's
    attribution is zero."""

    columns: np.ndarray
    values: np.ndarray
    base_value: float


@dataclass(frozen=True)
class Background:
    """kernel_shap's (k, d) training rows to perturb against; their
    ``mean`` picks the active set (perfbench's traced run reads it too)."""

    rows: np.ndarray

    @property
    def mean(self) -> np.ndarray:
        return self.rows.mean(axis=0)


def background_rows(y_train: np.ndarray, size: int = 50,
                    seed: int = 0) -> np.ndarray:
    """The ascending indices of a stratified sample of ``size`` training
    rows (every row when size is at least their number), class counts by
    largest remainder."""
    y_train = np.asarray(y_train)
    exact = {lab: size * int((y_train == lab).sum()) / len(y_train)
             for lab in sorted(set(y_train.tolist()))}
    return stratified_sample(y_train, exact, size, seed)


def linear_shap(model: LinearModel, X: np.ndarray,
                mu: np.ndarray, columns=None) -> np.ndarray:
    """Exact attributions of the model's margin w.t(x) + b.

    phi = w * (t(x) - t(mu)) for one vector x or for each row of a matrix
    X, so w.t(mu) + b + sum(phi) is the margin; t is the model's
    transform, the identity but for NB.  Given ``columns`` (indices or a
    slice), X holds only those columns and phi is the same columns of the
    full phi, bit for bit, since every step is elementwise.
    """
    X = np.asarray(X, dtype=float)
    mu = np.asarray(mu, dtype=float)
    w = model.weights
    taken = slice(None) if columns is None else columns
    if mu.shape != w.shape or X.shape[-1:] != w[taken].shape:
        raise ValueError(f"expected vectors of length {w.size}, got "
                         f"{X.shape} and {mu.shape}")
    X, mu = model.transform(X, columns), model.transform(mu)
    return w[taken] * (X - mu[taken])


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


def _paired_gram(a: np.ndarray) -> np.ndarray:
    """a.T @ a, bit for bit, for the design of paired sampled coalitions.

    Row 2r + 1 is the complement of row 2r, so its design row is the
    negation of row 2r's and both add the same outer product: the Gram
    is twice the even rows' Gram, plus the last row's own if it is
    unpaired.  Every entry is a sum of products of -1, 0 and 1, an
    integer, exact in float32 below MAX_PAIRS pairs and in float64 after.
    """
    n = len(a)
    even = a[0:n - 1:2].astype(np.float32)
    gram = 2.0 * (even.T @ even).astype(float)
    if n % 2:
        gram += np.outer(a[-1], a[-1])
    return gram


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


def _margin_coalition_values(model: LinearModel, x: np.ndarray,
                             background: np.ndarray, active: np.ndarray,
                             masks: np.ndarray) -> np.ndarray:
    """_coalition_values of probability_function(model, .), from margins.

    The margin is a sum of per-column terms w_j * t_j(z_j) plus a bias
    (t is LinearModel.transform, which maps each column on its own), so
    pinning the coalition S to x moves a background row's margin by the
    sum over S of w_j * (t(x)_j - t(row)_j): one (n_coal, m) @ (m, n_bg)
    product instead of n_coal * n_bg synthetic rows of full width.
    """
    tx, tbg = model.transform(x), model.transform(background)
    shift = model.weights[active] * (tx[active] - tbg[:, active])
    base_margin = decision_function(model, _pinned_rows(x, background, active))
    margins = base_margin[None, :] + masks.astype(float) @ shift.T
    return _probability(model, margins).mean(axis=1)


def kernel_shap(model: LinearModel | Callable, x: np.ndarray,
                background: Background,
                n_coalitions: int | None = None, seed: int = 0,
                msg_id: int = -1) -> ShapVector:
    """Constrained weighted least squares over feature coalitions: a
    coalition's value is the mean output over the background rows with
    the coalition's columns set to x's.

    ``model`` is a LinearModel, whose probability_function is
    explained, or any callable mapping an (n, d) array to n outputs.
    Full enumeration when the active set has at most 12 columns, paired
    kernel-distributed sampling above that (default 2*|active| + 2048
    coalitions).  The sum constraint is eliminated exactly, so local
    accuracy holds regardless of sampling noise.  Deterministic for a
    fixed (seed, msg_id) pair.
    """
    x = np.asarray(x, dtype=float)
    margin_model = isinstance(model, LinearModel)
    predict_fn = (functools.partial(probability_function, model)
                  if margin_model else model)
    active = np.flatnonzero(active_mask(x, background.mean))
    m = len(active)
    base_value = float(np.asarray(predict_fn(
        _pinned_rows(x, background.rows, active))).mean())
    if m == 0:
        warnings.warn(f"message {msg_id}: no deviation from background; "
                      "all attributions zero", UserWarning, stacklevel=2)
        return ShapVector(active, np.zeros(0), base_value)
    full_value = float(np.asarray(predict_fn(x[None, :]))[0])
    delta = full_value - base_value
    if m == 1:
        return ShapVector(active, np.array([delta]), base_value)

    sampled = m > ENUMERATION_LIMIT
    if sampled:
        if n_coalitions is None:
            n_coalitions = 2 * m + 2048
        if n_coalitions // 2 >= MAX_PAIRS:
            raise ValueError(f"{n_coalitions} coalitions: the paired Gram "
                             f"is exact below {MAX_PAIRS} pairs")
        rng = np.random.default_rng(np.random.SeedSequence([seed, msg_id + 1]))
        masks, weights = _sample_coalitions(m, n_coalitions, rng)
    else:
        masks, weights = _enumerate_coalitions(m)

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
    gram = _paired_gram(a) if sampled else a.T @ a
    eig = np.linalg.eigvalsh(gram)
    if eig[0] <= (m - 1) * np.finfo(float).eps * eig[-1]:
        warnings.warn(f"message {msg_id}: singular attribution system; "
                      f"ridge-stabilizing with {RIDGE}", UserWarning,
                      stacklevel=2)
        gram = gram + RIDGE * np.eye(m - 1)
    phi_head = np.linalg.solve(gram, a.T @ b)
    return ShapVector(active,
                      np.append(phi_head, delta - phi_head.sum()), base_value)


def _default_workers() -> int:
    """kernel_explain's pool size: one worker per core this process may
    run on, or 1 where it should not fork.  A fork is safe only from a
    single-threaded process: no other Python thread, and a numpy BLAS
    without threads, which it has only when each of BLAS_THREAD_VARS was
    1 as numpy loaded (the CLI sets them for every stage but train).
    os.sched_getaffinity exists only where fork does."""
    if (not hasattr(os, "sched_getaffinity")
            or threading.active_count() > 1
            or any(os.environ.get(var) != "1" for var in BLAS_THREAD_VARS)):
        return 1
    return len(os.sched_getaffinity(0))


def _explain_rows(job, rows) -> tuple:
    """kernel_shap of the given rows as their values, row after row, plus
    the warnings raised on the way as (message, filename, lineno)."""
    model, X, background, n_coalitions, seed = job
    values = [np.zeros(0)]
    with warnings.catch_warnings(record=True) as caught:
        for i in rows:
            values.append(kernel_shap(model, X.dense([i])[0], background,
                                      n_coalitions=n_coalitions, seed=seed,
                                      msg_id=int(i)).values)
    return (np.concatenate(values),
            [(w.message, w.filename, w.lineno) for w in caught])


_job = None  # a pool worker's kernel_explain arguments, set at its start


def _set_job(job) -> None:
    global _job
    _job = job


def _explain_chunk(rows) -> tuple:
    return _explain_rows(_job, rows)


def kernel_explain(model: LinearModel | Callable, X: CSR,
                   background: np.ndarray,
                   n_coalitions: int | None = None, seed: int = 0
                   ) -> np.ndarray:
    """kernel_shap of every row of X, made dense one row at a time, row i
    as message i, against the (k, d) background rows.

    Returns each row's values on its active columns (zeros included) in
    ascending column order, row after row, which kernel_phi puts back on
    the columns given the background mean.  The rows run in a fork
    process pool of _default_workers() processes, at most one per
    message, or in this process when that is one.  A worker's warnings
    are raised again here in message order, and its exception
    propagates.
    """
    n = X.shape[0]
    workers = min(_default_workers(), n)
    job = (model, X, Background(background), n_coalitions, seed)
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
    values, warned = zip(*parts)
    for caught in warned:
        for message, filename, lineno in caught:
            warnings.warn_explicit(message, type(message), filename, lineno)
    return np.concatenate(values)


def active_mask(X: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Where rows of X deviate from the background mean mu: the columns
    kernel_shap attributes.  Elementwise, so a block of rows gives the
    same mask as each row on its own."""
    return np.abs(X - mu) > ACTIVE_TOL


def kernel_phi(X: CSR, mu: np.ndarray, data: np.ndarray) -> CSR:
    """The (n, d) attributions of kernel_explain's values ``data`` on the
    active sets of X against the background mean ``mu`` (of length d), as
    the CSR of their nonzero entries.

    Each row's active columns are re-derived from dense row blocks of X
    with active_mask, so data must hold exactly one value per active
    entry (ValueError otherwise); exact zeros, -0.0 included, are left
    out, as they are of a dense matrix's CSR, and their dense slices read
    +0.0."""
    n, d = X.shape
    counts, indices = [], []
    for rows in features.blocks(n, features.ROW_BLOCK):
        mask = active_mask(X.dense(rows), mu)
        counts.append(mask.sum(axis=1))
        indices.append(np.nonzero(mask)[1])
    counts, indices = np.concatenate(counts), np.concatenate(indices)
    if data.shape != indices.shape:
        raise ValueError(f"{data.size} values for {indices.size} active "
                         "entries of X against mu")
    kept = data != 0.0
    row_of = np.repeat(np.arange(n), counts)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(row_of[kept], minlength=n), out=indptr[1:])
    return CSR((n, d), indptr, indices[kept], data[kept])


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

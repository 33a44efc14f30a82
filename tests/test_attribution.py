"""Tests for linear/kernel attribution against exact Shapley oracles."""

from __future__ import annotations

import itertools
import math
import os
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topicaudit import BLAS_THREAD_VARS, attribution
from topicaudit.attribution import (Background, _enumerate_coalitions,
                                    _sample_coalitions, kernel_explain,
                                    kernel_shap, linear_shap,
                                    make_background, polarity_supports)
from topicaudit.classifiers import (LinearModel, probability_function,
                                    train_nb)
from topicaudit.pipeline import _to_csr


def brute_force_shapley(predict_fn, x, background_rows):
    """Exact Shapley values by enumerating all coalitions of all columns."""
    d = x.size
    n_bg = background_rows.shape[0]

    def value(subset):
        rows = background_rows.copy()
        for j in subset:
            rows[:, j] = x[j]
        return float(np.asarray(predict_fn(rows)).mean())

    phi = np.zeros(d)
    for j in range(d):
        others = [k for k in range(d) if k != j]
        for r in range(d):
            for subset in itertools.combinations(others, r):
                weight = (math.factorial(r) * math.factorial(d - r - 1)
                          / math.factorial(d))
                phi[j] += weight * (value(subset + (j,)) - value(subset))
    return phi


def _bg(rows):
    rows = np.asarray(rows, dtype=float)
    return Background(rows=rows, ids=tuple(range(len(rows))))


class TestLinearShap:
    def test_two_feature_example(self):
        model = LinearModel(kind="logreg", weights=np.array([2.0, -1.0]),
                            bias=0.0)
        phi, base = linear_shap(model, np.array([1.0, 1.0]),
                                np.array([0.0, 0.0]))
        assert phi.tolist() == [2.0, -1.0]
        assert base == 0.0

    def test_no_deviation_no_attribution(self):
        model = LinearModel(kind="logreg", weights=np.array([2.0, -1.0]),
                            bias=0.5)
        mu = np.array([0.3, 0.7])
        phi, base = linear_shap(model, mu.copy(), mu)
        assert not phi.any()
        np.testing.assert_allclose(base, 2.0 * 0.3 - 0.7 + 0.5)

    def test_local_accuracy_exact(self):
        rng = np.random.default_rng(0)
        model = LinearModel(kind="logreg", weights=rng.normal(size=20),
                            bias=0.25)
        x = rng.normal(size=20)
        mu = rng.normal(size=20)
        phi, base = linear_shap(model, x, mu)
        np.testing.assert_allclose(base + phi.sum(),
                                   model.weights @ x + model.bias,
                                   rtol=0, atol=1e-12)

    def test_rows_match_one_row_calls(self):
        rng = np.random.default_rng(4)
        X = rng.random((6, 5))
        model = train_nb(X, np.array([0, 1] * 3), structural_start=3)
        mu = X.mean(axis=0)
        phi, base = linear_shap(model, X, mu)
        assert phi.shape == X.shape
        for i in range(len(X)):
            row_phi, row_base = linear_shap(model, X[i], mu)
            np.testing.assert_array_equal(phi[i], row_phi)
            assert row_base == base

    def test_dimension_mismatch(self):
        model = LinearModel(kind="logreg", weights=np.ones(3), bias=0.0)
        with pytest.raises(ValueError, match="length 3"):
            linear_shap(model, np.ones(4), np.ones(3))


class TestKernelShapEnumeration:
    def test_matches_linear_model(self):
        rng = np.random.default_rng(1)
        w = rng.normal(size=5)
        bg = _bg(rng.normal(size=(7, 5)))
        x = rng.normal(size=5)

        def f(rows):
            return rows @ w + 0.3

        sv = kernel_shap(f, x, bg, msg_id=0)
        expected = w * (x - bg.mean)
        dense = np.zeros(5)
        for j, v in sv.phi.items():
            dense[j] = v
        np.testing.assert_allclose(dense, expected, atol=1e-6)

    def test_matches_brute_force_on_nonlinear(self):
        rng = np.random.default_rng(2)
        bg = _bg(rng.random((6, 3)))
        x = rng.random(3) + 1.0

        def f(rows):
            return rows[:, 0] * rows[:, 1] + 2.0 * rows[:, 2] ** 2

        sv = kernel_shap(f, x, bg, msg_id=1)
        oracle = brute_force_shapley(f, x, bg.rows)
        dense = np.zeros(3)
        for j, v in sv.phi.items():
            dense[j] = v
        np.testing.assert_allclose(dense, oracle, atol=1e-6)

    def test_local_accuracy(self):
        rng = np.random.default_rng(3)
        bg = _bg(rng.random((5, 8)))
        x = rng.random(8) + 0.5

        def f(rows):
            return np.tanh(rows.sum(axis=1))

        sv = kernel_shap(f, x, bg, msg_id=2)
        np.testing.assert_allclose(sv.total(), f(x[None, :])[0], atol=1e-9)

    def test_x_equal_to_single_background_row(self):
        x = np.array([0.1, 0.2, 0.3])
        bg = _bg(x[None, :])
        with pytest.warns(UserWarning, match="no deviation"):
            sv = kernel_shap(lambda rows: rows.sum(axis=1), x, bg, msg_id=3)
        assert sv.phi == {}

    def test_duplicate_columns_get_equal_phi(self):
        # Columns 0 and 1 are mirror images in x and every background row.
        bg = _bg(np.array([[0.2, 0.2, 0.0], [0.4, 0.4, 1.0]]))
        x = np.array([1.0, 1.0, 2.0])

        def f(rows):
            return (rows[:, 0] + rows[:, 1]) * rows[:, 2]

        sv = kernel_shap(f, x, bg, msg_id=4)
        np.testing.assert_allclose(sv.phi[0], sv.phi[1], rtol=1e-9)

    def test_single_active_column(self):
        bg = _bg(np.array([[0.0, 1.0], [0.0, 1.0]]))
        x = np.array([3.0, 1.0])

        def f(rows):
            return rows[:, 0] ** 2 + rows[:, 1]

        sv = kernel_shap(f, x, bg, msg_id=5)
        assert set(sv.phi) == {0}
        np.testing.assert_allclose(sv.phi[0], 9.0, atol=1e-12)


class TestKernelShapSampling:
    def test_linear_model_recovered_exactly(self):
        # The kernel regression is exact on linear functions no matter
        # which coalitions were sampled.
        rng = np.random.default_rng(4)
        d = 15
        w = rng.normal(size=d)
        bg = _bg(rng.normal(size=(10, d)))
        x = rng.normal(size=d)

        def f(rows):
            return rows @ w - 0.7

        sv = kernel_shap(f, x, bg, seed=11, msg_id=6)
        expected = w * (x - bg.mean)
        dense = np.zeros(d)
        for j, v in sv.phi.items():
            dense[j] = v
        np.testing.assert_allclose(dense, expected, atol=1e-8)

    def test_local_accuracy_holds_under_sampling(self):
        rng = np.random.default_rng(5)
        d = 14
        bg = _bg(rng.random((8, d)))
        x = rng.random(d) + 0.5

        def f(rows):
            return np.tanh(rows @ np.linspace(-1, 1, d))

        sv = kernel_shap(f, x, bg, seed=9, msg_id=7)
        np.testing.assert_allclose(sv.total(), f(x[None, :])[0], atol=1e-9)

    def test_sampling_approximates_exact_values(self):
        rng = np.random.default_rng(6)
        d = 13
        bg = _bg(rng.random((4, d)))
        x = rng.random(d) + 1.0
        coef = np.linspace(0.5, 1.5, d)

        def f(rows):
            return (rows @ coef) ** 2 / d

        sv = kernel_shap(f, x, bg, seed=13, msg_id=8)
        oracle = brute_force_shapley(f, x, bg.rows)
        dense = np.zeros(d)
        for j, v in sv.phi.items():
            dense[j] = v
        scale = np.abs(oracle).max()
        np.testing.assert_allclose(dense, oracle, atol=0.05 * scale)

    def test_deterministic_per_seed_and_message(self):
        rng = np.random.default_rng(7)
        d = 13
        bg = _bg(rng.random((5, d)))
        x = rng.random(d) + 1.0

        def f(rows):
            return np.sin(rows.sum(axis=1))

        a = kernel_shap(f, x, bg, seed=21, msg_id=9)
        b = kernel_shap(f, x, bg, seed=21, msg_id=9)
        other = kernel_shap(f, x, bg, seed=21, msg_id=10)
        assert a.phi == b.phi
        assert a.phi != other.phi

    def test_degenerate_system_ridge_warns(self):
        rng = np.random.default_rng(8)
        d = 13
        bg = _bg(rng.random((3, d)))
        x = rng.random(d) + 1.0

        def f(rows):
            return rows.sum(axis=1) ** 2

        with pytest.warns(UserWarning, match="ridge"):
            sv = kernel_shap(f, x, bg, n_coalitions=6, seed=3, msg_id=11)
        np.testing.assert_allclose(sv.total(), f(x[None, :])[0], atol=1e-9)


def _loop_enumeration(m):
    """The coalition enumeration as first written, one bit at a time."""
    count = 2 ** m - 2
    masks = np.zeros((count, m), dtype=bool)
    for row, code in enumerate(range(1, 2 ** m - 1)):
        for j in range(m):
            masks[row, j] = bool(code >> j & 1)
    sizes = masks.sum(axis=1)
    weights = np.empty(len(sizes))
    for i, s in enumerate(sizes):
        weights[i] = (m - 1) / (math.comb(m, int(s)) * s * (m - s))
    return masks, weights


def _choice_sampler(m, n_coalitions, rng):
    """The paired sampler as first written, drawing sizes through
    Generator.choice(sizes, p=...)."""
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
    return masks


class TestCoalitions:
    @pytest.mark.parametrize("m", range(2, 13))
    def test_enumeration_matches_loops(self, m):
        masks, weights = _enumerate_coalitions(m)
        ref_masks, ref_weights = _loop_enumeration(m)
        np.testing.assert_array_equal(masks, ref_masks)
        assert weights.tobytes() == ref_weights.tobytes()

    @pytest.mark.parametrize("m", [2, 3, 13, 57, 300])
    @pytest.mark.parametrize("n_coalitions", [1, 6, 7, 64, 513])
    def test_sampler_matches_choice_with_p(self, m, n_coalitions):
        rng, ref_rng = (np.random.default_rng([m, n_coalitions])
                        for _ in range(2))
        masks, weights = _sample_coalitions(m, n_coalitions, rng)
        np.testing.assert_array_equal(
            masks, _choice_sampler(m, n_coalitions, ref_rng))
        np.testing.assert_array_equal(weights, np.ones(n_coalitions))
        # Both consumed the same stretch of the generator's stream.
        assert rng.random() == ref_rng.random()


def _nb_model(d, structural_start, seed):
    rng = np.random.default_rng(seed)
    X = rng.random((12, d))
    X[:, structural_start:] *= 40.0
    return train_nb(X, np.array([0, 1] * 6),
                    structural_start=structural_start), X


def _svm_model(d, seed):
    rng = np.random.default_rng(seed)
    return LinearModel(kind="svm", weights=rng.normal(size=d),
                       bias=0.3, calibration=(1.7, -0.2)), rng.random((12, d))


class TestKernelShapModels:
    """A LinearModel or NBModel is explained from coalition margins; the
    attributions equal those of its probability_function as a callable."""

    @staticmethod
    def _both_paths(model, x, bg, **kw):
        by_model = kernel_shap(model, x, bg, **kw)
        by_callable = kernel_shap(
            lambda rows: probability_function(model, rows), x, bg, **kw)
        assert set(by_model.phi) == set(by_callable.phi)
        assert by_model.base_value == by_callable.base_value
        for j, v in by_callable.phi.items():
            assert abs(by_model.phi[j] - v) <= 1e-12
        return by_model

    @pytest.mark.parametrize("n_active", [2, 7, 12])
    @pytest.mark.parametrize("kind", ["svm", "nb"])
    def test_enumerated(self, kind, n_active):
        d = 30
        model, X = _nb_model(d, 24, 1) if kind == "nb" else _svm_model(d, 1)
        bg = _bg(X[:8])
        x = bg.mean.copy()
        cols = np.random.default_rng(2).choice(d, n_active, replace=False)
        x[cols] += 0.5
        sv = self._both_paths(model, x, bg, msg_id=3)
        assert set(sv.phi) <= set(cols.tolist())

    @pytest.mark.parametrize("n_coalitions", [None, 201])
    @pytest.mark.parametrize("kind", ["svm", "nb"])
    def test_sampled(self, kind, n_coalitions):
        d = 40
        model, X = _nb_model(d, 30, 4) if kind == "nb" else _svm_model(d, 4)
        bg = _bg(X[:10])
        x = np.random.default_rng(5).random(d)
        self._both_paths(model, x, bg, n_coalitions=n_coalitions, seed=7,
                         msg_id=12)

    def test_nb_structural_values_clipped(self):
        model, X = _nb_model(20, 14, 6)
        bg = _bg(X[:9])
        x = np.random.default_rng(7).random(20)
        # Structural values above the training maximum and below the
        # minimum clip to the same transformed value as the bounds.
        x[14:17] = model.struct_max[:3] + 25.0
        x[17:] = model.struct_min[3:] - 25.0
        sv = self._both_paths(model, x, bg, seed=1, msg_id=0)
        np.testing.assert_allclose(
            sv.total(), probability_function(model, x[None, :])[0],
            rtol=0, atol=1e-12)

    def test_well_conditioned_system_does_not_ridge(self):
        model, X = _svm_model(30, 8)
        bg = _bg(X[:10])
        x = np.random.default_rng(9).random(30)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            kernel_shap(model, x, bg, seed=2, msg_id=5)


class TestKernelExplain:
    """kernel_explain is kernel_shap row by row, stored as the CSR that
    _to_csr makes of the dense matrix, in any number of processes."""

    IDS = [10, 13, 16, 19, 22, 25, 28, 31, 34]

    @staticmethod
    def _rows(kind):
        d = 30
        model, X = _nb_model(d, 24, 3) if kind == "nb" else _svm_model(d, 3)
        bg = _bg(X[:6])
        rows = np.random.default_rng(4).random((9, d))
        rows[2] = rows[6] = bg.mean  # no deviation: warned, no entries
        rows[5, 5:] = bg.mean[5:]  # five active columns: enumerated
        return model, rows, bg

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["svm", "nb"])
    def test_equals_per_message_csr(self, kind, workers, monkeypatch):
        model, X, bg = self._rows(kind)
        dense, bases = np.zeros(X.shape), []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            for i, msg_id in enumerate(self.IDS):
                sv = kernel_shap(model, X[i], bg, seed=5, msg_id=msg_id)
                dense[i, list(sv.phi)] = list(sv.phi.values())
                bases.append(sv.base_value)
        monkeypatch.setattr(attribution, "_default_workers", lambda: workers)
        with pytest.warns(UserWarning) as caught:
            csr, base_values = kernel_explain(model, X, bg, self.IDS, seed=5)
        expected = _to_csr(dense)
        assert csr.keys() == expected.keys()
        for key, array in expected.items():
            assert csr[key].dtype == array.dtype, key
            assert csr[key].tobytes() == array.tobytes(), key
        assert base_values.tobytes() == np.array(bases).tobytes()
        # The workers' warnings are raised again here, in message order.
        assert [str(w.message).split(":")[0] for w in caught
                if "no deviation" in str(w.message)] == [
            f"message {self.IDS[2]}", f"message {self.IDS[6]}"]

    def test_workers_default_to_available_cores(self, monkeypatch):
        for var in BLAS_THREAD_VARS:
            monkeypatch.setenv(var, "1")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5},
                            raising=False)
        assert attribution._default_workers() == 3

    @pytest.mark.parametrize("var", BLAS_THREAD_VARS)
    def test_one_worker_unless_blas_is_single_threaded(self, monkeypatch,
                                                       var):
        # A BLAS with its own threads makes the process unsafe to fork.
        for name in BLAS_THREAD_VARS:
            monkeypatch.setenv(name, "1")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        monkeypatch.setenv(var, "2")
        assert attribution._default_workers() == 1
        monkeypatch.delenv(var)
        assert attribution._default_workers() == 1

    def test_one_worker_while_another_thread_runs(self, monkeypatch):
        for var in BLAS_THREAD_VARS:
            monkeypatch.setenv(var, "1")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        assert attribution._default_workers() == 2
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait, args=(10,))
        thread.start()
        try:
            assert attribution._default_workers() == 1
        finally:
            stop.set()
            thread.join(10)
        assert not thread.is_alive()
        assert attribution._default_workers() == 2

    def test_one_worker_without_sched_getaffinity(self, monkeypatch):
        # Platforms without it (macOS, Windows) run explain in process.
        for var in BLAS_THREAD_VARS:
            monkeypatch.setenv(var, "1")
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert attribution._default_workers() == 1


class TestSplitSupports:
    def test_sign_split_example(self):
        phi = np.array([[1.5, -0.2, 0.0]])
        np.testing.assert_array_equal(polarity_supports(phi, "plus"),
                                      [[1.5, 0.0, 0.0]])
        np.testing.assert_array_equal(polarity_supports(phi, "minus"),
                                      [[0.0, 0.2, 0.0]])

    def test_zero_vector(self):
        phi = np.zeros((2, 4))
        for polarity in ("plus", "minus"):
            assert not polarity_supports(phi, polarity).any()

    def test_polarity_validated(self):
        with pytest.raises(ValueError, match="polarity"):
            polarity_supports(np.zeros((1, 2)), "positive")

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-10, 10, allow_nan=False), min_size=1,
                    max_size=30))
    def test_reconstruction_and_complementarity(self, values):
        phi = np.array(values).reshape(1, -1)
        plus = polarity_supports(phi, "plus")
        minus = polarity_supports(phi, "minus")
        assert not (plus.astype(bool) & minus.astype(bool)).any()
        np.testing.assert_array_equal(plus - minus, phi)
        assert np.all(plus >= 0) and np.all(minus >= 0)
        assert np.array_equal(plus != 0, phi > 0)
        assert np.array_equal(minus != 0, phi < 0)


class TestBackground:
    def test_stratified_counts(self):
        rng = np.random.default_rng(9)
        X = rng.random((100, 4))
        y = np.array([1] * 20 + [0] * 80)
        ids = list(range(100))
        bg = make_background(X, y, ids, size=50, seed=1)
        labels = [y[list(ids).index(i)] for i in bg.ids]
        assert len(bg.ids) == 50
        assert sum(labels) == 10

    def test_small_corpus_takes_everything(self):
        X = np.arange(12.0).reshape(6, 2)
        y = np.array([0, 1, 0, 1, 0, 1])
        bg = make_background(X, y, [5, 4, 3, 2, 1, 0], size=50, seed=1)
        assert bg.ids == (0, 1, 2, 3, 4, 5)

    def test_deterministic_and_digest(self):
        rng = np.random.default_rng(10)
        X = rng.random((40, 3))
        y = np.array([0, 1] * 20)
        a = make_background(X, y, list(range(40)), size=10, seed=2)
        b = make_background(X, y, list(range(40)), size=10, seed=2)
        assert a.ids == b.ids
        assert a.digest() == b.digest()
        c = make_background(X, y, list(range(40)), size=10, seed=3)
        assert a.digest() != c.digest()

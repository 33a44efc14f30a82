"""Tests for linear/kernel attribution against exact Shapley oracles."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topicaudit.attribution import (Background, kernel_shap, linear_shap,
                                    make_background, polarity_supports)
from topicaudit.classifiers import LinearModel, train_nb


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

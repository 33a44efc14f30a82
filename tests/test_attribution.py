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
                                    _paired_gram, _sample_coalitions,
                                    background_rows, kernel_explain,
                                    kernel_phi, kernel_shap, linear_shap,
                                    polarity_supports)
from topicaudit.classifiers import (LinearModel, probability_function,
                                    train_nb)
from topicaudit.features import CSR

from csr_layout import to_csr
from shap_vector import phi_of, total_of


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
    return Background(np.asarray(rows, dtype=float))


class TestLinearShap:
    def test_two_feature_example(self):
        model = LinearModel(kind="logreg", weights=np.array([2.0, -1.0]),
                            bias=0.0)
        phi = linear_shap(model, np.array([1.0, 1.0]), np.array([0.0, 0.0]))
        assert phi.tolist() == [2.0, -1.0]

    def test_no_deviation_no_attribution(self):
        model = LinearModel(kind="logreg", weights=np.array([2.0, -1.0]),
                            bias=0.5)
        mu = np.array([0.3, 0.7])
        assert not linear_shap(model, mu.copy(), mu).any()

    def test_local_accuracy_exact(self):
        rng = np.random.default_rng(0)
        model = LinearModel(kind="logreg", weights=rng.normal(size=20),
                            bias=0.25)
        x = rng.normal(size=20)
        mu = rng.normal(size=20)
        # The base value is the margin at mu.
        base = model.weights @ mu + model.bias
        np.testing.assert_allclose(base + linear_shap(model, x, mu).sum(),
                                   model.weights @ x + model.bias,
                                   rtol=0, atol=1e-12)

    def test_rows_match_one_row_calls(self):
        rng = np.random.default_rng(4)
        X = rng.random((6, 5))
        model = train_nb(X, np.array([0, 1] * 3), structural_start=3)
        mu = X.mean(axis=0)
        phi = linear_shap(model, X, mu)
        assert phi.shape == X.shape
        for i in range(len(X)):
            np.testing.assert_array_equal(phi[i], linear_shap(model, X[i], mu))

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
        for j, v in phi_of(sv).items():
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
        for j, v in phi_of(sv).items():
            dense[j] = v
        np.testing.assert_allclose(dense, oracle, atol=1e-6)

    def test_local_accuracy(self):
        rng = np.random.default_rng(3)
        bg = _bg(rng.random((5, 8)))
        x = rng.random(8) + 0.5

        def f(rows):
            return np.tanh(rows.sum(axis=1))

        sv = kernel_shap(f, x, bg, msg_id=2)
        np.testing.assert_allclose(total_of(sv), f(x[None, :])[0], atol=1e-9)

    def test_x_equal_to_single_background_row(self):
        x = np.array([0.1, 0.2, 0.3])
        bg = _bg(x[None, :])
        with pytest.warns(UserWarning, match="no deviation"):
            sv = kernel_shap(lambda rows: rows.sum(axis=1), x, bg, msg_id=3)
        assert phi_of(sv) == {}

    def test_duplicate_columns_get_equal_phi(self):
        # Columns 0 and 1 are mirror images in x and every background row.
        bg = _bg(np.array([[0.2, 0.2, 0.0], [0.4, 0.4, 1.0]]))
        x = np.array([1.0, 1.0, 2.0])

        def f(rows):
            return (rows[:, 0] + rows[:, 1]) * rows[:, 2]

        sv = kernel_shap(f, x, bg, msg_id=4)
        np.testing.assert_allclose(phi_of(sv)[0], phi_of(sv)[1], rtol=1e-9)

    def test_single_active_column(self):
        bg = _bg(np.array([[0.0, 1.0], [0.0, 1.0]]))
        x = np.array([3.0, 1.0])

        def f(rows):
            return rows[:, 0] ** 2 + rows[:, 1]

        sv = kernel_shap(f, x, bg, msg_id=5)
        assert set(phi_of(sv)) == {0}
        np.testing.assert_allclose(phi_of(sv)[0], 9.0, atol=1e-12)


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
        for j, v in phi_of(sv).items():
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
        np.testing.assert_allclose(total_of(sv), f(x[None, :])[0], atol=1e-9)

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
        for j, v in phi_of(sv).items():
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
        assert phi_of(a) == phi_of(b)
        assert phi_of(a) != phi_of(other)

    def test_degenerate_system_ridge_warns(self):
        rng = np.random.default_rng(8)
        d = 13
        bg = _bg(rng.random((3, d)))
        x = rng.random(d) + 1.0

        def f(rows):
            return rows.sum(axis=1) ** 2

        with pytest.warns(UserWarning, match="ridge"):
            sv = kernel_shap(f, x, bg, n_coalitions=6, seed=3, msg_id=11)
        np.testing.assert_allclose(total_of(sv), f(x[None, :])[0], atol=1e-9)


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


class TestPairedGram:
    @pytest.mark.parametrize("m", [13, 57, 300])
    @pytest.mark.parametrize("n_coalitions", [1, 2, 6, 7, 64, 513, 3264])
    def test_equals_the_full_product(self, m, n_coalitions):
        # The design kernel_shap builds from paired sampled masks.
        rng = np.random.default_rng([m, n_coalitions])
        masks, weights = _sample_coalitions(m, n_coalitions, rng)
        z = masks.astype(float)
        a = (z[:, :-1] - z[:, -1:]) * np.sqrt(weights)[:, None]
        assert _paired_gram(a).tobytes() == (a.T @ a).tobytes()

    def test_refuses_too_many_pairs(self, monkeypatch):
        # Lowered from 2**24 pairs, where float32 stops being exact.
        monkeypatch.setattr(attribution, "MAX_PAIRS", 8)
        rng = np.random.default_rng(3)
        bg = _bg(rng.random((4, 20)))
        x = rng.random(20) + 1.0

        def f(rows):
            return np.tanh(rows.sum(axis=1))

        kernel_shap(f, x, bg, n_coalitions=15, seed=1, msg_id=0)
        for n_coalitions in (16, 17):
            with pytest.raises(ValueError, match=f"{n_coalitions} coal"):
                kernel_shap(f, x, bg, n_coalitions=n_coalitions, seed=1,
                            msg_id=0)
        # Enumerated active sets draw no coalitions.
        kernel_shap(f, np.where(np.arange(20) < 5, x, bg.mean), bg,
                    n_coalitions=16, seed=1, msg_id=0)


class TestShapVectorValues:
    def test_every_active_column_in_order(self):
        rng = np.random.default_rng(12)
        bg = _bg(rng.random((4, 30)))
        x = bg.mean.copy()
        x[[3, 7, 11, 20, 21, 29]] += 1.0

        def f(rows):
            return np.tanh(rows @ np.linspace(-1, 1, 30))

        for cols in ([3], [3, 7, 11], [3, 7, 11, 20, 21, 29]):
            x_cols = np.where(np.isin(np.arange(30), cols), x, bg.mean)
            sv = kernel_shap(f, x_cols, bg, seed=2, msg_id=1)
            assert sv.columns.tolist() == cols
            assert sv.values.shape == (len(cols),)

    def test_zero_attributions_are_kept(self):
        # A constant function gives each active column an exact zero,
        # which the values keep.
        bg = _bg(np.array([[0.0, 1.0, 2.0]]))
        x = np.array([5.0, 1.0, 2.0])
        sv = kernel_shap(lambda rows: np.ones(len(rows)), x, bg, msg_id=2)
        assert sv.columns.tolist() == [0]
        assert sv.values.tolist() == [0.0]
        assert total_of(sv) == 1.0


class TestKernelShapModels:
    """A LinearModel, NB's included, is explained from coalition margins;
    the attributions equal those of its probability_function as a
    callable."""

    @staticmethod
    def _both_paths(model, x, bg, **kw):
        by_model = kernel_shap(model, x, bg, **kw)
        by_callable = kernel_shap(
            lambda rows: probability_function(model, rows), x, bg, **kw)
        assert set(phi_of(by_model)) == set(phi_of(by_callable))
        assert by_model.base_value == by_callable.base_value
        for j, v in phi_of(by_callable).items():
            assert abs(phi_of(by_model)[j] - v) <= 1e-12
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
        assert set(phi_of(sv)) <= set(cols.tolist())

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
            total_of(sv), probability_function(model, x[None, :])[0],
            rtol=0, atol=1e-12)

    def test_well_conditioned_system_does_not_ridge(self):
        model, X = _svm_model(30, 8)
        bg = _bg(X[:10])
        x = np.random.default_rng(9).random(30)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            kernel_shap(model, x, bg, seed=2, msg_id=5)


class TestKernelExplain:
    """kernel_explain is kernel_shap row by row, in any number of
    processes; kernel_phi turns its values into the CSR that to_csr makes
    of the dense matrix of the nonzero attributions."""

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
        dense, values = np.zeros(X.shape), []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            for i in range(len(X)):
                sv = kernel_shap(model, X[i], bg, seed=5, msg_id=i)
                nonzero = phi_of(sv)
                dense[i, list(nonzero)] = list(nonzero.values())
                values.append(sv.values)
        monkeypatch.setattr(attribution, "_default_workers", lambda: workers)
        with pytest.warns(UserWarning) as caught:
            data = kernel_explain(model, CSR.of(to_csr(X)), bg.rows, seed=5)
        assert data.tobytes() == np.concatenate(values).tobytes()
        csr = kernel_phi(CSR.of(to_csr(X)), bg.mean, data)
        expected = to_csr(dense)
        assert csr.shape == tuple(expected["shape"])
        for key in ("indptr", "indices", "data"):
            assert getattr(csr, key).dtype == expected[key].dtype, key
            assert getattr(csr, key).tobytes() == expected[key].tobytes(), key
        # The workers' warnings are raised again here, in message order,
        # row i as message i.
        assert [str(w.message).split(":")[0] for w in caught
                if "no deviation" in str(w.message)] == [
            "message 2", "message 6"]

    def test_kernel_phi_leaves_exact_zeros_out(self):
        # Active entries: row 0 at columns 0 and 2, none in row 1, row 2
        # at columns 0 and 1; the zero values of either sign are dropped,
        # as a CSR of the nonzero attributions holds them.
        X = np.array([[1.0, 0.0, 2.0, 0.5], [0.0, 0.0, 0.0, 0.5],
                      [3.0, 1.0, 0.0, 0.5]])
        mu = np.array([0.0, 0.0, 0.0, 0.5])
        data = np.array([0.25, -0.0, 0.0, -1.5])
        phi = kernel_phi(CSR.of(to_csr(X)), mu, data)
        expected = np.zeros(X.shape)
        expected[0, 0], expected[2, 1] = 0.25, -1.5
        for key, array in to_csr(expected).items():
            if key != "shape":
                assert getattr(phi, key).tobytes() == array.tobytes(), key
        assert phi.dense().tobytes() == expected.tobytes()
        for values in (data[:-1], np.append(data, 1.0)):
            with pytest.raises(ValueError, match=f"{values.size} values for "
                                                 "4 active entries"):
                kernel_phi(CSR.of(to_csr(X)), mu, values)

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
        y = np.array([1] * 20 + [0] * 80)
        rows = background_rows(y, size=50, seed=1)
        assert len(rows) == 50
        assert y[rows].sum() == 10

    def test_small_corpus_takes_everything(self):
        y = np.array([0, 1, 0, 1, 0, 1])
        rows = background_rows(y, size=50, seed=1)
        assert rows.tolist() == [0, 1, 2, 3, 4, 5]

    def test_deterministic(self):
        y = np.array([0, 1] * 20)
        a = background_rows(y, size=10, seed=2)
        b = background_rows(y, size=10, seed=2)
        assert a.tolist() == b.tolist() == sorted(set(a.tolist()))
        c = background_rows(y, size=10, seed=3)
        assert a.tolist() != c.tolist()

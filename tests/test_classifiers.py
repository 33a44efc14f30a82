"""Tests for logreg/SVM/NB training, calibration, and prediction."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from topicaudit import classifiers as clf
from topicaudit import features
from topicaudit.classifiers import (LinearModel, predict_all, train_logreg,
                                    train_nb, train_svm)
from topicaudit.config import PipelineConfig
from topicaudit.features import CSR
from topicaudit.pipeline import _load_model, _save_model

import layouts
from csr_layout import to_csr


def _csr(X):
    """A dense matrix as the CSR the trainers and predict_all read."""
    return CSR.of(to_csr(np.asarray(X, dtype=float)))


def _predict(model, X):
    """predict_all's (p_pos, label) of a dense matrix, through the CSR it
    reads."""
    return predict_all(model, _csr(X))


def _train_nb_dense(X, y, alpha=1.0, structural_start=None):
    """train_nb's formula on a dense X: the reference it must match."""
    if structural_start is None:
        structural_start = X.shape[1]
    scaler = LinearModel(kind="nb", weights=np.zeros(X.shape[1]), bias=0.0,
                         structural_start=structural_start,
                         struct_min=X[:, structural_start:].min(axis=0),
                         struct_max=X[:, structural_start:].max(axis=0))
    Xt = scaler.transform(X)
    log_prior = np.empty(2)
    log_theta = np.empty((2, X.shape[1]))
    for cls in (0, 1):
        rows = Xt[y == cls]
        log_prior[cls] = np.log(rows.shape[0] / len(y))
        mass = rows.sum(axis=0) + alpha
        log_theta[cls] = np.log(mass) - np.log(mass.sum())
    return LinearModel(kind="nb", weights=log_theta[1] - log_theta[0],
                       bias=float(log_prior[1] - log_prior[0]),
                       structural_start=structural_start,
                       struct_min=scaler.struct_min,
                       struct_max=scaler.struct_max)


def _sparse_matrices(max_rows=12, max_columns=9):
    """Matrices with empty rows and columns, -0.0 and one row or one
    column among them."""
    values = st.one_of(st.sampled_from([0.0, -0.0, 1.5, 40.0]),
                       st.floats(1e-3, 1e6))
    return st.tuples(st.integers(1, max_rows),
                     st.integers(1, max_columns)).flatmap(
        lambda shape: hnp.arrays(float, shape, elements=values))


def _toy_separable():
    X = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 0.1], [0.1, 2.0]])
    y = np.array([1, 0, 1, 0])
    return X, y


class TestLogReg:
    def test_separable_reaches_full_accuracy(self):
        X, y = _toy_separable()
        model = train_logreg(_csr(X), y, l2_strength=0.01, epochs=500)
        preds = [_predict(model, X[i:i + 1])[1][0] for i in range(len(X))]
        assert preds == list(y)

    def test_identical_features_recover_class_rate(self):
        # With every row equal, L2 forces w=0 and the bias fits the rate.
        X = np.ones((10, 3))
        y = np.array([1] * 7 + [0] * 3)
        model = train_logreg(_csr(X), y, epochs=2000)
        p = _predict(model, X[:1])[0][0]
        np.testing.assert_allclose(p, 0.7, atol=1e-3)

    def test_deterministic(self):
        X, y = _toy_separable()
        a = train_logreg(_csr(X), y)
        b = train_logreg(_csr(X), y)
        np.testing.assert_array_equal(a.weights, b.weights)
        assert a.bias == b.bias

    def test_margin_is_log_odds(self):
        model = LinearModel(kind="logreg", weights=np.array([1.0]), bias=0.0)
        p_pos, _ = _predict(model, np.array([[np.log(3.0)]]))
        np.testing.assert_allclose(p_pos[0], 0.75, rtol=1e-12)

    def test_zero_model_gives_half(self):
        model = LinearModel(kind="logreg", weights=np.zeros(4), bias=0.0)
        assert _predict(model, np.zeros((1, 4)))[0][0] == 0.5

    def test_large_structural_scale_still_trains(self):
        rng = np.random.default_rng(0)
        X = np.hstack([rng.random((40, 3)), rng.integers(0, 500, (40, 1))])
        y = (X[:, 0] > 0.5).astype(int)
        model = train_logreg(_csr(X), y, epochs=800)
        acc = np.mean([_predict(model, X[i:i + 1])[1][0]
                       for i in range(len(X))] == y)
        assert acc >= 0.9

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_gradient_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        X = _csr(rng.normal(size=(6, 4)))
        y_pm = rng.choice([-1.0, 1.0], size=6)
        wb = rng.normal(size=5)
        _, grad = clf._logistic_loss_grad(wb, X, y_pm, l2=0.7)
        eps = 1e-6
        for j in range(5):
            step = np.zeros(5)
            step[j] = eps
            hi, _ = clf._logistic_loss_grad(wb + step, X, y_pm, l2=0.7)
            lo, _ = clf._logistic_loss_grad(wb - step, X, y_pm, l2=0.7)
            fd = (hi - lo) / (2 * eps)
            np.testing.assert_allclose(grad[j], fd, rtol=1e-5, atol=1e-8)


class TestColumnScale:
    @settings(max_examples=60, deadline=None)
    @given(M=_sparse_matrices(max_rows=40), wide=st.integers(0, 300))
    def test_scale_is_the_dense_std_bitwise(self, M, wide):
        # Column blocks of a CSR give the bits of the dense X's std, also
        # past the first block of columns.
        M = np.hstack([M, np.tile(M[:, :1], (1, wide)) * 0.5])
        expected = np.maximum(M.std(axis=0), 1.0)
        assert clf._column_scale(_csr(M)).tobytes() == expected.tobytes()


class TestSVM:
    def test_separable_zero_hinge(self):
        X, y = _toy_separable()
        model = train_svm(_csr(X), y, C=100.0, epochs=3000)
        margins = clf.decision_function(model, X)
        y_pm = np.where(y > 0, 1.0, -1.0)
        hinge = np.maximum(0.0, 1.0 - y_pm * margins)
        assert hinge.max() <= 1e-6
        assert np.all(np.sign(margins) == y_pm)

    def test_probability_monotone_in_margin(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(60, 5))
        y = (X[:, 0] + 0.3 * rng.normal(size=60) > 0).astype(int)
        model = train_svm(_csr(X), y, epochs=500)
        margins = clf.decision_function(model, X)
        probs = clf.probability_function(model, X)
        order = np.argsort(margins)
        assert np.all(np.diff(probs[order]) >= -1e-12)

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(30, 4))
        y = (X[:, 1] > 0).astype(int)
        a = train_svm(_csr(X), y, epochs=300)
        b = train_svm(_csr(X), y, epochs=300)
        np.testing.assert_array_equal(a.weights, b.weights)
        assert a.calibration == b.calibration

    def test_single_class_fold_falls_back(self):
        # A singleton class leaves one fold's training part single-class.
        X = np.vstack([np.ones((7, 2)), -np.ones((1, 2))])
        y = np.array([1] * 7 + [0] * 1)
        with pytest.warns(UserWarning, match="single-class"):
            model = train_svm(_csr(X), y, epochs=100)
        assert model.calibration == (1.0, 0.0)

    def test_calibration_required_for_svm_only(self):
        with pytest.raises(ValueError, match="calibration"):
            LinearModel(kind="svm", weights=np.ones(2), bias=0.0)
        with pytest.raises(ValueError, match="calibration"):
            LinearModel(kind="logreg", weights=np.ones(2), bias=0.0,
                        calibration=(1.0, 0.0))

    def test_unknown_kind_refused(self):
        with pytest.raises(ValueError, match="kind"):
            LinearModel(kind="forest", weights=np.ones(2), bias=0.0)


class TestNB:
    def test_alpha_must_be_positive(self):
        X = np.ones((4, 2))
        y = np.array([0, 0, 1, 1])
        with pytest.raises(ValueError, match="alpha"):
            train_nb(_csr(X), y, alpha=0.0)

    def test_absent_feature_smoothing(self):
        # Class 0 mass: feature totals [3, 0], alpha=1, V=2 columns, so
        # theta0 = [4/5, 1/5]; class 1: totals [0, 2] -> theta1 = [1/4, 3/4].
        X = np.array([[3.0, 0.0], [0.0, 2.0]])
        y = np.array([0, 1])
        model = train_nb(_csr(X), y, alpha=1.0)
        np.testing.assert_allclose(
            model.weights, [np.log((1.0 / 4.0) / (4.0 / 5.0)),
                            np.log((3.0 / 4.0) / (1.0 / 5.0))], rtol=1e-12)

    def test_symmetric_classes_even_priors(self):
        X = np.array([[1.0, 0.0], [0.0, 1.0]])
        y = np.array([0, 1])
        model = train_nb(_csr(X), y)
        assert model.bias == 0.0

    def test_weights_are_the_log_likelihood_ratio_bitwise(self):
        # The linear form keeps the bits of log theta_1 - log theta_0 and
        # of the log prior ratio, computed from the scaled training mass.
        rng = np.random.default_rng(4)
        X = rng.random((30, 7)) * (rng.random((30, 7)) < 0.5)
        X[:, 5:] = rng.integers(0, 40, (30, 2))
        y = (rng.random(30) < 0.3).astype(int)
        model = train_nb(_csr(X), y, alpha=0.7, structural_start=5)
        Xt = model.transform(X)
        log_prior, log_theta = np.empty(2), np.empty((2, 7))
        for cls in (0, 1):
            rows = Xt[y == cls]
            log_prior[cls] = np.log(rows.shape[0] / len(y))
            mass = rows.sum(axis=0) + 0.7
            log_theta[cls] = np.log(mass) - np.log(mass.sum())
        assert model.weights.tobytes() == (
            log_theta[1] - log_theta[0]).tobytes()
        assert model.bias == float(log_prior[1] - log_prior[0])
        assert type(model.bias) is float

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), M=_sparse_matrices(max_rows=40),
           alpha=st.sampled_from([0.5, 1.0, 1.7]))
    def test_equals_the_dense_formula_bitwise(self, data, M, alpha):
        n, d = M.shape
        structural_start = data.draw(st.one_of(st.none(),
                                               st.integers(0, d)))
        start = d if structural_start is None else structural_start
        if data.draw(st.booleans()):
            # A structural minimum above 0 maps the smallest value to 0.
            M[:, start:] += data.draw(st.sampled_from([0.5, 12.0]))
        y = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n,
                                        max_size=n)))
        y[data.draw(st.integers(0, n - 1))] = 0
        y = np.append(y, 1)
        M = np.vstack([M, M[-1:]])
        got = train_nb(_csr(M), y, alpha=alpha,
                       structural_start=structural_start)
        expected = _train_nb_dense(M, y, alpha=alpha,
                                   structural_start=structural_start)
        # Equal as numbers: of a column holding both zeros, numpy's min
        # and max return either, by the column's memory layout.
        for name in ("struct_min", "struct_max"):
            assert np.array_equal(getattr(got, name), getattr(expected, name))
        assert got.bias == expected.bias
        assert got.structural_start == expected.structural_start
        assert got.weights.tobytes() == expected.weights.tobytes()

    def test_one_structural_column_is_summed_in_row_order(self):
        # numpy sums a one-column matrix pairwise but each column of a
        # wider one in row order, as the dense formula sums the structural
        # block with the text columns.
        for seed in range(10):
            rng = np.random.default_rng(seed)
            M = rng.random((400, 6)) * (rng.random((400, 6)) < 0.5) * 1e3
            y = (rng.random(400) < 0.5).astype(int)
            got = train_nb(_csr(M), y, structural_start=5)
            expected = _train_nb_dense(M, y, structural_start=5)
            assert got.weights.tobytes() == expected.weights.tobytes(), seed

    @pytest.mark.parametrize("fields, match", [
        ({"structural_start": 1}, "present iff kind is nb"),
        ({"struct_min": np.zeros(1), "struct_max": np.ones(1)},
         "present iff kind is nb"),
        ({"structural_start": 1, "struct_min": np.zeros(1),
          "struct_max": np.ones(1), "kind": "logreg"},
         "present iff kind is nb"),
        ({"structural_start": 1, "struct_min": np.zeros(1),
          "struct_max": np.ones(2)}, "expected \\(2,\\)"),
        ({"structural_start": 2, "struct_min": np.zeros(2),
          "struct_max": np.ones(2)}, "expected \\(1,\\)"),
        ({"structural_start": 4, "struct_min": np.zeros(0),
          "struct_max": np.ones(0)}, "expected \\(-1,\\)")])
    def test_structural_fields_validated(self, fields, match):
        fields = {"kind": "nb", "weights": np.ones(3), "bias": 0.0,
                  **fields}
        with pytest.raises(ValueError, match=match):
            LinearModel(**fields)

    def test_transform_is_the_identity_but_for_nb(self):
        X = np.arange(6.0).reshape(2, 3)
        for model in (LinearModel(kind="logreg", weights=np.ones(3),
                                  bias=0.0),
                      LinearModel(kind="svm", weights=np.ones(3), bias=0.0,
                                  calibration=(1.0, 0.0))):
            assert model.transform(X) is X
            part = X[:, [2]]
            assert model.transform(part, [2]) is part

    def test_hand_computed_posterior(self):
        # 4 docs, 2 words; alpha=1. Class 1: totals [4,1]+1 -> theta1=[5/7,2/7]
        # class 0: totals [1,3]+1 -> theta0=[2/6,4/6]; priors 1/2 each.
        X = np.array([[3.0, 1.0], [1.0, 0.0], [1.0, 2.0], [0.0, 1.0]])
        y = np.array([1, 1, 0, 0])
        model = train_nb(_csr(X), y, alpha=1.0)
        x = np.array([[2.0, 0.0]])
        p_pos, _ = _predict(model, x)
        s1 = np.log(0.5) + 2 * np.log(5.0 / 7.0)
        s0 = np.log(0.5) + 2 * np.log(2.0 / 6.0)
        expect = np.exp(s1) / (np.exp(s1) + np.exp(s0))
        np.testing.assert_allclose(p_pos[0], expect, rtol=1e-12)
        np.testing.assert_allclose(clf.decision_function(model, x)[0],
                                   s1 - s0, rtol=1e-12)

    def test_structural_block_scaled_and_clipped(self):
        X = np.array([[1.0, 0.0, 10.0], [0.0, 1.0, 30.0]])
        y = np.array([0, 1])
        model = train_nb(_csr(X), y, structural_start=2)
        Xt = model.transform(np.array([[0.5, 0.5, 50.0]]))
        assert Xt[0, 2] == 1.0
        Xt = model.transform(np.array([[0.5, 0.5, 20.0]]))
        np.testing.assert_allclose(Xt[0, 2], 0.5)

    def test_log_odds_linearization_matches_margin(self):
        rng = np.random.default_rng(5)
        X = rng.random((20, 6))
        y = (X[:, 0] > 0.5).astype(int)
        model = train_nb(_csr(X), y, structural_start=4)
        w, b = model.weights, model.bias
        Xt = model.transform(X)
        np.testing.assert_allclose(Xt @ w + b,
                                   clf.decision_function(model, X), rtol=1e-12)

    def test_transform_of_a_column_slice_is_the_slice_of_the_transform(self):
        rng = np.random.default_rng(8)
        X = rng.random((6, 8)) * 40.0
        model = train_nb(_csr(X[:4]), np.array([0, 1, 0, 1]), structural_start=5)
        full = model.transform(X)
        for columns in ([1, 5, 7], [6], [0, 2], slice(3, 8),
                        np.array([7, 5]), []):
            part = model.transform(X[:, columns], columns)
            assert part.tobytes() == np.ascontiguousarray(
                full[:, columns]).tobytes(), columns


class TestPrediction:
    @pytest.mark.parametrize("kind", ["logreg", "svm", "nb"])
    def test_batch_matches_one_row_calls(self, kind):
        rng = np.random.default_rng(2)
        X = rng.random((30, 5))
        y = (X[:, 0] > 0.5).astype(int)
        model = {"logreg": lambda: train_logreg(_csr(X), y),
                 "svm": lambda: train_svm(_csr(X), y, epochs=200),
                 "nb": lambda: train_nb(_csr(X), y, structural_start=4)}[kind]()
        p_pos, label = _predict(model, X)
        margin = clf.decision_function(model, X)
        for i in range(len(X)):
            one_p_pos, one_label = _predict(model, X[i:i + 1])
            assert label[i] == one_label[0]
            np.testing.assert_allclose(p_pos[i], one_p_pos[0],
                                       rtol=0, atol=1e-12)
            np.testing.assert_allclose(
                margin[i], clf.decision_function(model, X[i:i + 1])[0],
                rtol=0, atol=1e-12)

    @pytest.mark.parametrize("kind", ["logreg", "svm", "nb"])
    @pytest.mark.parametrize("n, block", [(1, 16), (17, 16), (33, 16),
                                          (50, 32), (300, 256), (513, 256)])
    def test_row_blocks_give_the_full_product(self, kind, n, block,
                                              monkeypatch):
        # predict_all multiplies a CSR X in dense row blocks, each row's
        # margin the bits of the whole dense matrix's product, also when
        # n is not a multiple of 16 or leaves a last row of its own.
        rng = np.random.default_rng(n)
        d = 301
        X = rng.random((n, d)) * (rng.random((n, d)) < 0.05)
        X[:, -17:] = rng.integers(0, 40, (n, 17))
        weights = rng.normal(size=d)
        model = {
            "logreg": lambda: LinearModel(kind="logreg", weights=weights,
                                          bias=0.3),
            "svm": lambda: LinearModel(kind="svm", weights=weights, bias=0.3,
                                       calibration=(1.7, -0.2)),
            "nb": lambda: train_nb(_csr(np.vstack([X, X + 1.0])),
                                   np.repeat([0, 1], n),
                                   structural_start=d - 17)}[kind]()
        monkeypatch.setattr(features, "ROW_BLOCK", block)
        p_pos, label = predict_all(model, CSR.of(to_csr(X)))
        margin = clf.decision_function(model, X)
        assert p_pos.tobytes() == clf._probability(model, margin).tobytes()
        assert np.array_equal(label, p_pos >= 0.5)

    def test_dimension_mismatch_rejected(self):
        model = LinearModel(kind="logreg", weights=np.ones(3), bias=0.0)
        with pytest.raises(ValueError, match="size 3 is different from 4"):
            _predict(model, np.ones((1, 4)))

    @settings(max_examples=30, deadline=None)
    @given(margin=st.floats(-20, 20))
    def test_probability_strictly_monotone(self, margin):
        model = LinearModel(kind="logreg", weights=np.array([1.0]), bias=0.0)
        lo = _predict(model, np.array([[margin]]))[0][0]
        hi = _predict(model, np.array([[margin + 0.1]]))[0][0]
        assert hi > lo


class TestModelIO:
    """model.npz round trips bit for bit through _save_model and
    _load_model."""

    @staticmethod
    def _roundtrip(tmp_path, model):
        """The model read back, after model.npz is found to hold the
        members and dtypes tests/layouts.py records for its kind."""
        cfg = PipelineConfig(out_dir=str(tmp_path))
        _save_model(cfg, model)
        layouts.check_archive(tmp_path / "model.npz",
                              layouts.MODEL[model.kind])
        space = SimpleNamespace(n_columns=model.weights.size)
        return _load_model(cfg, space)

    @staticmethod
    def _same_bits(a, b):
        a, b = np.asarray(a), np.asarray(b)
        return a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_linear_roundtrip(self, tmp_path):
        model = LinearModel(kind="svm",
                            weights=np.array([0.25, -1.5, -0.0, 5e-324]),
                            bias=0.1 + 0.2, calibration=(1.5, -0.25))
        back = self._roundtrip(tmp_path, model)
        assert isinstance(back, LinearModel) and back.kind == "svm"
        assert self._same_bits(back.weights, model.weights)
        assert type(back.bias) is float and back.bias == model.bias
        assert back.calibration == model.calibration
        assert all(type(v) is float for v in back.calibration)

    def test_logreg_roundtrip_has_no_calibration(self, tmp_path):
        X, y = _toy_separable()
        model = train_logreg(_csr(X), y, l2_strength=0.01, epochs=50)
        back = self._roundtrip(tmp_path, model)
        assert back.kind == "logreg" and back.calibration is None
        assert self._same_bits(back.weights, model.weights)
        assert back.bias == model.bias

    def test_nb_roundtrip(self, tmp_path):
        X = np.array([[1.0, 2.0, 5.0], [2.0, 1.0, 9.0]])
        y = np.array([0, 1])
        model = train_nb(_csr(X), y, alpha=0.5, structural_start=2)
        back = self._roundtrip(tmp_path, model)
        assert isinstance(back, LinearModel) and back.kind == "nb"
        for name in ("weights", "struct_min", "struct_max"):
            assert self._same_bits(getattr(back, name),
                                   getattr(model, name)), name
        assert type(back.bias) is float and back.bias == model.bias
        assert back.calibration is None
        assert type(back.structural_start) is int
        assert back.structural_start == 2
        x = np.array([[1.5, 1.5, 7.0]])
        for ours, theirs in zip(_predict(back, x), _predict(model, x)):
            assert self._same_bits(ours, theirs)
        assert self._same_bits(clf.decision_function(back, x),
                               clf.decision_function(model, x))

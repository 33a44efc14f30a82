"""Tests for logreg/SVM/NB training, calibration, and prediction."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from topicaudit import classifiers as clf
from topicaudit.classifiers import (LinearModel, NBModel, Prediction,
                                    predict_proba, train_logreg, train_nb,
                                    train_svm)


def _toy_separable():
    X = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 0.1], [0.1, 2.0]])
    y = np.array([1, 0, 1, 0])
    return X, y


class TestLogReg:
    def test_separable_reaches_full_accuracy(self):
        X, y = _toy_separable()
        model = train_logreg(X, y, l2_strength=0.01, epochs=500)
        preds = [predict_proba(model, x).label for x in X]
        assert preds == list(y)

    def test_identical_features_recover_class_rate(self):
        # With every row equal, L2 forces w=0 and the bias fits the rate.
        X = np.ones((10, 3))
        y = np.array([1] * 7 + [0] * 3)
        model = train_logreg(X, y, epochs=2000)
        p = predict_proba(model, X[0]).p_pos
        np.testing.assert_allclose(p, 0.7, atol=1e-3)

    def test_deterministic(self):
        X, y = _toy_separable()
        a = train_logreg(X, y, seed=3)
        b = train_logreg(X, y, seed=3)
        np.testing.assert_array_equal(a.weights, b.weights)
        assert a.bias == b.bias

    def test_margin_is_log_odds(self):
        model = LinearModel(kind="logreg", weights=np.array([1.0]), bias=0.0)
        pred = predict_proba(model, np.array([np.log(3.0)]))
        np.testing.assert_allclose(pred.p_pos, 0.75, rtol=1e-12)

    def test_zero_model_gives_half(self):
        model = LinearModel(kind="logreg", weights=np.zeros(4), bias=0.0)
        assert predict_proba(model, np.zeros(4)).p_pos == 0.5

    def test_large_structural_scale_still_trains(self):
        rng = np.random.default_rng(0)
        X = np.hstack([rng.random((40, 3)), rng.integers(0, 500, (40, 1))])
        y = (X[:, 0] > 0.5).astype(int)
        model = train_logreg(X, y, epochs=800)
        acc = np.mean([predict_proba(model, x).label for x in X] == y)
        assert acc >= 0.9

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_gradient_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(6, 4))
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


class TestSVM:
    def test_separable_zero_hinge(self):
        X, y = _toy_separable()
        model = train_svm(X, y, C=100.0, epochs=3000)
        margins = clf.decision_function(model, X)
        y_pm = np.where(y > 0, 1.0, -1.0)
        hinge = np.maximum(0.0, 1.0 - y_pm * margins)
        assert hinge.max() <= 1e-6
        assert np.all(np.sign(margins) == y_pm)

    def test_probability_monotone_in_margin(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(60, 5))
        y = (X[:, 0] + 0.3 * rng.normal(size=60) > 0).astype(int)
        model = train_svm(X, y, epochs=500)
        margins = clf.decision_function(model, X)
        probs = clf.probability_function(model, X)
        order = np.argsort(margins)
        assert np.all(np.diff(probs[order]) >= -1e-12)

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(30, 4))
        y = (X[:, 1] > 0).astype(int)
        a = train_svm(X, y, epochs=300)
        b = train_svm(X, y, epochs=300)
        np.testing.assert_array_equal(a.weights, b.weights)
        assert a.calibration == b.calibration

    def test_single_class_fold_falls_back(self):
        # A singleton class leaves one fold's training part single-class.
        X = np.vstack([np.ones((7, 2)), -np.ones((1, 2))])
        y = np.array([1] * 7 + [0] * 1)
        with pytest.warns(UserWarning, match="single-class"):
            model = train_svm(X, y, epochs=100)
        assert model.calibration == (1.0, 0.0)

    def test_calibration_required_for_svm_only(self):
        with pytest.raises(ValueError, match="calibration"):
            LinearModel(kind="svm", weights=np.ones(2), bias=0.0)
        with pytest.raises(ValueError, match="calibration"):
            LinearModel(kind="logreg", weights=np.ones(2), bias=0.0,
                        calibration=(1.0, 0.0))


class TestNB:
    def test_alpha_must_be_positive(self):
        X = np.ones((4, 2))
        y = np.array([0, 0, 1, 1])
        with pytest.raises(ValueError, match="alpha"):
            train_nb(X, y, alpha=0.0)

    def test_absent_feature_smoothing(self):
        # Class 0 mass: feature totals [3, 0], alpha=1, V=2 columns.
        X = np.array([[3.0, 0.0], [0.0, 2.0]])
        y = np.array([0, 1])
        model = train_nb(X, y, alpha=1.0)
        np.testing.assert_allclose(np.exp(model.log_theta[0, 1]), 1.0 / 5.0)
        np.testing.assert_allclose(np.exp(model.log_theta[0, 0]), 4.0 / 5.0)

    def test_symmetric_classes_even_priors(self):
        X = np.array([[1.0, 0.0], [0.0, 1.0]])
        y = np.array([0, 1])
        model = train_nb(X, y)
        np.testing.assert_allclose(np.exp(model.log_prior), [0.5, 0.5])

    def test_hand_computed_posterior(self):
        # 4 docs, 2 words; alpha=1. Class 1: totals [4,1]+1 -> theta1=[5/7,2/7]
        # class 0: totals [1,3]+1 -> theta0=[2/6,4/6]; priors 1/2 each.
        X = np.array([[3.0, 1.0], [1.0, 0.0], [1.0, 2.0], [0.0, 1.0]])
        y = np.array([1, 1, 0, 0])
        model = train_nb(X, y, alpha=1.0)
        x = np.array([2.0, 0.0])
        s1 = np.log(0.5) + 2 * np.log(5.0 / 7.0)
        s0 = np.log(0.5) + 2 * np.log(2.0 / 6.0)
        expect = np.exp(s1) / (np.exp(s1) + np.exp(s0))
        np.testing.assert_allclose(predict_proba(model, x).p_pos, expect,
                                   rtol=1e-12)
        np.testing.assert_allclose(predict_proba(model, x).margin, s1 - s0,
                                   rtol=1e-12)

    def test_structural_block_scaled_and_clipped(self):
        X = np.array([[1.0, 0.0, 10.0], [0.0, 1.0, 30.0]])
        y = np.array([0, 1])
        model = train_nb(X, y, structural_start=2)
        Xt = model.transform(np.array([[0.5, 0.5, 50.0]]))
        assert Xt[0, 2] == 1.0
        Xt = model.transform(np.array([[0.5, 0.5, 20.0]]))
        np.testing.assert_allclose(Xt[0, 2], 0.5)

    def test_log_odds_linearization_matches_margin(self):
        rng = np.random.default_rng(5)
        X = rng.random((20, 6))
        y = (X[:, 0] > 0.5).astype(int)
        model = train_nb(X, y, structural_start=4)
        w, b = clf.nb_log_odds(model)
        Xt = model.transform(X)
        np.testing.assert_allclose(Xt @ w + b,
                                   clf.decision_function(model, X), rtol=1e-12)


class TestPrediction:
    def test_label_threshold_enforced(self):
        with pytest.raises(ValueError, match="label"):
            Prediction(p_pos=0.7, label=0, margin=0.1)
        with pytest.raises(ValueError, match="label"):
            Prediction(p_pos=np.array([0.2, 0.7]), label=np.array([0, 0]),
                       margin=np.array([-1.0, 1.0]))

    @pytest.mark.parametrize("kind", ["logreg", "svm", "nb"])
    def test_batch_matches_one_row_calls(self, kind):
        rng = np.random.default_rng(2)
        X = rng.random((30, 5))
        y = (X[:, 0] > 0.5).astype(int)
        model = {"logreg": lambda: train_logreg(X, y),
                 "svm": lambda: train_svm(X, y, epochs=200),
                 "nb": lambda: train_nb(X, y, structural_start=4)}[kind]()
        batch = clf.predict_all(model, X)
        for i, x in enumerate(X):
            one = predict_proba(model, x)
            assert batch.label[i] == one.label
            np.testing.assert_allclose(batch.p_pos[i], one.p_pos,
                                       rtol=0, atol=1e-12)
            np.testing.assert_allclose(batch.margin[i], one.margin,
                                       rtol=0, atol=1e-12)

    def test_dimension_mismatch_rejected(self):
        model = LinearModel(kind="logreg", weights=np.ones(3), bias=0.0)
        with pytest.raises(ValueError, match="length 3"):
            predict_proba(model, np.ones(4))

    @settings(max_examples=30, deadline=None)
    @given(margin=st.floats(-20, 20))
    def test_probability_strictly_monotone(self, margin):
        model = LinearModel(kind="logreg", weights=np.array([1.0]), bias=0.0)
        lo = predict_proba(model, np.array([margin])).p_pos
        hi = predict_proba(model, np.array([margin + 0.1])).p_pos
        assert hi > lo


class TestModelIO:
    def test_linear_roundtrip(self, tmp_path):
        model = LinearModel(kind="svm", weights=np.array([0.25, -1.5]),
                            bias=0.125, calibration=(1.5, -0.25),
                            seed=7, config_digest="d1")
        path = tmp_path / "model.json"
        clf.write_model(path, model)
        back = clf.read_model(path)
        assert isinstance(back, LinearModel)
        np.testing.assert_array_equal(back.weights, model.weights)
        assert back.calibration == model.calibration
        assert back.config_digest == "d1"

    def test_nb_roundtrip(self, tmp_path):
        X = np.array([[1.0, 2.0, 5.0], [2.0, 1.0, 9.0]])
        y = np.array([0, 1])
        model = train_nb(X, y, structural_start=2, config_digest="d2")
        path = tmp_path / "model.json"
        clf.write_model(path, model)
        back = clf.read_model(path)
        assert isinstance(back, NBModel)
        np.testing.assert_array_equal(back.log_theta, model.log_theta)
        np.testing.assert_array_equal(back.struct_max, model.struct_max)
        x = np.array([1.5, 1.5, 7.0])
        np.testing.assert_allclose(predict_proba(back, x).p_pos,
                                   predict_proba(model, x).p_pos, rtol=1e-15)

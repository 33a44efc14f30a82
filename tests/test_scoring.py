"""Tests for JS scoring, detector metrics, rejection, and repair."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topicaudit import scoring
from topicaudit.scoring import (LN2, auroc, calibrate_tau, frr_at_trr,
                                js_divergence, rejected_at_trr, repair,
                                trr_cutoff)


def brute_force_auroc(scores, flags):
    pos = [s for s, f in zip(scores, flags) if f]
    neg = [s for s, f in zip(scores, flags) if not f]
    wins = sum((p > n) + 0.5 * (p == n) for p in pos for n in neg)
    return wins / (len(pos) * len(neg))


class TestJSDivergence:
    def test_identity_is_zero(self):
        p = np.array([0.2, 0.3, 0.5])
        assert js_divergence(p, p) == 0.0

    def test_disjoint_supports_hit_bound(self):
        np.testing.assert_allclose(
            js_divergence(np.array([1.0, 0.0]), np.array([0.0, 1.0])), LN2,
            rtol=1e-15)

    def test_hand_computed_value(self):
        val = js_divergence(np.array([1.0, 0.0]), np.array([0.5, 0.5]))
        np.testing.assert_allclose(val, 0.2157615543388171, rtol=1e-12)

    def test_zero_convention(self):
        val = js_divergence(np.array([0.5, 0.5, 0.0]),
                            np.array([0.5, 0.0, 0.5]))
        assert np.isfinite(val) and 0 < val < LN2

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            js_divergence(np.ones(2) / 2, np.ones(3) / 3)

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            js_divergence(np.array([1.5, -0.5]), np.array([0.5, 0.5]))

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 10 ** 6), dim=st.integers(2, 8))
    def test_bounds_and_symmetry(self, seed, dim):
        rng = np.random.default_rng(seed)
        p = rng.dirichlet(np.ones(dim))
        q = rng.dirichlet(np.ones(dim))
        d = js_divergence(p, q)
        assert 0.0 <= d <= LN2 + 1e-12
        np.testing.assert_allclose(d, js_divergence(q, p), rtol=1e-12)

    def test_broadcasts_over_leading_axes(self):
        rng = np.random.default_rng(3)
        p = rng.dirichlet(np.ones(4), size=5)
        q = rng.dirichlet(np.ones(4), size=(3, 1))
        q[0, 0, 1] = 0.0
        got = js_divergence(p[None, :, :], q)
        assert got.shape == (3, 5)
        for i in range(3):
            for j in range(5):
                assert got[i, j] == js_divergence(p[j], q[i, 0])

    KINDS = ("zero", "one_hot", "uniform", "dirichlet")

    @staticmethod
    def _vector(kind, m, rng):
        if kind == "zero":
            return np.zeros(m)
        if kind == "one_hot":
            return np.eye(m)[rng.integers(m)]
        if kind == "uniform":
            return np.full(m, 1.0 / m)
        return rng.dirichlet(np.ones(m))

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), m=st.integers(2, 8), r=st.sampled_from([1, 7]),
           n=st.one_of(st.just(0), st.just(1), st.integers(2, 24)))
    def test_stacks_against_one_profile(self, data, m, r, n):
        # The (n, R, M) representations of one prediction polarity scored
        # against its (R, M) profile in one call: each (row, profile)
        # pair has the bits it has alone, and the bits of one 2-D call
        # over the pairs gathered row by row.
        rng = np.random.default_rng(data.draw(st.integers(0, 10 ** 6)))
        kinds = data.draw(st.lists(st.sampled_from(self.KINDS),
                                   min_size=(n + 1) * r,
                                   max_size=(n + 1) * r))
        vectors = np.array([self._vector(kind, m, rng) for kind in kinds])
        stack = vectors[r:].reshape(n, r, m)
        profile = vectors[:r]
        got = js_divergence(stack, profile)
        assert got.shape == (n, r) and got.dtype == np.float64
        for i, j in itertools.product(range(n), range(r)):
            alone = js_divergence(stack[i, j], profile[j])
            assert np.float64(alone).tobytes() == got[i, j].tobytes()
        gathered = js_divergence(
            stack.reshape(-1, m),
            np.broadcast_to(profile, stack.shape).reshape(-1, m))
        assert gathered.tobytes() == got.tobytes()

    def test_smallest_subnormal_mass_stays_finite(self):
        # Halving p + q would underflow to 0 at the first entry.
        p = np.array([5e-324, 1.0])
        assert 0.0 <= js_divergence(p, np.array([0.0, 1.0])) < 1e-300

    def test_zero_iff_equal(self):
        rng = np.random.default_rng(0)
        p = rng.dirichlet(np.ones(5))
        q = p + np.array([0.01, -0.01, 0, 0, 0])
        assert js_divergence(p, q) > 1e-9


class TestAuroc:
    def test_perfect_separation(self):
        assert auroc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_all_ties(self):
        assert auroc([0.5] * 6, [1, 0, 1, 0, 1, 0]) == 0.5

    def test_four_pair_example(self):
        assert auroc([0.9, 0.8, 0.3, 0.1], [1, 0, 1, 0]) == 0.75

    def test_single_class_is_na(self):
        assert auroc([0.1, 0.2], [1, 1]) is None
        assert auroc([0.1, 0.2], [0, 0]) is None

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 10 ** 6), n=st.integers(4, 60))
    def test_matches_brute_force(self, seed, n):
        rng = np.random.default_rng(seed)
        scores = rng.choice([0.1, 0.3, 0.5, 0.7, 0.9], size=n)
        flags = rng.integers(0, 2, size=n)
        if flags.sum() in (0, n):
            flags[0] = 1 - flags[0]
        np.testing.assert_allclose(auroc(scores, flags),
                                   brute_force_auroc(scores, flags),
                                   rtol=1e-12)


def _frr(scores, flags, target):
    """frr_at_trr of the rows rejected at the target's cutoff."""
    return frr_at_trr(rejected_at_trr(scores, flags, target)[1], flags)


class TestFrrAtTrr:
    def test_separable_scores_zero_frr(self):
        scores = [0.9, 0.8, 0.2, 0.1, 0.15]
        flags = [1, 1, 0, 0, 0]
        assert _frr(scores, flags, 0.95) == 0.0

    def test_all_equal_rejects_everything(self):
        scores = [0.5] * 10
        flags = [1] * 3 + [0] * 7
        assert _frr(scores, flags, 0.95) == 1.0

    def test_counting_example(self):
        # 20 misclassified: 19 high scores and one straggler at 0.3.
        # k = ceil(0.95*20) = 19 so the cutoff is the 19th largest (0.7)
        # and no correct message at 0.5 is rejected.
        scores = [0.7 + 0.01 * i for i in range(19)] + [0.3] + [0.5] * 100
        flags = [1] * 20 + [0] * 100
        assert _frr(scores, flags, 0.95) == 0.0
        # Demanding full recall drags the cutoff to 0.3, rejecting all.
        assert _frr(scores, flags, 1.0) == 1.0

    @pytest.mark.parametrize("flags", [[1, 1, 1], [0, 0, 0]])
    def test_one_class_has_no_frr(self, flags):
        assert _frr([0.2, 0.5, 0.9], flags, 0.95) is None

    def test_monotone_in_target(self):
        rng = np.random.default_rng(1)
        scores = rng.random(60)
        flags = rng.integers(0, 2, 60)
        flags[0], flags[1] = 1, 0
        values = [_frr(scores, flags, t)
                  for t in (0.05, 0.25, 0.5, 0.75, 0.95, 1.0)]
        assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 10 ** 6))
    def test_matches_threshold_sweep_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 40))
        scores = rng.choice(np.linspace(0, 1, 7), size=n)
        flags = rng.integers(0, 2, size=n).astype(bool)
        if flags.sum() in (0, n):
            flags[0] = ~flags[0]
        target = float(rng.choice([0.5, 0.8, 0.95, 1.0]))
        n_mis, n_cor = flags.sum(), (~flags).sum()
        best = None
        for cutoff in np.unique(scores):
            trr = (scores[flags] >= cutoff).sum() / n_mis
            frr = (scores[~flags] >= cutoff).sum() / n_cor
            if trr >= target and (best is None or frr < best):
                best = frr
        np.testing.assert_allclose(_frr(scores, flags, target), best,
                                   rtol=1e-12)


class TestRejectSet:
    def test_full_recall_threshold_is_min_misclassified(self):
        scores = np.array([0.9, 0.4, 0.7, 0.2])
        flags = np.array([1, 1, 0, 0], dtype=bool)
        cutoff, rejected = rejected_at_trr(scores, flags, trr_fix=1.0)
        assert cutoff == 0.4
        assert rejected.tolist() == [True, True, True, False]
        assert (rejected & flags).tolist() == [True, True, False, False]
        assert (rejected & ~flags).tolist() == [False, False, True, False]

    def test_no_misclassified_rejects_nothing(self):
        cutoff, rejected = rejected_at_trr(np.array([0.9, 0.8]),
                                           np.array([0, 0]))
        assert cutoff == math.inf
        assert rejected.shape == (2,) and not rejected.any()

    def test_monotone_transform_leaves_partition_unchanged(self):
        rng = np.random.default_rng(3)
        scores = rng.random(30)
        flags = rng.integers(0, 2, 30)
        flags[:2] = [1, 0]
        _, a = rejected_at_trr(scores, flags, 0.9)
        _, b = rejected_at_trr(np.exp(3 * scores), flags, 0.9)
        assert np.array_equal(a, b)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10 ** 6))
    def test_partition_against_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        scores = rng.choice([0.2, 0.4, 0.6, 0.8], size=10)
        flags = rng.integers(0, 2, size=10).astype(bool)
        cutoff, rejected = rejected_at_trr(scores, flags, trr_fix=0.95)
        assert rejected.tolist() == [scores[i] >= cutoff for i in range(10)]
        true_rej, false_rej = rejected & flags, rejected & ~flags
        assert np.array_equal(true_rej | false_rej, rejected)
        assert not (true_rej & false_rej).any()
        if flags.any():
            assert true_rej.sum() / flags.sum() >= 0.95 - 1e-12


class TestRepair:
    # Four rejected rows: 0 and 1 are true rejections, 2 and 3 false.
    REJECTED = np.ones(4, dtype=bool)
    MISCLASSIFIED = np.array([True, True, False, False])
    PREDICTED = np.ones(4, dtype=int)

    def test_closed_gate(self):
        _, _, rep = repair(self.REJECTED, self.MISCLASSIFIED,
                           np.array([0.3, 0.2, 0.1, 0.4]), self.PREDICTED,
                           0.0, 0.0)
        assert rep["recov_r"] == 0.0 and rep["leak_r"] == 0.0
        assert rep["n_correct_fix"] == 0

    def test_open_gate(self):
        _, _, rep = repair(self.REJECTED, self.MISCLASSIFIED,
                           np.array([0.3, 0.2, 0.1, 0.4]), self.PREDICTED,
                           LN2, LN2)
        assert rep["recov_r"] == 1.0 and rep["leak_r"] == 1.0
        assert rep["n_recovery"] == 2 and rep["n_leakage"] == 2
        assert rep["n_correct_fix"] == 0

    def test_selective_gate_and_identity(self):
        recovered, leaked, rep = repair(
            self.REJECTED, self.MISCLASSIFIED, np.array([0.6, 0.2, 0.1, 0.4]),
            self.PREDICTED, 0.45, 0.45)
        # Recovered: 2 (0.1) and 3 (0.4); leaked: 1 (0.2).
        assert recovered.tolist() == [False, False, True, True]
        assert leaked.tolist() == [False, True, False, False]
        assert rep["n_recovery"] == 2 and rep["n_leakage"] == 1
        assert rep["recov_r"] == 1.0 and rep["leak_r"] == 0.5
        assert rep["n_correct_fix"] == rep["n_recovery"] - rep["n_leakage"]
        assert rep["n_correct_fix"] == 1
        assert rep["n_false_rejections"] == 2
        assert rep["n_true_rejections"] == 2
        ids = np.array([10, 11, 12, 13])
        assert ids[recovered | leaked].tolist() == [11, 12, 13]

    def test_na_scores_never_repair(self):
        recovered, leaked, rep = repair(
            self.REJECTED, self.MISCLASSIFIED,
            np.array([np.nan, 0.2, np.nan, 0.1]), self.PREDICTED, LN2, LN2)
        assert rep["n_recovery"] == 1 and rep["n_leakage"] == 1
        assert not (recovered | leaked)[[0, 2]].any()

    def test_polarity_specific_thresholds(self):
        # Rows 0 and 2 are predicted positive (tau_plus 0.4), 1 and 3
        # negative (tau_minus 0.1); only the positive rows clear the gate
        # at 0.3.
        predicted = np.array([1, 0, 1, 0])
        recovered, leaked, rep = repair(
            self.REJECTED, self.MISCLASSIFIED, np.full(4, 0.3), predicted,
            tau_plus=0.4, tau_minus=0.1)
        assert rep["n_leakage"] == 1 and rep["n_recovery"] == 1
        assert (recovered | leaked).tolist() == [True, False, True, False]
        assert (rep["tau_plus"], rep["tau_minus"]) == (0.4, 0.1)
        # The other way round only the negative rows come back.
        recovered, leaked, _ = repair(
            self.REJECTED, self.MISCLASSIFIED, np.full(4, 0.3), predicted,
            tau_plus=0.1, tau_minus=0.4)
        assert (recovered | leaked).tolist() == [False, True, False, True]

    def test_empty_denominators_are_na(self):
        _, _, rep = repair(np.array([True]), np.array([True]),
                           np.array([0.1]), np.array([1]), 0.2, 0.2)
        assert rep["recov_r"] is None
        assert rep["leak_r"] == 1.0
        _, _, rep = repair(np.array([True]), np.array([False]),
                           np.array([0.1]), np.array([0]), 0.2, 0.2)
        assert rep["recov_r"] == 1.0
        assert rep["leak_r"] is None

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10 ** 6))
    def test_accounting_matches_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        n = 12
        flags = rng.integers(0, 2, n).astype(bool)
        rejected = rng.random(n) < 0.75
        xmap = rng.random(n) * LN2
        predicted = rng.integers(0, 2, n)
        tau = {1: 0.3, 0: 0.5}
        recovered, leaked, rep = repair(rejected, flags, xmap, predicted,
                                        tau_plus=tau[1], tau_minus=tau[0])
        expected_back = {i for i in range(n)
                         if rejected[i] and xmap[i] <= tau[predicted[i]]}
        assert set(np.flatnonzero(recovered | leaked)) == expected_back
        assert not (recovered & leaked).any()
        exp_rec = [i for i in expected_back if not flags[i]]
        exp_leak = [i for i in expected_back if flags[i]]
        false_rej = [i for i in range(n) if rejected[i] and not flags[i]]
        true_rej = [i for i in range(n) if rejected[i] and flags[i]]
        assert recovered.sum() == rep["n_recovery"] == len(exp_rec)
        assert leaked.sum() == rep["n_leakage"] == len(exp_leak)
        assert rep["n_correct_fix"] == len(exp_rec) - len(exp_leak)
        assert rep["n_false_rejections"] == len(false_rej)
        assert rep["n_true_rejections"] == len(true_rej)
        assert rep["recov_r"] == (len(exp_rec) / len(false_rej)
                                  if false_rej else None)
        assert rep["leak_r"] == (len(exp_leak) / len(true_rej)
                                 if true_rej else None)


class TestCalibrateTau:
    def test_matches_trr_cutoff(self):
        rng = np.random.default_rng(4)
        scores = rng.random(50) * LN2
        flags = rng.integers(0, 2, 50).astype(bool)
        flags[:2] = [True, False]
        assert calibrate_tau(scores, flags, 0.95) == trr_cutoff(
            scores, flags, 0.95)

    def test_no_misclassifications_opens_gate(self):
        with pytest.warns(UserWarning, match="ln 2"):
            tau = calibrate_tau(np.array([0.1, 0.2]), np.array([0, 0]))
        assert tau == LN2

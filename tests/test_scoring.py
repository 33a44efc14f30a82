"""Tests for JS scoring, detector metrics, rejection, and repair."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topicaudit import scoring
from topicaudit.scoring import (LN2, Rejection, auroc, calibrate_tau,
                                frr_at_trr, js_divergence,
                                misclassification_score, reject_set, repair,
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

    def test_smallest_subnormal_mass_stays_finite(self):
        # Halving p + q would underflow to 0 at the first entry.
        p = np.array([5e-324, 1.0])
        assert 0.0 <= js_divergence(p, np.array([0.0, 1.0])) < 1e-300

    def test_zero_iff_equal(self):
        rng = np.random.default_rng(0)
        p = rng.dirichlet(np.ones(5))
        q = p + np.array([0.01, -0.01, 0, 0, 0])
        assert js_divergence(p, q) > 1e-9


class TestMisclassificationScore:
    # Two representations (original, rel_u); TN profile at index 0, TP at 1.
    NA = [np.nan, np.nan]
    PROFILES = np.array([[[0.5, 0.5], [0.5, 0.5]],
                         [[0.75, 0.25], NA]])

    def test_profile_match_scores_zero(self):
        vectors = np.array([[[0.75, 0.25], self.NA]])
        out = misclassification_score(vectors, self.PROFILES, [1])
        assert out.shape == (1, 2)
        assert out[0, 0] == 0.0

    def test_group_selected_by_prediction(self):
        vectors = np.array([[[0.5, 0.5], self.NA]] * 2)
        pos, neg = misclassification_score(vectors, self.PROFILES, [1, 0])
        assert pos[0] > 0.0
        assert neg[0] == 0.0

    def test_na_profile_gives_na_score(self):
        vectors = np.array([[[0.5, 0.5], [0.5, 0.5]]])
        out = misclassification_score(vectors, self.PROFILES, [1])
        assert np.isnan(out[0, 1])

    def test_na_representation_gives_na_score(self):
        vectors = np.array([[[0.5, 0.5], self.NA]])
        out = misclassification_score(vectors, self.PROFILES, [0])
        assert np.isnan(out[0, 1])


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


class TestFrrAtTrr:
    def test_separable_scores_zero_frr(self):
        scores = [0.9, 0.8, 0.2, 0.1, 0.15]
        flags = [1, 1, 0, 0, 0]
        assert frr_at_trr(scores, flags, 0.95) == 0.0

    def test_all_equal_rejects_everything(self):
        scores = [0.5] * 10
        flags = [1] * 3 + [0] * 7
        assert frr_at_trr(scores, flags, 0.95) == 1.0

    def test_counting_example(self):
        # 20 misclassified: 19 high scores and one straggler at 0.3.
        # k = ceil(0.95*20) = 19 so the cutoff is the 19th largest (0.7)
        # and no correct message at 0.5 is rejected.
        scores = [0.7 + 0.01 * i for i in range(19)] + [0.3] + [0.5] * 100
        flags = [1] * 20 + [0] * 100
        assert frr_at_trr(scores, flags, 0.95) == 0.0
        # Demanding full recall drags the cutoff to 0.3, rejecting all.
        assert frr_at_trr(scores, flags, 1.0) == 1.0

    def test_monotone_in_target(self):
        rng = np.random.default_rng(1)
        scores = rng.random(60)
        flags = rng.integers(0, 2, 60)
        flags[0], flags[1] = 1, 0
        values = [frr_at_trr(scores, flags, t)
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
        np.testing.assert_allclose(frr_at_trr(scores, flags, target), best,
                                   rtol=1e-12)


class TestRejectSet:
    def test_full_recall_threshold_is_min_misclassified(self):
        scores = np.array([0.9, 0.4, 0.7, 0.2])
        flags = np.array([1, 1, 0, 0])
        rej = reject_set(scores, flags, [10, 11, 12, 13], trr_fix=1.0)
        assert rej.threshold == 0.4
        assert rej.rejected_ids == (10, 11, 12)
        assert rej.true_rejections == (10, 11)
        assert rej.false_rejections == (12,)

    def test_no_misclassified_rejects_nothing(self):
        rej = reject_set(np.array([0.9, 0.8]), np.array([0, 0]), [0, 1])
        assert rej.threshold == math.inf
        assert rej.rejected_ids == ()

    def test_monotone_transform_leaves_partition_unchanged(self):
        rng = np.random.default_rng(3)
        scores = rng.random(30)
        flags = rng.integers(0, 2, 30)
        flags[:2] = [1, 0]
        ids = list(range(30))
        a = reject_set(scores, flags, ids, 0.9)
        b = reject_set(np.exp(3 * scores), flags, ids, 0.9)
        assert a.rejected_ids == b.rejected_ids

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10 ** 6))
    def test_partition_against_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        scores = rng.choice([0.2, 0.4, 0.6, 0.8], size=10)
        flags = rng.integers(0, 2, size=10).astype(bool)
        ids = list(range(10))
        rej = reject_set(scores, flags, ids, trr_fix=0.95)
        expected_rejected = tuple(i for i in ids
                                  if scores[i] >= rej.threshold)
        assert rej.rejected_ids == expected_rejected
        assert set(rej.true_rejections) | set(rej.false_rejections) \
            == set(rej.rejected_ids)
        assert not set(rej.true_rejections) & set(rej.false_rejections)
        if flags.any():
            n_mis = flags.sum()
            trr = sum(1 for i in rej.true_rejections) / n_mis
            assert trr >= 0.95 - 1e-12


class TestRepair:
    def _rejection(self):
        return Rejection(threshold=0.5, rejected_ids=(0, 1, 2, 3),
                         true_rejections=(0, 1), false_rejections=(2, 3))

    def test_closed_gate(self):
        xmap = {0: 0.3, 1: 0.2, 2: 0.1, 3: 0.4}
        rep = repair([self._rejection()], xmap, {"plus": 0.0, "minus": 0.0},
                     {i: "plus" for i in range(4)})
        assert rep.recov_r == 0.0 and rep.leak_r == 0.0
        assert rep.n_correct_fix == 0

    def test_open_gate(self):
        xmap = {0: 0.3, 1: 0.2, 2: 0.1, 3: 0.4}
        rep = repair([self._rejection()], xmap, {"plus": LN2, "minus": LN2},
                     {i: "plus" for i in range(4)})
        assert rep.recov_r == 1.0 and rep.leak_r == 1.0
        assert rep.n_recovery == 2 and rep.n_leakage == 2
        assert rep.n_correct_fix == 0

    def test_selective_gate_and_identity(self):
        xmap = {0: 0.6, 1: 0.2, 2: 0.1, 3: 0.4}
        rep = repair([self._rejection()], xmap, {"plus": 0.45, "minus": 0.0},
                     {i: "plus" for i in range(4)})
        # Recovered: 2 (0.1) and 3 (0.4); leaked: 1 (0.2).
        assert rep.n_recovery == 2 and rep.n_leakage == 1
        assert rep.recov_r == 1.0 and rep.leak_r == 0.5
        assert rep.n_correct_fix == 1
        assert rep.re_accepted_ids == (1, 2, 3)

    def test_na_scores_never_repair(self):
        xmap = {0: None, 1: 0.2, 2: None, 3: 0.1}
        rep = repair([self._rejection()], xmap, {"plus": LN2, "minus": LN2},
                     {i: "plus" for i in range(4)})
        assert rep.n_recovery == 1 and rep.n_leakage == 1

    def test_polarity_specific_thresholds(self):
        xmap = {0: 0.3, 1: 0.3, 2: 0.3, 3: 0.3}
        polarity = {0: "plus", 1: "minus", 2: "plus", 3: "minus"}
        rep = repair([self._rejection()], xmap, {"plus": 0.4, "minus": 0.1},
                     polarity)
        assert rep.n_leakage == 1 and rep.n_recovery == 1

    def test_empty_denominators_are_na(self):
        rej = Rejection(threshold=0.5, rejected_ids=(5,),
                        true_rejections=(5,), false_rejections=())
        rep = repair([rej], {5: 0.1}, {"plus": 0.2}, {5: "plus"})
        assert rep.recov_r is None
        assert rep.leak_r == 1.0

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10 ** 6))
    def test_accounting_matches_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        n = 12
        flags = rng.integers(0, 2, n).astype(bool)
        xmap = {i: float(rng.random() * LN2) for i in range(n)}
        polarity = {i: ("plus" if rng.random() < 0.5 else "minus")
                    for i in range(n)}
        tau = {"plus": 0.3, "minus": 0.5}
        rej = Rejection(
            threshold=0.0, rejected_ids=tuple(range(n)),
            true_rejections=tuple(i for i in range(n) if flags[i]),
            false_rejections=tuple(i for i in range(n) if not flags[i]))
        rep = repair([rej], xmap, tau, polarity)
        expected_back = {i for i in range(n)
                         if xmap[i] <= tau[polarity[i]]}
        assert set(rep.re_accepted_ids) == expected_back
        assert rep.n_recovery == sum(1 for i in expected_back if not flags[i])
        assert rep.n_leakage == sum(1 for i in expected_back if flags[i])
        assert rep.n_correct_fix == rep.n_recovery - rep.n_leakage


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

"""Tests for ranking, quota selection, NMF, and group profiles."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topicaudit import profiling as prof
from topicaudit.config import PipelineConfig
from topicaudit.pipeline import _reliable_profile
from topicaudit.uncertainty import REPRESENTATIONS


class TestFeatureStats:
    def test_mixed_column(self):
        supports = np.array([[0.2, 0.0], [0.0, 0.0], [0.4, 0.0]])
        stats = prof.feature_stats(supports)
        np.testing.assert_allclose(stats.presence[0], 2.0 / 3.0)
        np.testing.assert_allclose(stats.cond_mean[0], 0.3)

    def test_never_active_column(self):
        stats = prof.feature_stats(np.zeros((2, 3)))
        np.testing.assert_array_equal(stats.presence, np.zeros(3))
        np.testing.assert_array_equal(stats.cond_mean, np.zeros(3))

    def test_constant_column(self):
        stats = prof.feature_stats(np.array([[0.0, 0.7], [0.0, 0.7]]))
        assert stats.presence[1] == 1.0
        np.testing.assert_allclose(stats.cond_mean[1], 0.7)

    def test_explicit_zero_entries_do_not_count(self):
        stats = prof.feature_stats(np.array([[0.0], [0.5]]))
        np.testing.assert_allclose(stats.presence[0], 0.5)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            prof.feature_stats(np.zeros((0, 1)))

    @settings(max_examples=30, deadline=None)
    @given(st.permutations(list(range(6))))
    def test_invariant_to_message_order(self, perm):
        supports = np.array([[0.1, 0.0], [0.3, 0.2], [0.0, 0.0],
                             [0.0, 0.4], [0.2, 0.0], [0.0, 0.0]])
        base = prof.feature_stats(supports)
        shuffled = prof.feature_stats(supports[perm])
        np.testing.assert_array_equal(base.presence, shuffled.presence)
        # Summation order shifts the last ulp; anything beyond that is a bug.
        np.testing.assert_allclose(base.cond_mean, shuffled.cond_mean,
                                   rtol=1e-12)

    def test_matches_per_message_accumulation(self):
        # Column sums run over rows in order, exactly as adding each
        # message's supports one after another.
        rng = np.random.default_rng(4)
        supports = np.maximum(rng.normal(size=(40, 25)), 0.0)
        total = np.zeros(25)
        for row in supports:
            total += row
        active = (supports != 0).sum(axis=0)
        stats = prof.feature_stats(supports)
        expected = np.divide(total, active, out=np.zeros(25),
                             where=active > 0)
        assert np.array_equal(stats.cond_mean, expected)


class TestRankScore:
    def test_direct_evaluation(self):
        stats = prof.FeatureStats(presence=np.array([2.0 / 3.0]),
                                  cond_mean=np.array([0.3]))
        r = prof.rank_score(stats, tau_p=0.05)
        np.testing.assert_allclose(r[0], 0.3 * np.sqrt(2.0 / 3.0))

    def test_floor_binds_below_tau(self):
        stats = prof.FeatureStats(presence=np.array([0.01]),
                                  cond_mean=np.array([0.8]))
        r = prof.rank_score(stats, tau_p=0.05)
        np.testing.assert_allclose(r[0], 0.8 * np.sqrt(0.05))

    def test_zero_cond_mean_stays_zero(self):
        stats = prof.FeatureStats(presence=np.array([0.0]),
                                  cond_mean=np.array([0.0]))
        assert prof.rank_score(stats, tau_p=0.05)[0] == 0.0

    def test_tau_validated(self):
        stats = prof.FeatureStats(presence=np.zeros(1), cond_mean=np.zeros(1))
        with pytest.raises(ValueError, match="floor"):
            prof.rank_score(stats, tau_p=0.0)


class TestSelectTop:
    QUOTAS = {"word": 0.65, "phrase": 0.3, "structural": 0.05}

    def test_default_scale_quota_arithmetic(self):
        # 130 word, 60 phrase, 10 structural at K=200.
        rng = np.random.default_rng(0)
        families = np.array(["word"] * 500 + ["phrase"] * 300
                            + ["structural"] * 50)
        r = rng.random(850) + 0.1
        top = prof.select_top(r, families, self.QUOTAS, k=200)
        assert len(top) == 200
        assert (families[top] == "word").sum() == 130
        assert (families[top] == "phrase").sum() == 60
        assert (families[top] == "structural").sum() == 10

    def test_rounding_remainder_goes_to_word(self):
        rng = np.random.default_rng(1)
        families = np.array(["word"] * 50 + ["phrase"] * 50
                            + ["structural"] * 50)
        r = rng.random(150) + 0.1
        # floor quotas at k=10: 6 word + 3 phrase + 0 structural = 9.
        top = prof.select_top(r, families, self.QUOTAS, k=10)
        assert (families[top] == "word").sum() == 7
        assert (families[top] == "phrase").sum() == 3
        assert (families[top] == "structural").sum() == 0

    def test_quota_shrinks_on_zero_scores(self):
        families = np.array(["word"] * 10 + ["phrase"] * 10)
        r = np.zeros(20)
        r[[0, 1, 2]] = [0.5, 0.4, 0.3]
        quotas = {"word": 0.5, "phrase": 0.5}
        with pytest.warns(UserWarning, match="shrinking"):
            top = prof.select_top(r, families, quotas, k=20)
        assert top.tolist() == [0, 1, 2]

    def test_tie_breaks_to_lower_column(self):
        families = np.array(["word"] * 4)
        r = np.array([0.2, 0.5, 0.5, 0.5])
        top = prof.select_top(r, families, {"word": 1.0}, k=2)
        assert top.tolist() == [1, 2]

    def test_result_sorted_ascending(self):
        rng = np.random.default_rng(2)
        families = np.array(["word"] * 30 + ["phrase"] * 30)
        r = rng.random(60)
        top = prof.select_top(r, families, {"word": 0.5, "phrase": 0.5}, k=10)
        assert np.all(np.diff(top) > 0)

    def test_bad_quota_sum(self):
        with pytest.raises(ValueError, match="sum to 1"):
            prof.select_top(np.ones(2), np.array(["word", "word"]),
                            {"word": 0.9}, k=1)


class TestBuildMatrix:
    def test_identity_slice(self):
        supports = np.array([[1.0, 2.0], [0.0, 3.0]])
        X = prof.build_matrix(supports, np.array([0, 1]))
        np.testing.assert_array_equal(X, [[1.0, 2.0], [0.0, 3.0]])

    def test_zero_row_retained(self):
        supports = np.zeros((2, 6))
        supports[0, 5] = 1.0
        X = prof.build_matrix(supports, np.array([5]))
        np.testing.assert_array_equal(X, [[1.0], [0.0]])

    def test_unselected_columns_dropped(self):
        supports = np.zeros((1, 10))
        supports[0, [0, 9]] = [1.0, 4.0]
        X = prof.build_matrix(supports, np.array([9]))
        np.testing.assert_array_equal(X, [[4.0]])

    def test_row_major_layout(self):
        X = prof.build_matrix(np.arange(12.0).reshape(3, 4), np.array([1, 3]))
        assert X.flags["C_CONTIGUOUS"]


class TestNMF:
    def test_rank_one_recovery(self):
        rng = np.random.default_rng(3)
        u = rng.random(30) + 0.1
        v = rng.random(12) + 0.1
        X = np.outer(u, v)
        W, H, trace = prof.nmf(X, n_topics=1, max_iters=5000, tol=1e-13,
                               seed=4)
        rel = np.linalg.norm(X - W @ H, "fro") / np.linalg.norm(X, "fro")
        assert rel <= 1e-6

    def test_objective_nonincreasing(self):
        rng = np.random.default_rng(5)
        X = rng.random((25, 9))
        for seed in range(5):
            _, _, trace = prof.nmf(X, n_topics=3, max_iters=200, seed=seed)
            diffs = np.diff(trace)
            assert np.all(diffs <= 1e-9 * np.maximum(1.0, np.array(trace[:-1])))

    def test_zero_matrix(self):
        W, H, trace = prof.nmf(np.zeros((4, 3)), n_topics=2, seed=0)
        np.testing.assert_allclose(W @ H, np.zeros((4, 3)), atol=1e-30)
        assert trace[-1] == 0.0

    def test_too_many_topics_rejected(self):
        with pytest.raises(ValueError, match="topics exceed"):
            prof.nmf(np.ones((3, 5)), n_topics=4)

    def test_negative_input_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            prof.nmf(np.array([[-1.0]]), n_topics=1)

    def test_deterministic(self):
        rng = np.random.default_rng(6)
        X = rng.random((10, 6))
        W1, H1, _ = prof.nmf(X, n_topics=2, seed=9)
        W2, H2, _ = prof.nmf(X, n_topics=2, seed=9)
        np.testing.assert_array_equal(W1, W2)
        np.testing.assert_array_equal(H1, H2)

    def test_broken_update_raises_nmf_error(self, monkeypatch):
        # A huge denominator shrinks H toward zero, so the fit worsens.
        monkeypatch.setattr(prof, "EPS", 1e6)
        with pytest.raises(prof.NMFError, match="objective increased"):
            prof.nmf(np.ones((5, 4)), n_topics=2, seed=0)

    def test_zero_rows_produce_zero_weights(self):
        rng = np.random.default_rng(7)
        X = rng.random((6, 4))
        X[2] = 0.0
        W, H, _ = prof.nmf(X, n_topics=2, max_iters=200, seed=1)
        np.testing.assert_allclose(W[2], np.zeros(2), atol=1e-12)


class TestAssignTopics:
    def test_identity_matrix(self):
        assignment = prof.assign_topics(np.eye(3))
        np.testing.assert_array_equal(assignment, [0, 1, 2])

    def test_argmax(self):
        H = np.array([[0.1], [0.9]])
        assert prof.assign_topics(H)[0] == 1

    def test_tie_goes_to_lowest_topic(self):
        H = np.array([[0.5], [0.5]])
        assert prof.assign_topics(H)[0] == 0

    def test_dead_column_warns_and_goes_to_zero(self):
        H = np.array([[0.0, 1.0], [0.0, 0.5]])
        with pytest.warns(UserWarning, match="all-zero"):
            assignment = prof.assign_topics(H)
        assert assignment[0] == 0


class TestTopicContributions:
    def test_single_bucket(self):
        tc = prof.topic_contributions(np.array([1.0, 2.0]),
                                      np.array([0, 0]), 2)
        np.testing.assert_array_equal(tc, [3.0, 0.0])

    def test_zero_row(self):
        tc = prof.topic_contributions(np.zeros(3), np.array([0, 1, 0]), 2)
        np.testing.assert_array_equal(tc, [0.0, 0.0])

    def test_bucketed_sum(self):
        tc = prof.topic_contributions(np.array([1.0, 2.0, 3.0]),
                                      np.array([0, 1, 0]), 2)
        np.testing.assert_array_equal(tc, [4.0, 2.0])

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 8), st.integers(0, 10 ** 6))
    def test_partition_preserves_mass(self, n_topics, n_cols, seed):
        rng = np.random.default_rng(seed)
        row = rng.random(n_cols)
        assignment = rng.integers(0, n_topics, n_cols)
        tc = prof.topic_contributions(row, assignment, n_topics)
        np.testing.assert_allclose(tc.sum(), row.sum(), rtol=1e-12)


def _group_profile(tcs, n_topics):
    """Every representation profile of a group with topic contributions
    tcs (rows), as the profile stage computes it."""
    H = np.random.default_rng(0).random((n_topics, 2 * n_topics)) + 0.01
    return _reliable_profile(
        np.array(tcs, dtype=float).reshape(-1, n_topics), H,
        PipelineConfig(k_related=1, k_nn=5))


class TestGroupProfile:
    def test_singleton(self):
        p = _group_profile([[2.0, 2.0]], 2)
        np.testing.assert_allclose(p["original"], [0.5, 0.5])

    def test_two_message_mean(self):
        p = _group_profile([[1.0, 1.0], [3.0, 1.0]], 2)
        np.testing.assert_allclose(p["original"], [2.0 / 3.0, 1.0 / 3.0])

    def test_empty_group_is_na(self):
        p = _group_profile([], 3)
        assert set(p) == set(REPRESENTATIONS)
        assert all(vec is None for vec in p.values())

    def test_zero_mass_is_na(self):
        p = _group_profile([np.zeros(3), np.zeros(3)], 3)
        assert all(vec is None for vec in p.values())

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.lists(st.floats(0, 100), min_size=4, max_size=4),
                    min_size=1, max_size=6))
    def test_simplex_membership(self, raw):
        p = _group_profile(raw, 4)
        if np.mean(raw, axis=0).sum() <= 0:
            assert all(vec is None for vec in p.values())
        else:
            assert p["original"] is not None
            for vec in p.values():
                assert np.all(np.array(vec) >= 0)
                np.testing.assert_allclose(np.sum(vec), 1.0, atol=1e-9)


class TestProfilingIO:
    def test_topics_roundtrip(self, tmp_path):
        model = prof.TopicModel(
            polarity="plus", columns=np.array([3, 8, 20]),
            H=np.array([[0.5, 0.1, 0.0], [0.2, 0.9, 1.0]]),
            assignment=np.array([0, 1, 1]), objective=0.5,
            seed=11, config_digest="cd")
        path = tmp_path / "topics_plus.json"
        prof.write_topics(path, model)
        back = prof.read_topics(path)
        assert back.polarity == "plus"
        np.testing.assert_array_equal(back.columns, model.columns)
        np.testing.assert_array_equal(back.H, model.H)
        np.testing.assert_array_equal(back.assignment, model.assignment)
        assert back.objective == model.objective

    def test_profiles_roundtrip_with_na(self, tmp_path):
        profiles = {
            "TP": {"original": [0.75, 0.25], "rel_u": None},
            "TN": {"original": [0.5, 0.5], "rel_u": [0.25, 0.75]},
        }
        path = tmp_path / "profiles.json"
        prof.write_profiles(path, profiles, {"TP": "plus", "TN": "minus"},
                            config_digest="cd")
        back, digest = prof.read_profiles(path)
        assert digest == "cd"
        assert back["TP"]["polarity"] == "plus"
        assert back["TP"]["representations"]["rel_u"] is None
        np.testing.assert_array_equal(back["TN"]["representations"]["rel_u"],
                                      [0.25, 0.75])

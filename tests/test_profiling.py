"""Tests for ranking, quota selection, NMF, and group profiles."""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topicaudit import features, pipeline, scoring
from topicaudit import profiling as prof
from topicaudit.config import PipelineConfig
from topicaudit.pipeline import _load_topics, _save
from topicaudit.uncertainty import REPRESENTATIONS

from every_representation import represent_all


class TestFeatureStats:
    def test_mixed_column(self):
        supports = np.array([[0.2, 0.0], [0.0, 0.0], [0.4, 0.0]])
        presence, cond_mean = prof.feature_stats(supports)
        np.testing.assert_allclose(presence[0], 2.0 / 3.0)
        np.testing.assert_allclose(cond_mean[0], 0.3)

    def test_never_active_column(self):
        presence, cond_mean = prof.feature_stats(np.zeros((2, 3)))
        np.testing.assert_array_equal(presence, np.zeros(3))
        np.testing.assert_array_equal(cond_mean, np.zeros(3))

    def test_constant_column(self):
        presence, cond_mean = prof.feature_stats(
            np.array([[0.0, 0.7], [0.0, 0.7]]))
        assert presence[1] == 1.0
        np.testing.assert_allclose(cond_mean[1], 0.7)

    def test_explicit_zero_entries_do_not_count(self):
        presence, _ = prof.feature_stats(np.array([[0.0], [0.5]]))
        np.testing.assert_allclose(presence[0], 0.5)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            prof.feature_stats(np.zeros((0, 1)))

    @settings(max_examples=30, deadline=None)
    @given(st.permutations(list(range(6))))
    def test_invariant_to_message_order(self, perm):
        supports = np.array([[0.1, 0.0], [0.3, 0.2], [0.0, 0.0],
                             [0.0, 0.4], [0.2, 0.0], [0.0, 0.0]])
        presence, cond_mean = prof.feature_stats(supports)
        shuffled_presence, shuffled_cond_mean = prof.feature_stats(
            supports[perm])
        np.testing.assert_array_equal(presence, shuffled_presence)
        # Summation order shifts the last ulp; anything beyond that is a bug.
        np.testing.assert_allclose(cond_mean, shuffled_cond_mean,
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
        _, cond_mean = prof.feature_stats(supports)
        expected = np.divide(total, active, out=np.zeros(25),
                             where=active > 0)
        assert np.array_equal(cond_mean, expected)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 60), d=st.integers(1, 50),
           size=st.integers(2, 17), seed=st.integers(0, 2 ** 16))
    def test_column_blocks_give_the_full_stats(self, n, d, size, seed):
        # Profile ranks columns from stats over column blocks: their
        # concatenation is the whole matrix's stats, bit for bit.
        rng = np.random.default_rng(seed)
        supports = np.maximum(rng.normal(size=(n, d)), 0.0)
        full = prof.feature_stats(supports)
        parts = [prof.feature_stats(np.ascontiguousarray(supports[:, block]))
                 for block in features.blocks(d, size)]
        for at, name in enumerate(("presence", "cond_mean")):
            assert np.concatenate([part[at] for part in parts]
                                  ).tobytes() == full[at].tobytes(), name


class TestRankScore:
    def test_direct_evaluation(self):
        r = prof.rank_score(np.array([2.0 / 3.0]), np.array([0.3]),
                            tau_p=0.05)
        np.testing.assert_allclose(r[0], 0.3 * np.sqrt(2.0 / 3.0))

    def test_floor_binds_below_tau(self):
        r = prof.rank_score(np.array([0.01]), np.array([0.8]), tau_p=0.05)
        np.testing.assert_allclose(r[0], 0.8 * np.sqrt(0.05))

    def test_zero_cond_mean_stays_zero(self):
        assert prof.rank_score(np.array([0.0]), np.array([0.0]),
                               tau_p=0.05)[0] == 0.0

    def test_tau_validated(self):
        with pytest.raises(ValueError, match="floor"):
            prof.rank_score(np.zeros(1), np.zeros(1), tau_p=0.0)


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


def nmf_direct(X, n_topics, max_iters=500, tol=1e-5, seed=0):
    """The reference NMF: profiling.nmf's updates and stopping rule, with
    the objective formed directly as ||X - WH||^2."""
    X = np.asarray(X, dtype=float)
    rng = np.random.default_rng(seed)
    scale = np.sqrt(X.mean() / n_topics)
    W = (1.0 - rng.random((X.shape[0], n_topics))) * scale
    H = (1.0 - rng.random((n_topics, X.shape[1]))) * scale

    def objective():
        return float(np.linalg.norm(X - W @ H, "fro") ** 2)

    trace = [objective()]
    for _ in range(max_iters):
        H *= (W.T @ X) / (W.T @ W @ H + prof.EPS)
        W *= (X @ H.T) / (W @ (H @ H.T) + prof.EPS)
        obj = objective()
        prev = trace[-1]
        trace.append(obj)
        if prev == 0.0 or (prev - obj) / max(prev, prof.EPS) < tol:
            break
    return W, H, trace


def assert_matches_direct(X, n_topics, **kwargs):
    """profiling.nmf's result, checked to hold the reference's W and H bit
    for bit and a trace of the same length, each objective within 1e-12
    relative."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        W, H, trace = prof.nmf(X, n_topics, **kwargs)
    W_ref, H_ref, trace_ref = nmf_direct(X, n_topics, **kwargs)
    assert W.tobytes() == W_ref.tobytes() and H.tobytes() == H_ref.tobytes()
    assert len(trace) == len(trace_ref)
    np.testing.assert_allclose(trace, trace_ref, rtol=1e-12, atol=0.0)
    return W, H, trace


class TestNMF:
    @pytest.mark.parametrize("shape, n_topics, zero_rows", [
        ((25, 9), 3, 0), ((9, 25), 4, 0), ((60, 40), 10, 7),
        ((40, 60), 6, 12), ((5, 5), 2, 1), ((30, 2), 1, 3)])
    def test_matches_the_direct_objective(self, shape, n_topics, zero_rows):
        rng = np.random.default_rng(sum(shape) + n_topics)
        X = rng.random(shape) * (rng.random(shape) < 0.4)
        X[rng.choice(shape[0], zero_rows, replace=False)] = 0.0
        for seed in range(3):
            assert_matches_direct(X, n_topics, max_iters=300, tol=1e-6,
                                  seed=seed)

    def test_exact_rank_one_fit_without_tolerance(self):
        # The objective identity cancels at an exact fit; its rounding
        # noise must not read as an increase.
        rng = np.random.default_rng(99)
        X = np.outer(rng.random(20) + 0.5, rng.random(9) + 0.5)
        W, H, trace = prof.nmf(X, n_topics=1, max_iters=5000, tol=0.0,
                               seed=0)
        assert np.linalg.norm(X - W @ H) / np.linalg.norm(X) <= 1e-6
        assert abs(trace[-1]) <= 1e-12 * np.vdot(X, X)
        # Below zero it is noise, floored at 0, and the trace never rises.
        assert min(trace) >= 0.0
        assert np.all(np.diff(trace) <= 0.0)

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

    def test_iteration_cap_warns_and_keeps_the_fit(self):
        X = np.random.default_rng(8).random((12, 7))
        with pytest.warns(UserWarning) as caught:
            W, H, trace = prof.nmf(X, n_topics=3, max_iters=5, tol=1e-5,
                                   seed=2)
        assert len(trace) == 6
        last = (trace[-2] - trace[-1]) / trace[-2]
        message = str(caught[0].message)
        assert "5-iteration cap" in message and "tol 1e-05" in message
        assert f"{last:.3g}" in message and last >= 1e-5
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            W2, H2, trace2 = prof.nmf(X, n_topics=3, max_iters=5, tol=1e-5,
                                      seed=2)
        assert W.tobytes() == W2.tobytes() and H.tobytes() == H2.tobytes()
        assert trace == trace2

    def test_converged_fit_is_silent(self):
        X = np.random.default_rng(8).random((12, 7))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, _, trace = prof.nmf(X, n_topics=3, max_iters=500, tol=1e-2,
                                   seed=2)
        assert len(trace) < 501


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
    tcs (rows), by name; None for NA: the TP profile that
    pipeline._xmap_columns scores the positive predictions against, with
    every representation for its represent.  A group with a profile makes
    one js_divergence call against it, and one without makes none; the
    TN group is empty, so it makes none."""
    H = np.random.default_rng(0).random((n_topics, 2 * n_topics)) + 0.01
    cfg = PipelineConfig(k_related=1, k_nn=5)
    tcs = np.array(tcs, dtype=float).reshape(-1, n_topics)
    # Every row a correctly classified positive training message.
    label = np.ones(len(tcs), dtype=bool)
    real, profiles = scoring.js_divergence, []

    def spy(p, q):
        profiles.append(q)
        return real(p, q)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scoring, "js_divergence", spy)
        xmap = pipeline._xmap_columns(
            lambda tc, group_tc, H: represent_all(tc, group_tc, H, cfg),
            tcs, label, label, label, [H, H])
    assert xmap.shape == (len(tcs), len(REPRESENTATIONS))
    if not profiles:
        assert np.isnan(xmap).all()
        return dict.fromkeys(REPRESENTATIONS)
    [rows] = profiles
    assert rows.shape == (len(REPRESENTATIONS), n_topics)
    # A representation is NA as a whole or not at all.
    assert np.isnan(rows).all(axis=1).tolist() == np.isnan(rows).any(
        axis=1).tolist()
    return {name: (None if np.isnan(row).all() else row)
            for name, row in zip(REPRESENTATIONS, rows)}


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

    def test_subnormal_evidence_scale_falls_back(self):
        # The median total 1e-320 is subnormal; dividing the mean
        # contribution by it would overflow (a RuntimeWarning, which the
        # suite turns into an error).
        tcs = [[1e-320, 0.0, 0.0], [0.0, 1e-320, 0.0], [40.0, 30.0, 30.0]]
        with pytest.warns(UserWarning, match="evidence scale"):
            p = _group_profile(tcs, 3)
        # Evidence in units of the fallback scale 1.0.
        weak = 1.0 / (1.0 + np.mean(tcs, axis=0))
        np.testing.assert_allclose(p["vacuity"], weak / weak.sum(),
                                   rtol=1e-12)

    def test_tiny_normal_evidence_scale_does_not_overflow(self):
        # The median total 3e-308 is a normal float, so the scale does not
        # fall back; tc / s would still overflow for the 100 entry (a
        # RuntimeWarning, which the suite turns into an error).
        tcs = [[3e-308, 0.0, 0.0], [3e-308, 0.0, 0.0], [0.0, 0.0, 100.0]]
        p = _group_profile(tcs, 3)
        for name, vec in p.items():
            assert vec is not None, name
            assert np.all(np.isfinite(vec)) and np.all(vec >= 0), name
            np.testing.assert_allclose(vec.sum(), 1.0, atol=1e-12)
        # Evidence tc / s = [2/3, 0, 1.1e309]: the dominant topic has no
        # vacuity left, the other two 1 / (1 + r).
        weak = np.array([1.0 / (1.0 + 2.0 / 3.0), 1.0, 0.0])
        np.testing.assert_allclose(p["vacuity"], weak / weak.sum(),
                                   rtol=1e-12, atol=1e-300)

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
    """Each polarity's members of topics.npz round trip bit for bit
    through _save and _load_topics."""

    def test_topics_roundtrip(self, tmp_path):
        cfg = PipelineConfig(out_dir=str(tmp_path), n_topics=2, k_related=1)
        space = features.FeatureSpace(
            word_vocab={f"w{i}": i for i in range(21)}, phrase_vocab={},
            idf=np.ones(21))
        # The two polarities at different widths, as the quotas can
        # leave them.
        plus = dict(columns=np.array([3, 8, 20]),
                    H=np.array([[0.5, 0.1, -0.0], [0.2, 5e-324, 1.0]]),
                    objective=0.1 + 0.2)
        minus = dict(columns=np.array([0, 17]), H=np.eye(2), objective=0.0)
        topics = {"plus": plus, "minus": minus}
        _save(cfg, "topics.npz", **{f"{name}_{polarity}": value
                                    for polarity, members in topics.items()
                                    for name, value in members.items()})
        for polarity, members in topics.items():
            back = _load_topics(cfg, space, polarity)
            assert back.keys() == members.keys()
            for name in ("columns", "H"):
                assert back[name].dtype == members[name].dtype
                assert back[name].tobytes() == members[name].tobytes()
            assert type(back["objective"]) is float
            assert back["objective"] == members["objective"]

"""Tests for topic representations and output-probability UQ scores."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topicaudit import uncertainty as unc
from topicaudit.scoring import auroc
from topicaudit.uncertainty import (aleatory_vector, dissonance_vector,
                                    doctor_alpha_vector, doctor_beta_vector,
                                    evidence_scale, odin_vector, original,
                                    output_uq_score, rel_u_vector,
                                    vacuity_vector)

simplex_entries = st.integers(2, 8).flatmap(
    lambda m: st.tuples(st.just(m), st.integers(0, 10 ** 6)))


def random_simplex(m, seed):
    return np.random.default_rng(seed).dirichlet(np.ones(m))


class TestOriginal:
    def test_normalizes(self):
        vec, degenerate = original(np.array([4.0, 2.0]))
        np.testing.assert_allclose(vec, [2.0 / 3.0, 1.0 / 3.0])
        assert not degenerate

    def test_zero_mass_is_uniform_flagged(self):
        vec, degenerate = original(np.zeros(4))
        np.testing.assert_allclose(vec, np.full(4, 0.25))
        assert degenerate

    def test_idempotent_on_simplex(self):
        p = np.array([0.3, 0.7])
        np.testing.assert_allclose(original(p)[0], p, rtol=1e-15)


class TestVacuity:
    def test_equal_evidence(self):
        vec, _ = vacuity_vector(np.array([1.0, 1.0]), s=1.0)
        np.testing.assert_allclose(vec, [0.5, 0.5])

    def test_zero_evidence_uniform_unflagged(self):
        vec, degenerate = vacuity_vector(np.zeros(3), s=1.0)
        np.testing.assert_allclose(vec, np.full(3, 1.0 / 3.0))
        assert not degenerate

    def test_strong_topic_gets_least_vacuity(self):
        vec, _ = vacuity_vector(np.array([100.0, 1.0, 1.0]), s=1.0)
        assert vec[0] < vec[1]
        np.testing.assert_allclose(vec[1], vec[2])

    def test_scale_must_be_positive(self):
        with pytest.raises(ValueError, match="scale"):
            vacuity_vector(np.ones(2), s=0.0)


class TestDissonance:
    def test_single_belief_has_no_conflict(self):
        vec, degenerate = dissonance_vector(np.array([5.0, 0.0, 0.0]), s=1.0)
        np.testing.assert_allclose(vec, np.full(3, 1.0 / 3.0))
        assert degenerate

    def test_two_equal_beliefs(self):
        vec, degenerate = dissonance_vector(np.array([1.0, 1.0]), s=1.0)
        np.testing.assert_allclose(vec, [0.5, 0.5])
        assert not degenerate

    def test_hand_computed_three_topics(self):
        # r=[1,1,0]: beliefs [0.2,0.2,0]; the zero belief balances nothing,
        # the equal pair balances fully: d = [0.2, 0.2, 0].
        vec, _ = dissonance_vector(np.array([1.0, 1.0, 0.0]), s=1.0)
        np.testing.assert_allclose(vec, [0.5, 0.5, 0.0], atol=1e-15)


class TestAleatory:
    H = np.array([[1.0, 0.0], [0.9, 0.1], [0.0, 1.0]])

    def test_neighborhood_entropy(self):
        vec, _ = aleatory_vector(np.array([0.5, 0.5, 0.0]), self.H, k=1)
        # a = [ln2, ln2, 0] -> normalized [0.5, 0.5, 0].
        np.testing.assert_allclose(vec, [0.5, 0.5, 0.0], atol=1e-15)

    def test_concentrated_mass_zero_entropy(self):
        H = np.array([[1.0, 0.0], [0.9, 0.1], [0.0, 1.0]])
        vec, degenerate = aleatory_vector(np.array([0.0, 0.0, 1.0]), H, k=1)
        # Every neighborhood holds its mass in one topic: entropy 0 all over.
        assert degenerate
        np.testing.assert_allclose(vec, np.full(3, 1.0 / 3.0))

    def test_uniform_with_full_neighborhood(self):
        m = 4
        rng = np.random.default_rng(0)
        H = rng.random((m, 6))
        vec, _ = aleatory_vector(np.full(m, 0.25), H, k=m - 1)
        np.testing.assert_allclose(vec, np.full(m, 0.25))

    def test_k_bound(self):
        with pytest.raises(ValueError, match="below the topic count"):
            aleatory_vector(np.ones(3) / 3, self.H, k=3)

    def test_neighbor_ties_deterministic(self):
        H = np.vstack([np.ones(3), np.ones(3), np.ones(3), np.ones(3)])
        hoods = unc.topic_neighborhoods(H, k=2)
        np.testing.assert_array_equal(hoods[0], [1, 2])
        np.testing.assert_array_equal(hoods[3], [0, 1])


class TestDoctor:
    def test_half_is_maximal_alpha(self):
        vec, _ = doctor_alpha_vector(np.array([0.5, 0.5]))
        np.testing.assert_allclose(vec, [0.5, 0.5])

    def test_certain_topics_flagged_uniform(self):
        _, degenerate_a = doctor_alpha_vector(np.array([1.0, 0.0]))
        _, degenerate_b = doctor_beta_vector(np.array([1.0, 0.0]))
        assert degenerate_a and degenerate_b

    def test_symmetric_pair(self):
        vec, _ = doctor_alpha_vector(np.array([0.9, 0.1]))
        np.testing.assert_allclose(vec, [0.5, 0.5])
        vec, _ = doctor_beta_vector(np.array([0.9, 0.1]))
        np.testing.assert_allclose(vec, [0.5, 0.5])

    @settings(max_examples=40, deadline=None)
    @given(simplex_entries)
    def test_binary_symmetry(self, args):
        m, seed = args
        p = random_simplex(m, seed)
        a1, _ = doctor_alpha_vector(p)
        a2, _ = doctor_alpha_vector(1.0 - p)
        np.testing.assert_allclose(a1, a2, rtol=1e-9)
        b1, _ = doctor_beta_vector(p)
        b2, _ = doctor_beta_vector(1.0 - p)
        np.testing.assert_allclose(b1, b2, rtol=1e-9)


class TestOdin:
    def test_temperature_one_is_identity_on_q(self):
        p = np.array([0.6, 0.3, 0.1])
        vec, _ = odin_vector(p, temperature=1.0)
        expected = 1.0 - np.maximum(p, 1.0 - p)
        np.testing.assert_allclose(vec, expected / expected.sum(),
                                   rtol=1e-12)

    def test_high_temperature_flattens(self):
        p = np.array([0.8, 0.15, 0.05])
        vec, _ = odin_vector(p, temperature=1e9)
        np.testing.assert_allclose(vec, np.full(3, 1.0 / 3.0),
                                   atol=1e-6)

    def test_binary_hand_computation(self):
        # sqrt weights: q = [2/3, 1/3], o = [1/3, 1/3] -> [0.5, 0.5].
        vec, _ = odin_vector(np.array([0.8, 0.2]), temperature=2.0)
        np.testing.assert_allclose(vec, [0.5, 0.5], rtol=1e-12)

    def test_temperature_validated(self):
        with pytest.raises(ValueError, match="temperature"):
            odin_vector(np.array([0.5, 0.5]), temperature=0.0)


class TestRelU:
    def test_empty_reference_is_na(self):
        vec, degenerate = rel_u_vector(np.array([0.5, 0.5]), [], k_nn=5)
        assert np.isnan(vec).all() and not degenerate

    def test_self_reference_degenerate(self):
        p = np.array([0.25, 0.75])
        vec, degenerate = rel_u_vector(p, [p.copy(), np.array([0.9, 0.1])],
                                       k_nn=1)
        assert degenerate
        np.testing.assert_allclose(vec, [0.5, 0.5])

    def test_single_reference_gap(self):
        vec, _ = rel_u_vector(np.array([1.0, 0.0]), [np.array([0.5, 0.5])],
                              k_nn=1)
        np.testing.assert_allclose(vec, [0.5, 0.5])

    def test_k_clamped_to_reference_size(self):
        p = np.array([0.3, 0.7])
        refs = [np.array([0.4, 0.6]), np.array([0.2, 0.8])]
        vec, _ = rel_u_vector(p, refs, k_nn=10)
        gaps = np.mean([np.abs(p - r) for r in refs], axis=0)
        np.testing.assert_allclose(vec, gaps / gaps.sum())

    def test_nearest_neighbors_selected_by_js(self):
        p = np.array([0.5, 0.5])
        near = np.array([0.55, 0.45])
        far = np.array([0.95, 0.05])
        vec, _ = rel_u_vector(p, [far, near], k_nn=1)
        gaps = np.abs(p - near)
        np.testing.assert_allclose(vec, gaps / gaps.sum())


class TestEvidenceScale:
    def test_median_of_totals(self):
        tcs = [np.array([1.0, 1.0]), np.array([3.0, 1.0]),
               np.array([0.5, 0.5])]
        assert evidence_scale(tcs) == 2.0

    def test_zero_mass_falls_back(self):
        with pytest.warns(UserWarning, match="scale"):
            assert evidence_scale([np.zeros(2)]) == 1.0

    def test_empty_falls_back(self):
        with pytest.warns(UserWarning, match="scale"):
            assert evidence_scale(np.zeros((0, 2))) == 1.0


class TestSimplexInvariant:
    @settings(max_examples=40, deadline=None)
    @given(simplex_entries)
    def test_all_representations_on_simplex(self, args):
        m, seed = args
        rng = np.random.default_rng(seed)
        tc = rng.random(m) * 3.0
        H = rng.random((m, 2 * m)) + 0.01
        refs = [rng.dirichlet(np.ones(m)) for _ in range(4)]
        vectors, degenerate = unc.representations(
            tc, s=1.5, H=H, k=1, temperature=2.0, references=refs, k_nn=2)
        assert vectors.shape == (len(unc.REPRESENTATIONS), m)
        assert degenerate.shape == (len(unc.REPRESENTATIONS),)
        np.testing.assert_allclose(vectors.sum(axis=-1), 1.0, atol=1e-9)
        assert np.all(vectors >= 0)

    def test_invalid_vector_rejected(self):
        H = np.array([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="original: invalid"):
            unc.representations(np.array([[-0.5, 2.0]]), s=1.0, H=H, k=1,
                                temperature=2.0, references=[], k_nn=5)


class TestBatchEquivalence:
    """representations() on n rows equals n one-row calls, bit for bit,
    with n crossing rel_u's row-block boundary."""

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10 ** 6), m=st.integers(2, 11),
           extra=st.integers(1, 2 * unc.ROW_BLOCK))
    def test_rows_match_one_row_calls(self, seed, m, extra):
        rng = np.random.default_rng(seed)
        n = unc.ROW_BLOCK + extra
        tc = rng.random((n, m)) * 3.0
        tc[::5, 0] = 0.0
        tc[::7] = 0.0
        H = rng.random((m, 2 * m))
        refs = rng.dirichlet(np.ones(m), size=12)
        refs[5] = refs[2]
        for references in (refs, refs[:0]):
            vectors, degenerate = unc.representations(
                tc, 1.5, H, 1, 2.0, references, 4)
            assert vectors.shape == (n, len(unc.REPRESENTATIONS), m)
            assert degenerate[::7, 0].all()
            assert np.isnan(vectors[:, -1]).all() == (len(references) == 0)
            for i in range(n):
                one, one_flags = unc.representations(
                    tc[i:i + 1], 1.5, H, 1, 2.0, references, 4)
                np.testing.assert_array_equal(vectors[i], one[0])
                np.testing.assert_array_equal(degenerate[i], one_flags[0])


class TestOutputUQ:
    def test_entropy_extremes(self):
        np.testing.assert_allclose(output_uq_score(0.5, "entropy"),
                                   math.log(2.0), rtol=1e-15)
        assert output_uq_score(0.0, "entropy") == 0.0
        assert output_uq_score(1.0, "entropy") == 0.0

    def test_half_is_maximal_everywhere(self):
        for method in unc.OUTPUT_UQ_METHODS:
            peak = output_uq_score(0.5, method)
            for p in (0.1, 0.3, 0.7, 0.95):
                assert output_uq_score(p, method) <= peak + 1e-15

    def test_vacuity_is_constant(self):
        # Probabilities alone carry no evidence mass, so this is honest.
        values = {output_uq_score(p, "vacuity") for p in (0.0, 0.3, 0.5, 1.0)}
        assert values == {0.5}

    def test_dissonance_closed_form(self):
        for p in (0.0, 0.2, 0.5, 0.9):
            np.testing.assert_allclose(
                output_uq_score(p, "dissonance"),
                0.5 * (1.0 - abs(2.0 * p - 1.0)), rtol=1e-15)

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown"):
            output_uq_score(0.5, "mutual_information")

    def test_out_of_range_probability(self):
        with pytest.raises(ValueError, match="p_pos"):
            output_uq_score(1.5, "entropy")

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10 ** 6))
    def test_binary_detectors_rank_identically(self, seed):
        rng = np.random.default_rng(seed)
        probs = rng.random(40)
        flags = rng.integers(0, 2, 40)
        flags[:2] = [1, 0]
        values = {}
        for method in ("entropy", "doctor_alpha", "doctor_beta", "odin"):
            scores = [output_uq_score(p, method) for p in probs]
            values[method] = auroc(np.array(scores), flags)
        assert len({round(v, 12) for v in values.values()}) == 1

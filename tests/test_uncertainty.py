"""Tests for topic representations and output-probability UQ scores."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topicaudit import uncertainty as unc
from topicaudit.config import PipelineConfig
from topicaudit.scoring import auroc
from topicaudit.uncertainty import (aleatory_vector, dissonance_vector,
                                    doctor_alpha_vector, doctor_beta_vector,
                                    evidence_scale, odin_vector, original,
                                    output_uq_score, rel_u_vector,
                                    vacuity_vector)

from every_representation import represent_all

simplex_entries = st.integers(2, 8).flatmap(
    lambda m: st.tuples(st.just(m), st.integers(0, 10 ** 6)))


def random_simplex(m, seed):
    return np.random.default_rng(seed).dirichlet(np.ones(m))


class TestOriginal:
    def test_normalizes(self):
        np.testing.assert_allclose(original(np.array([4.0, 2.0])),
                                   [2.0 / 3.0, 1.0 / 3.0])

    def test_zero_mass_is_uniform(self):
        np.testing.assert_array_equal(original(np.zeros(4)), np.full(4, 0.25))

    def test_idempotent_on_simplex(self):
        p = np.array([0.3, 0.7])
        np.testing.assert_allclose(original(p), p, rtol=1e-15)


class TestVacuity:
    def test_equal_evidence(self):
        vec = vacuity_vector(np.array([1.0, 1.0]), s=1.0)
        np.testing.assert_allclose(vec, [0.5, 0.5])

    def test_zero_evidence_is_uniform(self):
        vec = vacuity_vector(np.zeros(3), s=1.0)
        np.testing.assert_allclose(vec, np.full(3, 1.0 / 3.0))

    def test_strong_topic_gets_least_vacuity(self):
        vec = vacuity_vector(np.array([100.0, 1.0, 1.0]), s=1.0)
        assert vec[0] < vec[1]
        np.testing.assert_allclose(vec[1], vec[2])

    def test_scale_must_be_positive(self):
        with pytest.raises(ValueError, match="scale"):
            vacuity_vector(np.ones(2), s=0.0)


class TestDissonance:
    def test_single_belief_has_no_conflict(self):
        vec = dissonance_vector(np.array([5.0, 0.0, 0.0]), s=1.0)
        np.testing.assert_allclose(vec, np.full(3, 1.0 / 3.0))

    def test_two_equal_beliefs(self):
        vec = dissonance_vector(np.array([1.0, 1.0]), s=1.0)
        np.testing.assert_allclose(vec, [0.5, 0.5])

    def test_hand_computed_three_topics(self):
        # r=[1,1,0]: beliefs [0.2,0.2,0]; the zero belief balances nothing,
        # the equal pair balances fully: d = [0.2, 0.2, 0].
        vec = dissonance_vector(np.array([1.0, 1.0, 0.0]), s=1.0)
        np.testing.assert_allclose(vec, [0.5, 0.5, 0.0], atol=1e-15)


class TestAleatory:
    H = np.array([[1.0, 0.0], [0.9, 0.1], [0.0, 1.0]])

    def test_neighborhood_entropy(self):
        vec = aleatory_vector(np.array([0.5, 0.5, 0.0]), self.H, k=1)
        # a = [ln2, ln2, 0] -> normalized [0.5, 0.5, 0].
        np.testing.assert_allclose(vec, [0.5, 0.5, 0.0], atol=1e-15)

    def test_concentrated_mass_zero_entropy(self):
        H = np.array([[1.0, 0.0], [0.9, 0.1], [0.0, 1.0]])
        vec = aleatory_vector(np.array([0.0, 0.0, 1.0]), H, k=1)
        # Every neighborhood holds its mass in one topic: entropy 0 all
        # over, and the massless vector becomes uniform.
        np.testing.assert_allclose(vec, np.full(3, 1.0 / 3.0))

    def test_uniform_with_full_neighborhood(self):
        m = 4
        rng = np.random.default_rng(0)
        H = rng.random((m, 6))
        vec = aleatory_vector(np.full(m, 0.25), H, k=m - 1)
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
        vec = doctor_alpha_vector(np.array([0.5, 0.5]))
        np.testing.assert_allclose(vec, [0.5, 0.5])

    def test_certain_topics_are_uniform(self):
        # Every split is certain, so both scores are 0 throughout and the
        # massless vectors become uniform.
        for vector in (doctor_alpha_vector, doctor_beta_vector):
            np.testing.assert_array_equal(vector(np.array([1.0, 0.0])),
                                          [0.5, 0.5])

    def test_symmetric_pair(self):
        vec = doctor_alpha_vector(np.array([0.9, 0.1]))
        np.testing.assert_allclose(vec, [0.5, 0.5])
        vec = doctor_beta_vector(np.array([0.9, 0.1]))
        np.testing.assert_allclose(vec, [0.5, 0.5])

    @settings(max_examples=40, deadline=None)
    @given(simplex_entries)
    def test_binary_symmetry(self, args):
        m, seed = args
        p = random_simplex(m, seed)
        a1 = doctor_alpha_vector(p)
        a2 = doctor_alpha_vector(1.0 - p)
        np.testing.assert_allclose(a1, a2, rtol=1e-9)
        b1 = doctor_beta_vector(p)
        b2 = doctor_beta_vector(1.0 - p)
        np.testing.assert_allclose(b1, b2, rtol=1e-9)


class TestOdin:
    def test_temperature_one_is_identity_on_q(self):
        p = np.array([0.6, 0.3, 0.1])
        vec = odin_vector(p, temperature=1.0)
        expected = 1.0 - np.maximum(p, 1.0 - p)
        np.testing.assert_allclose(vec, expected / expected.sum(),
                                   rtol=1e-12)

    def test_high_temperature_flattens(self):
        p = np.array([0.8, 0.15, 0.05])
        vec = odin_vector(p, temperature=1e9)
        np.testing.assert_allclose(vec, np.full(3, 1.0 / 3.0),
                                   atol=1e-6)

    def test_binary_hand_computation(self):
        # sqrt weights: q = [2/3, 1/3], o = [1/3, 1/3] -> [0.5, 0.5].
        vec = odin_vector(np.array([0.8, 0.2]), temperature=2.0)
        np.testing.assert_allclose(vec, [0.5, 0.5], rtol=1e-12)

    def test_temperature_validated(self):
        with pytest.raises(ValueError, match="temperature"):
            odin_vector(np.array([0.5, 0.5]), temperature=0.0)


class TestRelU:
    def test_empty_reference_is_na(self):
        vec = rel_u_vector(np.array([0.5, 0.5]), [], k_nn=5)
        assert np.isnan(vec).all()

    def test_self_reference_is_uniform(self):
        # The nearest reference is the vector itself: every gap is 0, and
        # the massless vector becomes uniform.
        p = np.array([0.25, 0.75])
        vec = rel_u_vector(p, [p.copy(), np.array([0.9, 0.1])], k_nn=1)
        np.testing.assert_array_equal(vec, [0.5, 0.5])

    def test_single_reference_gap(self):
        vec = rel_u_vector(np.array([1.0, 0.0]), [np.array([0.5, 0.5])],
                              k_nn=1)
        np.testing.assert_allclose(vec, [0.5, 0.5])

    def test_k_clamped_to_reference_size(self):
        p = np.array([0.3, 0.7])
        refs = [np.array([0.4, 0.6]), np.array([0.2, 0.8])]
        vec = rel_u_vector(p, refs, k_nn=10)
        gaps = np.mean([np.abs(p - r) for r in refs], axis=0)
        np.testing.assert_allclose(vec, gaps / gaps.sum())

    def test_nearest_neighbors_selected_by_js(self):
        p = np.array([0.5, 0.5])
        near = np.array([0.55, 0.45])
        far = np.array([0.95, 0.05])
        vec = rel_u_vector(p, [far, near], k_nn=1)
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

    # Row totals of every kind np.median has to order: ties, signed
    # zeros, subnormals, infinities and NaNs of either sign.
    TOTALS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2e-308,
                              1.0, 1.0, 3.5, -2.0, 1e308, np.inf, -np.inf,
                              np.nan, -np.nan])

    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(st.one_of(TOTALS, st.floats()), min_size=1,
                           max_size=9))
    def test_median_is_numpys_bitwise(self, values):
        # Odd and even lengths alike, NaN payloads included.
        values = np.array(values)
        with np.errstate(all="ignore"):
            expected = float(np.median(values))
            got = unc._median(values)
        assert np.float64(got).tobytes() == np.float64(expected).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(totals=st.lists(st.one_of(
               TOTALS.filter(lambda v: abs(v) < 1e300),
               st.floats(0, 1e300)), min_size=1, max_size=9))
    def test_scale_is_the_numpy_median_of_the_totals(self, totals):
        tcs = np.column_stack([np.zeros(len(totals)), totals])
        expected = float(np.median(tcs.sum(axis=-1)))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = evidence_scale(tcs)
        if expected < np.finfo(float).tiny:
            assert got == 1.0 and caught
        else:
            assert np.float64(got).tobytes() == np.float64(expected).tobytes()
            assert not caught


class TestSimplexInvariant:
    @settings(max_examples=40, deadline=None)
    @given(simplex_entries)
    def test_all_representations_on_simplex(self, args):
        m, seed = args
        rng = np.random.default_rng(seed)
        tc = rng.random(m) * 3.0
        H = rng.random((m, 2 * m)) + 0.01
        refs = rng.dirichlet(np.ones(m), size=4)
        vectors = represent_all(tc, refs, H,
                                PipelineConfig(k_related=1, k_nn=2))
        assert vectors.shape == (len(unc.REPRESENTATIONS), m)
        np.testing.assert_allclose(vectors.sum(axis=-1), 1.0, atol=1e-9)
        assert np.all(vectors >= 0)

    def test_invalid_vector_rejected(self):
        # A negative contribution: topic_representations refuses the
        # distribution it gives, and rel_u_vector its divergence from a
        # reference.
        tc = np.array([[-0.5, 2.0]])
        H = np.array([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="original: invalid"):
            unc.topic_representations(tc, s=1.0, H=H, k=1, temperature=2.0)
        with pytest.raises(ValueError, match="nonnegative"):
            rel_u_vector(original(tc), [np.array([0.5, 0.5])], k_nn=5)


# Each representation of three rows, topic contributions or their
# distributions, and whether the last row gives it no mass: a single
# topic's evidence leaves no conflict, all of it on one topic no
# neighbourhood entropy and no uncertain split, and a row that is its own
# nearest reference no gap.  Every topic keeps some vacuity and some ODIN
# margin.
_H = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0, 0.0]])
_TC = np.array([[4.0, 2.0, 0.0], [1.0, 1.0, 3.0]])
_P = original(_TC)
_CERTAIN = np.array([[1.0, 0.0, 0.0]])
_BATCHES = {
    "original": (original, np.vstack([_TC, np.zeros((1, 3))]), True),
    "vacuity": (lambda tc: vacuity_vector(tc, s=1.0),
                np.vstack([_TC, [0.0, 0.0, 2.0]]), False),
    "dissonance": (lambda tc: dissonance_vector(tc, s=1.0),
                   np.vstack([_TC, 5.0 * _CERTAIN]), True),
    "aleatory": (lambda p: aleatory_vector(p, _H, 1),
                 np.vstack([_P, _CERTAIN]), True),
    "doctor_alpha": (doctor_alpha_vector, np.vstack([_P, _CERTAIN]), True),
    "doctor_beta": (doctor_beta_vector, np.vstack([_P, _CERTAIN]), True),
    "odin": (lambda p: odin_vector(p, temperature=2.0),
             np.vstack([_P, _CERTAIN]), False),
    "rel_u": (lambda p: rel_u_vector(p, [[0.2, 0.3, 0.5], [0.6, 0.3, 0.1]],
                                     k_nn=1),
              np.vstack([_P, [0.6, 0.3, 0.1]]), True)}


class TestVectorsAlone:
    @pytest.mark.parametrize("name", unc.REPRESENTATIONS)
    def test_a_batch_gives_its_vectors(self, name):
        # An array of the rows' shape on the simplex, each row the call on
        # that row alone, and a massless row the uniform vector.
        represent, rows, massless = _BATCHES[name]
        vectors = represent(rows)
        assert type(vectors) is np.ndarray and vectors.shape == rows.shape
        np.testing.assert_allclose(vectors.sum(axis=-1), 1.0, atol=1e-12)
        assert (vectors >= 0).all()
        for row, vector in zip(rows, vectors):
            assert represent(row).tobytes() == vector.tobytes()
        assert (vectors[-1] == 1.0 / 3.0).all() == massless


class TestBatchEquivalence:
    """topic_representations and rel_u_vector on n rows equal n one-row
    calls, bit for bit, with n crossing rel_u's row-block boundary."""

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
        cfg = PipelineConfig(k_related=1, k_nn=4)
        for references in (refs, refs[:0]):
            vectors = represent_all(tc, references, H, cfg)
            assert vectors.shape == (n, len(unc.REPRESENTATIONS), m)
            # The massless rows' distributions are uniform.
            assert (vectors[::7, 0] == 1.0 / m).all()
            assert np.isnan(vectors[:, -1]).all() == (len(references) == 0)
            for i in range(n):
                one = represent_all(tc[i:i + 1], references, H, cfg)
                assert vectors[i].tobytes() == one[0].tobytes()


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

    def test_out_of_range_message_is_bounded(self):
        # The count and the first bad value, not the printed array, so
        # the message stays one short line at any message count.
        p = np.full(100_000, 0.25)
        p[[7, 70_000]] = [1.5, -0.5]
        with pytest.raises(ValueError) as caught:
            output_uq_score(p, "odin")
        assert str(caught.value) == ("p_pos outside [0,1] at 2 of 100000 "
                                     "entries, the first 1.5 at 7")
        with pytest.raises(ValueError, match=r"^p_pos outside \[0,1\] at 1 "
                           r"of 1 entries, the first nan at 0$"):
            output_uq_score(np.nan, "entropy")

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

"""Tests for structural cues, vocabulary fitting, and TF-IDF vectorization."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topicaudit import corpus
from topicaudit import features
from topicaudit import pipeline
from topicaudit.config import PipelineConfig
from topicaudit.features import (N_STRUCTURAL, STRUCTURAL_FEATURE_NAMES,
                                 structural_features)

IDX = {name: i for i, name in enumerate(STRUCTURAL_FEATURE_NAMES)}


class TestStructuralFeatures:
    def test_char_word_avg(self):
        v = structural_features("ab cd")
        assert v[IDX["char_count"]] == 5
        assert v[IDX["word_count"]] == 2
        assert v[IDX["avg_word_length"]] == 2.0

    def test_digits_and_exclamations(self):
        v = structural_features("Call 0800 now!!")
        assert v[IDX["digit_count"]] == 4
        assert v[IDX["exclamation_count"]] == 2

    def test_currency_and_uppercase(self):
        v = structural_features("WIN £500")
        assert v[IDX["uppercase_char_count"]] == 3
        assert v[IDX["currency_symbol_count"]] == 1
        assert v[IDX["digit_count"]] == 3

    def test_empty_text_all_zero(self):
        np.testing.assert_array_equal(structural_features(""), np.zeros(17))

    def test_url_email_phone(self):
        v = structural_features(
            "visit www.example.com or mail me@example.com on 0800 123 4567")
        assert v[IDX["url_count"]] == 1
        assert v[IDX["email_address_count"]] == 1
        assert v[IDX["phone_like_number_count"]] == 1

    def test_phone_needs_seven_digits(self):
        assert structural_features("123456")[IDX["phone_like_number_count"]] == 0
        assert structural_features("1234567")[IDX["phone_like_number_count"]] == 1
        assert structural_features("12-34 56 7")[IDX["phone_like_number_count"]] == 1

    def test_unique_word_ratio_case_insensitive(self):
        v = structural_features("Go go GO stop")
        np.testing.assert_allclose(v[IDX["unique_word_ratio"]], 0.5)

    def test_longest_word(self):
        assert structural_features("a bb ccc")[IDX["longest_word_length"]] == 3

    @settings(max_examples=50, deadline=None)
    @given(st.text(max_size=200))
    def test_always_finite_nonnegative(self, text):
        v = structural_features(text)
        assert v.shape == (N_STRUCTURAL,)
        assert np.all(np.isfinite(v))
        assert np.all(v >= 0)


class TestFitSpace:
    def test_layout_and_families(self, small_space):
        space, _ = small_space
        assert space.n_columns == space.n_word + space.n_phrase + N_STRUCTURAL
        fams = space.families()
        assert list(fams[:space.n_word]) == ["word"] * space.n_word
        assert list(fams[space.structural_start:]) == ["structural"] * N_STRUCTURAL

    def test_quota_shrinks_with_warning(self, small_messages):
        tokenized = [corpus.TokenizedMessage(m.id, corpus.tokenize(m.text))
                     for m in small_messages]
        with pytest.warns(UserWarning, match="quota"):
            space = features.fit_space(tokenized, word_quota=7000,
                                       phrase_quota=3000)
        assert space.n_word < 7000

    def test_df_ordering_with_lexicographic_ties(self):
        msgs = [corpus.Message(0, "b a", 0), corpus.Message(1, "b c", 0)]
        tokenized = [corpus.TokenizedMessage(m.id, corpus.tokenize(m.text))
                     for m in msgs]
        space = features.fit_space(tokenized, word_quota=2, phrase_quota=1)
        # b has df 2; a and c tie at df 1 and a wins lexicographically.
        assert list(space.word_vocab) == ["b", "a"]

    def test_idf_formula(self):
        msgs = [corpus.Message(0, "a a", 0), corpus.Message(1, "a b", 0)]
        tokenized = [corpus.TokenizedMessage(m.id, corpus.tokenize(m.text))
                     for m in msgs]
        space = features.fit_space(tokenized, word_quota=5, phrase_quota=5)
        col_a = space.word_vocab["a"]
        col_b = space.word_vocab["b"]
        np.testing.assert_allclose(space.idf[col_a], np.log(3.0 / 3.0) + 1.0)
        np.testing.assert_allclose(space.idf[col_b], np.log(3.0 / 2.0) + 1.0)
        # Structural columns carry idf 1 so the stored vector stays full-length.
        np.testing.assert_array_equal(space.idf[space.structural_start:],
                                      np.ones(N_STRUCTURAL))


class TestVectorize:
    def test_word_block_l2_normalized(self, small_space, small_messages):
        space, tokenized = small_space
        for tok, msg in zip(tokenized, small_messages):
            vec = features.vectorize(tok, msg, space)
            word_vals = [v for c, v in vec.values.items() if c < space.n_word]
            if word_vals:
                np.testing.assert_allclose(np.linalg.norm(word_vals), 1.0)

    def test_phrase_block_l2_normalized(self, small_space, small_messages):
        space, tokenized = small_space
        seen_any = False
        for tok, msg in zip(tokenized, small_messages):
            vec = features.vectorize(tok, msg, space)
            vals = [v for c, v in vec.values.items()
                    if space.n_word <= c < space.structural_start]
            if vals:
                seen_any = True
                np.testing.assert_allclose(np.linalg.norm(vals), 1.0)
        assert seen_any

    def test_structural_block_raw(self, small_space, small_messages):
        space, tokenized = small_space
        msg = small_messages[0]
        tok = tokenized[0]
        vec = features.vectorize(tok, msg, space)
        block = [vec.values.get(col, 0.0)
                 for col in range(space.structural_start, space.n_columns)]
        np.testing.assert_array_equal(block, structural_features(msg.text))

    def test_oov_terms_ignored(self, small_space):
        space, _ = small_space
        msg = corpus.Message(99, "zzzunseen qqqnovel", 0)
        tok = corpus.TokenizedMessage(99, corpus.tokenize(msg.text))
        vec = features.vectorize(tok, msg, space)
        assert all(c >= space.structural_start for c in vec.values)

    def test_tfidf_proportional_to_count(self):
        msgs = [corpus.Message(0, "spam spam ham", 0),
                corpus.Message(1, "spam ham ham", 0)]
        tokenized = [corpus.TokenizedMessage(m.id, corpus.tokenize(m.text))
                     for m in msgs]
        space = features.fit_space(tokenized, word_quota=5, phrase_quota=5)
        vec = features.vectorize(tokenized[0], msgs[0], space)
        c_spam = space.word_vocab["spam"]
        c_ham = space.word_vocab["ham"]
        # Same idf, counts 2 vs 1, so the normalized ratio is exactly 2.
        np.testing.assert_allclose(vec.values[c_spam] / vec.values[c_ham], 2.0)


class TestSpaceIO:
    def test_space_roundtrip(self, tmp_path, small_space):
        space, _ = small_space
        path = tmp_path / "space.json"
        features.write_space(path, space)
        back = features.read_space(path)
        assert back.word_vocab == space.word_vocab
        assert back.phrase_vocab == space.phrase_vocab
        np.testing.assert_array_equal(back.idf, space.idf)

    def test_vectors_roundtrip(self, tmp_path, small_space, small_messages):
        space, tokenized = small_space
        vecs = [features.vectorize(t, m, space)
                for t, m in zip(tokenized, small_messages)]
        X = np.zeros((len(vecs), space.n_columns))
        for row, vec in enumerate(vecs):
            X[row, list(vec.values)] = list(vec.values.values())
        cfg = PipelineConfig(out_dir=str(tmp_path))
        ids = [v.id for v in vecs]
        path = tmp_path / "vectors.npz"
        pipeline._save(path, cfg.digest(), ids=np.array(ids),
                       **pipeline._to_csr(X))
        back, _ = pipeline._load_csr(cfg, "test", path, "prepare", ids,
                                     space.n_columns)
        for row, vec in enumerate(vecs):
            assert set(np.flatnonzero(back[row])) == set(vec.values)
            for col, val in vec.values.items():
                assert back[row, col] == val

    def test_vectors_skip_exact_zeros(self):
        X = np.zeros((2, 5))
        X[0, 3] = 0.5
        csr = pipeline._to_csr(X)
        assert csr["data"].tolist() == [0.5]
        assert csr["indices"].tolist() == [3]
        assert csr["indptr"].tolist() == [0, 1, 1]

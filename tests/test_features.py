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
from topicaudit.features import (CSR, N_STRUCTURAL,
                                 STRUCTURAL_FEATURE_NAMES,
                                 structural_features)

from csr_layout import to_csr

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


def _tokens(*texts: str) -> list[tuple[str, ...]]:
    return [corpus.tokenize(text) for text in texts]


def _reference_row(toks, text, space) -> dict[int, float]:
    """One message's nonzero values, computed term by term: count * idf,
    each text view divided by the root of its squares summed in
    first-occurrence order, then the nonzero structural values."""
    row = {}
    for terms, vocab, offset in (
            (toks, space.word_vocab, 0),
            (features._phrases(toks), space.phrase_vocab, space.n_word)):
        cols = [vocab[t] + offset for t in terms if t in vocab]
        block = {col: float(cols.count(col) * space.idf[col])
                 for col in dict.fromkeys(cols)}
        norm = np.sqrt(sum(v ** 2 for v in block.values()))
        row.update({col: float(v / norm) for col, v in block.items()})
    struct = structural_features(text)
    row.update({space.structural_start + i: float(v)
                for i, v in enumerate(struct) if v != 0.0})
    return row


class TestFitSpace:
    def test_layout_and_families(self, small_space):
        space, _ = small_space
        assert space.n_columns == space.n_word + space.n_phrase + N_STRUCTURAL
        fams = space.families()
        assert list(fams[:space.n_word]) == ["word"] * space.n_word
        assert list(fams[space.structural_start:]) == ["structural"] * N_STRUCTURAL

    def test_quota_shrinks_with_warning(self, small_messages):
        with pytest.warns(UserWarning, match="quota"):
            space = features.fit_space(_tokens(*small_messages[0]),
                                       word_quota=7000, phrase_quota=3000)
        assert space.n_word < 7000

    def test_df_ordering_with_lexicographic_ties(self):
        space = features.fit_space(_tokens("b a", "b c"), word_quota=2,
                                   phrase_quota=1)
        # b has df 2; a and c tie at df 1 and a wins lexicographically.
        assert list(space.word_vocab) == ["b", "a"]

    def test_idf_formula(self):
        space = features.fit_space(_tokens("a a", "a b"), word_quota=5,
                                   phrase_quota=5)
        col_a = space.word_vocab["a"]
        col_b = space.word_vocab["b"]
        np.testing.assert_allclose(space.idf[col_a], np.log(3.0 / 3.0) + 1.0)
        np.testing.assert_allclose(space.idf[col_b], np.log(3.0 / 2.0) + 1.0)
        # Structural columns carry idf 1 so the stored vector stays full-length.
        np.testing.assert_array_equal(space.idf[space.structural_start:],
                                      np.ones(N_STRUCTURAL))

    def test_phrase_df_counts_documents(self):
        # "a b" occurs twice in the first message and once in the second.
        space = features.fit_space(_tokens("a b a b", "a b c"),
                                   word_quota=5, phrase_quota=10)
        col = space.n_word + space.phrase_vocab["a b"]
        assert space.idf[col] == np.log(3.0 / 3.0) + 1.0


class TestVectorize:
    @pytest.fixture()
    def small_X(self, small_space, small_messages):
        space, kept = small_space
        csr = features.vectorize(kept, small_messages[0], space)
        return space, csr, features.CSR.of(csr).dense()

    def test_matches_the_per_message_reference(self, small_space,
                                               small_messages):
        space, kept = small_space
        texts = list(small_messages[0]) + ["zzzunseen qqqnovel", "!!"]
        kept = kept + [(), ()]
        csr = features.vectorize(kept, texts, space)
        for row, (toks, text) in enumerate(zip(kept, texts)):
            start, stop = csr["indptr"][row:row + 2]
            ref = _reference_row(toks, text, space)
            assert csr["indices"][start:stop].tolist() == sorted(ref)
            assert csr["data"][start:stop].tolist() == [
                ref[col] for col in sorted(ref)]

    def test_layout_is_the_reference_csr(self, small_X):
        # The rows to_csr makes of the dense matrix, down to the dtypes.
        space, csr, X = small_X
        assert X.shape == (10, space.n_columns)
        expected = to_csr(X)
        assert csr.keys() == expected.keys()
        for key, array in expected.items():
            assert csr[key].dtype == array.dtype, key
            assert csr[key].tobytes() == array.tobytes(), key

    def test_word_block_l2_normalized(self, small_X):
        space, _, X = small_X
        norms = np.linalg.norm(X[:, :space.n_word], axis=1)
        assert np.all(norms > 0)
        np.testing.assert_allclose(norms, 1.0)

    def test_phrase_block_l2_normalized(self, small_X):
        space, _, X = small_X
        norms = np.linalg.norm(X[:, space.n_word:space.structural_start],
                               axis=1)
        assert np.any(norms > 0)
        np.testing.assert_allclose(norms[norms > 0], 1.0)

    def test_structural_block_raw(self, small_X, small_messages):
        space, _, X = small_X
        for row, text in enumerate(small_messages[0]):
            np.testing.assert_array_equal(X[row, space.structural_start:],
                                          structural_features(text))

    def test_oov_terms_ignored(self, small_space):
        space, _ = small_space
        text = "zzzunseen qqqnovel"
        csr = features.vectorize(_tokens(text), [text], space)
        assert csr["indptr"].tolist() == [0, len(csr["indices"])]
        assert all(c >= space.structural_start for c in csr["indices"])

    def test_tfidf_proportional_to_count(self):
        texts = ["spam spam ham", "spam ham ham"]
        space = features.fit_space(_tokens(*texts), word_quota=5,
                                   phrase_quota=5)
        X = features.CSR.of(features.vectorize(_tokens(*texts), texts,
                                               space)).dense()
        c_spam = space.word_vocab["spam"]
        c_ham = space.word_vocab["ham"]
        # Same idf, counts 2 vs 1, so the normalized ratio is exactly 2.
        np.testing.assert_allclose(X[0, c_spam] / X[0, c_ham], 2.0)

    def test_no_messages_no_rows(self, small_space):
        space, _ = small_space
        csr = features.vectorize([], [], space)
        assert csr["shape"].tolist() == [0, space.n_columns]
        assert csr["indptr"].tolist() == [0]
        assert csr["indices"].size == csr["data"].size == 0

    def test_tokens_and_texts_must_pair_up(self, small_space):
        space, kept = small_space
        with pytest.raises(ValueError):
            features.vectorize(kept, ["one text"], space)


class TestCSR:
    """Dense slices of a CSR matrix equal the dense matrix's, bit for
    bit."""

    def test_identity_slice(self):
        supports = np.array([[1.0, 2.0], [0.0, 3.0]])
        X = CSR.of(to_csr(supports)).dense(columns=np.array([0, 1]))
        np.testing.assert_array_equal(X, [[1.0, 2.0], [0.0, 3.0]])

    def test_zero_row_retained(self):
        supports = np.zeros((2, 6))
        supports[0, 5] = 1.0
        X = CSR.of(to_csr(supports)).dense(columns=np.array([5]))
        np.testing.assert_array_equal(X, [[1.0], [0.0]])

    def test_unselected_columns_dropped(self):
        supports = np.zeros((1, 10))
        supports[0, [0, 9]] = [1.0, 4.0]
        X = CSR.of(to_csr(supports)).dense(columns=np.array([9]))
        np.testing.assert_array_equal(X, [[4.0]])

    def test_row_major_layout(self):
        # NMF's matrix products round differently on a column-major array.
        M = CSR.of(to_csr(np.arange(12.0).reshape(3, 4)))
        assert M.dense(columns=np.array([1, 3])).flags["C_CONTIGUOUS"]
        assert M.dense([2, 0], slice(1, 3)).flags["C_CONTIGUOUS"]

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), n=st.integers(0, 9), d=st.integers(1, 9))
    def test_slices_equal_the_dense_slices(self, data, n, d):
        values = st.sampled_from([0.0, 0.0, 0.0, -0.0, 1.5, -2.25, 5e-324])
        M = np.array(data.draw(st.lists(values, min_size=n * d,
                                        max_size=n * d))).reshape(n, d)
        rows = data.draw(st.one_of(
            st.none(),
            st.lists(st.integers(0, n - 1), max_size=12) if n else st.none(),
            st.lists(st.booleans(), min_size=n, max_size=n).map(
                lambda mask: np.array(mask, dtype=bool)),
            st.builds(slice, st.integers(0, n), st.integers(0, n))))
        columns = data.draw(st.one_of(
            st.none(),
            st.lists(st.integers(0, d - 1), unique=True).map(
                lambda cols: np.array(cols, dtype=np.int64)),
            st.builds(slice, st.integers(0, d), st.integers(0, d))))
        X = CSR.of(to_csr(M))
        expected = M[slice(None) if rows is None else rows]
        expected = expected[:, slice(None) if columns is None else columns]
        got = X.dense(rows, columns)
        assert got.shape == expected.shape
        assert got.tobytes() == np.ascontiguousarray(expected).tobytes()
        taken = X.take(slice(None) if rows is None else rows)
        assert taken.dense().tobytes() == M[
            slice(None) if rows is None else rows].tobytes()

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), n=st.integers(0, 9), d=st.integers(1, 9))
    def test_products_are_the_dense_products(self, data, n, d):
        # Summed in another order than the BLAS sums, each product is
        # within a few ulps of the largest sum of its terms' magnitudes.
        values = st.sampled_from([0.0, 0.0, 0.0, -0.0, 1.5, -2.25, 1e-3,
                                  7e5])
        M = np.array(data.draw(st.lists(values, min_size=n * d,
                                        max_size=n * d))).reshape(n, d)
        w = np.array(data.draw(st.lists(st.floats(-1e3, 1e3), min_size=d,
                                        max_size=d)))
        v = np.array(data.draw(st.lists(st.floats(-1e3, 1e3), min_size=n,
                                        max_size=n)))
        X = CSR.of(to_csr(M))
        assert X.rows.tolist() == np.nonzero(
            (M != 0.0) | np.signbit(M))[0].tolist()
        eps = np.finfo(float).eps
        for got, expected, bound in (
                (X.matvec(w), M @ w, np.abs(M) @ np.abs(w)),
                (X.rmatvec(v), M.T @ v, np.abs(M).T @ np.abs(v))):
            assert got.shape == expected.shape and got.dtype == float
            assert np.all(np.abs(got - expected)
                          <= 4 * max(n, d) * eps * bound)

    def test_a_column_taken_twice_is_refused(self):
        with pytest.raises(ValueError, match="twice"):
            CSR.of(to_csr(np.eye(3))).dense(columns=[1, 1])

    @pytest.mark.parametrize("damage", ["indptr", "indices", "data",
                                        "column", "order"])
    def test_inconsistent_arrays_are_refused(self, damage):
        fields = to_csr(np.eye(3))
        if damage == "indptr":
            fields["indptr"] = fields["indptr"][:-1]
        elif damage == "indices":
            fields["indices"] = fields["indices"][:-1]
        elif damage == "data":
            fields["data"] = np.append(fields["data"], 1.0)
        elif damage == "column":
            fields["indices"] = fields["indices"] + 1
        else:
            fields["indptr"] = np.array([0, 2, 1, 3])
        with pytest.raises(ValueError, match=r"\(3, 3\) matrix"):
            CSR.of(fields)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(0, 200), size=st.integers(2, 40))
    def test_blocks_cover_the_range_at_multiples_of_size(self, n, size):
        blocks = features.blocks(n, size)
        assert [i for b in blocks for i in range(n)[b]] == list(range(n))
        assert all(b.start % size == 0 for b in blocks)
        # Only the last block differs in length, and never by being one.
        assert all(b.stop - b.start == size for b in blocks[:-1])
        assert not blocks or n == 1 or blocks[-1].stop - blocks[-1].start > 1


def _save_dataset(cfg, space, kept=(), texts=()) -> None:
    """dataset.npz as prepare writes it, of the space and the messages'
    kept tokens and texts (none by default), every one a test message of
    gold label 0."""
    labels = np.zeros(len(texts), dtype=bool)
    pipeline._save(cfg, "dataset.npz", gold=labels, train=labels,
                   **pipeline._utf8("text", texts),
                   **pipeline._utf8("word_vocab", space.word_vocab),
                   **pipeline._utf8("phrase_vocab", space.phrase_vocab),
                   idf=space.idf, **features.vectorize(kept, texts, space))


class TestSpaceIO:
    def test_space_roundtrip(self, tmp_path, small_space):
        space, _ = small_space
        cfg = PipelineConfig(out_dir=str(tmp_path))
        _save_dataset(cfg, space)
        back = pipeline._load_features(cfg)[2]
        assert list(back.word_vocab.items()) == list(space.word_vocab.items())
        assert list(back.phrase_vocab.items()) == list(
            space.phrase_vocab.items())
        assert back.idf.dtype == space.idf.dtype
        assert back.idf.tobytes() == space.idf.tobytes()

    @pytest.mark.parametrize("phrases", [{}, {"café au lait": 0,
                                              "\U0001f389 party": 1}])
    def test_unicode_and_empty_vocabularies_roundtrip(self, tmp_path,
                                                      phrases):
        words = {"café": 0, "\U0001f600": 1, "naïve": 2, "£500": 3, "": 4}
        space = features.FeatureSpace(
            word_vocab=words, phrase_vocab=phrases,
            idf=np.linspace(1.0, 2.0, len(words) + len(phrases)
                            + features.N_STRUCTURAL))
        cfg = PipelineConfig(out_dir=str(tmp_path))
        _save_dataset(cfg, space)
        back = pipeline._load_features(cfg)[2]
        assert list(back.word_vocab.items()) == list(words.items())
        assert list(back.phrase_vocab.items()) == list(phrases.items())
        assert back.idf.tobytes() == space.idf.tobytes()
        with np.load(tmp_path / "dataset.npz") as npz:
            assert not [key for key in npz.files if npz[key].dtype.kind == "U"]
            assert npz["phrase_vocab"].dtype == np.uint8
            assert npz["phrase_vocab_offsets"].size == len(phrases) + 1

    @pytest.mark.parametrize("damage", ["offsets_past_end", "offsets_down",
                                        "bad_utf8", "no_offsets"])
    def test_damaged_vocabulary_names_the_file(self, tmp_path, small_space,
                                               damage):
        space, _ = small_space
        cfg = PipelineConfig(out_dir=str(tmp_path))
        _save_dataset(cfg, space)
        arrays = pipeline._load(cfg, "dataset.npz")
        offsets = arrays["word_vocab_offsets"]
        if damage == "offsets_past_end":
            offsets[-1] += 1
        elif damage == "offsets_down":
            offsets[1], offsets[2] = offsets[2], offsets[1]
        elif damage == "bad_utf8":
            arrays["word_vocab"][0] = 0xFF
        else:
            del arrays["word_vocab_offsets"]
        pipeline._save(cfg, "dataset.npz", **arrays)
        with pytest.raises(pipeline.ArtifactError,
                           match=r"^dataset.npz is malformed \(.*; rerun "
                                 "prepare$"):
            pipeline._load_features(cfg)

    def test_vectors_roundtrip(self, tmp_path, small_space, small_messages):
        space, kept = small_space
        csr = features.vectorize(kept, small_messages[0], space)
        cfg = PipelineConfig(out_dir=str(tmp_path))
        _save_dataset(cfg, space, kept, small_messages[0])
        back = pipeline._load_features(cfg)[3].dense()
        assert back.tobytes() == features.CSR.of(csr).dense().tobytes()
        for row in range(len(kept)):
            start, stop = csr["indptr"][row:row + 2]
            assert np.flatnonzero(back[row]).tolist() == (
                csr["indices"][start:stop].tolist())

    def test_vectors_skip_exact_zeros(self):
        X = np.zeros((2, 5))
        X[0, 3] = 0.5
        csr = to_csr(X)
        assert csr["data"].tolist() == [0.5]
        assert csr["indices"].tolist() == [3]
        assert csr["indptr"].tolist() == [0, 1, 1]

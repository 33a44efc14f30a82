"""Tests for dataset loading, tokenization, filtering, and splitting."""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SMALL_TSV
from topicaudit import corpus, demo
from topicaudit.config import PipelineConfig
from topicaudit.pipeline import (_load, _load_dataset, _load_features,
                                 cmd_prepare)


class TestLoadDataset:
    def test_sms_labels_map_to_binary(self, tmp_path):
        path = tmp_path / "d.tsv"
        path.write_text("ham\thello there\nspam\twin a prize\n", encoding="utf-8")
        texts, labels = corpus.load_dataset(path)
        assert labels.tolist() == [0, 1]
        assert labels.dtype == np.int64
        assert texts == ["hello there", "win a prize"]

    def test_malformed_row_reports_row_number(self, tmp_path):
        path = tmp_path / "d.tsv"
        path.write_text("ham\tok\nnotab-line\n", encoding="utf-8")
        with pytest.raises(corpus.DatasetError, match="row 2"):
            corpus.load_dataset(path)

    def test_unknown_label_rejected(self, tmp_path):
        path = tmp_path / "d.tsv"
        path.write_text("eggs\thello\n", encoding="utf-8")
        with pytest.raises(corpus.DatasetError, match="label"):
            corpus.load_dataset(path)

    def test_empty_text_rejected(self, tmp_path):
        path = tmp_path / "d.tsv"
        path.write_text("ham\t\n", encoding="utf-8")
        with pytest.raises(corpus.DatasetError, match="row 1"):
            corpus.load_dataset(path)

    def test_generic_csv(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text('text,verdict\n"hello, you",ok\nbuy now,bad\n',
                        encoding="utf-8")
        texts, labels = corpus.load_dataset(
            path, format="generic_csv", label_column="verdict",
            text_column="text", label_map={"ok": 0, "bad": 1})
        assert texts == ["hello, you", "buy now"]
        assert labels.tolist() == [0, 1]

    def test_label_map_keys_match_any_case(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("label,text\nSpam,buy now\nham,see you\n",
                        encoding="utf-8")
        _, labels = corpus.load_dataset(path, format="generic_csv",
                                        label_map={"SPAM": 1, "HAM": 0})
        assert labels.tolist() == [1, 0]

    def test_duplicate_texts_are_retained(self, tmp_path):
        path = tmp_path / "d.tsv"
        path.write_text("ham\tsame text\nham\tsame text\n", encoding="utf-8")
        assert corpus.load_dataset(path)[0] == ["same text", "same text"]


class TestTokenize:
    def test_lowercases_and_strips_punctuation(self):
        assert corpus.tokenize("Call NOW!!") == ("call", "now")

    def test_contractions_split(self):
        assert corpus.tokenize("won't") == ("won", "t")

    def test_numbers_kept(self):
        assert corpus.tokenize("win £500 now") == ("win", "500", "now")

    def test_underscore_is_a_separator(self):
        assert corpus.tokenize("foo_bar") == ("foo", "bar")


class TestPreprocess:
    def test_stopwords_and_rare_terms_removed(self):
        tokens = [corpus.tokenize("the prize is a prize"),
                  corpus.tokenize("a prize for the winner")]
        df = corpus.document_frequencies(tokens)
        stop = {"the", "is", "a", "for"}
        out = corpus.preprocess(tokens[0], stop, df, min_df=2)
        # "winner" df=1 < 2 and stopwords go; repeated "prize" survives twice.
        assert out == ("prize", "prize")

    def test_min_df_counts_documents_not_occurrences(self):
        tokens = [corpus.tokenize("spam spam spam"),
                  corpus.tokenize("other words here")]
        df = corpus.document_frequencies(tokens)
        assert df["spam"] == 1
        assert corpus.preprocess(tokens[0], set(), df, min_df=2) == ()


class TestSplit:
    def _labels(self, n_pos: int, n_neg: int) -> np.ndarray:
        return np.array([1] * n_pos + [0] * n_neg)

    def test_stratified_counts(self):
        labels = self._labels(60, 40)
        train = corpus.split(labels, ratio=0.5, seed=7)
        assert train.sum() == 50 and (~train).sum() == 50
        assert labels[train].sum() == 30
        assert labels[~train].sum() == 30

    def test_total_train_size_is_ceil(self):
        train = corpus.split(self._labels(5, 4), ratio=0.5, seed=7)
        assert train.sum() == 5 and (~train).sum() == 4

    def test_same_seed_same_split(self):
        labels = self._labels(30, 20)
        a = corpus.split(labels, ratio=0.5, seed=11)
        b = corpus.split(labels, ratio=0.5, seed=11)
        assert a.tolist() == b.tolist()

    def test_input_order_does_not_matter(self):
        # Interleaving the classes differently draws the same members of
        # each class, counted in row order.
        labels = self._labels(30, 20)
        shuffled = labels[np.random.default_rng(0).permutation(len(labels))]
        a = corpus.split(labels, ratio=0.5, seed=11)
        b = corpus.split(shuffled, ratio=0.5, seed=11)
        for lab in (0, 1):
            assert a[labels == lab].tolist() == b[shuffled == lab].tolist()

    def test_train_rows_are_pinned(self):
        # Label by label, one permutation of the label's rows in row order
        # draws its quota; these are the rows that draw keeps for each seed.
        train = corpus.split(self._labels(30, 20), ratio=0.5, seed=11)
        assert np.flatnonzero(train).tolist() == [
            1, 4, 5, 6, 7, 9, 11, 12, 13, 14, 15, 16, 18, 25, 26,
            31, 32, 35, 36, 38, 39, 41, 45, 47, 48]
        labels = np.array([1, 0, 0, 1, 1, 0, 1, 0, 0, 0, 1, 1, 0])
        train = corpus.split(labels, ratio=0.3, seed=2026)
        assert np.flatnonzero(train).tolist() == [1, 3, 4, 7]

    def test_returns_a_train_mask(self):
        train = corpus.split(self._labels(10, 10), ratio=0.5, seed=3)
        assert train.dtype == bool and train.shape == (20,)

    def test_too_small_class_rejected(self):
        with pytest.raises(corpus.DatasetError, match="class"):
            corpus.split(self._labels(1, 10), ratio=0.5, seed=3)

    @settings(max_examples=25, deadline=None)
    @given(n_pos=st.integers(2, 40), n_neg=st.integers(2, 40),
           seed=st.integers(0, 2 ** 31 - 1))
    def test_partition_property(self, n_pos, n_neg, seed):
        labels = self._labels(n_pos, n_neg)
        train = corpus.split(labels, ratio=0.5, seed=seed)
        assert train.sum() == -(-len(labels) // 2)
        # Each class's train share is within one message of half of it.
        for lab, count in ((1, n_pos), (0, n_neg)):
            assert abs(train[labels == lab].sum() - count / 2) <= 1


class TestSubsample:
    def test_balances_majority_down(self):
        labels = np.array([0] * 20 + [1] * 5)
        keep = corpus.subsample_majority(labels, seed=5)
        assert sum(labels[keep] == 0) == 5
        assert sum(labels[keep] == 1) == 5

    def test_balanced_input_unchanged(self):
        labels = np.arange(10) % 2
        keep = corpus.subsample_majority(labels, seed=5)
        assert np.flatnonzero(keep).tolist() == list(range(10))

    def test_kept_ids_are_pinned(self):
        # The majority rows kept are drawn by one permutation over them in
        # id order; these are the ids that draw keeps for each seed.
        ids = 10 + 3 * np.arange(15)
        labels = np.array([0, 1, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0])
        keep = corpus.subsample_majority(labels, seed=5)
        assert ids[keep].tolist() == [13, 16, 22, 25, 34, 40, 46, 52]
        labels = np.array([1, 1, 0, 1, 1, 1, 0, 1, 0, 1])
        keep = corpus.subsample_majority(labels, seed=2026)
        assert np.flatnonzero(keep).tolist() == [0, 2, 4, 6, 7, 8]


def _prepare(tmp_path, tsv_text: str, name: str = "corpus.tsv",
             **overrides):
    """(config, dataset.npz arrays) after prepare on a corpus file, by
    default a TSV."""
    tsv = tmp_path / name
    tsv.write_text(tsv_text, encoding="utf-8")
    cfg = PipelineConfig(dataset_path=str(tsv), out_dir=str(tmp_path / "out"),
                         **{"word_quota": 50, "phrase_quota": 20,
                            **overrides})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        cmd_prepare(cfg)
    return cfg, _load(cfg, "dataset.npz")


def _texts(arrays) -> list[str]:
    text, offsets = arrays["text"], arrays["text_offsets"]
    return [bytes(text[a:b]).decode("utf-8")
            for a, b in zip(offsets[:-1], offsets[1:])]


class TestDatasetIO:
    def test_roundtrip_with_digest(self, tmp_path):
        cfg, arrays = _prepare(tmp_path, SMALL_TSV)
        texts, labels = corpus.load_dataset(cfg.dataset_path)
        train = corpus.split(labels, cfg.split_ratio, cfg.seed)
        # Row i is message i: no stored ids.
        assert "ids" not in arrays
        assert arrays["gold"].tolist() == labels.tolist()
        assert arrays["train"].dtype == bool
        assert arrays["train"].tolist() == train.tolist()
        assert _texts(arrays) == texts
        with np.load(tmp_path / "out" / "dataset.npz") as npz:
            assert npz["digest"].tobytes() == cfg.digest().encode()
        assert [c.tolist() for c in _load_dataset(cfg)] == [
            arrays[key].tolist() for key in ("gold", "train")]

    def test_unicode_preserved(self, tmp_path):
        _, arrays = _prepare(tmp_path, "spam\twin £500 naïve\n"
                                       "spam\tfree prize call now\n\n"
                                       "ham\tsee you at 5\n"
                                       "ham\tcafé later?\n")
        assert arrays["text"].dtype == np.uint8
        # The blank line is no message.
        assert len(arrays["gold"]) == len(arrays["train"]) == 4
        assert _texts(arrays) == ["win £500 naïve", "free prize call now",
                                  "see you at 5", "café later?"]


def _demo_tsv(n_messages: int) -> str:
    return "".join(f"{label}\t{text}\n"
                   for label, text in demo.generate(n_messages=n_messages))


class TestPrepare:
    """The prepare stage's wiring: tokens, vocabulary, the CSR rows."""

    @pytest.mark.parametrize("min_df", [1, 2, 3])
    @pytest.mark.parametrize("stoplist", ["default", "none"])
    def test_word_vocab_is_the_train_tokens_at_min_df(self, tmp_path,
                                                      stoplist, min_df):
        cfg, arrays = _prepare(tmp_path, _demo_tsv(120), stoplist=stoplist,
                               min_df=min_df, word_quota=10_000)
        train = arrays["train"]
        texts = _texts(arrays)
        train_df = corpus.document_frequencies(
            corpus.tokenize(t) for t, is_train in zip(texts, train)
            if is_train)
        everywhere = corpus.document_frequencies(map(corpus.tokenize, texts))
        stop = corpus.default_stoplist() if stoplist == "default" else set()
        vocab = set(_load_features(cfg)[2].word_vocab)
        assert vocab == {tok for tok, df in train_df.items()
                         if df >= min_df and tok not in stop}
        # Words seen only in test messages exist and stay out.
        test_only = set(everywhere) - set(train_df)
        assert test_only and not vocab & test_only
        assert ("you" in vocab) == (stoplist == "none")

    def test_generic_csv_corpus(self, tmp_path):
        rows = demo.generate(n_messages=40)
        body = "verdict,body\n" + "".join(
            f"{'Bad' if label == 'spam' else 'OK'},\"{text}\"\n"
            for label, text in rows)
        _, arrays = _prepare(tmp_path, body, name="corpus.csv",
                             dataset_format="generic_csv",
                             label_column="verdict", text_column="body",
                             label_map={"ok": 0, "bad": 1})
        assert arrays["gold"].tolist() == [int(label == "spam")
                                           for label, _ in rows]
        assert _texts(arrays) == [text for _, text in rows]
        assert arrays["shape"][0] == len(rows)

    def test_vector_rows_ascending_without_zeros(self, tmp_path):
        _, v = _prepare(tmp_path, _demo_tsv(200))
        assert v["indptr"][0] == 0 and v["indptr"][-1] == len(v["data"])
        for start, stop in zip(v["indptr"][:-1], v["indptr"][1:]):
            assert np.all(np.diff(v["indices"][start:stop]) > 0)
        assert np.all(v["data"] > 0)

    def test_each_message_is_tokenized_once(self, tmp_path, monkeypatch):
        calls = []
        tokenize = corpus.tokenize
        monkeypatch.setattr(corpus, "tokenize",
                            lambda text: calls.append(text) or tokenize(text))
        _, arrays = _prepare(tmp_path, _demo_tsv(200))
        assert calls == _texts(arrays)

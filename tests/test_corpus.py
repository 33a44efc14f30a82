"""Tests for dataset loading, tokenization, filtering, and splitting."""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SMALL_TSV
from topicaudit import corpus
from topicaudit.config import PipelineConfig
from topicaudit.pipeline import _load, _load_dataset, cmd_prepare


class TestLoadDataset:
    def test_sms_labels_map_to_binary(self, tmp_path):
        path = tmp_path / "d.tsv"
        path.write_text("ham\thello there\nspam\twin a prize\n", encoding="utf-8")
        msgs = corpus.load_dataset(path)
        assert [m.label for m in msgs] == [0, 1]
        assert [m.id for m in msgs] == [0, 1]
        assert msgs[1].text == "win a prize"

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
        msgs = corpus.load_dataset(path, format="generic_csv",
                                   label_column="verdict", text_column="text",
                                   label_map={"ok": 0, "bad": 1})
        assert [(m.label, m.text) for m in msgs] == [(0, "hello, you"),
                                                     (1, "buy now")]

    def test_duplicate_texts_are_retained(self, tmp_path):
        path = tmp_path / "d.tsv"
        path.write_text("ham\tsame text\nham\tsame text\n", encoding="utf-8")
        assert len(corpus.load_dataset(path)) == 2


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
        msgs = [corpus.Message(0, "the prize is a prize", 1),
                corpus.Message(1, "a prize for the winner", 1)]
        df = corpus.document_frequencies(
            [corpus.TokenizedMessage(m.id, corpus.tokenize(m.text)) for m in msgs])
        stop = {"the", "is", "a", "for"}
        out = corpus.preprocess(msgs[0], stop, df, min_df=2)
        # "winner" df=1 < 2 and stopwords go; repeated "prize" survives twice.
        assert out.tokens == ("prize", "prize")

    def test_min_df_counts_documents_not_occurrences(self):
        msgs = [corpus.Message(0, "spam spam spam", 1),
                corpus.Message(1, "other words here", 0)]
        df = corpus.document_frequencies(
            [corpus.TokenizedMessage(m.id, corpus.tokenize(m.text)) for m in msgs])
        out = corpus.preprocess(msgs[0], set(), df, min_df=2)
        assert out.tokens == ()


class TestSplit:
    def _make(self, n_pos: int, n_neg: int) -> list[corpus.Message]:
        msgs = [corpus.Message(i, f"positive text {i}", 1) for i in range(n_pos)]
        msgs += [corpus.Message(n_pos + i, f"negative text {i}", 0)
                 for i in range(n_neg)]
        return msgs

    def test_stratified_counts(self):
        msgs = self._make(60, 40)
        train, test = corpus.split(msgs, ratio=0.5, seed=7)
        assert len(train) == 50 and len(test) == 50
        assert sum(m.label for m in train) == 30
        assert sum(m.label for m in test) == 30

    def test_total_train_size_is_ceil(self):
        msgs = self._make(5, 4)
        train, test = corpus.split(msgs, ratio=0.5, seed=7)
        assert len(train) == 5 and len(test) == 4

    def test_same_seed_same_split(self):
        msgs = self._make(30, 20)
        a = corpus.split(msgs, ratio=0.5, seed=11)
        b = corpus.split(msgs, ratio=0.5, seed=11)
        assert [m.id for m in a[0]] == [m.id for m in b[0]]
        assert [m.id for m in a[1]] == [m.id for m in b[1]]

    def test_input_order_does_not_matter(self):
        msgs = self._make(30, 20)
        a = corpus.split(msgs, ratio=0.5, seed=11)
        rng = np.random.default_rng(0)
        shuffled = [msgs[i] for i in rng.permutation(len(msgs))]
        b = corpus.split(shuffled, ratio=0.5, seed=11)
        assert [m.id for m in a[0]] == [m.id for m in b[0]]

    def test_split_tags_assigned(self):
        msgs = self._make(10, 10)
        train, test = corpus.split(msgs, ratio=0.5, seed=3)
        assert all(m.split == "train" for m in train)
        assert all(m.split == "test" for m in test)

    def test_too_small_class_rejected(self):
        msgs = self._make(1, 10)
        with pytest.raises(corpus.DatasetError, match="class"):
            corpus.split(msgs, ratio=0.5, seed=3)

    @settings(max_examples=25, deadline=None)
    @given(n_pos=st.integers(2, 40), n_neg=st.integers(2, 40),
           seed=st.integers(0, 2 ** 31 - 1))
    def test_partition_property(self, n_pos, n_neg, seed):
        msgs = self._make(n_pos, n_neg)
        train, test = corpus.split(msgs, ratio=0.5, seed=seed)
        ids = sorted(m.id for m in train) + sorted(m.id for m in test)
        assert sorted(ids) == list(range(n_pos + n_neg))
        assert len(train) == -(-len(msgs) // 2)


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


def _prepare(tmp_path, tsv_text: str):
    """(config, dataset.npz arrays) after prepare on a TSV corpus."""
    tsv = tmp_path / "corpus.tsv"
    tsv.write_text(tsv_text, encoding="utf-8")
    cfg = PipelineConfig(dataset_path=str(tsv), out_dir=str(tmp_path / "out"),
                         word_quota=50, phrase_quota=20)
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
        messages = corpus.load_dataset(cfg.dataset_path)
        train, test = corpus.split(messages, cfg.split_ratio, cfg.seed)
        tagged = sorted(train + test, key=lambda m: m.id)
        assert arrays["ids"].tolist() == [m.id for m in tagged]
        assert arrays["gold"].tolist() == [m.label for m in tagged]
        assert arrays["split"].tolist() == [m.split for m in tagged]
        assert _texts(arrays) == [m.text for m in tagged]
        with np.load(tmp_path / "out" / "dataset.npz") as npz:
            assert npz["digest"].tobytes() == cfg.digest().encode()
        assert [c.tolist() for c in _load_dataset(cfg)] == [
            arrays[key].tolist() for key in ("ids", "gold", "split")]

    def test_unicode_preserved(self, tmp_path):
        _, arrays = _prepare(tmp_path, "spam\twin £500 naïve\n"
                                       "spam\tfree prize call now\n\n"
                                       "ham\tsee you at 5\n"
                                       "ham\tcafé later?\n")
        assert arrays["text"].dtype == np.uint8
        assert arrays["ids"].tolist() == [0, 1, 2, 3]
        assert _texts(arrays) == ["win £500 naïve", "free prize call now",
                                  "see you at 5", "café later?"]

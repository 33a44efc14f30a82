"""Tests for the bundled demo corpus generator."""

from __future__ import annotations

import collections

from topicaudit import corpus, demo


class TestGenerate:
    def test_deterministic_for_a_seed(self):
        assert demo.generate(seed=7) == demo.generate(seed=7)

    def test_seed_changes_output(self):
        assert demo.generate(seed=7) != demo.generate(seed=8)

    def test_size_and_label_mix(self):
        rows = demo.generate(n_messages=1600, spam_rate=0.134)
        counts = collections.Counter(label for label, _ in rows)
        assert set(counts) == {"ham", "spam"}
        assert len(rows) == 1600
        assert counts["spam"] == round(1600 * 0.134)

    def test_texts_are_nonempty_single_line(self):
        for _, text in demo.generate(n_messages=400):
            assert text.strip() == text and text
            assert "\n" not in text and "\t" not in text

    def test_no_unfilled_slots(self):
        for _, text in demo.generate(n_messages=400):
            assert "{" not in text and "}" not in text

    def test_ambiguous_subpopulations_exist_under_both_labels(self):
        # Quiet promotional wording must appear in ham and spam alike,
        # otherwise the trained model has no reason to misclassify.
        rows = demo.generate()
        for label in ("ham", "spam"):
            carriers = [t for lab, t in rows
                        if lab == label and "prize" in t and "£" not in t]
            assert len(carriers) >= 10, f"too few quiet {label} carriers"


class TestWriteTsv:
    def test_round_trips_through_dataset_loader(self, tmp_path):
        rows = demo.generate(n_messages=120)
        path = tmp_path / "demo.tsv"
        demo.write_tsv(path, rows)
        texts, labels = corpus.load_dataset(path)
        assert texts == [t for _, t in rows]
        assert labels.tolist() == [
            1 if lab == "spam" else 0 for lab, _ in rows]

    def test_cli_entry_writes_file(self, tmp_path):
        out = tmp_path / "sms.tsv"
        assert demo.main(["--out", str(out), "--size", "80"]) == 0
        assert len(out.read_text(encoding="utf-8").splitlines()) == 80

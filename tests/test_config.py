"""Tests for pipeline configuration loading, validation, and digests."""

from __future__ import annotations

import dataclasses
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from topicaudit import cli
from topicaudit.config import ConfigError, PipelineConfig, load_config


class TestValidation:
    def test_defaults_are_valid(self):
        PipelineConfig()

    def test_unknown_classifier(self):
        with pytest.raises(ConfigError, match="classifier"):
            PipelineConfig(classifier="forest")

    def test_split_ratio_bounds(self):
        with pytest.raises(ConfigError, match="split_ratio"):
            PipelineConfig(split_ratio=1.0)
        with pytest.raises(ConfigError, match="split_ratio"):
            PipelineConfig(split_ratio=0.0)

    def test_trr_fix_range(self):
        PipelineConfig(trr_fix=1.0)
        with pytest.raises(ConfigError, match="trr_fix"):
            PipelineConfig(trr_fix=0.0)

    def test_k_related_must_fit_under_n_topics(self):
        with pytest.raises(ConfigError, match="k_related"):
            PipelineConfig(n_topics=3, k_related=3)

    def test_base_detector_choices(self):
        PipelineConfig(base_detector="entropy")
        with pytest.raises(ConfigError, match="base_detector"):
            PipelineConfig(base_detector="xmap_original")

    def test_repair_representation_choices(self):
        PipelineConfig(repair_representation="rel_u")
        with pytest.raises(ConfigError, match="repair_representation"):
            PipelineConfig(repair_representation="entropy")

    def test_background_size_at_least_one(self):
        PipelineConfig(background_size=1)
        with pytest.raises(ConfigError, match="background_size"):
            PipelineConfig(background_size=0)

    def test_n_coalitions_null_or_at_least_one(self):
        PipelineConfig(n_coalitions=None)
        PipelineConfig(n_coalitions=1)
        with pytest.raises(ConfigError, match="n_coalitions"):
            PipelineConfig(n_coalitions=0)

    def test_k_nn_at_least_one(self):
        PipelineConfig(k_nn=1)
        with pytest.raises(ConfigError, match="k_nn"):
            PipelineConfig(k_nn=0)

    @pytest.mark.parametrize("name", ["word_quota", "phrase_quota",
                                      "k_related"])
    def test_sizes_not_negative(self, name):
        PipelineConfig(**{name: 0})
        with pytest.raises(ConfigError, match=name):
            PipelineConfig(**{name: -1})

    def test_k_top_at_least_one(self):
        PipelineConfig(k_top=1, n_topics=1, k_related=0)
        with pytest.raises(ConfigError, match="k_top"):
            PipelineConfig(k_top=0)
        with pytest.raises(ConfigError, match="k_top"):
            PipelineConfig(k_top=-3)

    @pytest.mark.parametrize("name", ["epochs", "svm_epochs",
                                      "nmf_max_iters"])
    def test_iteration_counts_at_least_one(self, name):
        PipelineConfig(**{name: 1})
        for bad in (0, -3):
            with pytest.raises(ConfigError, match=f"^{name} must be at "):
                PipelineConfig(**{name: bad})

    def test_tau_p_range(self):
        PipelineConfig(tau_p=1.0)
        PipelineConfig(tau_p=1e-9)
        for bad in (0.0, -0.05, 1.5, float("nan")):
            with pytest.raises(ConfigError, match="tau_p"):
                PipelineConfig(tau_p=bad)

    def test_temperature_positive(self):
        PipelineConfig(temperature=1e-3)
        for bad in (0.0, -2.0, float("nan")):
            with pytest.raises(ConfigError, match="temperature"):
                PipelineConfig(temperature=bad)

    def test_stoplist_choices(self):
        PipelineConfig(stoplist="none")
        with pytest.raises(ConfigError, match="stoplist"):
            PipelineConfig(stoplist="english")


    def test_dataset_format_choices(self):
        PipelineConfig(dataset_format="generic_csv")
        with pytest.raises(ConfigError, match="dataset_format"):
            PipelineConfig(dataset_format="xlsx")

    @pytest.mark.parametrize("label_map", [{"spam": 2}, {"ham": -1},
                                           {"spam": 1.0}, {"spam": True},
                                           ["spam"], {"Spam": 1, "spam": 0}])
    def test_unusable_label_map_rejected(self, label_map):
        PipelineConfig(dataset_format="generic_csv",
                       label_map={"SPAM": 1, "ham": 0})
        with pytest.raises(ConfigError, match="label_map"):
            PipelineConfig(dataset_format="generic_csv", label_map=label_map)

    @pytest.mark.parametrize("field, value", [
        ("label_map", {"spam": 0, "ham": 1}), ("label_map", {}),
        ("label_column", "verdict"), ("text_column", "body")])
    def test_csv_fields_need_generic_csv(self, field, value):
        # The sms_tsv reader has fixed ham/spam labels and no header, so
        # it would ignore these settings.
        PipelineConfig(dataset_format="generic_csv", **{field: value})
        with pytest.raises(ConfigError, match=f"{field} applies only"):
            PipelineConfig(**{field: value})


class TestDigest:
    def test_stable_across_instances(self):
        assert PipelineConfig().digest() == PipelineConfig().digest()

    def test_ignores_dataset_path_and_out_dir(self):
        a = PipelineConfig(dataset_path="/a.tsv", out_dir="/x")
        b = PipelineConfig(dataset_path="/b.tsv", out_dir="/y")
        assert a.digest() == b.digest()

    @given(st.sampled_from([f.name for f in dataclasses.fields(PipelineConfig)
                            if f.name not in ("dataset_path", "out_dir")]))
    def test_any_other_field_changes_it(self, field):
        csv_only = ("label_column", "text_column", "label_map")
        base = PipelineConfig(
            dataset_format="generic_csv" if field in csv_only else "sms_tsv")
        bumped = {
            "seed": 43, "split_ratio": 0.6, "min_df": 3, "stoplist": "none",
            "word_quota": 100, "phrase_quota": 50, "classifier": "svm",
            "l2_strength": 2.0, "svm_c": 2.0, "nb_alpha": 2.0, "epochs": 10,
            "svm_epochs": 10, "subsample_train": True, "background_size": 10,
            "n_coalitions": 64, "nb_linear_attribution": True, "k_top": 10,
            "tau_p": 0.1, "rho": {"word": 1.0, "phrase": 0.0, "structural": 0.0},
            "n_topics": 5, "nmf_max_iters": 10, "nmf_tol": 1e-3,
            "k_related": 1, "temperature": 3.0, "k_nn": 5, "trr_fix": 0.9,
            "base_detector": "entropy", "repair_representation": "odin",
            "dataset_format": "generic_csv", "label_column": "y",
            "text_column": "msg", "label_map": {"ok": 0, "bad": 1},
        }
        other = dataclasses.replace(base, **{field: bumped[field]})
        assert other.digest() != base.digest()


class TestLoadConfig:
    def test_round_trip_with_overrides(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"dataset_path": "d.tsv", "seed": 3}),
                        encoding="utf-8")
        cfg = load_config(path, out_dir=str(tmp_path / "run"), seed=9)
        assert cfg.dataset_path == "d.tsv"
        assert cfg.seed == 9
        assert cfg.out_dir == str(tmp_path / "run")

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"datset_path": "oops.tsv"}', encoding="utf-8")
        with pytest.raises(ConfigError, match="datset_path"):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="config"):
            load_config(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_config(path)

    @pytest.mark.parametrize("raw", ['{"label_map": {"spam": 2}}',
                                     '{"dataset_format": "xlsx"}',
                                     '{"label_map": {"spam": 0, "ham": 1}}',
                                     '{"label_column": "verdict"}',
                                     '{"text_column": "body"}'])
    def test_unusable_corpus_settings_exit_1(self, tmp_path, capsys, raw):
        path = tmp_path / "c.json"
        path.write_text(raw, encoding="utf-8")
        assert cli.main(["prepare", "--config", str(path),
                         "--out", str(tmp_path / "run")]) == 1
        assert "usage error" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_bad_value_surfaces_as_config_error(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"classifier": "forest"}', encoding="utf-8")
        with pytest.raises(ConfigError, match="classifier"):
            load_config(path)


class TestModelSettings:
    BAD = [("rho", {"word": 1.2, "phrase": -0.2, "structural": 0}),
           ("rho", {"word": 0.65, "phrase": 0.3, "structual": 0.05}),
           ("rho", {"word": 0.65, "phrase": 0.3}),
           ("rho", {"word": float("nan"), "phrase": 0.3}),
           # Shares are numbers, not strings or bools.
           ("rho", {"word": "x", "phrase": 0.5}), ("rho", {"word": True}),
           ("svm_c", -1), ("svm_c", 0), ("svm_c", float("nan")),
           ("nb_alpha", 0), ("nb_alpha", -0.5),
           ("l2_strength", -1e-3), ("l2_strength", float("nan")),
           # Counts and the seed are integers, not floats, strings or
           # bools, and the seed is not negative.
           ("seed", -1), ("seed", 1.5), ("seed", "7"), ("seed", True),
           ("word_quota", 50.5), ("k_top", 20.5), ("min_df", 1.5),
           ("epochs", True), ("n_coalitions", 2.5), ("n_coalitions", False),
           ("k_nn", "25"),
           # Flags are booleans; real settings are numbers, not strings,
           # null or bools.
           ("subsample_train", "false"), ("subsample_train", 1),
           ("nb_linear_attribution", 0), ("split_ratio", "0.5"),
           ("l2_strength", True), ("svm_c", True), ("nb_alpha", "1"),
           ("tau_p", True), ("nmf_tol", "x"), ("nmf_tol", None),
           ("temperature", True), ("trr_fix", True),
           # Paths and column names are strings.
           ("dataset_path", 5), ("out_dir", 5), ("label_column", 5),
           ("text_column", None),
           # NMF factors the k_top (200) selected columns into n_topics;
           # refused at load, not by profile after three stages have run.
           ("n_topics", 201)]

    @pytest.mark.parametrize("name, value", BAD)
    def test_bad_value_rejected(self, name, value):
        with pytest.raises(ConfigError, match=f"^{name} must "):
            PipelineConfig(**{name: value})

    @pytest.mark.parametrize("name, value", [
        ("rho", {"word": 1.0}), ("rho", {"phrase": 0.5, "structural": 0.5}),
        ("rho", {"word": 0.1, "phrase": 0.2, "structural": 0.7}),
        ("svm_c", 1e-6), ("nb_alpha", 1e-6), ("l2_strength", 0.0),
        ("seed", 0), ("n_coalitions", None), ("n_topics", 200),
        ("l2_strength", 0), ("trr_fix", 1), ("subsample_train", True)])
    def test_edge_values_accepted(self, name, value):
        PipelineConfig(**{name: value})

    @pytest.mark.parametrize("name, value", BAD)
    def test_bad_value_exits_1_before_any_stage_writes(self, tmp_path,
                                                       capsys, name, value):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"dataset_path": "d.tsv", name: value}),
                        encoding="utf-8")
        # --out would replace a bad out_dir.
        out = [] if name == "out_dir" else ["--out", str(tmp_path / "run")]
        for stage in ("prepare", "train"):
            assert cli.main([stage, "--config", str(path), *out]) == 1
            assert capsys.readouterr().err.startswith(
                f"usage error: {name} must ")
        assert not (tmp_path / "run").exists()

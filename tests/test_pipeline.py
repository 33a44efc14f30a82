"""End-to-end plumbing tests: stages, artifacts, digests, CLI contract.

A miniature demo corpus keeps the full eight-stage run under a few
seconds; the statistical quality of the run is irrelevant here, only
that artifacts are produced, guarded, and reproduced byte for byte.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from topicaudit import (BLAS_THREAD_VARS, atomic, attribution, classifiers,
                        cli, demo, pipeline, profiling, report, scoring)
from topicaudit.config import PipelineConfig, load_config
from topicaudit.pipeline import (ArtifactError, StageError, _from_csr,
                                 _load, _load_dataset, _load_model,
                                 _load_phi, _load_space, _load_topics,
                                 _load_vectors, _reliable_profile, _save,
                                 _to_csr)
from topicaudit.uncertainty import REPRESENTATIONS

STAGES = ("prepare", "train", "explain", "profile", "score",
          "evaluate", "repair", "report")

# Every artifact of a full run, with the stage that writes it.
PRODUCER = {
    "dataset.npz": "prepare", "space.npz": "prepare",
    "vectors.npz": "prepare", "model.npz": "train",
    "shap.npz": "explain", "topics_plus.npz": "profile",
    "topics_minus.npz": "profile", "profiles.npz": "score",
    "representations.npz": "score", "scores.npz": "score",
    "detector_report.json": "evaluate",
    "repair_report.json": "repair", "outcomes.npz": "repair",
    "report.md": "report",
}

MINI = {
    "seed": 11,
    "word_quota": 400,
    "phrase_quota": 200,
    "n_topics": 6,
    "k_top": 120,
    "k_nn": 10,
}


def _write_corpus(dirpath: Path) -> Path:
    tsv = dirpath / "mini.tsv"
    demo.write_tsv(tsv, demo.generate(n_messages=300, seed=11))
    return tsv


def _write_config(dirpath: Path, tsv: Path, out: Path, **extra) -> Path:
    cfg = dirpath / "config.json"
    cfg.write_text(json.dumps({"dataset_path": str(tsv),
                               "out_dir": str(out), **MINI, **extra}),
                   encoding="utf-8")
    return cfg


def _run_all(cfg_path: Path) -> None:
    for stage in STAGES:
        rc = cli.main([stage, "--config", str(cfg_path)])
        assert rc == 0, f"stage {stage} failed"


@pytest.fixture(scope="session")
def mini_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("mini")
    tsv = _write_corpus(root)
    out = root / "run"
    out.mkdir()
    cfg_path = _write_config(root, tsv, out)
    _run_all(cfg_path)
    return root, tsv, out, cfg_path


# The settings of a small svm run, whose shap.npz holds kernel phi as
# CSR.
KERNEL = {"classifier": "svm", "svm_epochs": 100, "background_size": 5,
          "n_coalitions": 400, "word_quota": 60, "phrase_quota": 40}


def _small_run(root: Path, stages, **extra) -> tuple[Path, Path]:
    """(out dir, config) of the given stages on an 80-message corpus."""
    tsv = root / "small.tsv"
    demo.write_tsv(tsv, demo.generate(n_messages=80, seed=3))
    out = root / "run"
    out.mkdir()
    cfg_path = _write_config(root, tsv, out, **extra)
    for stage in stages:
        assert cli.main([stage, "--config", str(cfg_path)]) == 0, stage
    return out, cfg_path


@pytest.fixture(scope="session")
def kernel_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("kernel")
    out, cfg_path = _small_run(root, STAGES[:STAGES.index("profile") + 1],
                               **KERNEL)
    return root, root / "small.tsv", out, cfg_path


def _copy_run(run, tmp_path: Path) -> tuple[Path, Path]:
    """A private copy of a run's outputs and the run's config aimed at
    it."""
    _, _, out, cfg_path = run
    copy = tmp_path / "copy"
    shutil.copytree(out, copy)
    settings = json.loads(cfg_path.read_text(encoding="utf-8"))
    copy_cfg = tmp_path / "config.json"
    copy_cfg.write_text(json.dumps({**settings, "out_dir": str(copy)}),
                        encoding="utf-8")
    return copy, copy_cfg


def _damage_shap(cfg: PipelineConfig, damage: str) -> None:
    """Rewrite shap.npz with one message fewer, one column more or a
    storage key missing: mu for a linear run, indptr for a kernel run."""
    arrays = _load(cfg, "shap.npz")
    if damage == "missing_message":
        arrays.update(ids=arrays["ids"][:-1],
                      base_values=arrays["base_values"][:-1])
    if "mu" in arrays:
        if damage == "extra_column":
            arrays["mu"] = np.append(arrays["mu"], 1.0)
        elif damage == "missing_key":
            del arrays["mu"]
    else:
        phi = _from_csr(arrays)
        if damage == "missing_message":
            phi = phi[:-1]
        elif damage == "extra_column":
            phi = np.hstack([phi, np.ones((len(phi), 1))])
        arrays.update(_to_csr(phi))
        if damage == "missing_key":
            del arrays["indptr"]
    _save(cfg, "shap.npz", **arrays)


def _truncate(path: Path) -> None:
    path.write_bytes(path.read_bytes()[:path.stat().st_size // 2])


def _score_refuses_shap(cfg_path: Path, capsys) -> None:
    assert cli.main(["score", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert "[score]" in err and "shap.npz" in err


def _train_refuses_dataset(cfg_path: Path, capsys) -> None:
    assert cli.main(["train", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("[train] ") and err.count("\n") == 1
    assert "dataset.npz" in err and "rerun prepare" in err


class TestStageOutputs:
    def test_all_artifacts_exist(self, mini_run):
        _, _, out, _ = mini_run
        assert pipeline.PRODUCER == PRODUCER
        assert {p.name for p in out.iterdir()} == set(PRODUCER)

    def test_every_artifact_carries_the_config_digest(self, mini_run):
        _, _, out, cfg_path = mini_run
        digest = load_config(cfg_path).digest()
        for path in sorted(out.iterdir()):
            blob = path.read_bytes()
            assert digest.encode() in blob, f"{path.name} lacks the config digest"

    def test_scores_outcomes_partition(self, mini_run):
        _, _, _, cfg_path = mini_run
        cfg = load_config(cfg_path)
        scores = _load(cfg, "scores.npz")
        outcomes = _load(cfg, "outcomes.npz", scores["ids"].tolist())
        assert set(outcomes["outcome"].tolist()) <= {
            "accepted", "rejected", "repaired"}
        # Only test messages can be rejected or repaired.
        train = scores["split"] == "train"
        assert set(outcomes["outcome"][train].tolist()) <= {"accepted"}

    def test_repair_agrees_with_evaluate_and_outcomes(self, mini_run):
        _, _, out, cfg_path = mini_run
        cfg = load_config(cfg_path)
        detector, repair = (
            json.loads((out / name).read_text(encoding="utf-8"))
            for name in ("detector_report.json", "repair_report.json"))
        for subset, body in repair["subsets"].items():
            base = detector["subsets"][subset]["detectors"][cfg.base_detector]
            for key in ("threshold", "n_true_rejections",
                        "n_false_rejections"):
                assert body[key] == base[key], (subset, key)

        scores = _load(cfg, "scores.npz")
        outcome = _load(cfg, "outcomes.npz", scores["ids"].tolist())["outcome"]
        re_accepted = repair["representations"][
            cfg.repair_representation]["re_accepted_ids"]
        assert scores["ids"][outcome == "repaired"].tolist() == re_accepted
        n_rejected = sum(body["n_rejected"]
                         for body in repair["subsets"].values())
        assert n_rejected > 0
        assert np.isin(outcome, ["rejected", "repaired"]).sum() == n_rejected
        test_ids = set(scores["ids"][scores["split"] == "test"].tolist())
        for body in repair["representations"].values():
            assert set(body["re_accepted_ids"]) <= test_ids

        # The rejections are the rows not accepted: each subset's counts
        # follow from them, and so does the configured representation's
        # accounting, whose repaired rows split into recoveries (correct)
        # and leakages.
        rejected = outcome != "accepted"
        back, correct = outcome == "repaired", scores["correct"]
        predicted = scores["predicted"]
        for subset, label in (("positive", 1), ("negative", 0)):
            part = rejected & (predicted == label)
            counts = repair["subsets"][subset]
            assert counts["n_rejected"] == int(part.sum()), subset
            assert counts["n_true_rejections"] == int(np.sum(part & ~correct))
            assert counts["n_false_rejections"] == int(np.sum(part & correct))
        n_rec = int(np.sum(back & correct))
        n_leak = int(np.sum(back & ~correct))
        n_false = int(np.sum(rejected & correct))
        n_true = int(np.sum(rejected & ~correct))
        body = repair["representations"][cfg.repair_representation]
        assert (body["n_recovery"], body["n_leakage"]) == (n_rec, n_leak)
        assert body["n_correct_fix"] == n_rec - n_leak
        assert body["n_false_rejections"] == n_false
        assert body["n_true_rejections"] == n_true
        assert body["recov_r"] == (n_rec / n_false if n_false else None)
        assert body["leak_r"] == (n_leak / n_true if n_true else None)

        # Every representation's gates are calibrated on the training rows
        # of their own polarity, and a rejection comes back iff its
        # divergence is at most the gate of its predicted polarity.
        train = scores["split"] == "train"
        for rep, body in repair["representations"].items():
            xmap = scores[f"xmap_{rep}"]
            for key, label in (("tau_plus", 1), ("tau_minus", 0)):
                part = train & (predicted == label) & ~np.isnan(xmap)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", UserWarning)
                    tau = scoring.calibrate_tau(xmap[part], ~correct[part],
                                                cfg.trr_fix)
                assert body[key] == tau, (rep, key)
            gate = np.where(predicted == 1, body["tau_plus"],
                            body["tau_minus"])
            assert body["re_accepted_ids"] == (
                scores["ids"][rejected & (xmap <= gate)].tolist()), rep

    def test_representations_cover_every_message(self, mini_run):
        _, _, _, cfg_path = mini_run
        cfg = load_config(cfg_path)
        scores = _load(cfg, "scores.npz")
        reps = _load(cfg, "representations.npz", scores["ids"].tolist())
        n = len(scores["ids"])
        assert reps["vectors"].shape == (n, 8, MINI["n_topics"])
        assert reps["degenerate"].shape == (n, 8)
        present = ~np.isnan(reps["vectors"]).any(axis=2)
        sums = reps["vectors"][present].sum(axis=1)
        np.testing.assert_allclose(sums, 1.0, atol=1e-9)

    def test_profiles_are_the_reliable_groups_representations(self,
                                                               mini_run):
        # Rebuilt from the upstream artifacts: the label-l profile is the
        # representations of the mean topic contribution of the correctly
        # classified training messages of gold label l, on the polarity
        # that label selects.
        _, _, _, cfg_path = mini_run
        cfg = load_config(cfg_path)
        scores = _load(cfg, "scores.npz")
        ids = scores["ids"].tolist()
        space = _load_space(cfg)
        X = _load_vectors(cfg, ids, space)
        phi = _load_phi(cfg, ids, space, _load_model(cfg), X)
        profiles = _load(cfg, "profiles.npz")
        assert profiles["names"].tolist() == list(REPRESENTATIONS)
        assert profiles["vectors"].shape == (2, len(REPRESENTATIONS),
                                             cfg.n_topics)
        reliable = (scores["split"] == "train") & scores["correct"]
        for label, polarity in ((0, "minus"), (1, "plus")):
            group = reliable & (scores["gold"] == label)
            assert group.any(), polarity
            topic = _load_topics(cfg, polarity)
            supports = attribution.polarity_supports(
                phi[group][:, topic.columns], polarity)
            group_tc = profiling.topic_contributions(
                supports, topic.assignment, cfg.n_topics)
            expected = _reliable_profile(group_tc, topic.H, cfg)
            assert not np.isnan(expected).all(), polarity
            assert profiles["vectors"][label].tobytes() == expected.tobytes()

    def test_report_sections_render(self, mini_run):
        _, _, out, _ = mini_run
        text = (out / "report.md").read_text(encoding="utf-8")
        for heading in ("## Divergence from the reliable-group profiles",
                        "## Detector quality", "## Repair layer"):
            assert heading in text


class TestDeterminism:
    def test_rerun_in_fresh_directory_is_byte_identical(self, mini_run,
                                                        tmp_path):
        root, tsv, out, _ = mini_run
        out2 = tmp_path / "run2"
        out2.mkdir()
        cfg2 = _write_config(tmp_path, tsv, out2)
        _run_all(cfg2)
        names = sorted(p.name for p in out.iterdir())
        assert names == sorted(p.name for p in out2.iterdir())
        for name in names:
            a = (out / name).read_bytes()
            b = (out2 / name).read_bytes()
            assert a == b, f"{name} differs between identical runs"

    def test_repair_stage_is_idempotent(self, mini_run):
        _, _, out, cfg_path = mini_run
        before = {name: (out / name).read_bytes()
                  for name in ("outcomes.npz", "scores.npz")}
        assert cli.main(["repair", "--config", str(cfg_path)]) == 0
        for name, blob in before.items():
            assert (out / name).read_bytes() == blob, name


class TestGuards:
    def test_digest_mismatch_refuses_to_combine(self, mini_run, capsys):
        root, tsv, out, _ = mini_run
        other = _write_config(root / "run", tsv, out, seed=12)
        rc = cli.main(["score", "--config", str(other)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "digest" in err and "[score]" in err

    @pytest.mark.parametrize("damage", ["stale", "truncated", "not_object"])
    @pytest.mark.parametrize("name", ["detector_report.json",
                                      "repair_report.json"])
    def test_stale_report_json_refused_by_report(self, mini_run, tmp_path,
                                                 capsys, name, damage):
        copy, cfg_path = _copy_run(mini_run, tmp_path)
        path = copy / name
        if damage == "stale":
            stale = json.loads(path.read_text(encoding="utf-8"))
            stale["config_digest"] = "0" * 64
            path.write_text(json.dumps(stale), encoding="utf-8")
        elif damage == "truncated":
            _truncate(path)
        else:
            path.write_text("[1]", encoding="utf-8")
        assert cli.main(["report", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert "[report]" in err and name in err
        assert err.count("\n") == 1
        if damage == "stale":
            assert "digest" in err
        else:
            assert err.startswith(f"[report] cannot read {name} (")
            assert err.endswith(f"); rerun {PRODUCER[name]}\n")
        assert (copy / "report.md").read_bytes() == (
            mini_run[2] / "report.md").read_bytes()

    # The first stage that reads each artifact a later stage needs.
    FIRST_READER = {"dataset.npz": "train", "space.npz": "train",
                    "vectors.npz": "train", "model.npz": "explain",
                    "shap.npz": "profile", "topics_plus.npz": "score",
                    "topics_minus.npz": "score", "scores.npz": "evaluate",
                    "detector_report.json": "report",
                    "repair_report.json": "report"}

    @pytest.mark.parametrize("name", sorted(FIRST_READER))
    def test_missing_artifact_names_its_producer(self, mini_run, tmp_path,
                                                 capsys, name):
        copy, cfg_path = _copy_run(mini_run, tmp_path)
        (copy / name).unlink()
        reader = self.FIRST_READER[name]
        assert cli.main([reader, "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err == (
            f"[{reader}] missing {name}; run {PRODUCER[name]} first\n")

    @pytest.mark.parametrize("reader", ["evaluate", "repair", "report"])
    def test_scores_missing_column_names_the_file(self, mini_run, tmp_path,
                                                  capsys, reader):
        _, cfg_path = _copy_run(mini_run, tmp_path)
        cfg = load_config(cfg_path)
        arrays = _load(cfg, "scores.npz")
        del arrays["xmap_odin"]
        _save(cfg, "scores.npz", **arrays)
        assert cli.main([reader, "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err == (
            f"[{reader}] scores.npz is malformed (missing 'xmap_odin'); "
            "rerun score\n")

    # The top-level keys report reads from each JSON report.
    REPORT_KEYS = {"detector_report.json": ["subsets", "trr_fix"],
                   "repair_report.json": ["base_detector", "representations",
                                          "subsets"]}

    @pytest.mark.parametrize("name", sorted(REPORT_KEYS))
    def test_report_missing_keys_names_the_file(self, mini_run, tmp_path,
                                                capsys, name):
        copy, cfg_path = _copy_run(mini_run, tmp_path)
        digest = load_config(cfg_path).digest()
        (copy / name).write_text(json.dumps({"config_digest": digest}),
                                 encoding="utf-8")
        assert cli.main(["report", "--config", str(cfg_path)]) == 2
        missing = ", ".join(repr(key) for key in self.REPORT_KEYS[name])
        assert capsys.readouterr().err == (
            f"[report] {name} is malformed (missing {missing}); "
            f"rerun {PRODUCER[name]}\n")
        assert (copy / "report.md").read_bytes() == (
            mini_run[2] / "report.md").read_bytes()

    def test_missing_upstream_artifact_names_the_producer(self, tmp_path):
        tsv = _write_corpus(tmp_path)
        out = tmp_path / "empty"
        out.mkdir()
        cfg_path = _write_config(tmp_path, tsv, out)
        with pytest.raises(StageError, match="run score first"):
            from topicaudit.pipeline import cmd_evaluate
            cmd_evaluate(load_config(cfg_path))

    def test_stage_error_exit_code_and_stderr(self, tmp_path, capsys):
        tsv = _write_corpus(tmp_path)
        out = tmp_path / "empty"
        out.mkdir()
        cfg_path = _write_config(tmp_path, tsv, out)
        rc = cli.main(["evaluate", "--config", str(cfg_path)])
        assert rc == 2
        assert "run score first" in capsys.readouterr().err

    # mini_run is logreg, so these damage the linear layout (mu); the
    # kernel_shap variants damage the CSR layout of an svm run.
    def test_truncated_shap_fails_score(self, mini_run, tmp_path, capsys):
        copy, cfg_path = _copy_run(mini_run, tmp_path)
        _truncate(copy / "shap.npz")
        _score_refuses_shap(cfg_path, capsys)

    @pytest.mark.parametrize("damage", ["missing_message", "extra_column",
                                        "missing_key"])
    def test_incomplete_shap_fails_score(self, mini_run, tmp_path, capsys,
                                         damage):
        _, cfg_path = _copy_run(mini_run, tmp_path)
        _damage_shap(load_config(cfg_path), damage)
        _score_refuses_shap(cfg_path, capsys)

    def test_truncated_kernel_shap_fails_score(self, kernel_run, tmp_path,
                                               capsys):
        copy, cfg_path = _copy_run(kernel_run, tmp_path)
        _truncate(copy / "shap.npz")
        _score_refuses_shap(cfg_path, capsys)

    @pytest.mark.parametrize("damage", ["missing_message", "extra_column",
                                        "missing_key"])
    def test_incomplete_kernel_shap_fails_score(self, kernel_run, tmp_path,
                                                capsys, damage):
        _, cfg_path = _copy_run(kernel_run, tmp_path)
        _damage_shap(load_config(cfg_path), damage)
        _score_refuses_shap(cfg_path, capsys)

    def test_undamaged_kernel_run_scores(self, kernel_run, tmp_path):
        # The damage above is what fails score, not the small run itself.
        _, cfg_path = _copy_run(kernel_run, tmp_path)
        assert cli.main(["score", "--config", str(cfg_path)]) == 0

    def test_unnormalized_nb_prior_fails_score(self, mini_run, tmp_path,
                                               capsys):
        _, cfg_path = _copy_run(mini_run, tmp_path)
        cfg = load_config(cfg_path)
        d = len(_load_model(cfg).weights)
        prior = float(np.log(0.7))
        _save(cfg, "model.npz", kind="nb",
              log_prior=np.array([prior, prior]), log_theta=np.zeros((2, d)),
              alpha=1.0, structural_start=d, struct_min=np.zeros(0),
              struct_max=np.zeros(0))
        assert cli.main(["score", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("[score] ") and "log_prior" in err
        assert err.count("\n") == 1

    def test_topics_missing_key_fails_score(self, mini_run, tmp_path,
                                            capsys):
        _, cfg_path = _copy_run(mini_run, tmp_path)
        cfg = load_config(cfg_path)
        arrays = _load(cfg, "topics_plus.npz")
        del arrays["assignment"]
        _save(cfg, "topics_plus.npz", **arrays)
        assert cli.main(["score", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("[score] ") and err.count("\n") == 1
        assert "topics_plus.npz" in err and "assignment" in err
        assert "rerun profile" in err

    def test_truncated_dataset_fails_train(self, mini_run, tmp_path,
                                           capsys):
        copy, cfg_path = _copy_run(mini_run, tmp_path)
        _truncate(copy / "dataset.npz")
        _train_refuses_dataset(cfg_path, capsys)

    @pytest.mark.parametrize("damage", ["missing_gold", "short_gold"])
    def test_incomplete_dataset_fails_train(self, mini_run, tmp_path, capsys,
                                            damage):
        _, cfg_path = _copy_run(mini_run, tmp_path)
        cfg = load_config(cfg_path)
        arrays = _load(cfg, "dataset.npz")
        if damage == "missing_gold":
            del arrays["gold"]
        else:
            arrays["gold"] = arrays["gold"][:-1]
        _save(cfg, "dataset.npz", **arrays)
        _train_refuses_dataset(cfg_path, capsys)

    def test_prepare_errors_on_missing_dataset(self, tmp_path, capsys):
        cfg_path = _write_config(tmp_path, tmp_path / "absent.tsv",
                                 tmp_path / "out")
        (tmp_path / "out").mkdir()
        rc = cli.main(["prepare", "--config", str(cfg_path)])
        assert rc == 2
        assert "[prepare]" in capsys.readouterr().err


class TestLinearExplain:
    @pytest.mark.parametrize("classifier", ["logreg", "nb"])
    def test_stores_mu_and_phi_is_rebuilt_bitwise(self, classifier,
                                                  tmp_path):
        # A margin run stores the background mean instead of phi, and
        # _load_phi rebuilds exactly the matrix the CSR layout stored:
        # linear_shap against the mean of every training row.
        out, cfg_path = _small_run(tmp_path, STAGES[:3],
                                   classifier=classifier,
                                   nb_linear_attribution=True,
                                   word_quota=60, phrase_quota=40)
        with np.load(out / "shap.npz") as npz:
            assert set(npz.files) == {
                "digest", "ids", "base_values", "explained_output",
                "background_ids", "background_digest", "mu"}
        cfg = load_config(cfg_path)
        ids, labels, split = _load_dataset(cfg)
        train = split == "train"
        space = _load_space(cfg)
        X = _load_vectors(cfg, ids, space)
        model = _load_model(cfg)
        background = attribution.make_background(
            X[train], labels[train], ids[train].tolist(),
            size=int(train.sum()), seed=cfg.seed)
        expected, base = attribution.linear_shap(model, X, background.mean)
        stored = _from_csr(_to_csr(expected))

        shap = _load(cfg, "shap.npz", ids)
        assert shap["explained_output"] == "margin"
        assert shap["mu"].tobytes() == background.mean.tobytes()
        assert shap["base_values"].tolist() == [base] * len(ids)
        phi = _load_phi(cfg, ids, space, model, X)
        # tobytes compares the sign of zero too.
        assert phi.tobytes() == expected.tobytes() == stored.tobytes()


class TestKernelExplain:
    @pytest.mark.parametrize("classifier", ["svm", "nb"])
    def test_matches_probability_callable(self, classifier, tmp_path):
        # explain hands kernel_shap the model itself; the attributions
        # are those of its probability_function as an opaque callable.
        _, cfg_path = _small_run(tmp_path, STAGES[:3],
                                 **{**KERNEL, "classifier": classifier})
        cfg = load_config(cfg_path)
        ids = _load_dataset(cfg)[0].tolist()
        space = _load_space(cfg)
        X = _from_csr(_load(cfg, "vectors.npz", ids))
        shap = _load(cfg, "shap.npz", ids)
        phi = _from_csr(shap)
        assert phi.shape == (len(ids), space.n_columns)
        assert shap["explained_output"] == "probability"
        model = _load_model(cfg)
        rows = [ids.index(i) for i in shap["background_ids"]]
        background = attribution.Background(
            rows=X[rows], ids=tuple(shap["background_ids"].tolist()))
        for i in range(0, len(ids), 20):
            ref = attribution.kernel_shap(
                lambda Z: classifiers.probability_function(model, Z), X[i],
                background, n_coalitions=cfg.n_coalitions, seed=cfg.seed,
                msg_id=ids[i])
            assert shap["base_values"][i] == ref.base_value
            dense = np.zeros(space.n_columns)
            dense[list(ref.phi)] = list(ref.phi.values())
            np.testing.assert_array_equal(phi[i] != 0, dense != 0)
            np.testing.assert_allclose(phi[i], dense, rtol=0, atol=1e-12)


    @pytest.mark.parametrize("classifier", ["svm", "nb"])
    def test_shap_is_the_same_bytes_for_any_worker_count(
            self, classifier, tmp_path, monkeypatch):
        out, cfg_path = _small_run(tmp_path, STAGES[:3],
                                   **{**KERNEL, "classifier": classifier})
        first = (out / "shap.npz").read_bytes()
        real = attribution.kernel_shap
        for workers in (1, 2, 3):
            # Each call leaves the id of the process that made it.
            pids = tmp_path / f"pids{workers}"
            pids.mkdir()

            def spy(*args, **kwargs):
                (pids / str(os.getpid())).touch()
                return real(*args, **kwargs)

            monkeypatch.setattr(attribution, "kernel_shap", spy)
            monkeypatch.setattr(attribution, "_default_workers",
                                lambda: workers)
            assert cli.main(["explain", "--config", str(cfg_path)]) == 0
            assert (out / "shap.npz").read_bytes() == first, workers
            explained_in = {int(path.name) for path in pids.iterdir()}
            if workers == 1:
                assert explained_in == {os.getpid()}
            else:
                assert explained_in and os.getpid() not in explained_in

    def test_worker_exception_stops_the_stage(self, kernel_run, tmp_path,
                                              monkeypatch, capsys):
        copy, cfg_path = _copy_run(kernel_run, tmp_path)
        before = (copy / "shap.npz").read_bytes()
        bad = int(_load_dataset(load_config(cfg_path))[0][7])
        real = attribution.kernel_shap

        def failing(*args, msg_id, **kwargs):
            if msg_id == bad:
                raise ValueError(f"cannot explain message {msg_id} in "
                                 f"process {os.getpid()}")
            return real(*args, msg_id=msg_id, **kwargs)

        monkeypatch.setattr(attribution, "kernel_shap", failing)
        monkeypatch.setattr(attribution, "_default_workers", lambda: 2)
        assert cli.main(["explain", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"[explain] cannot explain message {bad} in "
                              "process ")
        assert err.count("\n") == 1
        assert int(err.split()[-1]) != os.getpid()
        assert (copy / "shap.npz").read_bytes() == before

    def test_dead_worker_stops_the_stage(self, kernel_run, tmp_path,
                                         monkeypatch, capsys):
        # A worker that dies without an exception (killed, or exiting)
        # fails the stage instead of leaving it waiting.
        copy, cfg_path = _copy_run(kernel_run, tmp_path)
        before = (copy / "shap.npz").read_bytes()
        bad = int(_load_dataset(load_config(cfg_path))[0][7])
        real = attribution.kernel_shap

        def dying(*args, msg_id, **kwargs):
            if msg_id == bad:
                os._exit(3)
            return real(*args, msg_id=msg_id, **kwargs)

        monkeypatch.setattr(attribution, "kernel_shap", dying)
        monkeypatch.setattr(attribution, "_default_workers", lambda: 2)
        assert cli.main(["explain", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("[explain] ") and "terminated abruptly" in err
        assert (copy / "shap.npz").read_bytes() == before


class TestArrayArtifacts:

    @settings(max_examples=60, deadline=None)
    @given(matrix=hnp.arrays(
               np.float64, hnp.array_shapes(min_dims=2, max_dims=2,
                                            min_side=0, max_side=6),
               elements=st.one_of(
                   st.sampled_from([0.0, -0.0, 5e-324, -2.2e-308, 1e308,
                                    -1e308, np.nan]),
                   st.floats(allow_nan=True, allow_infinity=True))),
           labels=st.lists(st.text(max_size=8), max_size=5))
    def test_roundtrip_is_bitwise(self, matrix, labels):
        labels = np.array(labels, dtype=str)
        with tempfile.TemporaryDirectory() as tmp:
            cfg = PipelineConfig(out_dir=tmp)
            _save(cfg, "shap.npz", matrix=matrix, labels=labels,
                  **_to_csr(matrix))
            back = _load(cfg, "shap.npz")
        assert back["matrix"].dtype == np.float64
        assert back["matrix"].tobytes() == matrix.tobytes()
        assert _from_csr(back).tobytes() == matrix.tobytes()
        assert back["labels"].dtype == labels.dtype
        assert np.array_equal(back["labels"], labels)

    def test_digest_mismatch_refused(self, tmp_path):
        other = PipelineConfig(out_dir=str(tmp_path), seed=1)
        _save(other, "model.npz", x=np.ones(2))
        with pytest.raises(ArtifactError, match="digest"):
            _load(PipelineConfig(out_dir=str(tmp_path)), "model.npz")

    def test_missing_file_names_the_producer(self, tmp_path):
        with pytest.raises(ArtifactError, match="run explain first"):
            _load(PipelineConfig(out_dir=str(tmp_path)), "shap.npz")

    def test_object_array_refused(self, tmp_path):
        cfg = PipelineConfig(out_dir=str(tmp_path))
        np.savez(tmp_path / "scores.npz",
                 digest=np.bytes_(cfg.digest().encode()),
                 x=np.array([{"a": 1}, None], dtype=object))
        with pytest.raises(ArtifactError, match="scores.npz"):
            _load(cfg, "scores.npz")

    def test_ids_must_match(self, tmp_path):
        cfg = PipelineConfig(out_dir=str(tmp_path))
        _save(cfg, "outcomes.npz", ids=np.array([1, 2, 3]))
        assert _load(cfg, "outcomes.npz", [1, 2, 3])["ids"].size == 3
        for ids in ([1, 2], [1, 3, 2], [1, 2, 3, 4]):
            with pytest.raises(ArtifactError, match="outcomes.npz"):
                _load(cfg, "outcomes.npz", ids)

    def test_only_artifact_names_resolve(self, tmp_path):
        with pytest.raises(KeyError, match="a.npz"):
            _save(PipelineConfig(out_dir=str(tmp_path)), "a.npz",
                  x=np.ones(2))
        assert not list(tmp_path.iterdir())


class TestAtomicWrites:
    @pytest.mark.parametrize("name", sorted(PRODUCER))
    def test_failed_write_keeps_previous_file(self, name, mini_run,
                                              tmp_path, monkeypatch, capsys):
        copy, cfg_path = _copy_run(mini_run, tmp_path)
        before = {p.name: p.read_bytes() for p in copy.iterdir()}
        assert set(PRODUCER) <= set(before)
        real_open = open

        class HalfWriter:
            """Writes half of its first chunk, then fails like a full disk."""

            def __init__(self, fh):
                self.fh = fh

            def write(self, data):
                self.fh.write(data[:len(data) // 2])
                raise OSError(28, "No space left on device")

            def __getattr__(self, attr):
                return getattr(self.fh, attr)

        @contextlib.contextmanager
        def failing_open(path, *args, **kwargs):
            target = Path(path).name == name + ".tmp"
            with real_open(path, *args, **kwargs) as fh:
                yield HalfWriter(fh) if target else fh

        monkeypatch.setattr(atomic, "open", failing_open, raising=False)
        assert cli.main([PRODUCER[name], "--config", str(cfg_path)]) == 2
        assert "No space left" in capsys.readouterr().err
        after = {p.name: p.read_bytes() for p in copy.iterdir()}
        assert after.keys() == before.keys()
        for artifact, blob in before.items():
            assert after[artifact] == blob, artifact


class TestCliContract:
    def test_missing_subcommand(self, capsys):
        assert cli.main([]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        assert cli.main(["frobnicate", "--config", "x.json"]) == 1

    def test_missing_config_flag(self, capsys):
        assert cli.main(["prepare"]) == 1

    def test_config_file_problems_exit_one(self, tmp_path, capsys):
        missing = tmp_path / "absent.json"
        assert cli.main(["prepare", "--config", str(missing)]) == 1
        bad = tmp_path / "bad.json"
        bad.write_text('{"classifir": "logreg"}', encoding="utf-8")
        assert cli.main(["prepare", "--config", str(bad)]) == 1

    def test_no_out_dir_anywhere_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"dataset_path": "d.tsv"}', encoding="utf-8")
        assert cli.main(["prepare", "--config", str(cfg)]) == 1
        assert "out" in capsys.readouterr().err

    BAD_SETTINGS = {"base_detector": "orignal",
                    "repair_representation": "orignal",
                    "background_size": 0, "n_coalitions": 0, "k_nn": 0,
                    "word_quota": -5, "phrase_quota": -1, "k_related": -1,
                    "k_top": 0, "epochs": 0, "svm_epochs": 0,
                    "nmf_max_iters": -3, "tau_p": 0, "temperature": 0}

    @pytest.mark.parametrize("field", sorted(BAD_SETTINGS))
    def test_bad_repair_setting_exits_one_before_prepare(self, tmp_path,
                                                         capsys, field):
        tsv = _write_corpus(tmp_path)
        out = tmp_path / "out"
        cfg_path = _write_config(tmp_path, tsv, out,
                                 **{field: self.BAD_SETTINGS[field]})
        assert cli.main(["prepare", "--config", str(cfg_path)]) == 1
        assert field in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("stage, preset", [
        ("explain", {}), ("explain", {"OPENBLAS_NUM_THREADS": "3"}),
        ("train", {})])
    def test_explain_defaults_to_one_blas_thread(self, stage, preset):
        # Importing the CLI for explain sets each BLAS variable the caller
        # left unset, which lets kernel explain fork a worker per core.
        # The other stages leave them alone.
        env = {key: value for key, value in os.environ.items()
               if key not in BLAS_THREAD_VARS}
        src = str(Path(cli.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")]))
        code = (f"import os, sys; sys.argv[1:] = [{stage!r}]; "
                "import topicaudit.cli; "
                "from topicaudit import BLAS_THREAD_VARS, attribution; "
                "print(*(os.environ.get(v, '-') for v in BLAS_THREAD_VARS), "
                "attribution._default_workers())")
        result = subprocess.run([sys.executable, "-c", code], env={
            **env, **preset}, capture_output=True, text=True, check=True)
        if stage == "explain":
            expected = [preset.get(var, "1") for var in BLAS_THREAD_VARS]
        else:
            expected = ["-"] * len(BLAS_THREAD_VARS)
        workers = (len(os.sched_getaffinity(0))
                   if expected == ["1"] * len(BLAS_THREAD_VARS) else 1)
        assert result.stdout.split() == [*expected, str(workers)]

    def test_out_flag_overrides_config(self, tmp_path):
        tsv = _write_corpus(tmp_path)
        cfg_path = _write_config(tmp_path, tsv, tmp_path / "ignored")
        override = tmp_path / "actual"
        override.mkdir()
        rc = cli.main(["prepare", "--config", str(cfg_path),
                       "--out", str(override)])
        assert rc == 0
        assert (override / "dataset.npz").exists()


class TestReportHelpers:
    def test_all_na_representation_row_is_omitted_with_footnote(self):
        scores = {"split": np.array(["test"]), "predicted": np.array([1]),
                  "gold": np.array([1]), "xmap_original": np.array([0.2]),
                  "xmap_vacuity": np.array([np.nan]),
                  "xmap_dissonance": np.array([0.1]),
                  "xmap_aleatory": np.array([0.1]),
                  "xmap_doctor_alpha": np.array([0.1]),
                  "xmap_doctor_beta": np.array([0.1]),
                  "xmap_odin": np.array([0.1]), "xmap_rel_u": np.array([0.1])}
        lines = report._divergence_table(scores)
        assert not any(line.startswith("| vacuity ") for line in lines)
        assert any("vacuity" in line and "Omitted" in line for line in lines)

    def test_fmt_handles_none_and_strings(self):
        assert report._fmt(None) == "NA"
        assert report._fmt("inf") == "inf"
        assert report._fmt(0.123456) == "0.1235"

    def test_mean_std_empty_is_na(self):
        assert report._mean_std([]) == "NA"

    def test_open_repair_gates_are_named(self, tmp_path):
        # tau_plus sits at the ln 2 default for two representations and
        # tau_minus for one; the JSON round trip keeps ln 2 exact.
        reps = report.REPRESENTATIONS
        entry = {"recov_r": 0.5, "leak_r": None, "n_recovery": 1,
                 "n_leakage": 0, "n_correct_fix": 1}
        taus = {rep: (0.2, 0.3) for rep in reps}
        taus.update({reps[0]: (scoring.LN2, 0.3), reps[3]: (scoring.LN2,
                                                            scoring.LN2)})
        path = tmp_path / "repair_report.json"
        path.write_text(json.dumps({"representations": {
            rep: dict(entry, tau_plus=plus, tau_minus=minus)
            for rep, (plus, minus) in taus.items()}}), encoding="utf-8")
        lines = report._repair_table(json.loads(path.read_text("utf-8")))
        gates = [line for line in lines if line.startswith("Open repair")]
        assert gates == [
            "Open repair gate (tau at the ln 2 bound, the default when "
            "training has no misclassifications of that polarity; every "
            f"rejection of it is re-accepted): positive ({reps[0]}, "
            f"{reps[3]}); negative ({reps[3]})."]
        assert len(lines) == len(reps) + 6

        closed = {rep: dict(entry, tau_plus=0.2, tau_minus=0.3)
                  for rep in reps}
        lines = report._repair_table({"representations": closed})
        assert not any("Open repair" in line for line in lines)
        assert len(lines) == len(reps) + 4

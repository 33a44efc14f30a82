"""End-to-end plumbing tests: stages, artifacts, digests, CLI contract.

A miniature demo corpus keeps the full eight-stage run under a few
seconds; the statistical quality of the run is irrelevant here, only
that artifacts are produced, guarded, and reproduced byte for byte.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from topicaudit import cli, demo, report
from topicaudit.config import PipelineConfig, load_config
from topicaudit.pipeline import (StageError, _from_csr, _load, _save, _to_csr,
                                 paths_for)

STAGES = ("prepare", "train", "explain", "profile", "score",
          "evaluate", "repair", "report")

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


def _copy_run(mini_run, tmp_path: Path) -> tuple[Path, Path]:
    """A private copy of the mini run's outputs and a config aimed at it."""
    _, tsv, out, _ = mini_run
    copy = tmp_path / "copy"
    shutil.copytree(out, copy)
    return copy, _write_config(tmp_path, tsv, copy)


class TestStageOutputs:
    def test_all_artifacts_exist(self, mini_run):
        _, _, out, cfg_path = mini_run
        paths = paths_for(load_config(cfg_path))
        for attr in ("dataset", "space", "vectors", "model", "shap",
                     "profiles", "representations", "scores", "outcomes",
                     "detector_report", "repair_report", "report"):
            assert getattr(paths, attr).exists(), attr
        for polarity in ("plus", "minus"):
            assert paths.topics(polarity).exists()
        leftovers = [p.name for p in out.iterdir()
                     if p.suffix in (".csv", ".tmp")]
        assert not leftovers

    def test_every_artifact_carries_the_config_digest(self, mini_run):
        _, _, out, cfg_path = mini_run
        digest = load_config(cfg_path).digest()
        for path in sorted(out.iterdir()):
            blob = path.read_bytes()
            assert digest.encode() in blob, f"{path.name} lacks the config digest"

    def test_scores_outcomes_partition(self, mini_run):
        _, _, out, cfg_path = mini_run
        cfg = load_config(cfg_path)
        scores = _load(cfg, "test", out / "scores.npz", "score")
        outcomes = _load(cfg, "test", out / "outcomes.npz", "repair",
                         scores["ids"].tolist())
        assert set(outcomes["outcome"].tolist()) <= {
            "accepted", "rejected", "repaired"}
        # Only test messages can be rejected or repaired.
        train = scores["split"] == "train"
        assert set(outcomes["outcome"][train].tolist()) <= {"accepted"}

    def test_representations_cover_every_message(self, mini_run):
        _, _, out, cfg_path = mini_run
        cfg = load_config(cfg_path)
        scores = _load(cfg, "test", out / "scores.npz", "score")
        reps = _load(cfg, "test", out / "representations.npz", "score",
                     scores["ids"].tolist())
        n = len(scores["ids"])
        assert reps["vectors"].shape == (n, 8, MINI["n_topics"])
        assert reps["degenerate"].shape == (n, 8)
        present = ~np.isnan(reps["vectors"]).any(axis=2)
        sums = reps["vectors"][present].sum(axis=1)
        np.testing.assert_allclose(sums, 1.0, atol=1e-9)

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

    def test_truncated_shap_fails_score(self, mini_run, tmp_path, capsys):
        copy, cfg_path = _copy_run(mini_run, tmp_path)
        shap = copy / "shap.npz"
        shap.write_bytes(shap.read_bytes()[:shap.stat().st_size // 2])
        assert cli.main(["score", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert "[score]" in err and "shap.npz" in err

    @pytest.mark.parametrize("damage", ["missing_message", "extra_column"])
    def test_incomplete_shap_fails_score(self, mini_run, tmp_path, capsys,
                                         damage):
        copy, cfg_path = _copy_run(mini_run, tmp_path)
        cfg = load_config(cfg_path)
        arrays = _load(cfg, "test", copy / "shap.npz", "explain")
        phi = _from_csr(arrays)
        if damage == "missing_message":
            phi = phi[:-1]
            arrays.update(ids=arrays["ids"][:-1],
                          base_values=arrays["base_values"][:-1])
        else:
            phi = np.hstack([phi, np.ones((len(phi), 1))])
        _save(copy / "shap.npz", cfg.digest(), **{**arrays, **_to_csr(phi)})
        assert cli.main(["score", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert "[score]" in err and "shap.npz" in err

    def test_unnormalized_nb_prior_fails_score(self, mini_run, tmp_path,
                                               capsys):
        copy, cfg_path = _copy_run(mini_run, tmp_path)
        trained = json.loads((copy / "model.json").read_text(encoding="utf-8"))
        d = len(trained["weights"])
        prior = float(np.log(0.7))
        (copy / "model.json").write_text(json.dumps({
            "kind": "nb", "log_prior": [prior, prior],
            "log_theta": [[0.0] * d, [0.0] * d], "alpha": 1.0,
            "structural_start": d, "struct_min": [], "struct_max": [],
            "seed": 0, "config_digest": trained["config_digest"]}),
            encoding="utf-8")
        assert cli.main(["score", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("[score] ") and "log_prior" in err
        assert err.count("\n") == 1

    def test_prepare_errors_on_missing_dataset(self, tmp_path, capsys):
        cfg_path = _write_config(tmp_path, tmp_path / "absent.tsv",
                                 tmp_path / "out")
        (tmp_path / "out").mkdir()
        rc = cli.main(["prepare", "--config", str(cfg_path)])
        assert rc == 2
        assert "[prepare]" in capsys.readouterr().err


class TestArrayArtifacts:
    CFG = PipelineConfig(out_dir="unused")

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
            path = Path(tmp) / "a.npz"
            _save(path, self.CFG.digest(), matrix=matrix, labels=labels,
                  **_to_csr(matrix))
            back = _load(self.CFG, "test", path, "producer")
        assert back["matrix"].dtype == np.float64
        assert back["matrix"].tobytes() == matrix.tobytes()
        assert _from_csr(back).tobytes() == matrix.tobytes()
        assert back["labels"].dtype == labels.dtype
        assert np.array_equal(back["labels"], labels)

    def test_digest_mismatch_refused(self, tmp_path):
        path = tmp_path / "a.npz"
        _save(path, "0" * 64, x=np.ones(2))
        with pytest.raises(StageError, match="digest"):
            _load(self.CFG, "test", path, "producer")

    def test_missing_file_names_the_producer(self, tmp_path):
        with pytest.raises(StageError, match="run explain first"):
            _load(self.CFG, "test", tmp_path / "shap.npz", "explain")

    def test_object_array_refused(self, tmp_path):
        path = tmp_path / "a.npz"
        np.savez(path, digest=np.bytes_(self.CFG.digest().encode()),
                 x=np.array([{"a": 1}, None], dtype=object))
        with pytest.raises(StageError, match="a.npz"):
            _load(self.CFG, "test", path, "producer")

    def test_ids_must_match(self, tmp_path):
        path = tmp_path / "a.npz"
        _save(path, self.CFG.digest(), ids=np.array([1, 2, 3]))
        assert _load(self.CFG, "test", path, "p", [1, 2, 3])["ids"].size == 3
        for ids in ([1, 2], [1, 3, 2], [1, 2, 3, 4]):
            with pytest.raises(StageError, match="a.npz"):
                _load(self.CFG, "test", path, "p", ids)


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

    def test_out_flag_overrides_config(self, tmp_path):
        tsv = _write_corpus(tmp_path)
        cfg_path = _write_config(tmp_path, tsv, tmp_path / "ignored")
        override = tmp_path / "actual"
        override.mkdir()
        rc = cli.main(["prepare", "--config", str(cfg_path),
                       "--out", str(override)])
        assert rc == 0
        assert (override / "dataset.jsonl").exists()


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

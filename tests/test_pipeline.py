"""End-to-end plumbing tests: stages, artifacts, digests, CLI contract.

A miniature demo corpus keeps the full eight-stage run under a few
seconds; the statistical quality of the run is irrelevant here, only
that artifacts are produced, guarded, and reproduced byte for byte.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import re
import shutil
import struct
import subprocess
import sys
import tempfile
import warnings
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from topicaudit import (BLAS_THREAD_VARS, atomic, attribution, classifiers,
                        cli, demo, features, pipeline, profiling, report,
                        scoring, uncertainty)
from topicaudit.config import PipelineConfig, load_config
from topicaudit.features import CSR
from topicaudit.pipeline import (ArtifactError, StageError, _load,
                                 _load_dataset, _load_features, _load_model,
                                 _load_phi, _load_topics, _save)
from topicaudit.uncertainty import REPRESENTATIONS

import layouts
from csr_layout import to_csr
from every_representation import represent_all
from shap_vector import phi_of

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


def _run_all(cfg_path: Path, stages=STAGES) -> dict[str, set]:
    """Run the stages in process.  For each stage, the (artifact, member)
    pairs it decodes, and (artifact, None) for each artifact it opens."""
    real_getitem, real_require = (np.lib.npyio.NpzFile.__getitem__,
                                  pipeline._require)

    def getitem(self, key):
        read.add((Path(self.zip.filename).name, key))
        return real_getitem(self, key)

    def require(cfg, name):
        read.add((name, None))
        return real_require(cfg, name)

    decoded = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.lib.npyio.NpzFile, "__getitem__", getitem)
        patch.setattr(pipeline, "_require", require)
        for stage in stages:
            read = decoded[stage] = set()
            assert cli.main([stage, "--config", str(cfg_path)]) == 0, stage
    return decoded


# The settings of a small svm run, whose shap.npz holds kernel phi as
# the values of each message's active columns.
KERNEL = {"classifier": "svm", "svm_epochs": 100, "background_size": 5,
          "n_coalitions": 400, "word_quota": 60, "phrase_quota": 40}

# The stages each shared run makes, and its settings beside MINI's:
# mini_run is logreg on 300 messages, kernel_run svm and nb_run linear nb
# on 80.
RUNS = {"mini_run": (STAGES, {}),
        "kernel_run": (STAGES[:STAGES.index("profile") + 1], KERNEL),
        "nb_run": (STAGES[:STAGES.index("explain") + 1],
                   {"classifier": "nb", "nb_linear_attribution": True})}


# No stage decodes the messages' text, and _load checks the kind and the
# values of the members it decodes alone: another kind or a bad value in
# these passes every stage (only their absence fails).
UNDECODED = {("dataset.npz", "text"), ("dataset.npz", "text_offsets")}


def _off_layout():
    """(run, archive, damage, member) of each shared run's archives, from
    tests/layouts.py: a stray member, an idf a column short, each member
    missing, each one a stage decodes of another kind and each float one
    not finite.  The digest aside: a damaged one reads as another
    config's."""
    for run, (stages, settings) in RUNS.items():
        cfg = PipelineConfig(**{**MINI, **settings})
        for name in layouts.LAYOUTS:
            if pipeline.ARTIFACTS[name][0] not in stages:
                continue
            damages = [("stray_member", None)]
            if name == "dataset.npz":
                damages.append(("short_idf", None))
            for key, dtype in layouts.layout(name, cfg).items():
                if key == "digest":
                    continue
                damages.append(("missing", key))
                if (name, key) not in UNDECODED:
                    damages.append(("wrong_kind", key))
                if dtype == "float64":
                    damages.append(("non_finite", key))
            for damage, key in damages:
                case = damage if key is None else f"{damage}_{key}"
                yield pytest.param(run, name, damage, key,
                                   id=f"{run}-{name}-{case}")


@pytest.fixture(scope="session")
def decoded():
    """What each stage of each shared run decoded (_run_all), keyed by
    the run's fixture, filled in as the runs are made."""
    return {}


@pytest.fixture(scope="session")
def first_stage(mini_run, kernel_run, nb_run, decoded):
    """first_stage(name, key=None): the first stage that, in any shared
    run, decodes the member key of the artifact name, or with no key
    opens the artifact."""
    def first(name, key=None):
        return next(stage for stage in STAGES if any(
            (name, key) in record.get(stage, ()) for record in
            decoded.values()))
    return first


@pytest.fixture(scope="session")
def mini_run(tmp_path_factory, decoded):
    root = tmp_path_factory.mktemp("mini")
    tsv = _write_corpus(root)
    out = root / "run"
    out.mkdir()
    cfg_path = _write_config(root, tsv, out)
    decoded["mini_run"] = _run_all(cfg_path)
    return root, tsv, out, cfg_path


def _small_config(root: Path, **extra) -> tuple[Path, Path]:
    """(out dir, config) of a run on an 80-message corpus."""
    tsv = root / "small.tsv"
    demo.write_tsv(tsv, demo.generate(n_messages=80, seed=3))
    out = root / "run"
    out.mkdir()
    return out, _write_config(root, tsv, out, **extra)


def _small_run(root: Path, stages, **extra) -> tuple[Path, Path]:
    """(out dir, config) of the given stages on an 80-message corpus."""
    out, cfg_path = _small_config(root, **extra)
    _run_all(cfg_path, stages)
    return out, cfg_path


def _shared_small_run(run, tmp_path_factory, decoded):
    stages, settings = RUNS[run]
    root = tmp_path_factory.mktemp(run)
    out, cfg_path = _small_config(root, **settings)
    decoded[run] = _run_all(cfg_path, stages)
    return root, root / "small.tsv", out, cfg_path


@pytest.fixture(scope="session")
def kernel_run(tmp_path_factory, decoded):
    return _shared_small_run("kernel_run", tmp_path_factory, decoded)


@pytest.fixture(scope="session")
def nb_run(tmp_path_factory, decoded):
    return _shared_small_run("nb_run", tmp_path_factory, decoded)


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
    """Rewrite shap.npz with a mu one column longer, mu missing, for a
    linear run values stored as a kernel run's ``data`` or, for a kernel
    run, one value fewer or one more than the active entries of X against
    mu."""
    arrays = _load(cfg, "shap.npz")
    if damage == "linear_data":
        arrays["data"] = np.zeros(1)
    elif damage == "extra_column":
        arrays["mu"] = np.append(arrays["mu"], 1.0)
    elif damage == "missing_key":
        del arrays["mu"]
    elif damage == "short_data":
        arrays["data"] = arrays["data"][:-1]
    elif damage == "long_data":
        arrays["data"] = np.append(arrays["data"], 1.0)
    _save(cfg, "shap.npz", **arrays)


def _background(cfg: PipelineConfig, X: np.ndarray, gold,
                train) -> attribution.Background:
    """The training rows of dense X that a kernel run's explain draws."""
    return attribution.Background(X[train][attribution.background_rows(
        gold[train], cfg.background_size, cfg.seed)])


def _per_message_phi(cfg: PipelineConfig) -> np.ndarray:
    """A kernel run's dense phi as a CSR of each message's nonzero
    attributions holds it: kernel_shap again on every message, against
    explain's background rows of X, through to_csr."""
    gold, train, space, X = _load_features(cfg)
    n, X = len(gold), X.dense()
    model = _load_model(cfg, space)
    background = _background(cfg, X, gold, train)
    full = np.zeros((n, space.n_columns))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        for i in range(n):
            sv = attribution.kernel_shap(model, X[i], background,
                                         n_coalitions=cfg.n_coalitions,
                                         seed=cfg.seed, msg_id=i)
            nonzero = phi_of(sv)
            full[i, list(nonzero)] = list(nonzero.values())
    return CSR.of(to_csr(full)).dense()


def _assert_phi_slices(phi, full: np.ndarray, space) -> None:
    """phi(rows, columns) is full[rows][:, columns] bit for bit, for
    slices on either side of the structural block and across it."""
    n, d = full.shape
    start = space.structural_start
    rng = np.random.default_rng(0)
    for rows, columns in [
            (None, None),
            (np.arange(n) % 3 == 0, np.array([0, start - 1, start,
                                              start + 5, d - 1])),
            (np.flatnonzero(np.arange(n) % 2), slice(start - 3, d)),
            (slice(5, 40), np.arange(start, d)),
            (rng.permutation(n)[:10], np.sort(rng.choice(d, 20,
                                                         replace=False))),
            (None, slice(0, start))]:
        expected = full[slice(None) if rows is None else rows]
        expected = expected[:, slice(None) if columns is None else columns]
        got = phi(rows, columns)
        assert got.tobytes() == np.ascontiguousarray(expected).tobytes(), (
            rows, columns)


def _truncate(path: Path) -> None:
    path.write_bytes(path.read_bytes()[:path.stat().st_size // 2])


def _flip_deflated_byte(path: Path, member: str, at: float) -> None:
    """Invert the byte a fraction ``at`` into one member's deflated data,
    which starts past the member's local header (30 bytes, then its name
    and extra field)."""
    with zipfile.ZipFile(path) as archive:
        info = archive.getinfo(member)
    assert info.compress_type == zipfile.ZIP_DEFLATED
    blob = bytearray(path.read_bytes())
    header = info.header_offset
    name_len, extra_len = struct.unpack("<HH", blob[header + 26:header + 30])
    blob[header + 30 + name_len + extra_len
         + int(at * info.compress_size)] ^= 0xFF
    path.write_bytes(bytes(blob))


def _refused(copy: Path, cfg_path: Path, capsys, stage: str) -> str:
    """What the stage printed to stderr; it must exit 2 and leave every
    file in the run directory copy as it was."""
    before = {p.name: p.read_bytes() for p in copy.iterdir()}
    assert cli.main([stage, "--config", str(cfg_path)]) == 2, stage
    assert {p.name: p.read_bytes() for p in copy.iterdir()} == before, stage
    return capsys.readouterr().err


def _refuses_shap(cfg_path: Path, capsys, stage="score") -> None:
    assert cli.main([stage, "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert f"[{stage}]" in err and "shap.npz" in err
    assert err.endswith("; rerun explain\n") and err.count("\n") == 1


def _train_refuses_dataset(cfg_path: Path, capsys) -> None:
    assert cli.main(["train", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("[train] ") and err.count("\n") == 1
    assert "dataset.npz" in err and "rerun prepare" in err


def _readme_outcome(run, tmp_path: Path, monkeypatch) -> np.ndarray:
    """Each message's outcome under repair_representation, "accepted",
    "rejected" or "repaired": the ``outcome`` of README's one python
    block, run in a directory whose out/ and config.json are the run's."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    [block] = re.findall(r"^```python\n(.*?)^```$",
                         readme.read_text(encoding="utf-8"), re.M | re.S)
    (tmp_path / "out").symlink_to(run[2])
    shutil.copy(run[3], tmp_path / "config.json")
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(block, namespace)
    return namespace["outcome"]


def _assert_subset_counts(repair: dict, rejected, predicted, gold) -> None:
    """Each subset's n_rejected, n_true_rejections and n_false_rejections
    in repair_report.json count the rejected rows predicted its label."""
    for subset, label in pipeline.SUBSETS:
        part = rejected & (predicted == label)
        counts = repair["subsets"][subset]
        assert counts["n_rejected"] == int(part.sum()), subset
        assert counts["n_true_rejections"] == int(np.sum(
            part & (predicted != gold))), subset
        assert counts["n_false_rejections"] == int(np.sum(
            part & (predicted == gold))), subset


def _contributions(cfg: PipelineConfig) -> np.ndarray:
    """scores.npz's (n, n_topics) topic contributions."""
    return _load(cfg, "scores.npz", ("contributions",),
                 n=len(_load_dataset(cfg)[0]))["contributions"]


def _every_xmap(cfg: PipelineConfig):
    """(vectors, profiles, xmap) rebuilt from scores.npz's contributions,
    both topics' H and the labels by represent_all, as
    score and the readers of scores.npz derive them between them: the
    rows predicted each label at once against that label's reliable
    group, whose profile is the one-row representations of its mean
    contribution, NaN for an empty or massless group, and those rows
    scored against it in one js_divergence call; the rows of a group
    without a profile stay NaN."""
    scores, gold, train = pipeline._load_scores(cfg)
    predicted, tc = scores["predicted"], _contributions(cfg)
    n, m = tc.shape
    vectors = np.empty((n, len(REPRESENTATIONS), m))
    profiles = np.full((2, len(REPRESENTATIONS), m), np.nan)
    xmap = np.full((n, len(REPRESENTATIONS)), np.nan)
    reliable = train & (predicted == gold)
    for label, polarity in enumerate(pipeline.POLARITIES):
        H = _load(cfg, "topics.npz")[f"H_{polarity}"]
        group = tc[reliable & (gold == label)]
        rows = predicted == label
        vectors[rows] = represent_all(tc[rows], group, H, cfg)
        if len(group) and group.mean(axis=0).sum() > 0.0:
            profiles[label] = represent_all(group.mean(axis=0)[None, :],
                                            group, H, cfg)[0]
            xmap[rows] = scoring.js_divergence(vectors[rows],
                                               profiles[label])
    return vectors, profiles, xmap


class TestStageOutputs:
    def test_all_artifacts_exist(self, mini_run):
        _, _, out, _ = mini_run
        assert {p.name for p in out.iterdir()} == set(layouts.FILES)

    def test_artifacts_agree_with_the_layout_record(self):
        # ARTIFACTS states for the program what tests/layouts.py records
        # by hand: every file, and each archive's members but the digest,
        # each of the kind of its dtype in every variant, OPTIONAL iff
        # some variant lacks it and NA iff the record says so.
        assert set(pipeline.ARTIFACTS) == set(layouts.FILES)
        for name, variants in layouts.LAYOUTS.items():
            table = pipeline.ARTIFACTS[name][1]
            assert set(table) == set().union(*variants.values()) - {
                "digest"}, name
            for key, spec in table.items():
                dtypes = [layout[key] for layout in variants.values()
                          if key in layout]
                assert {dtype if len(dtype) == 1 else np.dtype(dtype).kind
                        for dtype in dtypes} == {spec[0]}, (name, key)
                assert (pipeline.OPTIONAL in spec) == (
                    len(dtypes) < len(variants)), (name, key)
                assert (pipeline.NA in spec) == (
                    key in layouts.NA.get(name, ())), (name, key)

    def test_every_artifact_holds_the_keys_its_table_lists(
            self, mini_run, kernel_run, nb_run):
        # Every archive of each shared run holds the members and dtypes
        # tests/layouts.py records, deflated, and a finished run exactly
        # its files.  Read without _load, which checks the same: each
        # member is of the shape ARTIFACTS gives, with n the messages, d
        # the columns, M the topics and any other name one size per
        # archive, and each report holds the keys ARTIFACTS lists.
        layouts.check_run(mini_run[2], load_config(mini_run[3]))
        for _, _, out, cfg_path in (mini_run, kernel_run, nb_run):
            cfg = load_config(cfg_path)
            with np.load(out / "dataset.npz") as npz:
                n = npz["gold"].size
            with np.load(out / "model.npz") as npz:
                d = npz["weights"].size
            for path in sorted(out.glob("*.npz")):
                layouts.check_archive(path, layouts.layout(path.name, cfg))
                layout = pipeline.ARTIFACTS[path.name][1]
                with np.load(path) as npz:
                    shapes = {key: npz[key].shape for key in npz.files
                              if key != "digest"}
                bound = {"n": n, "d": d, "M": cfg.n_topics}
                for key, shape in shapes.items():
                    axes = layout[key][1]
                    assert len(shape) == len(axes), (path.name, key)
                    for axis, size in zip(axes, shape):
                        want = (axis if isinstance(axis, int) else size
                                if axis is None else bound.setdefault(axis,
                                                                      size))
                        assert size == want, (path.name, key, axis)
        for name in ("detector_report.json", "repair_report.json"):
            found = json.loads((mini_run[2] / name).read_text(
                encoding="utf-8"))
            assert set(pipeline.ARTIFACTS[name][1]) <= set(found), name

    @pytest.mark.parametrize("run", ["mini_run", "kernel_run"])
    def test_no_archive_stores_ids(self, run, request):
        # Row i of every per-message archive is message i.
        out = request.getfixturevalue(run)[2]
        for path in sorted(out.glob("*.npz")):
            with np.load(path) as npz:
                assert "ids" not in npz.files, path.name

    @pytest.mark.parametrize("run", ["mini_run", "kernel_run"])
    def test_no_archive_repeats_dataset_columns(self, run, request):
        # dataset.npz is the one record of each message's label and
        # split, the split a boolean train mask, beside the text, the
        # feature space and X; scores.npz (of the mini run) and every
        # other archive hold neither, nor a correctness column derived
        # from them.
        out = request.getfixturevalue(run)[2]
        with np.load(out / "dataset.npz") as npz:
            assert set(npz.files) == set(layouts.DATASET)
            assert npz["train"].dtype == bool
        archives = sorted(set(out.glob("*.npz")) - {out / "dataset.npz"})
        assert (out / "scores.npz" in archives) == (run == "mini_run")
        for path in archives:
            with np.load(path) as npz:
                assert not {"gold", "split", "train", "correct"} & set(
                    npz.files), path.name

    def test_label_columns_are_bool(self, mini_run):
        # gold is stored as a bool, and the predicted label derived from
        # scores.npz's p_pos is one.
        cfg = load_config(mini_run[3])
        with np.load(mini_run[2] / "dataset.npz") as npz:
            assert npz["gold"].dtype == np.bool_
        assert pipeline._load_scores(cfg)[0]["predicted"].dtype == np.bool_

    def test_every_artifact_carries_the_config_digest(self, mini_run):
        # An archive's digest member is deflated, so it is read, not
        # searched for in the file's bytes.
        _, _, out, cfg_path = mini_run
        digest = load_config(cfg_path).digest()
        found = {}
        for path in sorted(out.iterdir()):
            if path.suffix == ".npz":
                with np.load(path) as npz:
                    found[path.name] = npz["digest"].tobytes().decode()
            elif path.suffix == ".json":
                found[path.name] = json.loads(
                    path.read_text(encoding="utf-8"))["config_digest"]
            else:
                found[path.name] = digest if digest in path.read_text(
                    encoding="utf-8") else None
        assert found == dict.fromkeys(pipeline.ARTIFACTS, digest)

    def test_archives_stored_undeflated_stay_readable(self, mini_run,
                                                     tmp_path):
        # A run directory written before archives were deflated holds the
        # same members, stored: _load reads back the same fields, and
        # evaluate, repair and report write the same reports from it.
        copy, cfg_path = _copy_run(mini_run, tmp_path)
        cfg, out = load_config(cfg_path), mini_run[2]
        archives = sorted(path.name for path in copy.glob("*.npz"))
        for name in archives:
            with np.load(copy / name) as npz:
                members = {key: npz[key] for key in npz.files}
            with open(copy / name, "wb") as fh:
                np.savez(fh, **members)
            with zipfile.ZipFile(copy / name) as archive:
                assert {info.compress_type for info in archive.infolist()
                        } == {zipfile.ZIP_STORED}, name
        deflated = load_config(mini_run[3])
        for name in archives:
            stored, fresh = _load(cfg, name), _load(deflated, name)
            assert stored.keys() == fresh.keys(), name
            for key, value in fresh.items():
                a, b = np.asarray(stored[key]), np.asarray(value)
                assert a.dtype == b.dtype and a.shape == b.shape, (name, key)
                assert a.tobytes() == b.tobytes(), (name, key)
        for stage in ("evaluate", "repair", "report"):
            assert cli.main([stage, "--config", str(cfg_path)]) == 0
        for name in ("detector_report.json", "repair_report.json",
                     "report.md"):
            assert (copy / name).read_bytes() == (out / name).read_bytes()

    def test_scores_outcomes_partition(self, mini_run, tmp_path,
                                       monkeypatch):
        cfg = load_config(mini_run[3])
        outcome = _readme_outcome(mini_run, tmp_path, monkeypatch)
        scores, gold, train = pipeline._load_scores(cfg)
        assert outcome.shape == gold.shape
        assert set(outcome.tolist()) <= {"accepted", "rejected", "repaired"}
        # Only test messages can be rejected or repaired, and the derived
        # rejections give each subset's stored counts.
        assert set(outcome[train].tolist()) <= {"accepted"}
        _assert_subset_counts(_load(cfg, "repair_report.json"),
                              outcome != "accepted", scores["predicted"],
                              gold)

    def test_repair_agrees_with_evaluate_and_outcomes(self, mini_run,
                                                      tmp_path, monkeypatch):
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

        scores, gold, train = pipeline._load_scores(cfg)
        outcome = _readme_outcome(mini_run, tmp_path, monkeypatch)
        re_accepted = repair["representations"][
            cfg.repair_representation]["re_accepted_ids"]
        assert np.flatnonzero(outcome == "repaired").tolist() == re_accepted
        n_rejected = sum(body["n_rejected"]
                         for body in repair["subsets"].values())
        assert n_rejected > 0
        assert np.isin(outcome, ["rejected", "repaired"]).sum() == n_rejected
        test_ids = set(np.flatnonzero(~train).tolist())
        for body in repair["representations"].values():
            assert set(body["re_accepted_ids"]) <= test_ids

        # The rejections are the rows not accepted: each subset's counts
        # follow from them, and so does the configured representation's
        # accounting, whose repaired rows split into recoveries (correct)
        # and leakages.
        rejected = outcome != "accepted"
        predicted = scores["predicted"]
        back, correct = outcome == "repaired", predicted == gold
        _assert_subset_counts(repair, rejected, predicted, gold)
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
                np.flatnonzero(rejected & (xmap <= gate)).tolist()), rep

    def test_output_columns_are_functions_of_p_pos(self, mini_run):
        # The predicted label is predict_all's, as a bool, and each
        # derived column output_uq_score's over all rows, bit for bit,
        # and so is every slice a reader takes of it.
        cfg = load_config(mini_run[3])
        scores, gold, train = pipeline._load_scores(cfg)
        p_pos = scores["p_pos"]
        _, _, space, X = _load_features(cfg)
        label = classifiers.predict_all(_load_model(cfg, space), X)[1]
        assert scores["predicted"].dtype == np.bool_
        assert scores["predicted"].tolist() == (label == 1).tolist()
        assert scores["predicted"].tobytes() == (p_pos >= 0.5).tobytes()
        slices = [~train & scores["predicted"], ~train & ~scores["predicted"],
                  train, slice(1, None, 3)]
        for method in pipeline.BASE_METHODS:
            whole = uncertainty.output_uq_score(p_pos, method,
                                                cfg.temperature)
            assert scores[method].dtype == whole.dtype == np.float64
            assert scores[method].tobytes() == whole.tobytes(), method
            for part in slices:
                assert scores[method][part].tobytes() == (
                    whole[part].tobytes()), method

    @settings(max_examples=40, deadline=None)
    @given(p_pos=hnp.arrays(np.float64, st.integers(0, 40), elements=st.one_of(
               st.sampled_from([0.0, 0.5, 1.0, 5e-324, 1.0 - 2 ** -53,
                                0.5 - 2 ** -54]),
               st.floats(0.0, 1.0))),
           temperature=st.floats(0.25, 8.0))
    def test_output_columns_match_output_uq_score(self, p_pos, temperature):
        columns = pipeline._output_columns(p_pos, temperature)
        assert list(columns) == ["predicted", *pipeline.BASE_METHODS]
        assert columns["predicted"].dtype == np.bool_
        assert columns["predicted"].tolist() == (p_pos >= 0.5).tolist()
        for method in pipeline.BASE_METHODS:
            want = uncertainty.output_uq_score(p_pos, method, temperature)
            assert columns[method].dtype == want.dtype, method
            assert columns[method].tobytes() == want.tobytes(), method

    def test_representations_cover_every_message(self, mini_run):
        _, _, _, cfg_path = mini_run
        cfg = load_config(cfg_path)
        n = len(_load_dataset(cfg)[0])
        vectors = _every_xmap(cfg)[0]
        assert vectors.shape == (n, 8, MINI["n_topics"])
        present = ~np.isnan(vectors).any(axis=2)
        sums = vectors[present].sum(axis=1)
        np.testing.assert_allclose(sums, 1.0, atol=1e-9)

    def test_contributions_are_each_messages_topic_contributions(self,
                                                                 mini_run):
        # Rebuilt from the upstream artifacts: row i is message i's
        # supports on the polarity its prediction selects, summed into
        # that polarity's topics.
        cfg = load_config(mini_run[3])
        scores, gold, _ = pipeline._load_scores(cfg)
        stored, predicted = _contributions(cfg), scores["predicted"]
        _, _, space, X = _load_features(cfg)
        phi = _load_phi(cfg, space, _load_model(cfg, space), X)()
        assert stored.shape == (len(gold), cfg.n_topics)
        assert stored.dtype == np.float64
        for label, polarity in enumerate(pipeline.POLARITIES):
            rows = predicted == label
            assert rows.any(), polarity
            topic = _load_topics(cfg, space, polarity)
            supports = attribution.polarity_supports(
                phi[rows][:, topic["columns"]], polarity)
            expected = profiling.topic_contributions(
                supports, profiling.assign_topics(topic["H"]), cfg.n_topics)
            assert stored[rows].tobytes() == expected.tobytes(), polarity

    def test_readers_search_no_neighbours(self, mini_run, tmp_path,
                                          monkeypatch):
        # Of the xmap columns evaluate, repair and report read, only rel_u
        # needs the neighbour search, and score stores it: each writes
        # the same output without it.
        copy, cfg_path = _copy_run(mini_run, tmp_path)

        def search(*args, **kwargs):
            raise AssertionError("rel_u_vector called")

        monkeypatch.setattr(uncertainty, "rel_u_vector", search)
        for stage in ("evaluate", "repair", "report"):
            assert cli.main([stage, "--config", str(cfg_path)]) == 0, stage
        for name in ("detector_report.json", "repair_report.json",
                     "report.md"):
            assert (copy / name).read_bytes() == (
                mini_run[2] / name).read_bytes(), name

    @pytest.mark.parametrize("run", ["mini_run", "kernel_run"])
    def test_loaded_representations_give_the_stored_scores(
            self, run, request, tmp_path, monkeypatch):
        # score scores rel_u alone and stores that column.  Every
        # representation of every message, rebuilt from scores.npz's
        # contributions with the public uncertainty and scoring
        # functions, scores to the (n, 8) xmap columns: their rel_u
        # column is the one score computed and stored, and the other
        # seven are those _load_scores derives, bit for bit, NaN included.
        # score makes one js_divergence call per label with a profile, in
        # label order, on that label's rows.  The kernel run's training
        # split holds no correctly classified spam, so its TP group is
        # empty: rel_u is NA for every positive prediction, the TP
        # profile is NA throughout and its rows make no call.
        _, cfg_path = _copy_run(request.getfixturevalue(run), tmp_path)
        cfg = load_config(cfg_path)
        kernel = run == "kernel_run"
        real, calls = scoring.js_divergence, []

        def spy(p, q):
            calls.append((q, real(p, q)))
            return calls[-1][1]

        monkeypatch.setattr(scoring, "js_divergence", spy)
        assert cli.main(["score", "--config", str(cfg_path)]) == 0
        monkeypatch.undo()
        vectors, profiles, xmap = _every_xmap(cfg)
        scores = pipeline._load_scores(cfg)[0]
        labels = [0] if kernel else [0, 1]
        assert len(calls) == len(labels)
        for label, (profile, computed) in zip(labels, calls):
            rows = scores["predicted"] == label
            assert profile.tobytes() == profiles[label, -1:].tobytes()
            assert computed.shape == (rows.sum(), 1)
            assert xmap[rows, -1:].tobytes() == computed.tobytes()
        for column, key in zip(xmap.T, pipeline.XMAP_COLUMNS):
            assert scores[key].dtype == np.float64, key
            assert column.tobytes() == scores[key].tobytes(), key
        positive = scores["predicted"]
        assert positive.any() and (~positive).any()
        rel_u = np.isnan(vectors[:, REPRESENTATIONS.index("rel_u")])
        assert rel_u.all(axis=1).tolist() == (positive & kernel).tolist()
        assert rel_u.any(axis=1).tolist() == (positive & kernel).tolist()
        assert np.isnan(profiles[1]).all() == kernel
        assert not np.isnan(profiles[0]).any()
        assert np.isnan(xmap[positive]).all() == kernel
        assert not np.isnan(xmap[~positive]).any()

    def test_old_run_directory_needs_score_again(self, mini_run, tmp_path,
                                                 capsys):
        # A run directory written before scores.npz held the topic
        # contributions keeps them in contributions.npz and the group
        # profiles in profiles.npz, which no stage reads; every reader of
        # scores.npz needs its contributions.
        copy, cfg_path = _copy_run(mini_run, tmp_path)
        cfg = load_config(cfg_path)
        scores = _load(cfg, "scores.npz")
        digest = np.bytes_(cfg.digest().encode("ascii"))
        np.savez_compressed(copy / "contributions.npz", digest=digest,
                            contributions=scores.pop("contributions"))
        np.savez_compressed(copy / "profiles.npz", digest=digest,
                            names=np.array(REPRESENTATIONS),
                            vectors=np.zeros((2, len(REPRESENTATIONS),
                                              cfg.n_topics)))
        _save(cfg, "scores.npz", **scores)
        for stage in ("evaluate", "repair", "report"):
            assert _refused(copy, cfg_path, capsys, stage) == (
                f"[{stage}] scores.npz is malformed (missing "
                "'contributions'); rerun score\n")

    def test_old_run_directory_needs_prepare_again(self, mini_run, tmp_path,
                                                   capsys):
        # A run directory written before prepare and profile each wrote
        # one archive keeps the feature space in space.npz, X in
        # vectors.npz and each polarity's topics in topics_<polarity>.npz,
        # which no stage reads; every reader of dataset.npz needs them.
        copy, cfg_path = _copy_run(mini_run, tmp_path)
        cfg = load_config(cfg_path)
        dataset, topics = _load(cfg, "dataset.npz"), _load(cfg, "topics.npz")
        digest = np.bytes_(cfg.digest().encode("ascii"))
        moved = {"space.npz": ("word_vocab", "word_vocab_offsets",
                               "phrase_vocab", "phrase_vocab_offsets", "idf"),
                 "vectors.npz": ("shape", "indptr", "indices", "data")}
        for name, keys in moved.items():
            np.savez_compressed(copy / name, digest=digest,
                                **{key: dataset.pop(key) for key in keys})
        for polarity in pipeline.POLARITIES:
            np.savez_compressed(
                copy / f"topics_{polarity}.npz", digest=digest,
                **{key.removesuffix(f"_{polarity}"): value
                   for key, value in topics.items()
                   if key.endswith(f"_{polarity}")})
        (copy / "topics.npz").unlink()
        _save(cfg, "dataset.npz", **dataset)
        missing = ", ".join(map(repr, sum(moved.values(), ())))
        for stage in STAGES[1:]:
            assert _refused(copy, cfg_path, capsys, stage) == (
                f"[{stage}] dataset.npz is malformed (missing {missing}); "
                "rerun prepare\n")

    def test_profiles_are_the_reliable_groups_representations(
            self, mini_run, tmp_path, monkeypatch):
        # Rebuilt from the upstream artifacts: the label-l profile that
        # score scores rel_u against, and the readers of scores.npz the
        # other seven representations, is the representations of the mean
        # topic contribution of the correctly classified training
        # messages of gold label l, on the polarity that label selects.
        _, cfg_path = _copy_run(mini_run, tmp_path)
        cfg = load_config(cfg_path)
        scores, gold, train = pipeline._load_scores(cfg)
        _, _, space, X = _load_features(cfg)
        phi = _load_phi(cfg, space, _load_model(cfg, space), X)()
        expected = np.empty((2, len(REPRESENTATIONS), cfg.n_topics))
        reliable = train & (scores["predicted"] == gold)
        for label, polarity in ((0, "minus"), (1, "plus")):
            group = reliable & (gold == label)
            assert group.any(), polarity
            topic = _load_topics(cfg, space, polarity)
            supports = attribution.polarity_supports(
                phi[group][:, topic["columns"]], polarity)
            group_tc = profiling.topic_contributions(
                supports, profiling.assign_topics(topic["H"]), cfg.n_topics)
            expected[label] = represent_all(group_tc.mean(axis=0)[None, :],
                                            group_tc, topic["H"], cfg)[0]
        assert not np.isnan(expected).any()
        # One js_divergence call per label, in label order, against that
        # label's profile: score's for rel_u, then the readers' for the
        # other seven.
        real, profiles = scoring.js_divergence, []

        def spy(p, q):
            profiles.append(q)
            return real(p, q)

        monkeypatch.setattr(scoring, "js_divergence", spy)
        assert cli.main(["score", "--config", str(cfg_path)]) == 0
        pipeline._load_scores(cfg)
        assert len(profiles) == 4
        for label in (0, 1):
            rel_u, topic = profiles[label], profiles[2 + label]
            assert rel_u.tobytes() == expected[label, -1:].tobytes()
            assert topic.tobytes() == expected[label, :-1].tobytes()

    def test_topics_match_the_direct_nmf_objective(self, mini_run):
        # Each polarity's support matrix, rebuilt as profile builds it and
        # factorized again beside the reference NMF that forms X - WH for
        # its objective: the stored H is the reference's bit for bit.
        from test_profiling import assert_matches_direct

        _, _, _, cfg_path = mini_run
        cfg = load_config(cfg_path)
        scores, gold, train = pipeline._load_scores(cfg)
        _, _, space, X = _load_features(cfg)
        phi = _load_phi(cfg, space, _load_model(cfg, space), X)()
        reliable = train & (scores["predicted"] == gold)
        for polarity in pipeline.POLARITIES:
            topic = _load_topics(cfg, space, polarity)
            matrix = np.ascontiguousarray(attribution.polarity_supports(
                phi[reliable], polarity)[:, topic["columns"]])
            _, H, trace = assert_matches_direct(
                matrix, cfg.n_topics, max_iters=cfg.nmf_max_iters,
                tol=cfg.nmf_tol, seed=cfg.seed)
            assert topic["H"].tobytes() == H.tobytes(), polarity
            assert topic["objective"] == trace[-1], polarity

    def test_report_sections_render(self, mini_run):
        _, _, out, _ = mini_run
        text = (out / "report.md").read_text(encoding="utf-8")
        for heading in ("## Divergence from the reliable-group profiles",
                        "## Detector quality", "## Repair layer"):
            assert heading in text


class TestXmapColumns:
    """pipeline._xmap_columns on hand-made rows, with the original
    distribution as the one representation unless a test says otherwise:
    the rows predicted each label score against that label's profile,
    and the rows of a group without a profile stay NaN."""

    @staticmethod
    def _xmap(contributions, predicted, gold, train,
              represent=lambda tc, group_tc, H: uncertainty.original(
                  tc)[:, None, :]):
        masks = [np.array(mask, dtype=bool)
                 for mask in (predicted, gold, train)]
        return pipeline._xmap_columns(
            represent, np.array(contributions, dtype=float), *masks,
            [None, None])

    def test_profile_match_scores_zero(self):
        # The TP group is row 0, whose profile [0.25, 0.75] row 1 matches.
        xmap = self._xmap([[1.0, 3.0], [2.0, 6.0]], [1, 1], [1, 1],
                          [1, 0])
        assert xmap.shape == (2, 1)
        assert xmap[1, 0] == 0.0

    def test_group_selected_by_prediction(self):
        # TN profile [0.75, 0.25] (row 0), TP profile [0.5, 0.5] (row 1);
        # rows 2 and 3 are the same message predicted 1 and 0.
        xmap = self._xmap([[3.0, 1.0], [1.0, 1.0], [1.0, 1.0], [1.0, 1.0]],
                          [0, 1, 1, 0], [0, 1, 0, 1], [1, 1, 0, 0])
        assert xmap[2, 0] == 0.0
        assert xmap[3, 0] == scoring.js_divergence([0.5, 0.5],
                                                   [0.75, 0.25]) > 0.0

    @pytest.mark.parametrize("tp_member", [None, [0.0, 0.0]],
                             ids=["empty", "massless"])
    def test_group_without_profile_gives_na(self, tp_member):
        # The TP group is empty, or its one member has no mass: every
        # positive prediction is NA, and the negative ones are scored.
        rows = [[3.0, 1.0], [1.0, 2.0], [2.0, 1.0]]
        predicted, gold, train = [0, 1, 0], [0, 0, 1], [1, 0, 0]
        if tp_member is not None:
            rows.append(tp_member)
            predicted, gold, train = (predicted + [1], gold + [1],
                                      train + [1])
        xmap = self._xmap(rows, predicted, gold, train)
        positive = np.array(predicted, dtype=bool)
        assert np.isnan(xmap[positive]).all()
        assert np.isfinite(xmap[~positive]).all()

    def test_each_representation_scores_against_its_own_profile(self):
        # Two representations, the original and its reverse: each column
        # is the divergence to that representation's profile.
        def represent(tc, group_tc, H):
            p = uncertainty.original(tc)
            return np.stack([p, p[:, ::-1]], axis=1)

        tc = [[1.0, 3.0, 0.0], [2.0, 1.0, 1.0], [0.0, 1.0, 4.0]]
        xmap = self._xmap(tc, [1, 1, 1], [1, 1, 1], [1, 1, 0], represent)
        profile = represent(np.mean(tc[:2], axis=0)[None, :], None, None)[0]
        for i, row in enumerate(represent(np.array(tc), None, None)):
            for r in range(2):
                assert xmap[i, r] == scoring.js_divergence(row[r],
                                                           profile[r])


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
                  for name in ("repair_report.json", "scores.npz")}
        assert cli.main(["repair", "--config", str(cfg_path)]) == 0
        for name, blob in before.items():
            assert (out / name).read_bytes() == blob, name

    @pytest.mark.parametrize("run", ["mini_run", "kernel_run"])
    def test_later_stages_never_densify_a_whole_matrix(self, run, request,
                                                       tmp_path,
                                                       monkeypatch):
        # Explain, profile and score ask X and a kernel run's phi only for
        # slices, never all n rows by all d columns; with 16-row
        # prediction blocks their artifacts are still the same bytes.
        copy, cfg_path = _copy_run(request.getfixturevalue(run), tmp_path)
        cfg = load_config(cfg_path)
        whole = _load_features(cfg)[3].shape
        before = {path.name: path.read_bytes() for path in copy.iterdir()}
        real, shapes = CSR.dense, []

        def spy(self, rows=None, columns=None):
            out = real(self, rows, columns)
            shapes.append(out.shape)
            return out

        monkeypatch.setattr(CSR, "dense", spy)
        monkeypatch.setattr(features, "ROW_BLOCK", 16)
        for stage in ("explain", "profile", "score"):
            shapes.clear()
            assert cli.main([stage, "--config", str(cfg_path)]) == 0, stage
            assert shapes and whole not in shapes, (stage, whole, shapes)
        for name, blob in before.items():
            assert (copy / name).read_bytes() == blob, name


class TestGuards:
    def test_digest_mismatch_refuses_to_combine(self, mini_run, tmp_path,
                                                capsys):
        _, tsv, out, _ = mini_run
        other = _write_config(tmp_path, tsv, out, seed=12)
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
            assert err.endswith(
                f"); rerun {pipeline.ARTIFACTS[name][0]}\n")
        assert (copy / "report.md").read_bytes() == (
            mini_run[2] / "report.md").read_bytes()

    # Every artifact but the last stage's is read by a later stage.
    @pytest.mark.parametrize("name", sorted(
        name for name, (producer, _) in pipeline.ARTIFACTS.items()
        if producer != STAGES[-1]))
    def test_missing_artifact_names_its_producer(self, mini_run, tmp_path,
                                                 capsys, first_stage, name):
        copy, cfg_path = _copy_run(mini_run, tmp_path)
        (copy / name).unlink()
        reader = first_stage(name)
        assert cli.main([reader, "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err == (
            f"[{reader}] missing {name}; run {pipeline.ARTIFACTS[name][0]} "
            "first\n")

    # report reads from each JSON report the top-level keys ARTIFACTS
    # lists.
    @pytest.mark.parametrize("name", sorted(
        name for name in pipeline.ARTIFACTS if name.endswith(".json")))
    def test_report_missing_keys_names_the_file(self, mini_run, tmp_path,
                                                capsys, name):
        copy, cfg_path = _copy_run(mini_run, tmp_path)
        digest = load_config(cfg_path).digest()
        (copy / name).write_text(json.dumps({"config_digest": digest}),
                                 encoding="utf-8")
        assert cli.main(["report", "--config", str(cfg_path)]) == 2
        producer, keys = pipeline.ARTIFACTS[name]
        missing = ", ".join(repr(key) for key in keys)
        assert capsys.readouterr().err == (
            f"[report] {name} is malformed (missing {missing}); "
            f"rerun {producer}\n")
        assert (copy / "report.md").read_bytes() == (
            mini_run[2] / "report.md").read_bytes()

    # A key report reads below the top level of each JSON report.
    NESTED_KEY = {"detector_report.json": ("subsets", "negative",
                                           "detectors", "rel_u"),
                  "repair_report.json": ("representations", "original",
                                         "n_recovery")}

    @pytest.mark.parametrize("name", sorted(NESTED_KEY))
    def test_report_missing_nested_key_names_the_file(self, mini_run,
                                                      tmp_path, capsys, name):
        copy, cfg_path = _copy_run(mini_run, tmp_path)
        path = copy / name
        body = json.loads(path.read_text(encoding="utf-8"))
        *parents, key = self.NESTED_KEY[name]
        entry = body
        for parent in parents:
            entry = entry[parent]
        del entry[key]
        path.write_text(json.dumps(body), encoding="utf-8")
        assert cli.main(["report", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err == (
            f"[report] {name} is malformed (KeyError({key!r})); "
            f"rerun {pipeline.ARTIFACTS[name][0]}\n")
        assert (copy / "report.md").read_bytes() == (
            mini_run[2] / "report.md").read_bytes()

    # A metric report prints as a number, replaced by a string.
    STRING_METRIC = {
        "detector_report.json": (("subsets", "negative", "detectors",
                                  "rel_u", "auroc"), "0.99"),
        "repair_report.json": (("representations", "original", "recov_r"),
                               "all of them")}

    @staticmethod
    def _set_report_value(path: Path, keys, value) -> None:
        """Set the value at ``keys`` of a JSON report, digest kept."""
        body = json.loads(path.read_text(encoding="utf-8"))
        *parents, key = keys
        entry = body
        for parent in parents:
            entry = entry[parent]
        entry[key] = value
        path.write_text(json.dumps(body), encoding="utf-8")

    def _report_refuses(self, mini_run, copy, cfg_path, capsys, name):
        assert cli.main(["report", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"[report] {name} is malformed (ValueError(")
        assert err.endswith(f"); rerun {pipeline.ARTIFACTS[name][0]}\n")
        assert err.count("\n") == 1
        assert (copy / "report.md").read_bytes() == (
            mini_run[2] / "report.md").read_bytes()

    @pytest.mark.parametrize("name", sorted(STRING_METRIC))
    def test_report_string_metric_fails(self, mini_run, tmp_path, capsys,
                                        name):
        # Each was printed as it stood, with exit 0.
        copy, cfg_path = _copy_run(mini_run, tmp_path)
        self._set_report_value(copy / name, *self.STRING_METRIC[name])
        self._report_refuses(mini_run, copy, cfg_path, capsys, name)

    # A value report prints, replaced by one of another type that still
    # formats: a bool metric (a bool is an int) and two string counts.
    WRONG_TYPE = {
        "bool_auroc": ("detector_report.json", ("subsets", "negative",
                                                "detectors", "rel_u",
                                                "auroc"), True),
        "string_n_recovery": ("repair_report.json", (
            "representations", "original", "n_recovery"), "many"),
        "string_n_rejected": ("repair_report.json", (
            "subsets", "negative", "n_rejected"), "lots")}

    @pytest.mark.parametrize("case", sorted(WRONG_TYPE))
    def test_report_wrong_typed_value_fails(self, mini_run, tmp_path, capsys,
                                            case):
        # Each was printed, 1.0000 or the string, with exit 0.
        copy, cfg_path = _copy_run(mini_run, tmp_path)
        name, keys, value = self.WRONG_TYPE[case]
        self._set_report_value(copy / name, keys, value)
        self._report_refuses(mini_run, copy, cfg_path, capsys, name)

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
    # kernel_shap variants damage the values layout of an svm run.
    def test_truncated_shap_fails_score(self, mini_run, tmp_path, capsys):
        copy, cfg_path = _copy_run(mini_run, tmp_path)
        _truncate(copy / "shap.npz")
        _refuses_shap(cfg_path, capsys)

    @pytest.mark.parametrize("damage", ["extra_column", "missing_key"])
    def test_incomplete_shap_fails_score(self, mini_run, tmp_path, capsys,
                                         damage):
        _, cfg_path = _copy_run(mini_run, tmp_path)
        _damage_shap(load_config(cfg_path), damage)
        _refuses_shap(cfg_path, capsys)

    @pytest.mark.parametrize("stage", ["profile", "score"])
    def test_values_in_a_linear_shap_fail(self, mini_run, tmp_path, capsys,
                                          stage):
        # The config alone says whether a run is linear: a logreg run's
        # shap.npz that holds a kernel run's values is refused.
        _, cfg_path = _copy_run(mini_run, tmp_path)
        _damage_shap(load_config(cfg_path), "linear_data")
        _refuses_shap(cfg_path, capsys, stage)

    def test_truncated_kernel_shap_fails_score(self, kernel_run, tmp_path,
                                               capsys):
        copy, cfg_path = _copy_run(kernel_run, tmp_path)
        _truncate(copy / "shap.npz")
        _refuses_shap(cfg_path, capsys)

    @pytest.mark.parametrize("damage", ["extra_column", "missing_key",
                                        "short_data", "long_data"])
    def test_incomplete_kernel_shap_fails_score(self, kernel_run, tmp_path,
                                                capsys, damage):
        _, cfg_path = _copy_run(kernel_run, tmp_path)
        _damage_shap(load_config(cfg_path), damage)
        _refuses_shap(cfg_path, capsys)

    def test_kernel_shap_of_other_vectors_fails_score(self, kernel_run,
                                                      tmp_path, capsys):
        # X re-prepared from another corpus with as many rows and width
        # (the demo corpus of seed 21 has as many columns as seed 3's):
        # the stored values no longer fit X's active sets.
        copy, cfg_path = _copy_run(kernel_run, tmp_path)
        cfg = load_config(cfg_path)
        before = _load_features(cfg)[3]
        other = tmp_path / "other.tsv"
        demo.write_tsv(other, demo.generate(n_messages=80, seed=21))
        settings = json.loads(cfg_path.read_text(encoding="utf-8"))
        cfg_path.write_text(json.dumps({**settings,
                                        "dataset_path": str(other)}),
                            encoding="utf-8")
        assert cli.main(["prepare", "--config", str(cfg_path)]) == 0
        after = _load_features(cfg)[3]
        assert after.shape == before.shape == (80, after.shape[1])
        assert after.dense().tobytes() != before.dense().tobytes()
        assert cli.main(["score", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("[score] shap.npz is malformed (ValueError(")
        assert "active entries" in err
        assert err.endswith("; rerun explain\n")

    @pytest.mark.parametrize("stage", ["evaluate", "repair", "report"])
    def test_short_scores_column_fails(self, mini_run, tmp_path, capsys,
                                       stage):
        # The stored xmap column a message short: each reader of
        # scores.npz names the file before it indexes a mask of another
        # length.
        copy, cfg_path = _copy_run(mini_run, tmp_path)
        cfg = load_config(cfg_path)
        arrays = _load(cfg, "scores.npz")
        n = len(arrays["xmap_rel_u"])
        arrays["xmap_rel_u"] = arrays["xmap_rel_u"][:-1]
        _save(cfg, "scores.npz", **arrays)
        assert _refused(copy, cfg_path, capsys, stage) == (
            f"[{stage}] scores.npz is malformed (xmap_rel_u of shape "
            f"({n - 1},), expected ({n},)); rerun score\n")

    @pytest.mark.parametrize("stage", ["evaluate", "repair", "report"])
    def test_p_pos_outside_the_unit_interval_fails(self, mini_run, tmp_path,
                                                   capsys, stage):
        # A finite p_pos above 1 or below 0 passes the layout, and each
        # reader of scores.npz names the file when it derives the output
        # columns from it, with the count and the first bad value.
        copy, cfg_path = _copy_run(mini_run, tmp_path)
        cfg = load_config(cfg_path)
        arrays = _load(cfg, "scores.npz")
        n = arrays["p_pos"].size
        arrays["p_pos"][[n // 2, n - 1]] = [1.5, -0.25]
        _save(cfg, "scores.npz", **arrays)
        assert _refused(copy, cfg_path, capsys, stage) == (
            f"[{stage}] scores.npz is malformed (ValueError('p_pos outside "
            f"[0,1] at 2 of {n} entries, the first 1.5 at {n // 2}')); "
            "rerun score\n")

    def test_scores_of_the_old_layout_need_score_again(self, mini_run,
                                                       tmp_path, capsys):
        # A scores.npz written before the xmap columns of TOPIC_COLUMNS
        # were derived where they are read stores them, and not the
        # topic contributions they are derived from.
        copy, cfg_path = _copy_run(mini_run, tmp_path)
        cfg = load_config(cfg_path)
        scores = pipeline._load_scores(cfg)[0]
        _save(cfg, "scores.npz", **{key: scores[key] for key in (
            "p_pos", *pipeline.XMAP_COLUMNS)})
        for stage in ("evaluate", "repair", "report"):
            assert _refused(copy, cfg_path, capsys, stage) == (
                f"[{stage}] scores.npz is malformed (missing "
                "'contributions'); rerun score\n")

    @pytest.mark.parametrize("run", ["mini_run", "kernel_run"])
    def test_shap_of_the_old_layout_needs_explain_again(self, run, request,
                                                        tmp_path, capsys):
        # A shap.npz written before it held phi's inputs alone also
        # stores each message's base value and the name of the explained
        # output.
        copy, cfg_path = _copy_run(request.getfixturevalue(run), tmp_path)
        cfg = load_config(cfg_path)
        n = len(_load_dataset(cfg)[0])
        _save(cfg, "shap.npz", base_values=np.zeros(n),
              explained_output=np.array("margin"), **_load(cfg, "shap.npz"))
        assert _refused(copy, cfg_path, capsys, "profile") == (
            "[profile] shap.npz is malformed (unexpected 'base_values', "
            "'explained_output'); rerun explain\n")

    @pytest.mark.parametrize("member", ["base_values", "explained_output"])
    @pytest.mark.parametrize("run", ["mini_run", "kernel_run"])
    def test_each_old_shap_member_is_refused(self, run, member, request,
                                             tmp_path, capsys):
        # Either member of the old layout alone, stored beside phi's
        # inputs, stops both readers of shap.npz, which name it.
        copy, cfg_path = _copy_run(request.getfixturevalue(run), tmp_path)
        cfg = load_config(cfg_path)
        n = len(_load_dataset(cfg)[0])
        old = {"base_values": np.zeros(n),
               "explained_output": np.array("margin")}[member]
        _save(cfg, "shap.npz", **{member: old}, **_load(cfg, "shap.npz"))
        for stage in ("profile", "score"):
            assert _refused(copy, cfg_path, capsys, stage) == (
                f"[{stage}] shap.npz is malformed (unexpected {member!r}); "
                "rerun explain\n")

    def test_damaged_text_fails_only_its_reader(self, mini_run, tmp_path,
                                                monkeypatch):
        # No stage decodes the text, so offsets that do not describe it
        # pass every stage; README's one reader of the text refuses them.
        copy, cfg_path = _copy_run(mini_run, tmp_path / "run")
        cfg = load_config(cfg_path)
        dataset = _load(cfg, "dataset.npz")
        dataset["text_offsets"] = np.array([0.5, np.nan])
        _save(cfg, "dataset.npz", **dataset)
        for stage in STAGES[1:]:
            assert cli.main([stage, "--config", str(cfg_path)]) == 0, stage
        with pytest.raises(ValueError, match="^text and text_offsets do not"):
            _readme_outcome((None, None, copy, cfg_path), tmp_path,
                            monkeypatch)

    # Each damage of an input the readers of scores.npz derive the
    # TOPIC_COLUMNS from, and the file it damages.
    DERIVATION_INPUTS = {
        "missing_contributions": "scores.npz",
        "truncated_contributions": "scores.npz",
        "negative_contribution": "scores.npz",
        "missing_topics": "topics.npz",
        "truncated_topics": "topics.npz"}

    @pytest.mark.parametrize("stage", ["evaluate", "repair", "report"])
    @pytest.mark.parametrize("damage", sorted(DERIVATION_INPUTS))
    def test_damaged_derivation_input_fails(self, mini_run, tmp_path, capsys,
                                            stage, damage):
        # Each stops every reader with one line naming the file and the
        # stage that rewrites it, and changes no file.  The contributions
        # lose their member or their last row, and topics.npz its file or
        # its second half.
        copy, cfg_path = _copy_run(mini_run, tmp_path)
        cfg = load_config(cfg_path)
        name = self.DERIVATION_INPUTS[damage]
        producer = pipeline.ARTIFACTS[name][0]
        if damage == "missing_topics":
            (copy / name).unlink()
            expected = f"missing {name}; run {producer} first"
        elif damage == "truncated_topics":
            _truncate(copy / name)
            expected = f"cannot read {name} ("
        else:
            arrays = _load(cfg, name)
            n, m = arrays["contributions"].shape
            if damage == "missing_contributions":
                del arrays["contributions"]
                expected = f"{name} is malformed (missing 'contributions')"
            elif damage == "truncated_contributions":
                arrays["contributions"] = arrays["contributions"][:-1]
                expected = (f"{name} is malformed (contributions of shape "
                            f"({n - 1}, {m}), expected ({n}, {m}))")
            else:
                # The row's total turns negative too, which the
                # representations would take for a massless row.
                row = arrays["contributions"][n // 2]
                row[np.argmax(row)] *= -1.0
                assert row.sum() < 0
                expected = (f"{name} is malformed (ValueError('a negative "
                            f"contribution in 1 of {n} rows, the first "
                            f"{n // 2}'))")
            _save(cfg, name, **arrays)
        err = _refused(copy, cfg_path, capsys, stage)
        assert err.startswith(f"[{stage}] {expected}") and err.count("\n") == 1
        assert err.endswith(f"; run {producer} first\n"
                            if damage == "missing_topics"
                            else f"; rerun {producer}\n")

    def test_undamaged_kernel_run_scores(self, kernel_run, tmp_path):
        # The damage above is what fails score, not the small run itself.
        _, cfg_path = _copy_run(kernel_run, tmp_path)
        assert cli.main(["score", "--config", str(cfg_path)]) == 0

    @staticmethod
    def _refuses_model(cfg_path, capsys, stage="score"):
        assert cli.main([stage, "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"[{stage}] model.npz ")
        assert err.endswith("; rerun train\n") and err.count("\n") == 1
        return err

    def test_old_layout_nb_model_fails_score(self, mini_run, tmp_path,
                                             capsys):
        # NB's log-likelihood tables, stored before NB became a linear
        # model, no longer load: weights and bias are missing.
        _, cfg_path = _copy_run(mini_run, tmp_path)
        cfg = load_config(cfg_path)
        space = _load_features(cfg)[2]
        d, start = space.n_columns, space.structural_start
        _save(cfg, "model.npz", kind="nb",
              log_prior=np.log([0.5, 0.5]), log_theta=np.zeros((2, d)),
              alpha=1.0, structural_start=start,
              struct_min=np.zeros(d - start), struct_max=np.ones(d - start))
        err = self._refuses_model(cfg_path, capsys)
        assert "missing 'weights', 'bias'" in err

    def test_short_struct_bounds_fail_score(self, mini_run, tmp_path,
                                            capsys):
        _, cfg_path = _copy_run(mini_run, tmp_path)
        cfg = load_config(cfg_path)
        space = _load_features(cfg)[2]
        d, start = space.n_columns, space.structural_start
        _save(cfg, "model.npz", kind="nb", weights=np.zeros(d), bias=0.0,
              structural_start=start, struct_min=np.zeros(d - start - 1),
              struct_max=np.ones(d - start - 1))
        err = self._refuses_model(cfg_path, capsys)
        assert "struct_min and struct_max" in err

    @pytest.mark.parametrize("stage", ["explain", "score"])
    def test_model_of_another_width_fails(self, mini_run, tmp_path, capsys,
                                          stage):
        # prepare rerun on a larger corpus with the same config leaves
        # the trained model one width and the vectors another.
        copy, cfg_path = _copy_run(mini_run, tmp_path)
        cfg = load_config(cfg_path)
        trained = _load(cfg, "model.npz")["weights"].size
        other = tmp_path / "other.tsv"
        demo.write_tsv(other, demo.generate(n_messages=340, seed=12))
        settings = json.loads(cfg_path.read_text(encoding="utf-8"))
        cfg_path.write_text(json.dumps({**settings,
                                        "dataset_path": str(other)}),
                            encoding="utf-8")
        assert cli.main(["prepare", "--config", str(cfg_path)]) == 0
        width = _load_features(cfg)[2].n_columns
        assert width != trained
        err = self._refuses_model(cfg_path, capsys, stage)
        assert err == (f"[{stage}] model.npz is malformed (weights of shape "
                       f"({trained},), expected ({width},)); rerun train\n")

    @pytest.mark.parametrize("run, key, stage", [
        ("mini_run", "weights", "explain"), ("mini_run", "weights", "profile"),
        ("mini_run", "weights", "score"),
        ("kernel_run", "calibration", "profile")])
    def test_non_finite_model_parameter_fails(self, run, key, stage, request,
                                              tmp_path, capsys):
        # One NaN parameter stopped each stage with a message that named
        # neither model.npz nor train; _load refuses it before a model is
        # built.
        copy, cfg_path = _copy_run(request.getfixturevalue(run), tmp_path)
        cfg = load_config(cfg_path)
        arrays = _load(cfg, "model.npz")
        arrays[key][0] = np.nan
        _save(cfg, "model.npz", **arrays)
        before = {p.name: p.read_bytes() for p in copy.iterdir()}
        err = self._refuses_model(cfg_path, capsys, stage)
        assert err == (f"[{stage}] model.npz is malformed ({key} holds a "
                       "non-finite value); rerun train\n")
        assert {p.name: p.read_bytes() for p in copy.iterdir()} == before

    @pytest.mark.parametrize("run, name, key, value, stage", [
        ("mini_run", "dataset.npz", "data", np.inf, "explain"),
        ("mini_run", "dataset.npz", "data", np.nan, "profile"),
        ("mini_run", "dataset.npz", "data", -np.inf, "score"),
        ("mini_run", "shap.npz", "mu", np.nan, "profile"),
        ("mini_run", "shap.npz", "mu", np.inf, "score"),
        ("kernel_run", "shap.npz", "data", np.nan, "profile"),
        ("kernel_run", "shap.npz", "data", np.inf, "score"),
        ("kernel_run", "shap.npz", "mu", np.nan, "score")])
    def test_non_finite_stored_value_fails(self, run, name, key, value,
                                           stage, request, tmp_path, capsys):
        # Each passed its readers, or stopped one with a message naming
        # neither the file nor its producer.
        copy, cfg_path = _copy_run(request.getfixturevalue(run), tmp_path)
        cfg = load_config(cfg_path)
        arrays = _load(cfg, name)
        arrays[key][arrays[key].size // 2] = value
        _save(cfg, name, **arrays)
        assert _refused(copy, cfg_path, capsys, stage) == (
            f"[{stage}] {name} is malformed ({key} holds a non-finite "
            f"value); rerun {pipeline.ARTIFACTS[name][0]}\n")

    @pytest.mark.parametrize("damage", [
        "column_past_space", "descending_columns", "extra_topic_row",
        "narrow_H"])
    def test_damaged_topics_fail_score(self, mini_run, tmp_path, capsys,
                                       damage):
        # Each damage either stopped score with a message that named
        # neither the file nor profile, or scored the wrong columns.
        copy, cfg_path = _copy_run(mini_run, tmp_path)
        cfg = load_config(cfg_path)
        arrays = _load(cfg, "topics.npz")
        if damage == "column_past_space":
            arrays["columns_plus"][-1] = _load_features(cfg)[2].n_columns
        elif damage == "descending_columns":
            arrays["columns_plus"] = arrays["columns_plus"][::-1]
        elif damage == "extra_topic_row":
            arrays["H_plus"] = np.vstack([arrays["H_plus"],
                                          arrays["H_plus"][:1]])
        else:
            arrays["H_plus"] = arrays["H_plus"][:, :-1]
        _save(cfg, "topics.npz", **arrays)
        err = _refused(copy, cfg_path, capsys, "score")
        assert err.startswith("[score] topics.npz is malformed (")
        assert err.endswith("); rerun profile\n") and err.count("\n") == 1

    @pytest.mark.parametrize("run", ["mini_run", "kernel_run"])
    def test_topics_of_the_old_layout_need_profile_again(self, run, request,
                                                         tmp_path, capsys):
        # A topics.npz written before score derived each column's topic
        # from H also stores the assignments, which could disagree with
        # it.
        copy, cfg_path = _copy_run(request.getfixturevalue(run), tmp_path)
        cfg = load_config(cfg_path)
        topics = _load(cfg, "topics.npz")
        _save(cfg, "topics.npz", **topics, **{
            f"assignment_{polarity}": profiling.assign_topics(
                topics[f"H_{polarity}"]) for polarity in pipeline.POLARITIES})
        assert _refused(copy, cfg_path, capsys, "score") == (
            "[score] topics.npz is malformed (unexpected 'assignment_minus', "
            "'assignment_plus'); rerun profile\n")

    @pytest.mark.parametrize("polarity", ["minus", "plus"])
    @pytest.mark.parametrize("run", ["mini_run", "kernel_run"])
    def test_each_old_topics_member_is_refused(self, run, polarity, request,
                                               tmp_path, capsys):
        # Either assignment of the old layout alone, stored beside the
        # topics, stops score and, in a run that went past score, every
        # later reader of topics.npz, which names it.
        copy, cfg_path = _copy_run(request.getfixturevalue(run), tmp_path)
        cfg = load_config(cfg_path)
        topics = _load(cfg, "topics.npz")
        member = f"assignment_{polarity}"
        _save(cfg, "topics.npz", **topics, **{
            member: profiling.assign_topics(topics[f"H_{polarity}"])})
        for stage in ("score", *(stage for stage in ("evaluate", "repair",
                      "report") if stage in RUNS[run][0])):
            assert _refused(copy, cfg_path, capsys, stage) == (
                f"[{stage}] topics.npz is malformed (unexpected {member!r}); "
                "rerun profile\n")

    @pytest.mark.parametrize("label, polarity",
                             list(enumerate(pipeline.POLARITIES)),
                             ids=pipeline.POLARITIES)
    def test_contributions_follow_the_stored_H(self, mini_run, tmp_path,
                                               label, polarity):
        # Each column's topic is H's: with one polarity's topics rolled by
        # one, score moves every contribution of the rows predicted that
        # label to the next topic, and leaves the other rows as they were.
        copy, cfg_path = _copy_run(mini_run, tmp_path)
        cfg = load_config(cfg_path)
        before = _contributions(cfg)
        predicted = pipeline._load_scores(cfg)[0]["predicted"]
        topics = _load(cfg, "topics.npz")
        top_two = np.sort(topics[f"H_{polarity}"], axis=0)[-2:]
        assert (top_two[1] > top_two[0]).all(), "a tie would not roll"
        topics[f"H_{polarity}"] = np.roll(topics[f"H_{polarity}"], 1, axis=0)
        _save(cfg, "topics.npz", **topics)
        assert cli.main(["score", "--config", str(cfg_path)]) == 0
        after = _contributions(cfg)
        rows = predicted == label
        assert rows.any() and (before[rows] != 0.0).any()
        assert after[rows].tobytes() == np.roll(
            before[rows], 1, axis=1).tobytes()
        assert after[~rows].tobytes() == before[~rows].tobytes()

    def test_truncated_archive_leaves_no_open_file(self, mini_run,
                                                   tmp_path):
        copy, cfg_path = _copy_run(mini_run, tmp_path)
        _truncate(copy / "shap.npz")
        cfg = load_config(cfg_path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            try:
                _load(cfg, "shap.npz")
            except ArtifactError:
                pass
            gc.collect()
        assert not [w for w in caught
                    if issubclass(w.category, ResourceWarning)]

    @pytest.mark.parametrize("name, member, stage", [
        ("shap.npz", "mu", "score"), ("scores.npz", "p_pos", "evaluate"),
        ("scores.npz", "contributions", "repair"),
        ("topics.npz", "H_minus", "evaluate")])
    def test_flipped_deflated_byte_fails_its_reader(self, mini_run, tmp_path,
                                                    capsys, name, member,
                                                    stage):
        # A flipped byte either breaks the member's deflate stream
        # (zlib.error) or inflates to other bytes (zipfile's CRC check);
        # the offsets cover both, and neither leaves a file open.
        copy, cfg_path = _copy_run(mini_run, tmp_path)
        path = copy / name
        pristine = path.read_bytes()
        errors = []
        for at in (0.0, 0.2, 0.4, 0.6, 0.8):
            path.write_bytes(pristine)
            _flip_deflated_byte(path, f"{member}.npy", at)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", ResourceWarning)
                assert cli.main([stage, "--config", str(cfg_path)]) == 2
                gc.collect()
            assert not [w for w in caught
                        if issubclass(w.category, ResourceWarning)]
            err = capsys.readouterr().err
            assert err.startswith(f"[{stage}] cannot read {name} (")
            assert err.endswith(f"); rerun {pipeline.ARTIFACTS[name][0]}\n")
            assert err.count("\n") == 1
            errors.append(err)
        assert any("Error -3 while decompressing" in err for err in errors)
        assert any("Bad CRC-32" in err for err in errors)

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

    @pytest.mark.parametrize("stage", ["train", "evaluate", "report"])
    @pytest.mark.parametrize("damage", ["split_strings", "integer_train",
                                        "short_train", "gold_of_2"])
    def test_damaged_dataset_columns_fail(self, mini_run, tmp_path, capsys,
                                          stage, damage):
        # The labels and train mask are read from dataset.npz alone, so
        # every reader refuses an old-layout file, a train mask that is
        # not boolean (integers would index rows) or not one per message,
        # and labels that are not boolean, such as a uint8 2.
        copy, cfg_path = _copy_run(mini_run, tmp_path)
        cfg = load_config(cfg_path)
        arrays = _load(cfg, "dataset.npz")
        if damage == "split_strings":
            arrays["split"] = np.where(arrays.pop("train"), "train", "test")
        elif damage == "integer_train":
            arrays["train"] = arrays["train"].astype(np.int64)
        elif damage == "short_train":
            arrays["train"] = arrays["train"][:-1]
        else:
            arrays["gold"] = arrays["gold"].astype(np.uint8)
            arrays["gold"][0] = 2
        _save(cfg, "dataset.npz", **arrays)
        err = _refused(copy, cfg_path, capsys, stage)
        assert err.startswith(f"[{stage}] dataset.npz is malformed (")
        assert err.endswith("); rerun prepare\n") and err.count("\n") == 1

    @pytest.mark.parametrize("run, name, damage, key", _off_layout())
    def test_archive_off_its_layout_fails(self, run, name, damage, key,
                                          request, tmp_path, capsys,
                                          first_stage):
        # Each archive must hold exactly its layout's members, each of
        # its dtype kind and shape, and a float member NaN or inf only in
        # an NA member.  The archive's first reader refuses a stray or a
        # missing member, an optional one through the model or phi it
        # builds, and the first stage that decodes a member refuses it of
        # another kind (floats stored as integers, booleans as uint8, as
        # labels were before they were booleans, anything else as floats)
        # or not finite.  A NaN in an NA member loads.
        copy, cfg_path = _copy_run(request.getfixturevalue(run), tmp_path)
        cfg = load_config(cfg_path)
        arrays = _load(cfg, name)
        producer, layout = pipeline.ARTIFACTS[name]
        reader = first_stage(name)
        if damage == "stray_member":
            arrays["stray"] = np.zeros(1)
            problem = "unexpected 'stray'"
        elif damage == "short_idf":
            n, d = arrays["shape"].tolist()
            arrays["idf"] = arrays["idf"][:-1]
            problem = (f"ValueError('idf of shape ({d - 1},) and a ({n}, "
                       f"{d}) matrix, expected ({d},) and ({n}, {d})')")
        elif damage == "missing":
            del arrays[key]
            problem = (None if pipeline.OPTIONAL in layout[key]
                       else f"missing {key!r}")
        elif damage == "wrong_kind":
            reader = first_stage(name, key)
            found = np.asarray(arrays[key])
            arrays[key] = np.zeros(found.shape, {
                "f": np.int64, "b": np.uint8}.get(found.dtype.kind,
                                                  np.float64))
            problem = (f"{key} of dtype {arrays[key].dtype}, expected kind "
                       f"{found.dtype.kind!r}")
        else:
            reader = first_stage(name, key)
            arrays[key] = np.array(arrays[key], dtype=np.float64)
            middle = arrays[key].size // 2
            arrays[key].flat[middle] = np.nan
            problem = f"{key} holds a non-finite value"
            if key in layouts.NA.get(name, ()):
                _save(cfg, name, **arrays)
                n = len(_load_dataset(cfg)[0])
                assert np.isnan(_load(cfg, name, n=n)[key].flat[middle])
                assert cli.main([reader, "--config", str(cfg_path)]) == 0
                return
        _save(cfg, name, **arrays)
        err = _refused(copy, cfg_path, capsys, reader)
        head = f"[{reader}] {name} is malformed ("
        tail = f"); rerun {producer}\n"
        assert err.startswith(head) and err.endswith(tail), err
        assert problem is None or err == head + problem + tail
        assert err.count("\n") == 1

    def test_prepare_errors_on_missing_dataset(self, tmp_path, capsys):
        cfg_path = _write_config(tmp_path, tmp_path / "absent.tsv",
                                 tmp_path / "out")
        (tmp_path / "out").mkdir()
        rc = cli.main(["prepare", "--config", str(cfg_path)])
        assert rc == 2
        assert "[prepare]" in capsys.readouterr().err


class TestLinearExplain:
    @pytest.mark.parametrize("classifier, nb_linear, linear", [
        ("logreg", False, True), ("logreg", True, True),
        ("nb", True, True), ("nb", False, False),
        ("svm", False, False), ("svm", True, False)])
    def test_the_config_alone_decides_linear(self, classifier, nb_linear,
                                             linear):
        # nb_linear_attribution bears on nb alone; explain, the readers of
        # shap.npz and the layout the tests hold all follow the one rule.
        cfg = PipelineConfig(classifier=classifier,
                             nb_linear_attribution=nb_linear)
        assert pipeline._linear(cfg) is linear
        assert layouts.layout("shap.npz", cfg) == layouts.SHAP[
            "linear" if linear else "kernel"]

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
        layouts.check_archive(out / "shap.npz", layouts.SHAP["linear"])
        cfg = load_config(cfg_path)
        labels, train, space, vectors = _load_features(cfg)
        X = vectors.dense()
        model = _load_model(cfg, space)
        mu = X[train][attribution.background_rows(
            labels[train], int(train.sum()), cfg.seed)].mean(axis=0)
        expected = attribution.linear_shap(model, X, mu)
        stored = CSR.of(to_csr(expected)).dense()

        assert _load(cfg, "shap.npz")["mu"].tobytes() == mu.tobytes()
        phi = _load_phi(cfg, space, model, vectors)()
        # tobytes compares the sign of zero too.
        assert phi.tobytes() == expected.tobytes() == stored.tobytes()

    @pytest.mark.parametrize("classifier", ["logreg", "nb"])
    def test_phi_slices_are_the_full_phi_sliced(self, classifier, tmp_path):
        # Built on the slice of X alone; for linear nb the structural
        # columns inside a slice are scaled as in the whole matrix.
        _, cfg_path = _small_run(tmp_path, STAGES[:3],
                                 classifier=classifier,
                                 nb_linear_attribution=True,
                                 word_quota=60, phrase_quota=40)
        cfg = load_config(cfg_path)
        _, _, space, X = _load_features(cfg)
        model = _load_model(cfg, space)
        full = attribution.linear_shap(model, X.dense(),
                                       _load(cfg, "shap.npz")["mu"])
        _assert_phi_slices(_load_phi(cfg, space, model, X), full,
                           space)


class TestKernelExplain:
    @pytest.mark.parametrize("classifier", ["svm", "nb"])
    def test_matches_probability_callable(self, classifier, tmp_path):
        # explain hands kernel_shap the model itself; the attributions
        # are those of its probability_function as an opaque callable.
        _, cfg_path = _small_run(tmp_path, STAGES[:3],
                                 **{**KERNEL, "classifier": classifier})
        cfg = load_config(cfg_path)
        gold, train, space, vectors = _load_features(cfg)
        n, X = len(gold), vectors.dense()
        model = _load_model(cfg, space)
        phi = _load_phi(cfg, space, model, vectors)()
        assert phi.shape == (n, space.n_columns)
        background = _background(cfg, X, gold, train)
        for i in range(0, n, 20):
            ref = attribution.kernel_shap(
                lambda Z: classifiers.probability_function(model, Z), X[i],
                background, n_coalitions=cfg.n_coalitions, seed=cfg.seed,
                msg_id=i)
            dense = np.zeros(space.n_columns)
            nonzero = phi_of(ref)
            dense[list(nonzero)] = list(nonzero.values())
            np.testing.assert_array_equal(phi[i] != 0, dense != 0)
            np.testing.assert_allclose(phi[i], dense, rtol=0, atol=1e-12)

    def test_phi_slices_are_the_stored_phi_sliced(self, kernel_run):
        cfg = load_config(kernel_run[3])
        _, _, space, X = _load_features(cfg)
        full = _per_message_phi(cfg)
        phi = _load_phi(cfg, space, _load_model(cfg, space), X)
        _assert_phi_slices(phi, full, space)

    @pytest.mark.parametrize("classifier", ["svm", "nb"])
    def test_stores_values_and_phi_is_the_csr_bitwise(self, classifier,
                                                      tmp_path):
        # shap.npz holds mu and the active columns' values, no column
        # index; _load_phi rebuilds exactly the CSR of the nonzero
        # attributions, the sign of every zero included.
        out, cfg_path = _small_run(tmp_path, STAGES[:3],
                                   **{**KERNEL, "classifier": classifier})
        layouts.check_archive(out / "shap.npz", layouts.SHAP["kernel"])
        cfg = load_config(cfg_path)
        gold, train, space, X = _load_features(cfg)
        shap = _load(cfg, "shap.npz")
        background = _background(cfg, X.dense(), gold, train)
        assert shap["mu"].tobytes() == background.mean.tobytes()
        active = attribution.active_mask(X.dense(), shap["mu"])
        assert shap["data"].size == np.count_nonzero(active)
        full = _per_message_phi(cfg)
        phi = _load_phi(cfg, space, _load_model(cfg, space), X)()
        assert phi.tobytes() == full.tobytes()

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


class TestStageImports:
    def test_score_and_svm_train_leave_numpy_ma_unloaded(self, kernel_run,
                                                         tmp_path):
        # np.median and np.unique import numpy.ma, which costs a stage
        # process 12-17 ms and 1 MiB.
        _, cfg_path = _copy_run(kernel_run, tmp_path)
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        code = (
            "import sys\n"
            "from topicaudit import cli\n"
            "for stage in ('score', 'train'):\n"
            f"    assert cli.main([stage, '--config', {str(cfg_path)!r}]) "
            "== 0, stage\n"
            "    assert 'numpy.ma' not in sys.modules, stage\n")
        result = subprocess.run([sys.executable, "-c", code], env=env,
                                capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert load_config(cfg_path).classifier == "svm"


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
        # Through the members of two layouts: the matrix as scores.npz's
        # NA column and, when finite, as dataset.npz's CSR and idf, which
        # refuse it otherwise; the strings as dataset.npz's UTF-8 lists.
        csr, column, n = to_csr(matrix), matrix.ravel(), matrix.size
        finite = bool(np.isfinite(matrix).all())
        vocabs = {**pipeline._utf8("word_vocab", labels),
                  **pipeline._utf8("phrase_vocab", labels[::-1])}
        labels_of_rows = np.zeros(len(matrix), dtype=bool)
        with tempfile.TemporaryDirectory() as tmp:
            cfg = PipelineConfig(out_dir=tmp)
            _save(cfg, "dataset.npz", gold=labels_of_rows,
                  train=labels_of_rows, **pipeline._utf8("text", labels),
                  **vocabs, idf=column, **csr)
            _save(cfg, "scores.npz", p_pos=np.zeros(n),
                  contributions=np.zeros((n, cfg.n_topics)),
                  xmap_rel_u=column)
            scores = _load(cfg, "scores.npz")
            if finite:
                back = _load(cfg, "dataset.npz")
            else:
                for key in ("data", "idf"):
                    with pytest.raises(ArtifactError, match=(
                            rf"^dataset.npz is malformed \({key} holds a "
                            r"non-finite value\); rerun prepare$")):
                        _load(cfg, "dataset.npz", keys=(key,))
                back = _load(cfg, "dataset.npz", keys=list(vocabs))
        assert scores["xmap_rel_u"].tobytes() == matrix.tobytes()
        if finite:
            for key, array in csr.items():
                assert back[key].dtype == array.dtype, key
                assert back[key].tobytes() == array.tobytes(), key
            assert CSR.of(back).dense().tobytes() == matrix.tobytes()
            assert back["idf"].tobytes() == matrix.tobytes()
        assert pipeline._strings(back, "word_vocab") == labels
        assert pipeline._strings(back, "phrase_vocab") == labels[::-1]

    def test_no_stage_after_prepare_reads_the_text(self, mini_run,
                                                   kernel_run, nb_run,
                                                   decoded):
        # Each stage decodes only the members it reads, and in no shared
        # run does one read the messages' text back from dataset.npz.
        # The readers of X, train to score, decode every other member of
        # dataset.npz.  The readers of scores.npz decode its labels and
        # split, and of scores.npz and the topics they derive the
        # TOPIC_COLUMNS from: p_pos, from which the predicted label and
        # the output-uncertainty columns are derived, the stored
        # xmap_rel_u, the topic contributions and both polarities' H.
        # score reads every member of the topics.
        for record in decoded.values():
            assert not any(UNDECODED & read for read in record.values())
        cfg = load_config(mini_run[3])

        def members(name, keys=None):
            return {(name, key) for key in keys or layouts.layout(name, cfg)}
        X = members("dataset.npz") - UNDECODED
        readers = (members("dataset.npz", ("digest", "gold", "train"))
                   | members("scores.npz")
                   | members("topics.npz", ("digest", "H_minus", "H_plus")))
        assert {stage: {(name, key) for name, key in read if key and name in {
                    "dataset.npz", "scores.npz", "topics.npz"}}
                for stage, read in decoded["mini_run"].items()
                if stage != STAGES[0]} == {
            **dict.fromkeys(STAGES[1:4], X),
            "score": X | members("topics.npz"),
            **dict.fromkeys(STAGES[5:], readers)}

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

    def test_rows_must_match(self, tmp_path):
        # Row i is message i: scores.npz must hold one p_pos per message
        # of dataset.npz, three here.
        cfg = PipelineConfig(out_dir=str(tmp_path))
        d = features.N_STRUCTURAL
        _save(cfg, "dataset.npz", gold=np.array([False, True, False]),
              train=np.array([True, False, False]),
              **pipeline._utf8("text", ["a", "b", "c"]),
              **pipeline._utf8("word_vocab", []),
              **pipeline._utf8("phrase_vocab", []), idf=np.ones(d),
              **to_csr(np.zeros((3, d))))
        rest = {"contributions": np.zeros((3, cfg.n_topics)),
                "xmap_rel_u": np.zeros(3)}
        _save(cfg, "scores.npz", p_pos=np.array([0.9, 0.2, 0.4]), **rest)
        p_pos = _load(cfg, "scores.npz", ("p_pos",), n=3)["p_pos"]
        assert pipeline._output_columns(p_pos, cfg.temperature)[
            "predicted"].tolist() == [True, False, False]
        for p_pos in ([0.5] * 2, [0.5] * 4, [[0.5]] * 3, 0.5):
            _save(cfg, "scores.npz", p_pos=np.array(p_pos), **rest)
            with pytest.raises(ArtifactError,
                               match=r"^scores.npz is malformed \(.*; "
                                     "rerun score$"):
                pipeline._load_scores(cfg)

    def test_only_artifact_names_resolve(self, tmp_path):
        with pytest.raises(KeyError, match="a.npz"):
            _save(PipelineConfig(out_dir=str(tmp_path)), "a.npz",
                  x=np.ones(2))
        assert not list(tmp_path.iterdir())


class TestAtomicWrites:
    @pytest.mark.parametrize("name", sorted(pipeline.ARTIFACTS))
    def test_failed_write_keeps_previous_file(self, name, mini_run,
                                              tmp_path, monkeypatch, capsys):
        copy, cfg_path = _copy_run(mini_run, tmp_path)
        before = {p.name: p.read_bytes() for p in copy.iterdir()}
        assert set(pipeline.ARTIFACTS) <= set(before)
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
        producer = pipeline.ARTIFACTS[name][0]
        assert cli.main([producer, "--config", str(cfg_path)]) == 2
        assert "No space left" in capsys.readouterr().err
        after = {p.name: p.read_bytes() for p in copy.iterdir()}
        assert after.keys() == before.keys()
        for artifact, blob in before.items():
            assert after[artifact] == blob, artifact

    @staticmethod
    def _flipped(run, tmp_path: Path, stages) -> tuple[Path, Path]:
        """A copy of a finished run and its config, which reads the run's
        corpus with every label flipped, after the given stages reran on
        it."""
        copy, cfg_path = _copy_run(run, tmp_path)
        flipped = tmp_path / "flipped.tsv"
        demo.write_tsv(flipped, [
            ("ham" if label == "spam" else "spam", text) for label, text in (
                line.split("\t", 1) for line in
                run[1].read_text(encoding="utf-8").splitlines())])
        settings = json.loads(cfg_path.read_text(encoding="utf-8"))
        cfg_path.write_text(json.dumps({**settings,
                                        "dataset_path": str(flipped)}),
                            encoding="utf-8")
        for stage in stages:
            assert cli.main([stage, "--config", str(cfg_path)]) == 0, stage
        return copy, cfg_path

    @staticmethod
    def _spy_writes(monkeypatch, spy) -> None:
        """Route every atomic write of pipeline and report through
        spy(real, path, *args, **kwargs), real being atomic_open."""
        real = atomic.atomic_open
        for module in (pipeline, report):
            monkeypatch.setattr(module, "atomic_open",
                                lambda *args, **kwargs: spy(real, *args,
                                                            **kwargs))

    @pytest.mark.parametrize("stage", ["prepare", "profile", "repair"])
    def test_failed_stage_keeps_every_previous_output(
            self, stage, mini_run, tmp_path, monkeypatch, capsys):
        # The stage reruns over the same messages with every label
        # flipped, on the upstream artifacts rebuilt from them, and its
        # k-th atomic write, of an archive or a report, fails midway, for
        # each k it makes: every file of the run directory keeps its
        # previous bytes, so no new output sits beside an old one.
        base, cfg_path = self._flipped(mini_run, tmp_path,
                                       STAGES[:STAGES.index(stage)])
        k = 0
        while True:
            k += 1
            copy = tmp_path / f"fail{k}"
            shutil.copytree(base, copy)
            before = {p.name: p.read_bytes() for p in copy.iterdir()}
            calls = []

            @contextlib.contextmanager
            def failing(real, *args, **kwargs):
                calls.append(None)
                with real(*args, **kwargs) as fh:
                    yield fh
                    if len(calls) == k:
                        raise OSError(28, "No space left on device")

            self._spy_writes(monkeypatch, failing)
            code = cli.main([stage, "--config", str(cfg_path),
                             "--out", str(copy)])
            monkeypatch.undo()
            err = capsys.readouterr().err
            if len(calls) < k:
                # The stage makes fewer than k writes, and they succeed.
                assert code == 0 and k > 1, (k, err)
                break
            assert code == 2 and "No space left" in err, k
            assert {p.name: p.read_bytes() for p in copy.iterdir()} == (
                before), k
        after = {p.name: p.read_bytes() for p in copy.iterdir()}
        assert [name for name in sorted(after) if after[name] != before[name]
                ] == sorted(name for name, (producer, _)
                            in pipeline.ARTIFACTS.items() if producer == stage)

    def test_every_stage_writes_one_file(self, mini_run, tmp_path,
                                         monkeypatch):
        # Each stage of a full run opens exactly one file for writing,
        # the one ARTIFACTS gives it, so one atomic write replaces all
        # of a stage's outputs.
        out = tmp_path / "run"
        out.mkdir()
        cfg_path = _write_config(tmp_path, mini_run[1], out)
        opened = []

        def spy(real, path, *args, **kwargs):
            opened.append(Path(path))
            return real(path, *args, **kwargs)

        self._spy_writes(monkeypatch, spy)
        for stage in STAGES:
            opened.clear()
            assert cli.main([stage, "--config", str(cfg_path)]) == 0, stage
            assert len(opened) == 1, (stage, opened)
            assert opened[0].parent == out, stage
            assert pipeline.ARTIFACTS[opened[0].name][0] == stage
        assert sorted(p.name for p in out.iterdir()) == sorted(
            pipeline.ARTIFACTS)


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

    @staticmethod
    def _blas_after_cli_import(argv, preset, first=""):
        """The three BLAS variables ('-' when unset) and the kernel
        explain worker count after a fresh process with only the preset
        variables and sys.argv[1:] = argv runs `first` and then imports
        topicaudit.cli."""
        env = {key: value for key, value in os.environ.items()
               if key not in BLAS_THREAD_VARS}
        src = str(Path(cli.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")]))
        code = (f"import os, sys; sys.argv[1:] = {argv!r}; {first}"
                "import topicaudit.cli; "
                "from topicaudit import BLAS_THREAD_VARS, attribution; "
                "print(*(os.environ.get(v, '-') for v in BLAS_THREAD_VARS), "
                "attribution._default_workers())")
        result = subprocess.run([sys.executable, "-c", code], env={
            **env, **preset}, capture_output=True, text=True, check=True)
        *blas, workers = result.stdout.split()
        return blas, int(workers)

    @pytest.mark.parametrize("stage, preset", [
        *((stage, {}) for stage in STAGES),
        ("explain", {"OPENBLAS_NUM_THREADS": "2"}),
        ("profile", {"OPENBLAS_NUM_THREADS": "2"})],
        ids=[*STAGES, "explain-caller-sets-2", "profile-caller-sets-2"])
    def test_one_blas_thread_in_every_stage(self, stage, preset):
        # Importing the CLI sets each BLAS variable the caller left unset
        # to 1, which lets kernel explain fork a worker per core.
        blas, workers = self._blas_after_cli_import([stage], preset)
        expected = [preset.get(var, "1") for var in BLAS_THREAD_VARS]
        assert blas == expected
        assert workers == (len(os.sched_getaffinity(0))
                           if expected == ["1"] * len(BLAS_THREAD_VARS)
                           else 1)

    def test_no_subcommand_also_runs_one_blas_thread(self):
        blas, _ = self._blas_after_cli_import([], {})
        assert blas == ["1"] * len(BLAS_THREAD_VARS)

    def test_blas_left_alone_once_numpy_is_loaded(self):
        # Setting the variables after numpy loaded would not change its
        # threads, only make kernel explain fork beside them.
        blas, workers = self._blas_after_cli_import(
            ["explain"], {}, first="import numpy; ")
        assert (blas, workers) == (["-"] * len(BLAS_THREAD_VARS), 1)

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
        scores = {"predicted": np.array([1]),
                  "xmap_original": np.array([0.2]),
                  "xmap_vacuity": np.array([np.nan]),
                  "xmap_dissonance": np.array([0.1]),
                  "xmap_aleatory": np.array([0.1]),
                  "xmap_doctor_alpha": np.array([0.1]),
                  "xmap_doctor_beta": np.array([0.1]),
                  "xmap_odin": np.array([0.1]), "xmap_rel_u": np.array([0.1])}
        lines = report._divergence_table(scores, gold=np.array([1]),
                                         test=np.array([True]))
        assert not any(line.startswith("| vacuity ") for line in lines)
        assert any("vacuity" in line and "Omitted" in line for line in lines)

    def test_fmt_handles_none_and_strings(self):
        # No metric of either report is a string, so _fmt refuses one.
        assert report._fmt(None) == "NA"
        assert report._fmt(0.123456) == "0.1235"
        assert report._fmt(1) == "1.0000"
        for value in ("0.99", True):
            with pytest.raises(ValueError):
                report._fmt(value)

    def test_count_takes_an_int_alone(self):
        assert report._count(0) == "0" and report._count(-3) == "-3"
        for value in ("many", True, 2.0, None):
            with pytest.raises(ValueError, match="is not a count"):
                report._count(value)

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

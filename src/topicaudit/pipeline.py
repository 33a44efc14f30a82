"""Stage orchestration: each command is a pure function of the config
and upstream artifacts, so reruns are byte-identical.

Artifact chain (all under the output directory, all stamped with the
config digest; a digest mismatch refuses to combine):

    prepare  -> dataset.jsonl, space.json, vectors.npz
    train    -> model.json
    explain  -> shap.npz
    profile  -> topics_plus.json, topics_minus.json, profiles.json
    score    -> representations.npz, scores.npz
    evaluate -> detector_report.json
    repair   -> repair_report.json, outcomes.npz
    report   -> report.md

Every .npz is written by _save and read by _load only.  Each holds an
``ids`` array that must equal the dataset ids in order; the (n, d)
matrices X (vectors.npz) and phi (shap.npz) are stored as CSR arrays
``shape, indptr, indices, data``.
"""

from __future__ import annotations

import functools
import json
import math
import os
import zipfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import attribution, classifiers, corpus, features, profiling, scoring
from . import uncertainty
from .config import PipelineConfig

BASE_METHODS = uncertainty.OUTPUT_UQ_METHODS
REPRESENTATIONS = uncertainty.REPRESENTATIONS
XMAP_COLUMNS = tuple(f"xmap_{rep}" for rep in REPRESENTATIONS)
SUBSETS = (("positive", 1), ("negative", 0))


class StageError(RuntimeError):
    """A pipeline stage could not run; the message names the stage."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


@dataclass(frozen=True)
class Paths:
    out: Path

    @property
    def dataset(self): return self.out / "dataset.jsonl"
    @property
    def space(self): return self.out / "space.json"
    @property
    def vectors(self): return self.out / "vectors.npz"
    @property
    def model(self): return self.out / "model.json"
    @property
    def shap(self): return self.out / "shap.npz"
    @property
    def profiles(self): return self.out / "profiles.json"
    @property
    def representations(self): return self.out / "representations.npz"
    @property
    def scores(self): return self.out / "scores.npz"
    @property
    def outcomes(self): return self.out / "outcomes.npz"
    @property
    def detector_report(self): return self.out / "detector_report.json"
    @property
    def repair_report(self): return self.out / "repair_report.json"
    @property
    def report(self): return self.out / "report.md"

    def topics(self, polarity: str) -> Path:
        return self.out / f"topics_{polarity}.json"


def paths_for(cfg: PipelineConfig) -> Paths:
    if not cfg.out_dir:
        raise ValueError("config has no output directory")
    return Paths(out=Path(cfg.out_dir))


def _stage(name: str):
    """Wrap a stage so any module error surfaces with the stage name."""
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(cfg: PipelineConfig):
            try:
                return fn(cfg)
            except StageError:
                raise
            except Exception as exc:
                raise StageError(name, str(exc)) from exc
        return wrapper
    return deco


def _require(path: Path, stage: str, producer: str) -> None:
    if not path.exists():
        raise StageError(stage, f"missing {path.name}; run {producer} first")


def _match(found: str, cfg: PipelineConfig, stage: str, name: str) -> None:
    if found != cfg.digest():
        raise StageError(stage, f"{name} carries config digest {found[:12]}, "
                                f"expected {cfg.digest()[:12]}; rerun "
                                "upstream stages with this config")


def _encode_threshold(value: float) -> float | str:
    # JSON has no Infinity; the sentinel survives strict parsers.
    return "inf" if math.isinf(value) else float(value)


# ---------------------------------------------------------- array artifacts

def _save(path: Path, digest: str, **arrays) -> None:
    """Write arrays plus the config digest as one uncompressed .npz.

    The file appears under its name only once complete, so a crash
    leaves the previous artifact (or none), never a partial one."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            np.savez(fh, digest=np.bytes_(digest.encode("ascii")), **arrays)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _load(cfg: PipelineConfig, stage: str, path: Path, producer: str,
          ids: list[int] | None = None) -> dict[str, np.ndarray]:
    """Every array of an artifact written by _save, checked for presence,
    readability, config digest and, given ``ids``, id coverage."""
    _require(path, stage, producer)
    try:
        with np.load(path, allow_pickle=False) as npz:
            arrays = {key: npz[key] for key in npz.files}
    except (OSError, ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise StageError(stage, f"cannot read {path.name} ({exc}); "
                                f"rerun {producer}") from exc
    digest = arrays.pop("digest", np.bytes_(b"")).tobytes()
    _match(digest.decode("ascii", "replace"), cfg, stage, path.name)
    if ids is not None and not np.array_equal(arrays.get("ids"), ids):
        raise StageError(stage, f"{path.name} does not cover the "
                                f"{len(ids)} messages of dataset.jsonl in "
                                f"order; rerun {producer}")
    return arrays


def _to_csr(M: np.ndarray) -> dict[str, np.ndarray]:
    """CSR arrays of a dense matrix; every entry other than +0.0 is kept,
    so _from_csr restores the matrix bit for bit."""
    rows, cols = np.nonzero((M != 0.0) | np.signbit(M))
    indptr = np.zeros(M.shape[0] + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=M.shape[0]), out=indptr[1:])
    return {"shape": np.array(M.shape, dtype=np.int64), "indptr": indptr,
            "indices": cols.astype(np.int64), "data": M[rows, cols]}


def _from_csr(arrays: dict[str, np.ndarray]) -> np.ndarray:
    n, d = (int(v) for v in arrays["shape"])
    M = np.zeros((n, d))
    rows = np.repeat(np.arange(n), np.diff(arrays["indptr"]))
    M[rows, arrays["indices"]] = arrays["data"]
    return M


def _load_csr(cfg, stage, path, producer, ids, n_columns):
    """(dense matrix, all arrays) of a CSR artifact with one row per id
    and one column per feature of space.json."""
    arrays = _load(cfg, stage, path, producer, ids)
    shape = tuple(arrays["shape"].tolist()) if "shape" in arrays else ()
    if shape != (len(ids), n_columns):
        raise StageError(stage, f"{path.name} holds a {shape} matrix, "
                                f"expected ({len(ids)}, {n_columns}); "
                                f"rerun {producer}")
    try:
        return _from_csr(arrays), arrays
    except (KeyError, ValueError, IndexError) as exc:
        raise StageError(stage, f"{path.name} holds no valid CSR matrix "
                                f"({exc}); rerun {producer}") from exc


# ---------------------------------------------------------------- loading

def _load_dataset(cfg, stage) -> list[corpus.Message]:
    p = paths_for(cfg)
    _require(p.dataset, stage, "prepare")
    messages, digest = corpus.read_dataset(p.dataset)
    _match(digest, cfg, stage, "dataset.jsonl")
    return messages

def _load_space(cfg, stage) -> features.FeatureSpace:
    p = paths_for(cfg)
    _require(p.space, stage, "prepare")
    space = features.read_space(p.space)
    _match(space.config_digest, cfg, stage, "space.json")
    return space

def _load_vectors(cfg, stage, ids, space) -> np.ndarray:
    return _load_csr(cfg, stage, paths_for(cfg).vectors, "prepare", ids,
                     space.n_columns)[0]

def _load_phi(cfg, stage, ids, space) -> np.ndarray:
    return _load_csr(cfg, stage, paths_for(cfg).shap, "explain", ids,
                     space.n_columns)[0]

def _load_model(cfg, stage):
    p = paths_for(cfg)
    _require(p.model, stage, "train")
    model = classifiers.read_model(p.model)
    _match(model.config_digest, cfg, stage, "model.json")
    return model

def _load_topics(cfg, stage, polarity) -> profiling.TopicModel:
    p = paths_for(cfg)
    _require(p.topics(polarity), stage, "profile")
    model = profiling.read_topics(p.topics(polarity))
    _match(model.config_digest, cfg, stage, f"topics_{polarity}.json")
    return model

def _load_profiles(cfg, stage) -> np.ndarray:
    """(2, R, M) group profiles, TN at index 0 and TP at 1, NaN for NA."""
    p = paths_for(cfg)
    _require(p.profiles, stage, "profile")
    groups, digest = profiling.read_profiles(p.profiles)
    _match(digest, cfg, stage, "profiles.json")
    na = np.full(cfg.n_topics, np.nan)
    reps = [groups[group]["representations"] for group in ("TN", "TP")]
    return np.array([[na if r.get(name) is None else r[name]
                      for name in REPRESENTATIONS] for r in reps])


# ---------------------------------------------------------------- prepare

@_stage("prepare")
def cmd_prepare(cfg: PipelineConfig) -> None:
    if not cfg.dataset_path:
        raise StageError("prepare", "config has no dataset_path")
    p = paths_for(cfg)
    p.out.mkdir(parents=True, exist_ok=True)
    digest = cfg.digest()

    messages = corpus.load_dataset(
        cfg.dataset_path, format=cfg.dataset_format,
        label_column=cfg.label_column, text_column=cfg.text_column,
        label_map=cfg.label_map)
    train, test = corpus.split(messages, cfg.split_ratio, cfg.seed)
    everyone = sorted(train + test, key=lambda m: m.id)

    stop = (corpus.default_stoplist() if cfg.stoplist == "default"
            else frozenset())
    train_df = corpus.document_frequencies(
        [corpus.TokenizedMessage(m.id, corpus.tokenize(m.text))
         for m in train])
    tokenized = {m.id: corpus.preprocess(m, stop, train_df, cfg.min_df)
                 for m in everyone}

    space = features.fit_space(
        [tokenized[m.id] for m in train],
        word_quota=cfg.word_quota, phrase_quota=cfg.phrase_quota,
        config_digest=digest)
    X = np.zeros((len(everyone), space.n_columns))
    for row, m in enumerate(everyone):
        values = features.vectorize(tokenized[m.id], m, space).values
        X[row, list(values)] = list(values.values())

    corpus.write_dataset(p.dataset, everyone, digest)
    features.write_space(p.space, space)
    _save(p.vectors, digest, ids=np.array([m.id for m in everyone]),
          **_to_csr(X))


# ------------------------------------------------------------------ train

def _split_ids(messages) -> tuple[list[corpus.Message], list[corpus.Message]]:
    train = [m for m in messages if m.split == "train"]
    test = [m for m in messages if m.split == "test"]
    return train, test


@_stage("train")
def cmd_train(cfg: PipelineConfig) -> None:
    p = paths_for(cfg)
    messages = _load_dataset(cfg, "train")
    ids = [m.id for m in messages]
    space = _load_space(cfg, "train")
    X = _load_vectors(cfg, "train", ids, space)
    row_of = {msg_id: i for i, msg_id in enumerate(ids)}

    train, _ = _split_ids(messages)
    if cfg.subsample_train:
        train = corpus.subsample_majority(train, cfg.seed)
    X_train = X[[row_of[m.id] for m in train]]
    y_train = np.array([m.label for m in train])

    digest = cfg.digest()
    if cfg.classifier == "logreg":
        model = classifiers.train_logreg(
            X_train, y_train, l2_strength=cfg.l2_strength,
            epochs=cfg.epochs, seed=cfg.seed, config_digest=digest)
    elif cfg.classifier == "svm":
        model = classifiers.train_svm(
            X_train, y_train, C=cfg.svm_c, epochs=cfg.svm_epochs,
            seed=cfg.seed, config_digest=digest)
    else:
        model = classifiers.train_nb(
            X_train, y_train, alpha=cfg.nb_alpha,
            structural_start=space.structural_start, seed=cfg.seed,
            config_digest=digest)
    classifiers.write_model(p.model, model)


# ---------------------------------------------------------------- explain

@_stage("explain")
def cmd_explain(cfg: PipelineConfig) -> None:
    p = paths_for(cfg)
    messages = _load_dataset(cfg, "explain")
    ids = [m.id for m in messages]
    space = _load_space(cfg, "explain")
    X = _load_vectors(cfg, "explain", ids, space)
    model = _load_model(cfg, "explain")
    row_of = {msg_id: i for i, msg_id in enumerate(ids)}

    train, _ = _split_ids(messages)
    X_train = X[[row_of[m.id] for m in train]]
    y_train = np.array([m.label for m in train])
    train_ids = [m.id for m in train]

    linear = cfg.classifier == "logreg" or (
        cfg.classifier == "nb" and cfg.nb_linear_attribution)

    if linear:
        # Exact linear attributions against the training mean, dense by
        # construction.
        background = attribution.make_background(
            X_train, y_train, train_ids, size=len(train_ids), seed=cfg.seed)
        Phi, base = attribution.linear_shap(model, X, background.mean)
        base_values = np.full(len(ids), base)
        explained = "margin"
    else:
        background = attribution.make_background(
            X_train, y_train, train_ids, size=cfg.background_size,
            seed=cfg.seed)

        def predict_fn(rows: np.ndarray) -> np.ndarray:
            return classifiers.probability_function(model, rows)

        Phi = np.zeros(X.shape)
        base_values = np.empty(len(ids))
        for i, msg_id in enumerate(ids):
            shap = attribution.kernel_shap(
                predict_fn, X[i], background,
                n_coalitions=cfg.n_coalitions, seed=cfg.seed, msg_id=msg_id)
            Phi[i, list(shap.phi)] = list(shap.phi.values())
            base_values[i] = shap.base_value
        explained = "probability"

    _save(p.shap, cfg.digest(), ids=np.array(ids), base_values=base_values,
          explained_output=np.array(explained),
          background_ids=np.array(background.ids, dtype=np.int64),
          background_digest=np.array(background.digest()), **_to_csr(Phi))


# ---------------------------------------------------------------- profile

def _reliable_groups(messages, preds) -> dict[str, np.ndarray]:
    """Row masks of the correctly classified train-split messages, per
    group."""
    gold = np.array([m.label for m in messages])
    train = np.array([m.split == "train" for m in messages])
    reliable = train & (preds.label == gold)
    return {"TP": reliable & (gold == 1), "TN": reliable & (gold == 0)}


POLARITY_OF_GROUP = {"TP": "plus", "TN": "minus"}


def _representations(tc, group_tc, H, cfg):
    """representations() of the rows of tc against a reliable group whose
    members have topic contributions group_tc."""
    s = uncertainty.evidence_scale(group_tc) if len(group_tc) else 1.0
    return uncertainty.representations(
        tc, s, H, cfg.k_related, cfg.temperature,
        uncertainty.original(group_tc)[0], cfg.k_nn)


@_stage("profile")
def cmd_profile(cfg: PipelineConfig) -> None:
    p = paths_for(cfg)
    messages = _load_dataset(cfg, "profile")
    ids = [m.id for m in messages]
    space = _load_space(cfg, "profile")
    X = _load_vectors(cfg, "profile", ids, space)
    model = _load_model(cfg, "profile")
    groups = _reliable_groups(messages, classifiers.predict_all(model, X))
    reliable = groups["TP"] | groups["TN"]
    if not reliable.any():
        raise StageError("profile", "no correctly classified training "
                                    "messages to profile")
    reliable_phi = _load_phi(cfg, "profile", ids, space)[reliable]
    digest = cfg.digest()
    families = space.families()

    profiles: dict[str, dict[str, list[float] | None]] = {}
    for group, polarity in POLARITY_OF_GROUP.items():
        supports = attribution.polarity_supports(reliable_phi, polarity)
        stats = profiling.feature_stats(supports)
        r = profiling.rank_score(stats, cfg.tau_p)
        columns = profiling.select_top(r, families, cfg.rho, cfg.k_top)
        matrix = profiling.build_matrix(supports, columns)
        _, H, trace = profiling.nmf(matrix, cfg.n_topics,
                                    max_iters=cfg.nmf_max_iters,
                                    tol=cfg.nmf_tol, seed=cfg.seed)
        assignment = profiling.assign_topics(H)
        profiling.write_topics(p.topics(polarity), profiling.TopicModel(
            polarity=polarity, columns=columns, H=H, assignment=assignment,
            objective=trace[-1], seed=cfg.seed, config_digest=digest))

        tcs = profiling.topic_contributions(
            matrix[groups[group][reliable]], assignment, cfg.n_topics)
        profiles[group] = _reliable_profile(tcs, H, cfg)

    profiling.write_profiles(p.profiles, profiles, POLARITY_OF_GROUP, digest)


def _reliable_profile(tcs, H, cfg) -> dict[str, list | None]:
    """All eight representation profiles of one reliable group.

    The profile is each representation's transform applied to the group's
    mean topic contribution; an empty or massless group has no reference
    distribution, so every representation goes NA."""
    mean_tc = tcs.mean(axis=0) if len(tcs) else np.zeros(tcs.shape[-1])
    if mean_tc.sum() <= 0.0:
        return {name: None for name in REPRESENTATIONS}
    vectors, _ = _representations(mean_tc[None, :], tcs, H, cfg)
    return {name: (None if np.isnan(vec).any() else vec.tolist())
            for name, vec in zip(REPRESENTATIONS, vectors[0])}


# ------------------------------------------------------------------ score

def _read_scores(cfg, stage) -> dict[str, np.ndarray]:
    """scores.npz columns, one entry per dataset message in id order; an
    NA xmap score is NaN."""
    # A missing score stage is reported before a missing dataset.
    _require(paths_for(cfg).scores, stage, "score")
    ids = [m.id for m in _load_dataset(cfg, stage)]
    return _load(cfg, stage, paths_for(cfg).scores, "score", ids)


@_stage("score")
def cmd_score(cfg: PipelineConfig) -> None:
    p = paths_for(cfg)
    messages = _load_dataset(cfg, "score")
    ids = [m.id for m in messages]
    space = _load_space(cfg, "score")
    X = _load_vectors(cfg, "score", ids, space)
    model = _load_model(cfg, "score")
    preds = classifiers.predict_all(model, X)
    profiles = _load_profiles(cfg, "score")
    topics = {polarity: _load_topics(cfg, "score", polarity)
              for polarity in ("plus", "minus")}
    Phi = _load_phi(cfg, "score", ids, space)
    groups = _reliable_groups(messages, preds)

    # Each message is represented on the polarity its own prediction
    # selects (positive -> spamward supports against the TP group,
    # negative -> hamward against TN); the reliable group's context comes
    # from the same topic contributions.
    n = len(ids)
    vectors = np.empty((n, len(REPRESENTATIONS), cfg.n_topics))
    degenerate = np.empty((n, len(REPRESENTATIONS)), dtype=bool)
    for group, polarity in POLARITY_OF_GROUP.items():
        rows = preds.label == (1 if group == "TP" else 0)
        topic = topics[polarity]
        supports = attribution.polarity_supports(Phi[rows][:, topic.columns],
                                                 polarity)
        tc = profiling.topic_contributions(supports, topic.assignment,
                                           cfg.n_topics)
        vectors[rows], degenerate[rows] = _representations(
            tc, tc[groups[group][rows]], topic.H, cfg)

    xmap = scoring.misclassification_score(vectors, profiles, preds.label)
    columns = {method: uncertainty.output_uq_score(preds.p_pos, method,
                                                   cfg.temperature)
               for method in BASE_METHODS}
    columns.update(zip(XMAP_COLUMNS, xmap.T))

    digest = cfg.digest()
    id_array = np.array(ids)
    _save(p.representations, digest, ids=id_array,
          names=np.array(REPRESENTATIONS), vectors=vectors,
          degenerate=degenerate)
    gold = np.array([m.label for m in messages])
    _save(p.scores, digest, ids=id_array,
          split=np.array([m.split for m in messages]), gold=gold,
          predicted=preds.label, p_pos=preds.p_pos,
          correct=preds.label == gold, **columns)


# --------------------------------------------------------------- evaluate

def _detector_metrics(scores: np.ndarray, flags: np.ndarray,
                      trr_fix: float) -> dict:
    kept = ~np.isnan(scores)
    arr, fl = scores[kept], flags[kept]
    if arr.size:
        area = scoring.auroc(arr, fl)
        frr = scoring.frr_at_trr(arr, fl, trr_fix)
        cutoff = scoring.trr_cutoff(arr, fl, trr_fix)
        n_true = int(np.sum((arr >= cutoff) & fl))
        n_false = int(np.sum((arr >= cutoff) & ~fl))
    else:
        area, frr, cutoff, n_true, n_false = None, None, math.inf, 0, 0
    return {
        "n_scored": int(arr.size),
        "n_na": int(scores.size - arr.size),
        "n_misclassified": int(fl.sum()),
        "auroc": area,
        "frr_at_trr": frr,
        "threshold": _encode_threshold(cutoff),
        "n_true_rejections": n_true,
        "n_false_rejections": n_false,
    }


@_stage("evaluate")
def cmd_evaluate(cfg: PipelineConfig) -> None:
    p = paths_for(cfg)
    scores = _read_scores(cfg, "evaluate")
    test = scores["split"] == "test"
    report = {"config_digest": cfg.digest(), "trr_fix": cfg.trr_fix,
              "subsets": {}}
    for subset, label in SUBSETS:
        part = test & (scores["predicted"] == label)
        flags = ~scores["correct"][part]
        detectors = {}
        for method in BASE_METHODS:
            detectors[method] = dict(kind="output_uq", **_detector_metrics(
                scores[method][part], flags, cfg.trr_fix))
        for col in XMAP_COLUMNS:
            detectors[col] = dict(kind="xmap", **_detector_metrics(
                scores[col][part], flags, cfg.trr_fix))
        report["subsets"][subset] = {
            "n": int(part.sum()),
            "n_misclassified": int(flags.sum()),
            "detectors": detectors,
        }
    with open(p.detector_report, "w", encoding="utf-8") as fh:
        json.dump(report, fh, sort_keys=True)
        fh.write("\n")


# ----------------------------------------------------------------- repair

@_stage("repair")
def cmd_repair(cfg: PipelineConfig) -> None:
    p = paths_for(cfg)
    if cfg.base_detector not in BASE_METHODS:
        raise StageError("repair", f"unknown base detector "
                                   f"{cfg.base_detector!r}")
    if cfg.repair_representation not in REPRESENTATIONS:
        raise StageError("repair", f"unknown repair representation "
                                   f"{cfg.repair_representation!r}")
    scores = _read_scores(cfg, "repair")
    ids = scores["ids"].tolist()
    test = scores["split"] == "test"
    train = scores["split"] == "train"
    misclassified = ~scores["correct"]

    rejections, subset_info = [], {}
    for subset, label in SUBSETS:
        part = test & (scores["predicted"] == label)
        rej = scoring.reject_set(scores[cfg.base_detector][part],
                                 misclassified[part],
                                 scores["ids"][part].tolist(), cfg.trr_fix)
        rejections.append(rej)
        subset_info[subset] = {
            "threshold": _encode_threshold(rej.threshold),
            "n_rejected": len(rej.rejected_ids),
            "n_true_rejections": len(rej.true_rejections),
            "n_false_rejections": len(rej.false_rejections),
        }

    polarity_of = {msg_id: ("plus" if label == 1 else "minus")
                   for msg_id, label, is_test
                   in zip(ids, scores["predicted"].tolist(), test) if is_test}
    per_rep = {}
    for rep, col in zip(REPRESENTATIONS, XMAP_COLUMNS):
        xmap = scores[col]
        taus = {}
        for polarity, label in (("plus", 1), ("minus", 0)):
            part = train & (scores["predicted"] == label) & ~np.isnan(xmap)
            taus[polarity] = scoring.calibrate_tau(
                xmap[part], misclassified[part], cfg.trr_fix)
        xmap_scores = {msg_id: (None if math.isnan(v) else v)
                       for msg_id, v, is_test
                       in zip(ids, xmap.tolist(), test) if is_test}
        rep_report = scoring.repair(rejections, xmap_scores, taus,
                                    polarity_of,
                                    base_detector=cfg.base_detector,
                                    representation=rep)
        per_rep[rep] = {
            "tau_plus": taus["plus"],
            "tau_minus": taus["minus"],
            "recov_r": rep_report.recov_r,
            "leak_r": rep_report.leak_r,
            "n_recovery": rep_report.n_recovery,
            "n_leakage": rep_report.n_leakage,
            "n_correct_fix": rep_report.n_correct_fix,
            "n_false_rejections": rep_report.n_false_rejections,
            "n_true_rejections": rep_report.n_true_rejections,
            "re_accepted_ids": list(rep_report.re_accepted_ids),
        }

    report = {
        "config_digest": cfg.digest(),
        "base_detector": cfg.base_detector,
        "repair_representation": cfg.repair_representation,
        "trr_fix": cfg.trr_fix,
        "subsets": subset_info,
        "representations": per_rep,
    }
    with open(p.repair_report, "w", encoding="utf-8") as fh:
        json.dump(report, fh, sort_keys=True)
        fh.write("\n")

    # Per-message outcome under the configured representation.
    rejected = set()
    for rej in rejections:
        rejected.update(rej.rejected_ids)
    re_accepted = set(per_rep[cfg.repair_representation]["re_accepted_ids"])
    outcome = ["repaired" if msg_id in re_accepted
               else "rejected" if msg_id in rejected else "accepted"
               for msg_id in ids]
    _save(p.outcomes, cfg.digest(), ids=scores["ids"],
          outcome=np.array(outcome))

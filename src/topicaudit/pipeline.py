"""Stage orchestration: each command is a pure function of the config
and upstream artifacts, so reruns are byte-identical.

PRODUCER names every artifact under the output directory and the stage
that writes it, and _path(cfg, name) is its file.  Every artifact is
stamped with the config digest (a mismatch refuses to combine) and
written through atomic.atomic_open, so a failed write leaves the
previous file in place.  Every .npz is written by _save and read by
_load only, the two JSON reports by _write_report and _read_report;
a reader names the file and its producer when it is missing, damaged
or stale, and _load_as also turns the arrays into the stage's object.
dataset.npz holds each message's id, gold label and split, the columns
every later stage keys on, plus the messages' UTF-8 text concatenated
in ``text`` and delimited by ``text_offsets`` (n + 1 entries, like a
CSR indptr); no stage reads the text back.  The other per-message .npz
files hold an ``ids`` array that must equal the dataset ids in order;
the (n, d) matrices X (vectors.npz) and a kernel run's phi (shap.npz)
are stored as CSR arrays ``shape, indptr, indices, data``.  A linear
run's phi = w * (t(X) - mu) is exact and elementwise, so its shap.npz
holds only the background mean ``mu`` and _load_phi rebuilds phi from
the model and X bit for bit.  A kernel run's phi comes from
attribution.kernel_explain, one worker process per available core when
numpy's BLAS runs one thread (the CLI's explain sets that), and is the
same bytes for any worker count.
scores.npz must hold SCORE_COLUMNS and each JSON report its REPORT_KEYS,
or the reader names the file and its producer.

evaluate and repair work on the scores.npz columns as they are: each
detector's rejections, and the recoveries and leakages of the repair
gate, are boolean masks over the same rows, so outcomes.npz and the
re-accepted ids are read straight off them.
"""

from __future__ import annotations

import functools
import json
import math
import zipfile
from pathlib import Path

import numpy as np

from . import attribution, classifiers, corpus, features, profiling, scoring
from . import uncertainty
from .atomic import atomic_open
from .config import PipelineConfig

BASE_METHODS = uncertainty.OUTPUT_UQ_METHODS
REPRESENTATIONS = uncertainty.REPRESENTATIONS
XMAP_COLUMNS = tuple(f"xmap_{rep}" for rep in REPRESENTATIONS)
SUBSETS = (("positive", 1), ("negative", 0))
# What evaluate, repair and report read: the scores.npz columns and the
# top-level keys of each JSON report.
SCORE_COLUMNS = ("split", "gold", "predicted", "correct", *BASE_METHODS,
                 *XMAP_COLUMNS)
REPORT_KEYS = {"detector_report.json": ("subsets", "trr_fix"),
               "repair_report.json": ("base_detector", "representations",
                                      "subsets")}

# Every artifact under the output directory, with the stage that writes it.
PRODUCER = {
    "dataset.npz": "prepare", "space.npz": "prepare",
    "vectors.npz": "prepare", "model.npz": "train", "shap.npz": "explain",
    "topics_plus.npz": "profile", "topics_minus.npz": "profile",
    "profiles.npz": "score", "representations.npz": "score",
    "scores.npz": "score", "detector_report.json": "evaluate",
    "repair_report.json": "repair", "outcomes.npz": "repair",
    "report.md": "report",
}


class StageError(RuntimeError):
    """A pipeline stage could not run; the message starts with its name."""


class ArtifactError(RuntimeError):
    """An artifact is missing, unreadable, stale or malformed; the message
    names the file and the stage to rerun."""


def _stage(name: str):
    """Wrap a stage so any module error surfaces with the stage name."""
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(cfg: PipelineConfig):
            try:
                return fn(cfg)
            except Exception as exc:
                raise StageError(f"[{name}] {exc}") from exc
        return wrapper
    return deco


def _path(cfg: PipelineConfig, name: str) -> Path:
    if name not in PRODUCER:
        raise KeyError(f"{name} is not a pipeline artifact")
    if not cfg.out_dir:
        raise ValueError("config has no output directory")
    return Path(cfg.out_dir) / name


def _require(cfg: PipelineConfig, name: str) -> Path:
    path = _path(cfg, name)
    if not path.exists():
        raise ArtifactError(f"missing {name}; run {PRODUCER[name]} first")
    return path


def _match(found: str, cfg: PipelineConfig, name: str) -> None:
    if found != cfg.digest():
        raise ArtifactError(f"{name} carries config digest {found[:12]}, "
                            f"expected {cfg.digest()[:12]}; rerun "
                            "upstream stages with this config")


def _unreadable(name: str, exc: Exception) -> ArtifactError:
    return ArtifactError(f"cannot read {name} ({exc}); rerun {PRODUCER[name]}")


def _check_keys(found, name: str, keys) -> None:
    missing = ", ".join(repr(key) for key in keys if key not in found)
    if missing:
        raise ArtifactError(f"{name} is malformed (missing {missing}); "
                            f"rerun {PRODUCER[name]}")


def _encode_threshold(value: float) -> float | str:
    # JSON has no Infinity; the sentinel survives strict parsers.
    return "inf" if math.isinf(value) else float(value)


# ---------------------------------------------------------- array artifacts

def _save(cfg: PipelineConfig, name: str, **arrays) -> None:
    """Write arrays plus the config digest as one uncompressed .npz,
    atomically."""
    with atomic_open(_path(cfg, name), "wb") as fh:
        np.savez(fh, digest=np.bytes_(cfg.digest().encode("ascii")),
                 **arrays)


def _load(cfg: PipelineConfig, name: str,
          ids: np.ndarray | None = None) -> dict[str, np.ndarray]:
    """Every array of an artifact written by _save, checked for presence,
    readability, config digest and, given ``ids``, id coverage."""
    path = _require(cfg, name)
    try:
        with np.load(path, allow_pickle=False) as npz:
            arrays = {key: npz[key] for key in npz.files}
    except (OSError, ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise _unreadable(name, exc) from exc
    digest = arrays.pop("digest", np.bytes_(b"")).tobytes()
    _match(digest.decode("ascii", "replace"), cfg, name)
    if ids is not None and not np.array_equal(arrays.get("ids"), ids):
        raise ArtifactError(f"{name} does not cover the {len(ids)} messages "
                            f"of dataset.npz in order; rerun {PRODUCER[name]}")
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


def _load_as(build, cfg, name, ids=None):
    """build(fields) of an artifact written by _save, where fields are
    its arrays with 0-d ones as Python scalars; a missing or malformed
    key names the file and its producer."""
    arrays = _load(cfg, name, ids)
    fields = {key: a.item() if a.ndim == 0 else a
              for key, a in arrays.items()}
    try:
        return build(fields)
    except (KeyError, TypeError, ValueError, IndexError,
            AttributeError) as exc:
        raise ArtifactError(f"{name} is malformed ({exc!r}); "
                            f"rerun {PRODUCER[name]}") from exc


def _csr_matrix(fields, n_rows, n_columns) -> np.ndarray:
    """The dense matrix of CSR fields, which must be (n_rows, n_columns)."""
    shape = tuple(fields["shape"].tolist())
    if shape != (n_rows, n_columns):
        raise ValueError(f"a {shape} matrix, expected "
                         f"({n_rows}, {n_columns})")
    return _from_csr(fields)


# ---------------------------------------------------------------- loading

def _load_dataset(cfg) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(ids, gold labels, splits) of the prepared messages in id order,
    the row order of every per-message array."""
    def build(f):
        columns = f["ids"], f["gold"], f["split"]
        if len({len(c) for c in columns}) != 1:
            raise ValueError("ids, gold and split differ in length")
        return columns
    return _load_as(build, cfg, "dataset.npz")

def _save_space(cfg, space) -> None:
    _save(cfg, "space.npz", word_vocab=np.array(list(space.word_vocab), str),
          phrase_vocab=np.array(list(space.phrase_vocab), str),
          idf=space.idf)

def _load_space(cfg) -> features.FeatureSpace:
    def build(f):
        vocabs = {name: {t: i for i, t in enumerate(f[name].tolist())}
                  for name in ("word_vocab", "phrase_vocab")}
        return features.FeatureSpace(idf=f["idf"], **vocabs)
    return _load_as(build, cfg, "space.npz")

def _load_vectors(cfg, ids, space) -> np.ndarray:
    return _load_as(lambda f: _csr_matrix(f, len(ids), space.n_columns),
                    cfg, "vectors.npz", ids)

def _load_phi(cfg, ids, space, model, X) -> np.ndarray:
    """The (n, d) attributions explain computed: stored as CSR for a
    probability (kernel) run, rebuilt from the stored background mean
    for a margin (linear) run."""
    def build(f):
        if f["explained_output"] == "probability":
            return _csr_matrix(f, len(ids), space.n_columns)
        if f["explained_output"] != "margin":
            raise ValueError(f"explained_output {f['explained_output']!r}")
        return attribution.linear_shap(model, X, f["mu"])[0]
    return _load_as(build, cfg, "shap.npz", ids)

def _save_model(cfg, model) -> None:
    """kind plus every field the model sets; an NBModel has no kind
    field, a logreg model no calibration."""
    fields = {"kind": "nb", **vars(model)}
    _save(cfg, "model.npz",
          **{key: value for key, value in fields.items() if value is not None})

def _load_model(cfg) -> classifiers.LinearModel | classifiers.NBModel:
    def build(f):
        kind = f.pop("kind")
        if kind == "nb":
            return classifiers.NBModel(**f)
        if "calibration" in f:
            f["calibration"] = tuple(f["calibration"].tolist())
        return classifiers.LinearModel(kind=kind, **f)
    return _load_as(build, cfg, "model.npz")

def _load_topics(cfg, polarity) -> profiling.TopicModel:
    return _load_as(lambda f: profiling.TopicModel(**f), cfg,
                    f"topics_{polarity}.npz")


# ---------------------------------------------------------------- prepare

@_stage("prepare")
def cmd_prepare(cfg: PipelineConfig) -> None:
    if not cfg.dataset_path:
        raise ValueError("config has no dataset_path")
    _path(cfg, "dataset.npz").parent.mkdir(parents=True, exist_ok=True)

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
        word_quota=cfg.word_quota, phrase_quota=cfg.phrase_quota)
    X = np.zeros((len(everyone), space.n_columns))
    for row, m in enumerate(everyone):
        values = features.vectorize(tokenized[m.id], m, space).values
        X[row, list(values)] = list(values.values())

    ids = np.array([m.id for m in everyone])
    texts = [m.text.encode("utf-8") for m in everyone]
    offsets = np.zeros(len(texts) + 1, dtype=np.int64)
    np.cumsum([len(t) for t in texts], out=offsets[1:])
    _save(cfg, "dataset.npz", ids=ids,
          gold=np.array([m.label for m in everyone]),
          split=np.array([m.split for m in everyone]),
          text=np.frombuffer(b"".join(texts), dtype=np.uint8),
          text_offsets=offsets)
    _save_space(cfg, space)
    _save(cfg, "vectors.npz", ids=ids, **_to_csr(X))


# ------------------------------------------------------------------ train

@_stage("train")
def cmd_train(cfg: PipelineConfig) -> None:
    ids, gold, split = _load_dataset(cfg)
    space = _load_space(cfg)
    X = _load_vectors(cfg, ids, space)
    train = split == "train"
    if cfg.subsample_train:
        train[train] = corpus.subsample_majority(gold[train], cfg.seed)
    X_train, y_train = X[train], gold[train]

    if cfg.classifier == "logreg":
        model = classifiers.train_logreg(
            X_train, y_train, l2_strength=cfg.l2_strength, epochs=cfg.epochs)
    elif cfg.classifier == "svm":
        model = classifiers.train_svm(
            X_train, y_train, C=cfg.svm_c, epochs=cfg.svm_epochs)
    else:
        model = classifiers.train_nb(
            X_train, y_train, alpha=cfg.nb_alpha,
            structural_start=space.structural_start)
    _save_model(cfg, model)


# ---------------------------------------------------------------- explain

@_stage("explain")
def cmd_explain(cfg: PipelineConfig) -> None:
    ids, gold, split = _load_dataset(cfg)
    space = _load_space(cfg)
    X = _load_vectors(cfg, ids, space)
    model = _load_model(cfg)
    train = split == "train"
    X_train, y_train = X[train], gold[train]
    train_ids = ids[train].tolist()

    linear = cfg.classifier == "logreg" or (
        cfg.classifier == "nb" and cfg.nb_linear_attribution)

    if linear:
        # Exact linear attributions against the training mean: phi is
        # dense but elementwise in X, so only mu is stored and _load_phi
        # rebuilds it.  The base value depends on mu alone.
        background = attribution.make_background(
            X_train, y_train, train_ids, size=len(train_ids), seed=cfg.seed)
        mu = background.mean
        base = attribution.linear_shap(model, mu, mu)[1]
        base_values = np.full(len(ids), base)
        explained, stored = "margin", {"mu": mu}
    else:
        background = attribution.make_background(
            X_train, y_train, train_ids, size=cfg.background_size,
            seed=cfg.seed)
        stored, base_values = attribution.kernel_explain(
            model, X, background, ids, n_coalitions=cfg.n_coalitions,
            seed=cfg.seed)
        explained = "probability"

    _save(cfg, "shap.npz", ids=ids, base_values=base_values,
          explained_output=np.array(explained),
          background_ids=np.array(background.ids, dtype=np.int64),
          background_digest=np.array(background.digest()), **stored)


# ---------------------------------------------------------------- profile

# The polarity of each label's supports: hamward for 0, spamward for 1.
POLARITIES = ("minus", "plus")


def _reliable_groups(gold, split, preds) -> tuple[np.ndarray, np.ndarray]:
    """Row masks of the correctly classified train-split messages, TN and
    TP, indexed by label."""
    reliable = (split == "train") & (preds.label == gold)
    return reliable & (gold == 0), reliable & (gold == 1)


@_stage("profile")
def cmd_profile(cfg: PipelineConfig) -> None:
    ids, gold, split = _load_dataset(cfg)
    space = _load_space(cfg)
    X = _load_vectors(cfg, ids, space)
    model = _load_model(cfg)
    tn, tp = _reliable_groups(gold, split, classifiers.predict_all(model, X))
    reliable = tn | tp
    if not reliable.any():
        raise ValueError("no correctly classified training messages to "
                         "profile")
    reliable_phi = _load_phi(cfg, ids, space, model, X)[reliable]
    families = space.families()

    for polarity in POLARITIES:
        supports = attribution.polarity_supports(reliable_phi, polarity)
        stats = profiling.feature_stats(supports)
        r = profiling.rank_score(stats, cfg.tau_p)
        columns = profiling.select_top(r, families, cfg.rho, cfg.k_top)
        matrix = profiling.build_matrix(supports, columns)
        _, H, trace = profiling.nmf(matrix, cfg.n_topics,
                                    max_iters=cfg.nmf_max_iters,
                                    tol=cfg.nmf_tol, seed=cfg.seed)
        assignment = profiling.assign_topics(H)
        _save(cfg, f"topics_{polarity}.npz", columns=columns, H=H,
              assignment=assignment, objective=trace[-1])


# ------------------------------------------------------------------ score

def _representations(tc, group_tc, H, cfg):
    """representations() of the rows of tc against a reliable group whose
    members have topic contributions group_tc."""
    s = uncertainty.evidence_scale(group_tc) if len(group_tc) else 1.0
    return uncertainty.representations(
        tc, s, H, cfg.k_related, cfg.temperature,
        uncertainty.original(group_tc)[0], cfg.k_nn)


def _reliable_profile(tcs, H, cfg) -> np.ndarray:
    """All eight representation profiles of one reliable group, (R, M)
    in REPRESENTATIONS order with an all-NaN row for NA.

    The profile is each representation's transform applied to the group's
    mean topic contribution; an empty or massless group has no reference
    distribution, so every representation goes NA."""
    mean_tc = tcs.mean(axis=0) if len(tcs) else np.zeros(tcs.shape[-1])
    if mean_tc.sum() <= 0.0:
        return np.full((len(REPRESENTATIONS), tcs.shape[-1]), np.nan)
    return _representations(mean_tc[None, :], tcs, H, cfg)[0][0]


def _read_scores(cfg) -> dict[str, np.ndarray]:
    """scores.npz columns, one entry per dataset message in id order and
    every one of SCORE_COLUMNS present; an NA xmap score is NaN."""
    # A missing score stage is reported before a missing dataset.
    _require(cfg, "scores.npz")
    scores = _load(cfg, "scores.npz", _load_dataset(cfg)[0])
    _check_keys(scores, "scores.npz", SCORE_COLUMNS)
    return scores


@_stage("score")
def cmd_score(cfg: PipelineConfig) -> None:
    ids, gold, split = _load_dataset(cfg)
    space = _load_space(cfg)
    X = _load_vectors(cfg, ids, space)
    model = _load_model(cfg)
    preds = classifiers.predict_all(model, X)
    Phi = _load_phi(cfg, ids, space, model, X)
    groups = _reliable_groups(gold, split, preds)

    # Each message is represented on the polarity its own prediction
    # selects (positive -> spamward supports against the TP group,
    # negative -> hamward against TN); the reliable group's profile and
    # context come from the same topic contributions.
    n = len(ids)
    vectors = np.empty((n, len(REPRESENTATIONS), cfg.n_topics))
    degenerate = np.empty((n, len(REPRESENTATIONS)), dtype=bool)
    profiles = np.empty((len(POLARITIES), len(REPRESENTATIONS), cfg.n_topics))
    for label, polarity in enumerate(POLARITIES):
        rows = preds.label == label
        topic = _load_topics(cfg, polarity)
        supports = attribution.polarity_supports(Phi[rows][:, topic.columns],
                                                 polarity)
        tc = profiling.topic_contributions(supports, topic.assignment,
                                           cfg.n_topics)
        group_tc = tc[groups[label][rows]]
        profiles[label] = _reliable_profile(group_tc, topic.H, cfg)
        vectors[rows], degenerate[rows] = _representations(
            tc, group_tc, topic.H, cfg)

    xmap = scoring.misclassification_score(vectors, profiles, preds.label)
    columns = {method: uncertainty.output_uq_score(preds.p_pos, method,
                                                   cfg.temperature)
               for method in BASE_METHODS}
    columns.update(zip(XMAP_COLUMNS, xmap.T))

    names = np.array(REPRESENTATIONS)
    _save(cfg, "profiles.npz", names=names, vectors=profiles)
    _save(cfg, "representations.npz", ids=ids, names=names,
          vectors=vectors, degenerate=degenerate)
    _save(cfg, "scores.npz", ids=ids, split=split, gold=gold,
          predicted=preds.label, p_pos=preds.p_pos,
          correct=preds.label == gold, **columns)


# --------------------------------------------------------------- evaluate

def _write_report(cfg: PipelineConfig, name: str, report: dict) -> None:
    with atomic_open(_path(cfg, name)) as fh:
        json.dump(report, fh, sort_keys=True)
        fh.write("\n")


def _read_report(cfg: PipelineConfig, name: str) -> dict:
    """A report written by _write_report, checked like _load checks an
    .npz: present, a JSON object, stamped with this config's digest, and
    holding its REPORT_KEYS."""
    path = _require(cfg, name)
    try:
        with open(path, encoding="utf-8") as fh:
            report = json.load(fh)
        if not isinstance(report, dict):
            raise ValueError(f"a JSON {type(report).__name__}, not an object")
    except (OSError, ValueError) as exc:
        raise _unreadable(name, exc) from exc
    _match(str(report.get("config_digest", "")), cfg, name)
    _check_keys(report, name, REPORT_KEYS[name])
    return report


def _rejections(scores: np.ndarray, flags: np.ndarray,
                trr_fix: float) -> tuple[np.ndarray, dict]:
    """The rejected mask at the TRR cutoff and its report entries."""
    cutoff, rejected = scoring.rejected_at_trr(scores, flags, trr_fix)
    return rejected, {"threshold": _encode_threshold(cutoff),
                      "n_true_rejections": int(np.sum(rejected & flags)),
                      "n_false_rejections": int(np.sum(rejected & ~flags))}


def _detector_metrics(scores: np.ndarray, flags: np.ndarray,
                      trr_fix: float) -> dict:
    kept = ~np.isnan(scores)
    arr, fl = scores[kept], flags[kept]
    return {
        "n_scored": int(arr.size),
        "n_na": int(scores.size - arr.size),
        "n_misclassified": int(fl.sum()),
        "auroc": scoring.auroc(arr, fl),
        "frr_at_trr": scoring.frr_at_trr(arr, fl, trr_fix),
        **_rejections(arr, fl, trr_fix)[1],
    }


@_stage("evaluate")
def cmd_evaluate(cfg: PipelineConfig) -> None:
    scores = _read_scores(cfg)
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
    _write_report(cfg, "detector_report.json", report)


# ----------------------------------------------------------------- repair

@_stage("repair")
def cmd_repair(cfg: PipelineConfig) -> None:
    scores = _read_scores(cfg)
    test = scores["split"] == "test"
    train = scores["split"] == "train"
    predicted = scores["predicted"]
    misclassified = ~scores["correct"]

    # One mask over every row: the base detector's rejections in each
    # test subset at that subset's own cutoff.
    rejected = np.zeros_like(test)
    subset_info = {}
    for subset, label in SUBSETS:
        part = test & (predicted == label)
        rejected[part], counts = _rejections(
            scores[cfg.base_detector][part], misclassified[part], cfg.trr_fix)
        subset_info[subset] = dict(counts,
                                   n_rejected=int(rejected[part].sum()))

    per_rep, re_accepted = {}, {}
    for rep, col in zip(REPRESENTATIONS, XMAP_COLUMNS):
        xmap = scores[col]
        tau = {}
        for label in (1, 0):
            part = train & (predicted == label) & ~np.isnan(xmap)
            tau[label] = scoring.calibrate_tau(
                xmap[part], misclassified[part], cfg.trr_fix)
        recovered, leaked, per_rep[rep] = scoring.repair(
            rejected, misclassified, xmap, predicted,
            tau_plus=tau[1], tau_minus=tau[0])
        re_accepted[rep] = recovered | leaked
        per_rep[rep]["re_accepted_ids"] = (
            scores["ids"][re_accepted[rep]].tolist())

    _write_report(cfg, "repair_report.json", {
        "config_digest": cfg.digest(),
        "base_detector": cfg.base_detector,
        "repair_representation": cfg.repair_representation,
        "trr_fix": cfg.trr_fix,
        "subsets": subset_info,
        "representations": per_rep,
    })

    # Per-message outcome under the configured representation.
    outcome = np.where(re_accepted[cfg.repair_representation], "repaired",
                       np.where(rejected, "rejected", "accepted"))
    _save(cfg, "outcomes.npz", ids=scores["ids"], outcome=outcome)

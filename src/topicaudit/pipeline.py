"""Stage orchestration: each command is a pure function of the config
and upstream artifacts, so reruns are byte-identical.

ARTIFACTS names every artifact under the output directory, the stage
that writes it and its layout, the one statement of each archive's
members, dtype kinds, shapes and NA floats; _path(cfg, name) is its
file.  _save writes each, a deflated .npz or, for the two reports, a
JSON object, stamped with the config digest (a mismatch refuses to
combine) and atomically, so a failed write leaves the previous file in
place.  Every stage writes one file, so an interrupted rerun leaves its
previous outputs whole.  _load reads both, and undeflated
archives of earlier runs, decoding only the members a stage reads, and
names the file and its producer when it is missing, damaged, stale, off
its layout or not finite outside NA; a loader adds only the checks a
layout cannot state.
prepare keeps the corpus as arrays in file-row order, so a message's id
is its row in every per-message array: dataset.npz is the one record of
each message's gold label and split, both boolean, and holds the
messages' text, which no stage reads back, the feature space and the
(n, d) matrix X, as the CSR arrays features.vectorize emits, which
_load_features loads as features.CSR.  Lists of strings are stored by
_utf8.  profile writes both polarities' topics to topics.npz, each
member suffixed with its polarity: the selected columns, H and the NMF
objective, not each column's topic, which score derives from H.  No
stage after prepare holds X or phi dense: each asks for the dense rows
and columns it reads, which equal the same slice of the dense matrix
bit for bit.  train and explain densify column blocks of the training
rows (a kernel explain one message at a time), and profile and score
each polarity's rows and selected columns of phi.

shap.npz stores only phi's inputs.  It holds neither a column index of
phi nor the background rows (every training row for a linear run, the
sample attribution.background_rows draws for a kernel run), only their
mean ``mu``, and no base value or name of the explained output: _linear
decides between the two from the config, for explain and _load_phi
alike.  A linear run's phi = w * (t(X) - t(mu)) is exact and
elementwise, and _load_phi rebuilds any slice of it from the same slice
of X.  A kernel run's phi comes from attribution.kernel_explain, one
worker process per available core when numpy's BLAS runs one thread
(the CLI sets that for every stage), and is the same bytes for any
worker count; shap.npz adds ``data``, the values of each message's
active columns, where X deviates from mu, row after row.

score stores in scores.npz each message's p_pos and topic contributions,
not the representations derived from them, and of their xmap columns
only xmap_rel_u: rel_u alone searches the reliable group's
distributions for each message's neighbours.  _xmap_columns is the one
derivation of an xmap column and of the group profile it is scored
against: the rows predicted each label are represented at once and
scored against that label's profile in one broadcast js_divergence
call, and the rows of a group without a profile stay NA; _load_scores
adds the other seven through it from the contributions and both topics'
H, and the predicted label and the output-uncertainty columns,
functions of p_pos alone, with dataset.npz's labels and train mask.
Each detector's rejections, and the recoveries and leakages of the repair
gate, are boolean masks over the same rows, so the re-accepted ids are
read straight off them; repair_report.json stores each subset's cutoff
and those ids, from which a message's fate under any representation
follows without another file.
"""

from __future__ import annotations

import functools
import json
import math
import zipfile
import zlib
from pathlib import Path

import numpy as np

from . import attribution, classifiers, corpus, features, profiling, scoring
from . import uncertainty
from .atomic import atomic_open
from .config import PipelineConfig

BASE_METHODS = uncertainty.OUTPUT_UQ_METHODS
REPRESENTATIONS = uncertainty.REPRESENTATIONS
XMAP_COLUMNS = tuple(f"xmap_{rep}" for rep in REPRESENTATIONS)
# The xmap columns every reader of scores.npz derives; score stores the
# rest, xmap_rel_u.
TOPIC_COLUMNS = tuple(f"xmap_{rep}"
                      for rep in uncertainty.TOPIC_REPRESENTATIONS)
SUBSETS = (("positive", 1), ("negative", 0))
# The polarity of each label's supports: hamward for 0, spamward for 1.
POLARITIES = ("minus", "plus")

OPTIONAL, NA = "optional", "na"

# Every artifact under the output directory: the stage that writes it,
# and its layout.  A JSON report's is the top-level keys its readers
# need.  An .npz's maps every member but the digest to its dtype kind
# and shape, an entry per axis: an int is that size; n, d and M are the
# messages, columns and topics a reader passes to _load (M is n_topics);
# any other name is one size throughout the archive, and None any size:
# dataset.npz's d is its idf's width, and each polarity of topics.npz
# has its own column axis, k_minus or k_plus, since the quotas can leave
# the two at different widths.
# An OPTIONAL member is written by some runs only: svm's calibration,
# nb's structural bounds, a kernel run's phi values.  A float is finite
# but in an NA member, where NaN means not available; labels are bool.
# Per message, score keeps p_pos, the topic contributions, from which
# the readers derive every representation but rel_u and its group
# profiles, and xmap_rel_u, the one detector column that needs score's
# neighbour search.
ARTIFACTS = {
    "dataset.npz": ("prepare", {
        "gold": ("b", ("n",)), "train": ("b", ("n",)),
        "text": ("u", (None,)), "text_offsets": ("i", (None,)),
        "word_vocab": ("u", (None,)), "word_vocab_offsets": ("i", (None,)),
        "phrase_vocab": ("u", (None,)),
        "phrase_vocab_offsets": ("i", (None,)), "idf": ("f", ("d",)),
        "shape": ("i", (2,)), "indptr": ("i", (None,)),
        "indices": ("i", ("nnz",)), "data": ("f", ("nnz",))}),
    "model.npz": ("train", {
        "kind": ("U", ()), "weights": ("f", ("d",)), "bias": ("f", ()),
        "calibration": ("f", (2,), OPTIONAL),
        "structural_start": ("i", (), OPTIONAL),
        **dict.fromkeys(("struct_min", "struct_max"),
                        ("f", (None,), OPTIONAL))}),
    "shap.npz": ("explain", {"mu": ("f", ("d",)),
                             "data": ("f", (None,), OPTIONAL)}),
    "topics.npz": ("profile", {
        f"{key}_{p}": spec for p in POLARITIES for key, spec in (
            ("columns", ("i", (f"k_{p}",))), ("H", ("f", ("M", f"k_{p}"))),
            ("objective", ("f", ())))}),
    "scores.npz": ("score", {"p_pos": ("f", ("n",)),
                             "contributions": ("f", ("n", "M")),
                             "xmap_rel_u": ("f", ("n",), NA)}),
    "detector_report.json": ("evaluate", ("subsets", "trr_fix")),
    "repair_report.json": ("repair", ("base_detector", "representations",
                                      "subsets")),
    "report.md": ("report", ()),
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
    if name not in ARTIFACTS:
        raise KeyError(f"{name} is not a pipeline artifact")
    if not cfg.out_dir:
        raise ValueError("config has no output directory")
    return Path(cfg.out_dir) / name


def _require(cfg: PipelineConfig, name: str) -> Path:
    path = _path(cfg, name)
    if not path.exists():
        raise ArtifactError(f"missing {name}; run {ARTIFACTS[name][0]} first")
    return path


def _match(found: str, cfg: PipelineConfig, name: str) -> None:
    if found != cfg.digest():
        raise ArtifactError(f"{name} carries config digest {found[:12]}, "
                            f"expected {cfg.digest()[:12]}; rerun "
                            "upstream stages with this config")


def _malformed(name: str, problem: str) -> ArtifactError:
    """The error for a damaged artifact, naming the stage that rewrites
    it."""
    return ArtifactError(f"{name} is malformed ({problem}); rerun "
                         f"{ARTIFACTS[name][0]}")


def _encode_threshold(value: float) -> float | str:
    # JSON has no Infinity; the sentinel survives strict parsers.
    return "inf" if math.isinf(value) else float(value)


# -------------------------------------------------------------- artifacts

def _save(cfg: PipelineConfig, name: str, **fields) -> None:
    """Write fields plus the config digest atomically: a .json report as
    one JSON object with sorted keys, anything else as one .npz whose
    members are each deflated (zipfile.ZIP_DEFLATED)."""
    path = _path(cfg, name)
    if path.suffix == ".json":
        with atomic_open(path) as fh:
            json.dump({**fields, "config_digest": cfg.digest()}, fh,
                      sort_keys=True)
            fh.write("\n")
        return
    digest = np.bytes_(cfg.digest().encode("ascii"))
    with atomic_open(path, "wb") as fh:
        np.savez_compressed(fh, digest=digest, **fields)


def _load(cfg: PipelineConfig, name: str, keys=None, build=None, **dims):
    """build(fields), or the fields, of an artifact _save wrote, checked
    for presence, readability, config digest and its layout: a report
    holds the listed keys, an .npz exactly its members (optional ones
    aside), and those of ``keys`` (default: all), the only ones decoded,
    their kinds, shapes and finiteness, 0-d ones as Python scalars.  A
    key build misses or finds malformed names the file and its producer."""
    path = _require(cfg, name)
    layout = ARTIFACTS[name][1]
    try:
        with open(path, "rb") as fh:
            if path.suffix == ".json":
                fields = json.load(fh)
                if not isinstance(fields, dict):
                    raise ValueError(f"a JSON {type(fields).__name__}, "
                                     "not an object")
                found, stored = fields.pop("config_digest", ""), set(fields)
            else:
                with np.load(fh, allow_pickle=False) as npz:
                    stored = set(npz.files) - {"digest"}
                    found = (npz["digest"].tobytes().decode("ascii", "replace")
                             if "digest" in npz.files else "")
                    fields = {key: npz[key] for key in layout if key in stored
                              and (keys is None or key in keys)}
    except (OSError, ValueError, EOFError, zipfile.BadZipFile,
            zlib.error) as exc:
        raise ArtifactError(f"cannot read {name} ({exc}); rerun "
                            f"{ARTIFACTS[name][0]}") from exc
    _match(str(found), cfg, name)
    archive = isinstance(layout, dict)
    missing = ", ".join(repr(key) for key in layout if key not in stored
                        and not (archive and OPTIONAL in layout[key]))
    if missing:
        raise _malformed(name, f"missing {missing}")
    if archive and stored - set(layout):
        raise _malformed(name, "unexpected " + ", ".join(
            map(repr, sorted(stored - set(layout)))))
    dims = {"M": cfg.n_topics, **dims}
    for key, a in fields.items() if archive else ():
        kind, shape = layout[key][:2]
        if a.dtype.kind != kind:
            raise _malformed(name, f"{key} of dtype {a.dtype}, expected "
                                   f"kind {kind!r}")
        # A name's first member binds it; on another ndim none is bound.
        sizes = a.shape if a.ndim == len(shape) else (None,) * len(shape)
        want = tuple(dims.setdefault(axis, size) if isinstance(axis, str)
                     else size if axis is None else axis
                     for axis, size in zip(shape, sizes))
        if a.shape != want:
            raise _malformed(name, f"{key} of shape {a.shape}, expected "
                                   f"{want}")
        if kind == "f" and NA not in layout[key] and not np.isfinite(a).all():
            raise _malformed(name, f"{key} holds a non-finite value")
        fields[key] = a.item() if a.ndim == 0 else a
    try:
        return fields if build is None else build(fields)
    except (KeyError, TypeError, ValueError, IndexError,
            AttributeError) as exc:
        raise _malformed(name, repr(exc)) from exc


def _utf8(name: str, strings) -> dict[str, np.ndarray]:
    """The strings as two fields: ``name``, their UTF-8 bytes concatenated
    (uint8), and ``name_offsets`` (one more entry than strings, like a
    CSR indptr): string i is bytes offsets[i] to offsets[i + 1]."""
    encoded = [string.encode("utf-8") for string in strings]
    offsets = np.zeros(len(encoded) + 1, dtype=np.int64)
    np.cumsum([len(b) for b in encoded], out=offsets[1:])
    return {name: np.frombuffer(b"".join(encoded), dtype=np.uint8),
            f"{name}_offsets": offsets}


def _strings(fields, name: str) -> list[str]:
    """The strings _utf8 stored as ``name``; ValueError unless the
    offsets describe them."""
    blob, offsets = fields[name], fields[f"{name}_offsets"]
    if (not offsets.size or offsets[0] != 0 or offsets[-1] != blob.size
            or np.any(np.diff(offsets) < 0)):
        raise ValueError(f"{name} and {name}_offsets do not describe "
                         "UTF-8 strings")
    blob = blob.tobytes()
    return [blob[start:stop].decode("utf-8")
            for start, stop in zip(offsets[:-1].tolist(),
                                   offsets[1:].tolist())]


# ---------------------------------------------------------------- loading

def _load_dataset(cfg) -> tuple[np.ndarray, np.ndarray]:
    """(boolean gold labels, boolean train mask) of the prepared
    messages, row i message i; the text is not read."""
    f = _load(cfg, "dataset.npz", ("gold", "train"))
    return f["gold"], f["train"]

def _load_features(cfg):
    """(gold, train, space, X): _load_dataset's columns, the feature space
    and the (n, d) CSR matrix X, refused unless idf and X are as wide as
    the vocabularies and the structural columns and X has a row per
    message; the text is not read."""
    def build(f):
        space = features.FeatureSpace(idf=f["idf"], **{
            name: {t: i for i, t in enumerate(_strings(f, name))}
            for name in ("word_vocab", "phrase_vocab")})
        X, want = features.CSR.of(f), (len(f["gold"]), space.n_columns)
        if X.shape != want or space.idf.shape != want[1:]:
            raise ValueError(f"idf of shape {space.idf.shape} and a "
                             f"{X.shape} matrix, expected {want[1:]} and "
                             f"{want}")
        return f["gold"], f["train"], space, X
    return _load(cfg, "dataset.npz", [
        key for key in ARTIFACTS["dataset.npz"][1]
        if not key.startswith("text")], build)

def _output_columns(p_pos: np.ndarray,
                    temperature: float) -> dict[str, np.ndarray]:
    """The columns that are functions of p_pos alone: ``predicted``,
    classifiers.predict_all's label as a bool, and each BASE_METHODS
    score.  A reader slices them: log and exp on a slice may take
    another SIMD path and round otherwise."""
    return {"predicted": p_pos >= 0.5, **{
        method: uncertainty.output_uq_score(p_pos, method, temperature)
        for method in BASE_METHODS}}

def _load_scores(cfg):
    """(scores, gold, train): scores.npz's p_pos, its _output_columns, so
    a p_pos outside [0, 1] reads as malformed, and every xmap column, the
    stored xmap_rel_u and the TOPIC_COLUMNS _xmap_columns derives from
    the contributions and both topics' H; dataset.npz's columns are read
    after scores.npz is found, so a missing one names its producer.  A
    negative contribution, which a row's total can hide, or a failed
    derivation names scores.npz."""
    _require(cfg, "scores.npz")
    gold, train = _load_dataset(cfg)

    def build(f):
        f.update(_output_columns(f["p_pos"], cfg.temperature))
        contributions = f.pop("contributions")
        negative = np.flatnonzero((contributions < 0).any(axis=1))
        if negative.size:
            raise ValueError(f"a negative contribution in {negative.size} "
                             f"of {len(gold)} rows, the first {negative[0]}")
        H = _load(cfg, "topics.npz", [f"H_{p}" for p in POLARITIES])
        Hs = [H[f"H_{p}"] for p in POLARITIES]
        columns = _xmap_columns(
            lambda tc, group_tc, H: uncertainty.topic_representations(
                tc, _scale(group_tc), H, cfg.k_related, cfg.temperature),
            contributions, f["predicted"], gold, train, Hs)
        f.update(zip(TOPIC_COLUMNS, columns.T.copy()))
        return f
    return _load(cfg, "scores.npz", build=build, n=len(gold)), gold, train

def _linear(cfg) -> bool:
    """Whether explain attributes the model's margin in closed form
    (logreg, and nb with nb_linear_attribution) rather than its
    probability through kernel SHAP."""
    return cfg.classifier == "logreg" or (
        cfg.classifier == "nb" and cfg.nb_linear_attribution)

def _load_phi(cfg, space, model, X):
    """phi(rows=None, columns=None): the given rows and columns of the
    (n, d) attributions explain computed, dense.  A linear run's is
    rebuilt from the background mean on the slice of X alone, and its
    shap.npz holds no ``data``; a kernel run's is sliced from the CSR
    that attribution.kernel_phi builds of the stored values ``data`` on
    the active sets of X against that mean."""
    def build(f):
        if _linear(cfg):
            if "data" in f:
                raise ValueError("values stored for a linear explanation")
            return lambda rows=None, columns=None: attribution.linear_shap(
                model, X.dense(rows, columns), f["mu"], columns)
        return attribution.kernel_phi(X, f["mu"], f["data"]).dense
    return _load(cfg, "shap.npz", build=build, d=space.n_columns)

def _save_model(cfg, model) -> None:
    """Every field the model sets: only svm has a calibration, only nb
    the structural bounds."""
    _save(cfg, "model.npz", **{key: value for key, value in vars(model).items()
                               if value is not None})

def _load_model(cfg, space) -> classifiers.LinearModel:
    """The trained model; its weights weigh every column of space."""
    def build(f):
        if "calibration" in f:
            f["calibration"] = tuple(f["calibration"].tolist())
        return classifiers.LinearModel(**f)
    return _load(cfg, "model.npz", build=build, d=space.n_columns)

def _load_topics(cfg, space, polarity) -> dict[str, np.ndarray]:
    """One polarity's topics from its members of topics.npz, named
    without the suffix: its columns, H and objective, refused unless the
    columns are strictly ascending columns of space.  Each column's topic
    is not stored: profiling.assign_topics derives it from H."""
    suffix = f"_{polarity}"
    f = {key.removesuffix(suffix): value for key, value in _load(
        cfg, "topics.npz", [key for key in ARTIFACTS["topics.npz"][1]
                            if key.endswith(suffix)]).items()}
    columns = f["columns"]
    if (np.any(np.diff(columns) <= 0) or np.any(columns < 0)
            or np.any(columns >= space.n_columns)):
        raise _malformed("topics.npz", f"columns{suffix} are not strictly "
                         f"ascending columns of [0, {space.n_columns})")
    return f


# ---------------------------------------------------------------- prepare

@_stage("prepare")
def cmd_prepare(cfg: PipelineConfig) -> None:
    if not cfg.dataset_path:
        raise ValueError("config has no dataset_path")
    _path(cfg, "dataset.npz").parent.mkdir(parents=True, exist_ok=True)

    texts, gold = corpus.load_dataset(
        cfg.dataset_path, format=cfg.dataset_format,
        label_column=cfg.label_column, text_column=cfg.text_column,
        label_map=cfg.label_map)
    train = corpus.split(gold, cfg.split_ratio, cfg.seed)

    # Each text is tokenized once; the training messages' raw tokens give
    # the document frequencies the kept tokens are filtered against.
    tokens = [corpus.tokenize(text) for text in texts]
    train_df = corpus.document_frequencies(
        toks for toks, is_train in zip(tokens, train) if is_train)
    stop = (corpus.default_stoplist() if cfg.stoplist == "default"
            else frozenset())
    kept = [corpus.preprocess(toks, stop, train_df, cfg.min_df)
            for toks in tokens]
    space = features.fit_space(
        [toks for toks, is_train in zip(kept, train) if is_train],
        word_quota=cfg.word_quota, phrase_quota=cfg.phrase_quota)

    _save(cfg, "dataset.npz", gold=gold.astype(bool), train=train,
          **_utf8("text", texts), **_utf8("word_vocab", space.word_vocab),
          **_utf8("phrase_vocab", space.phrase_vocab), idf=space.idf,
          **features.vectorize(kept, texts, space))


# ------------------------------------------------------------------ train

@_stage("train")
def cmd_train(cfg: PipelineConfig) -> None:
    gold, train, space, X = _load_features(cfg)
    if cfg.subsample_train:
        train[train] = corpus.subsample_majority(gold[train], cfg.seed)
    X_train, y_train = X.take(train), gold[train]

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
    gold, train, space, X = _load_features(cfg)
    model = _load_model(cfg, space)
    X_train = X.take(train)

    if _linear(cfg):
        # Exact linear attributions against the mean of every training
        # row: phi is dense but elementwise in X, so only mu is stored and
        # _load_phi rebuilds it.  mu comes from dense column blocks of
        # X_train, the bits of the mean of X_train dense.
        _save(cfg, "shap.npz", mu=np.concatenate([
            X_train.dense(columns=block).mean(axis=0)
            for block in features.blocks(space.n_columns,
                                         features.COLUMN_BLOCK)]))
        return
    background = X_train.dense(attribution.background_rows(
        gold[train], cfg.background_size, cfg.seed))
    _save(cfg, "shap.npz", mu=background.mean(axis=0),
          data=attribution.kernel_explain(
              model, X, background, n_coalitions=cfg.n_coalitions,
              seed=cfg.seed))


# ---------------------------------------------------------------- profile

def _reliable_groups(gold, train, label) -> tuple[np.ndarray, np.ndarray]:
    """Row masks of the correctly classified train-split messages, TN and
    TP, indexed by label."""
    reliable = train & (label == gold)
    return reliable & (gold == 0), reliable & (gold == 1)


@_stage("profile")
def cmd_profile(cfg: PipelineConfig) -> None:
    gold, train, space, X = _load_features(cfg)
    model = _load_model(cfg, space)
    tn, tp = _reliable_groups(gold, train,
                              classifiers.predict_all(model, X)[1])
    reliable = np.flatnonzero(tn | tp)
    if not reliable.size:
        raise ValueError("no correctly classified training messages to "
                         "profile")
    phi = _load_phi(cfg, space, model, X)

    # Each column's rank needs only its own column, so the ranks come
    # from dense column blocks of the reliable rows' phi.  The NMF matrix
    # is the reliable rows' supports of the selected columns alone,
    # row-major like every dense slice: NMF's products round differently
    # on a column-major array.
    ranks = {polarity: [] for polarity in POLARITIES}
    for block in features.blocks(space.n_columns, features.COLUMN_BLOCK):
        part = phi(reliable, block)
        for polarity in POLARITIES:
            presence, cond_mean = profiling.feature_stats(
                attribution.polarity_supports(part, polarity))
            ranks[polarity].append(profiling.rank_score(presence, cond_mean,
                                                        cfg.tau_p))
    families = space.families()

    topics = {}
    for polarity in POLARITIES:
        columns = profiling.select_top(np.concatenate(ranks[polarity]),
                                       families, cfg.rho, cfg.k_top)
        matrix = attribution.polarity_supports(phi(reliable, columns),
                                               polarity)
        _, H, trace = profiling.nmf(matrix, cfg.n_topics,
                                    max_iters=cfg.nmf_max_iters,
                                    tol=cfg.nmf_tol, seed=cfg.seed)
        topics.update({f"columns_{polarity}": columns, f"H_{polarity}": H,
                       f"objective_{polarity}": trace[-1]})
    _save(cfg, "topics.npz", **topics)


# ------------------------------------------------------------------ score

def _scale(group_tc) -> float:
    """The evidence scale of a reliable group's topic contributions, 1.0
    for an empty group."""
    return uncertainty.evidence_scale(group_tc) if len(group_tc) else 1.0


def _xmap_columns(represent, contributions, predicted, gold, train,
                  Hs) -> np.ndarray:
    """The (n, R) xmap columns of represent(tc, group_tc, H), (rows, R, M)
    representations of the rows tc against a reliable group whose members
    have topic contributions group_tc and the topics H of its polarity:
    the rows predicted each label at once, scored in one broadcast
    js_divergence call against that label's group profile.

    The profile is represent of the group's mean topic contribution; an
    empty or massless group has no reference distribution, so its rows
    stay NaN (NA) in every column."""
    xmap = None
    for label, (group, H) in enumerate(zip(
            _reliable_groups(gold, train, predicted), Hs)):
        rows, group_tc = predicted == label, contributions[group]
        part = represent(contributions[rows], group_tc, H)
        if xmap is None:
            xmap = np.full((len(predicted), part.shape[1]), np.nan)
        if len(group_tc) and (mean_tc := group_tc.mean(axis=0)).sum() > 0.0:
            xmap[rows] = scoring.js_divergence(
                part, represent(mean_tc[None, :], group_tc, H)[0])
    return xmap


@_stage("score")
def cmd_score(cfg: PipelineConfig) -> None:
    gold, train, space, X = _load_features(cfg)
    model = _load_model(cfg, space)
    p_pos, predicted = classifiers.predict_all(model, X)
    phi = _load_phi(cfg, space, model, X)

    # Each message's topic contributions are on the polarity its own
    # prediction selects (positive -> spamward supports, negative ->
    # hamward); rel_u and its group profiles follow.
    contributions = np.empty((len(gold), cfg.n_topics))
    Hs = []
    for label, polarity in enumerate(POLARITIES):
        rows = predicted == label
        topic = _load_topics(cfg, space, polarity)
        supports = attribution.polarity_supports(phi(rows, topic["columns"]),
                                                 polarity)
        contributions[rows] = profiling.topic_contributions(
            supports, profiling.assign_topics(topic["H"]), cfg.n_topics)
        Hs.append(topic["H"])
    # Of each message's representations only rel_u is scored here: its
    # neighbour search needs the reliable group's distributions, and the
    # other seven are derived where they are read (_load_scores).
    xmap_rel_u = _xmap_columns(
        lambda tc, group_tc, _: uncertainty.rel_u_vector(
            uncertainty.original(tc), uncertainty.original(group_tc),
            cfg.k_nn)[:, None],
        contributions, predicted, gold, train, Hs)[:, 0]

    _save(cfg, "scores.npz", p_pos=p_pos, contributions=contributions,
          xmap_rel_u=xmap_rel_u)


# --------------------------------------------------------------- evaluate

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
    rejected, counts = _rejections(arr, fl, trr_fix)
    return {
        "n_scored": int(arr.size),
        "n_na": int(scores.size - arr.size),
        "n_misclassified": int(fl.sum()),
        "auroc": scoring.auroc(arr, fl),
        "frr_at_trr": scoring.frr_at_trr(rejected, fl),
        **counts,
    }


@_stage("evaluate")
def cmd_evaluate(cfg: PipelineConfig) -> None:
    scores, gold, train = _load_scores(cfg)
    misclassified = scores["predicted"] != gold
    subsets = {}
    for subset, label in SUBSETS:
        part = ~train & (scores["predicted"] == label)
        flags = misclassified[part]
        detectors = {}
        for method in BASE_METHODS:
            detectors[method] = dict(kind="output_uq", **_detector_metrics(
                scores[method][part], flags, cfg.trr_fix))
        for col in XMAP_COLUMNS:
            detectors[col] = dict(kind="xmap", **_detector_metrics(
                scores[col][part], flags, cfg.trr_fix))
        subsets[subset] = {
            "n": int(part.sum()),
            "n_misclassified": int(flags.sum()),
            "detectors": detectors,
        }
    _save(cfg, "detector_report.json", trr_fix=cfg.trr_fix, subsets=subsets)


# ----------------------------------------------------------------- repair

@_stage("repair")
def cmd_repair(cfg: PipelineConfig) -> None:
    scores, gold, train = _load_scores(cfg)
    predicted = scores["predicted"]
    misclassified = predicted != gold

    # One mask over every row: the base detector's rejections in each
    # test subset at that subset's own cutoff.
    rejected = np.zeros_like(train)
    subset_info = {}
    for subset, label in SUBSETS:
        part = ~train & (predicted == label)
        rejected[part], counts = _rejections(
            scores[cfg.base_detector][part], misclassified[part], cfg.trr_fix)
        subset_info[subset] = dict(counts,
                                   n_rejected=int(rejected[part].sum()))

    per_rep = {}
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
        per_rep[rep]["re_accepted_ids"] = np.flatnonzero(
            recovered | leaked).tolist()

    _save(cfg, "repair_report.json", base_detector=cfg.base_detector,
          repair_representation=cfg.repair_representation,
          trr_fix=cfg.trr_fix, subsets=subset_info, representations=per_rep)

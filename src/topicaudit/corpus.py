"""Dataset ingestion, text normalization, and deterministic splits.

Messages come in as UCI-style TSV (``label<TAB>text``) or generic CSV with
named label/text columns and are canonicalized to binary labels (1 = spam
or phishing, 0 = legitimate).  A message is its row: every function here
takes and returns arrays or lists in file-row order, so a message's id is
its row number.  Each text is tokenized once, stopword/rare-token
filtered against the training split's document frequencies, and the
corpus is split into stratified train/test halves.  Everything here is a
pure function of its inputs plus an explicit seed, so reruns are
byte-identical.
"""

from __future__ import annotations

import csv
import math
import re
from collections import Counter
from collections.abc import Iterable
from importlib import resources
from pathlib import Path

import numpy as np

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)

LABEL_POSITIVE = 1
LABEL_NEGATIVE = 0

_TSV_LABEL_MAP = {"ham": LABEL_NEGATIVE, "spam": LABEL_POSITIVE}
DATASET_FORMATS = ("sms_tsv", "generic_csv")


class DatasetError(ValueError):
    """Malformed dataset content (bad row, unknown label token)."""


def load_dataset(path: str | Path, format: str = "sms_tsv",
                 label_column: str = "label", text_column: str = "text",
                 label_map: dict[str, int] | None = None
                 ) -> tuple[list[str], np.ndarray]:
    """Read a labeled message file: (texts, labels) in row order.

    ``sms_tsv`` rows are ``<label>\\t<text>`` with label in {ham, spam};
    ``generic_csv`` has a header naming the label and text columns, and
    ``label_map`` keys match label tokens ignoring case.  Blank TSV lines
    are skipped and duplicate texts are retained.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"dataset not found: {path}")
    if format == "sms_tsv":
        rows, label_map = _sms_tsv_rows(path), _TSV_LABEL_MAP
    elif format == "generic_csv":
        rows = _generic_csv_rows(path, label_column, text_column)
        label_map = {key.lower(): value for key, value
                     in (label_map or _TSV_LABEL_MAP).items()}
    else:
        raise ValueError(f"unknown dataset format: {format!r}")
    texts, labels = [], []
    for row_no, token, text in rows:
        labels.append(_map_label(token, label_map, row_no))
        if not text:
            raise DatasetError(f"row {row_no}: empty message text")
        texts.append(text)
    return texts, np.array(labels, dtype=np.int64)


def _sms_tsv_rows(path: Path):
    with open(path, encoding="utf-8") as fh:
        for row_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n").rstrip("\r")
            if not line:
                continue
            if "\t" not in line:
                raise DatasetError(f"row {row_no}: missing tab separator")
            yield row_no, *line.split("\t", 1)


def _generic_csv_rows(path: Path, label_column: str, text_column: str):
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or label_column not in reader.fieldnames \
                or text_column not in reader.fieldnames:
            raise DatasetError(
                f"csv header must contain {label_column!r} and {text_column!r}")
        for row_no, row in enumerate(reader, start=1):
            token = row.get(label_column)
            text = row.get(text_column)
            if token is None or text is None:
                raise DatasetError(f"row {row_no}: missing label or text field")
            yield row_no, token, text


def _map_label(token: str, label_map: dict[str, int], row_no: int) -> int:
    key = token.strip().lower()
    if key in label_map:
        return int(label_map[key])
    if key in ("0", "1"):
        return int(key)
    raise DatasetError(f"row {row_no}: unknown label token {token!r}")


def tokenize(text: str) -> tuple[str, ...]:
    """Lowercase and split on non-alphanumeric boundaries.

    Pure-digit tokens are kept: digit runs are spam-indicative and the
    structural features count them too.
    """
    return tuple(_TOKEN_RE.findall(text.lower()))


def default_stoplist() -> frozenset[str]:
    """English stoplist shipped with the package."""
    data = resources.files("topicaudit").joinpath("assets/stopwords_en.txt")
    words = data.read_text(encoding="utf-8").split()
    return frozenset(words)


def document_frequencies(docs: Iterable[Iterable[str]]) -> Counter:
    """Term -> number of documents containing it."""
    df: Counter = Counter()
    for terms in docs:
        df.update(set(terms))
    return df


def preprocess(tokens: tuple[str, ...], stoplist: frozenset[str] | set[str],
               train_df: Counter, min_df: int = 2) -> tuple[str, ...]:
    """The tokens of one message minus stopwords and rare tokens.

    ``train_df`` must be the document-frequency table of the training split;
    a token survives only if its training df is at least ``min_df``.  An
    empty result is valid.
    """
    return tuple(tok for tok in tokens
                 if tok not in stoplist and train_df.get(tok, 0) >= min_df)


def split(labels: np.ndarray, ratio: float, seed: int) -> np.ndarray:
    """Train mask of a stratified deterministic train/test split.

    Train gets ceil(ratio * n) messages overall, apportioned per class by
    largest remainder so the train positive fraction tracks the full corpus
    within 1/|train|.
    """
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"split ratio must be in (0, 1), got {ratio}")
    counts = Counter(labels.tolist())
    for label, count in sorted(counts.items()):
        if count < 2:
            raise DatasetError(
                f"cannot stratify: class {label} has {count} member(s)")
    train = np.zeros(len(labels), dtype=bool)
    train[stratified_sample(
        labels, {lab: ratio * count for lab, count in counts.items()},
        math.ceil(ratio * len(labels)), seed)] = True
    return train


def stratified_sample(labels: np.ndarray, exact: dict[int, float],
                      total: int, seed: int) -> np.ndarray:
    """Rows of a stratified sample of ``total`` items, in row order.

    Label lab gets floor(exact[lab]) items, and the labels with the
    largest remainders one more each (ties to the lower label) until
    there are ``total``.  Then, label by label in ascending order, one
    permutation of the label's members in row order picks its quota.
    """
    quota = {lab: math.floor(x) for lab, x in exact.items()}
    by_remainder = sorted(exact, key=lambda lab: (quota[lab] - exact[lab],
                                                  lab))
    for lab in by_remainder[:total - sum(quota.values())]:
        quota[lab] += 1
    rng = np.random.default_rng(seed)
    chosen = []
    for lab in sorted(exact):
        pool = np.flatnonzero(labels == lab)
        chosen.extend(pool[rng.permutation(len(pool))[:quota[lab]]].tolist())
    return np.array(sorted(chosen), dtype=np.int64)


def subsample_majority(labels: np.ndarray, seed: int) -> np.ndarray:
    """Keep mask over training labels in id order that drops majority-class
    messages until the labels balance.

    Stand-in for generative augmentation of the minority class: instead of
    synthesizing new minority messages, the majority is thinned to match.
    """
    pos = labels == LABEL_POSITIVE
    major = pos if pos.sum() > (~pos).sum() else ~pos
    keep = ~major
    n_minor = int(keep.sum())
    rows = np.flatnonzero(major)
    order = np.random.default_rng(seed).permutation(len(rows))
    keep[rows[order[:n_minor]]] = True
    return keep

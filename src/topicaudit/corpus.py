"""Dataset ingestion, text normalization, and deterministic splits.

Messages come in as UCI-style TSV (``label<TAB>text``) or generic CSV with
named label/text columns, are canonicalized to binary labels (1 = spam or
phishing, 0 = legitimate), tokenized, stopword/rare-token filtered, and
split into stratified train/test halves.  Everything here is a pure
function of its inputs plus an explicit seed, so reruns are byte-identical.
"""

from __future__ import annotations

import csv
import math
import re
from collections import Counter
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)

LABEL_POSITIVE = 1
LABEL_NEGATIVE = 0

_TSV_LABEL_MAP = {"ham": LABEL_NEGATIVE, "spam": LABEL_POSITIVE}


class DatasetError(ValueError):
    """Malformed dataset content (bad row, unknown label token)."""


@dataclass(frozen=True)
class Message:
    id: int
    text: str
    label: int
    split: str = ""


@dataclass(frozen=True)
class TokenizedMessage:
    id: int
    tokens: tuple[str, ...]


def load_dataset(path: str | Path, format: str = "sms_tsv",
                 label_column: str = "label", text_column: str = "text",
                 label_map: dict[str, int] | None = None) -> list[Message]:
    """Read a labeled message file into Message records.

    ``sms_tsv`` rows are ``<label>\\t<text>`` with label in {ham, spam};
    ``generic_csv`` has a header naming the label and text columns.  Ids are
    assigned by row order and duplicate texts are retained.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"dataset not found: {path}")
    if format == "sms_tsv":
        return _load_sms_tsv(path)
    if format == "generic_csv":
        return _load_generic_csv(path, label_column, text_column,
                                 label_map or _TSV_LABEL_MAP)
    raise ValueError(f"unknown dataset format: {format!r}")


def _load_sms_tsv(path: Path) -> list[Message]:
    messages = []
    with open(path, encoding="utf-8") as fh:
        for row_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n").rstrip("\r")
            if not line:
                continue
            if "\t" not in line:
                raise DatasetError(f"row {row_no}: missing tab separator")
            token, text = line.split("\t", 1)
            label = _map_label(token, _TSV_LABEL_MAP, row_no)
            if not text:
                raise DatasetError(f"row {row_no}: empty message text")
            messages.append(Message(id=len(messages), text=text, label=label))
    return messages


def _load_generic_csv(path: Path, label_column: str, text_column: str,
                      label_map: dict[str, int]) -> list[Message]:
    messages = []
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
            label = _map_label(token.strip(), label_map, row_no)
            if not text:
                raise DatasetError(f"row {row_no}: empty message text")
            messages.append(Message(id=len(messages), text=text, label=label))
    return messages


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


def document_frequencies(tokenized: list[TokenizedMessage]) -> Counter:
    """Token -> number of documents containing it (computed once, on train)."""
    df: Counter = Counter()
    for msg in tokenized:
        df.update(set(msg.tokens))
    return df


def preprocess(msg: Message, stoplist: frozenset[str] | set[str],
               train_df: Counter, min_df: int = 2) -> TokenizedMessage:
    """Tokenize one message, dropping stopwords and rare tokens.

    ``train_df`` must be the document-frequency table of the training split;
    a token survives only if its training df is at least ``min_df``.  An
    empty token list is a valid result.
    """
    kept = tuple(
        tok for tok in tokenize(msg.text)
        if tok not in stoplist and train_df.get(tok, 0) >= min_df
    )
    return TokenizedMessage(id=msg.id, tokens=kept)


def split(messages: list[Message], ratio: float, seed: int) -> tuple[list[Message], list[Message]]:
    """Stratified deterministic train/test split.

    Train gets ceil(ratio * n) messages overall, apportioned per class by
    largest remainder so the train positive fraction tracks the full corpus
    within 1/|train|.  The result is independent of input order.
    """
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"split ratio must be in (0, 1), got {ratio}")
    counts = Counter(msg.label for msg in messages)
    for label, count in sorted(counts.items()):
        if count < 2:
            raise DatasetError(
                f"cannot stratify: class {label} has {count} member(s)")

    in_train = set(stratified_sample(
        np.array([m.label for m in messages]),
        np.array([m.id for m in messages]),
        {lab: ratio * count for lab, count in counts.items()},
        math.ceil(ratio * len(messages)), seed).tolist())
    tagged = sorted((Message(id=m.id, text=m.text, label=m.label,
                             split="train" if row in in_train else "test")
                     for row, m in enumerate(messages)), key=lambda m: m.id)
    return ([m for m in tagged if m.split == "train"],
            [m for m in tagged if m.split == "test"])


def stratified_sample(labels: np.ndarray, ids: np.ndarray,
                      exact: dict[int, float], total: int,
                      seed: int) -> np.ndarray:
    """Rows of a stratified sample of ``total`` items, in id order.

    Label lab gets floor(exact[lab]) items, and the labels with the
    largest remainders one more each (ties to the lower label) until
    there are ``total``.  Then, label by label in ascending order, one
    permutation of the label's members in id order picks its quota.
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
        pool = pool[np.argsort(ids[pool], kind="stable")]
        chosen.extend(pool[rng.permutation(len(pool))[:quota[lab]]].tolist())
    return np.array(sorted(chosen, key=lambda row: ids[row]), dtype=np.int64)


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

"""Multiview feature space: TF-IDF word and phrase views plus structural cues.

The space concatenates three column families: unigram TF-IDF (the word
view), bigram+trigram TF-IDF (the phrase view), and 17 handcrafted
structural features computed on the raw text.  Vocabularies and idf are
fitted on the training split only; each TF-IDF block is L2-normalized per
view so the two text views are commensurable.
"""

from __future__ import annotations

import json
import re
import string
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .corpus import Message, TokenizedMessage

FAMILY_WORD = "word"
FAMILY_PHRASE = "phrase"
FAMILY_STRUCTURAL = "structural"

STRUCTURAL_FEATURE_NAMES = (
    "char_count",
    "word_count",
    "avg_word_length",
    "digit_count",
    "digit_ratio",
    "uppercase_char_count",
    "uppercase_ratio",
    "punctuation_count",
    "exclamation_count",
    "question_count",
    "currency_symbol_count",
    "url_count",
    "email_address_count",
    "phone_like_number_count",
    "special_char_count",
    "unique_word_ratio",
    "longest_word_length",
)

N_STRUCTURAL = len(STRUCTURAL_FEATURE_NAMES)

_CURRENCY_CHARS = set("$£€¥₹¢")
_PUNCT_CHARS = set(string.punctuation)
_URL_RE = re.compile(r"(?:https?://|www\.)\S+", re.IGNORECASE)
_EMAIL_RE = re.compile(r"[^\s@]+@[^\s@]+\.[^\s@]+")
_PHONE_RE = re.compile(r"\d(?:[\s\-]?\d){6,}")


def structural_features(text: str) -> np.ndarray:
    """The 17 surface cues, in STRUCTURAL_FEATURE_NAMES order.

    Ratios are defined as 0 when the denominator is 0, so empty text maps
    to the all-zero vector and nothing here can produce a NaN.
    """
    chars = len(text)
    words = text.split()
    n_words = len(words)
    digits = sum(c.isdigit() for c in text)
    upper = sum(c.isupper() for c in text)
    punct = sum(c in _PUNCT_CHARS for c in text)
    special = sum((not c.isalnum()) and (not c.isspace()) for c in text)
    out = np.zeros(N_STRUCTURAL)
    out[0] = chars
    out[1] = n_words
    out[2] = sum(len(w) for w in words) / n_words if n_words else 0.0
    out[3] = digits
    out[4] = digits / chars if chars else 0.0
    out[5] = upper
    out[6] = upper / chars if chars else 0.0
    out[7] = punct
    out[8] = text.count("!")
    out[9] = text.count("?")
    out[10] = sum(c in _CURRENCY_CHARS for c in text)
    out[11] = len(_URL_RE.findall(text))
    out[12] = len(_EMAIL_RE.findall(text))
    out[13] = len(_PHONE_RE.findall(text))
    out[14] = special
    out[15] = len({w.lower() for w in words}) / n_words if n_words else 0.0
    out[16] = max((len(w) for w in words), default=0)
    return out


@dataclass
class FeatureSpace:
    """Fitted column layout: word block, phrase block, structural block."""

    word_vocab: dict[str, int]
    phrase_vocab: dict[str, int]
    idf: np.ndarray
    structural_names: tuple[str, ...] = STRUCTURAL_FEATURE_NAMES
    config_digest: str = ""

    @property
    def n_word(self) -> int:
        return len(self.word_vocab)

    @property
    def n_phrase(self) -> int:
        return len(self.phrase_vocab)

    @property
    def n_columns(self) -> int:
        return self.n_word + self.n_phrase + N_STRUCTURAL

    @property
    def structural_start(self) -> int:
        return self.n_word + self.n_phrase

    def family(self, column: int) -> str:
        if column < self.n_word:
            return FAMILY_WORD
        if column < self.n_word + self.n_phrase:
            return FAMILY_PHRASE
        if column < self.n_columns:
            return FAMILY_STRUCTURAL
        raise IndexError(f"column {column} outside space of {self.n_columns}")

    def families(self) -> np.ndarray:
        return np.array(
            [FAMILY_WORD] * self.n_word + [FAMILY_PHRASE] * self.n_phrase
            + [FAMILY_STRUCTURAL] * N_STRUCTURAL)


@dataclass(frozen=True)
class FeatureVector:
    id: int
    values: dict[int, float] = field(default_factory=dict)


def _phrases(tokens: tuple[str, ...]) -> list[str]:
    grams = [" ".join(tokens[i:i + 2]) for i in range(len(tokens) - 1)]
    grams += [" ".join(tokens[i:i + 3]) for i in range(len(tokens) - 2)]
    return grams


def _top_by_df(df: dict[str, int], quota: int, what: str) -> dict[str, int]:
    ranked = sorted(df.items(), key=lambda kv: (-kv[1], kv[0]))
    if len(ranked) < quota:
        warnings.warn(
            f"{what} vocabulary has only {len(ranked)} candidates for quota "
            f"{quota}; shrinking", UserWarning, stacklevel=3)
    return {term: i for i, (term, _) in enumerate(ranked[:quota])}


def fit_space(tokenized: list[TokenizedMessage], word_quota: int = 7000,
              phrase_quota: int = 3000,
              config_digest: str = "") -> FeatureSpace:
    """Fit vocabularies and idf on the training split.

    Word vocabulary is the top ``word_quota`` unigrams by document
    frequency (ties broken lexicographically); the phrase vocabulary pools
    bigrams and trigrams the same way.  idf = ln((1+N)/(1+df)) + 1.  If the
    corpus yields fewer candidates than a quota the vocabulary shrinks with
    a warning and the actual size is recorded in the space.
    """
    n_docs = len(tokenized)
    word_df: dict[str, int] = {}
    phrase_df: dict[str, int] = {}
    for tok in tokenized:
        for term in set(tok.tokens):
            word_df[term] = word_df.get(term, 0) + 1
        for term in set(_phrases(tok.tokens)):
            phrase_df[term] = phrase_df.get(term, 0) + 1

    word_vocab = _top_by_df(word_df, word_quota, "word")
    phrase_vocab = _top_by_df(phrase_df, phrase_quota, "phrase")

    n_word, n_phrase = len(word_vocab), len(phrase_vocab)
    idf = np.ones(n_word + n_phrase + N_STRUCTURAL)
    for term, col in word_vocab.items():
        idf[col] = np.log((1.0 + n_docs) / (1.0 + word_df[term])) + 1.0
    for term, col in phrase_vocab.items():
        idf[n_word + col] = np.log((1.0 + n_docs) / (1.0 + phrase_df[term])) + 1.0

    return FeatureSpace(word_vocab=word_vocab, phrase_vocab=phrase_vocab,
                        idf=idf, config_digest=config_digest)


def vectorize(tokenized: TokenizedMessage, message: Message,
              space: FeatureSpace) -> FeatureVector:
    """Make the sparse multiview vector for one message.

    TF-IDF weight is term count times idf; the word and phrase blocks are
    L2-normalized separately; structural values are appended raw.
    Out-of-vocabulary terms are ignored.
    """
    if tokenized.id != message.id:
        raise ValueError("tokenized/message id mismatch")
    values: dict[int, float] = {}
    _accumulate_tfidf(tokenized.tokens, space.word_vocab, 0, space, values)
    _accumulate_tfidf(_phrases(tokenized.tokens), space.phrase_vocab,
                      space.n_word, space, values)
    _l2_normalize_block(values, 0, space.n_word)
    _l2_normalize_block(values, space.n_word, space.structural_start)
    struct = structural_features(message.text)
    base = space.structural_start
    for i, val in enumerate(struct):
        if val != 0.0:
            values[base + i] = float(val)
    return FeatureVector(id=message.id, values=values)


def _accumulate_tfidf(terms, vocab: dict[str, int], offset: int,
                      space: FeatureSpace, values: dict[int, float]) -> None:
    counts: dict[int, int] = {}
    for term in terms:
        col = vocab.get(term)
        if col is not None:
            counts[col + offset] = counts.get(col + offset, 0) + 1
    for col, count in counts.items():
        values[col] = float(count * space.idf[col])


def _l2_normalize_block(values: dict[int, float], start: int, stop: int) -> None:
    block = [col for col in values if start <= col < stop]
    norm = np.sqrt(sum(values[col] ** 2 for col in block))
    if norm > 0:
        for col in block:
            values[col] = float(values[col] / norm)


def write_space(path: str | Path, space: FeatureSpace) -> None:
    obj = {
        "config_digest": space.config_digest,
        "word_vocab": list(space.word_vocab),
        "phrase_vocab": list(space.phrase_vocab),
        "structural_names": list(space.structural_names),
        "idf": space.idf.tolist(),
        "family": space.families().tolist(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True)
        fh.write("\n")


def read_space(path: str | Path) -> FeatureSpace:
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    return FeatureSpace(
        word_vocab={t: i for i, t in enumerate(obj["word_vocab"])},
        phrase_vocab={t: i for i, t in enumerate(obj["phrase_vocab"])},
        idf=np.array(obj["idf"]),
        structural_names=tuple(obj["structural_names"]),
        config_digest=obj.get("config_digest", ""),
    )

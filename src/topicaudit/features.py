"""Multiview feature space: TF-IDF word and phrase views plus structural cues.

The space concatenates three column families: unigram TF-IDF (the word
view), bigram+trigram TF-IDF (the phrase view), and 17 handcrafted
structural features computed on the raw text.  Vocabularies and idf are
fitted on the training split only; each TF-IDF block is L2-normalized per
view so the two text views are commensurable.  vectorize turns every
message at once into the CSR arrays of the (messages x columns) matrix X,
the form dataset.npz stores, and CSR holds those arrays after loading:
every later stage reads X through its dense slices or its products with
a vector, never all of X at once.
"""

from __future__ import annotations

import functools
import re
import string
import warnings
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .corpus import document_frequencies

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

# Rows and columns per dense block of a CSR matrix.  ROW_BLOCK is a
# multiple of 16, so each row of a block sits where the BLAS matrix-vector
# kernel puts it in the whole matrix and gets the same margin bits.
ROW_BLOCK = 256
COLUMN_BLOCK = 128

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

    def families(self) -> np.ndarray:
        return np.array(
            [FAMILY_WORD] * self.n_word + [FAMILY_PHRASE] * self.n_phrase
            + [FAMILY_STRUCTURAL] * N_STRUCTURAL)


@dataclass(frozen=True, eq=False)
class CSR:
    """An (n, d) float matrix as the CSR arrays vectorize emits: row i's
    columns are indices[indptr[i]:indptr[i + 1]], ascending, and data
    holds their values.  The arrays are never written to.  A dense slice
    holds the stored values bit for bit, -0.0 included, and zeros
    elsewhere, so it equals the same slice of the dense matrix."""

    shape: tuple[int, int]
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    @classmethod
    def of(cls, fields) -> CSR:
        """The matrix of the ``shape, indptr, indices, data`` fields,
        checked to describe one."""
        n, d = (int(v) for v in fields["shape"])
        indptr, indices, data = (np.asarray(fields[key]) for key in
                                 ("indptr", "indices", "data"))
        if (indptr.shape != (n + 1,) or indptr[0] != 0
                or np.any(np.diff(indptr) < 0)
                or indices.shape != (indptr[-1],)
                or data.shape != indices.shape
                or np.any(indices < 0) or np.any(indices >= d)):
            raise ValueError(f"CSR arrays that do not describe a ({n}, {d}) "
                             "matrix")
        return cls((n, d), indptr, indices, data)

    def take(self, rows) -> CSR:
        """The matrix of the given rows (indices, a mask or a slice), in
        that order."""
        rows = np.arange(self.shape[0])[rows]
        starts = self.indptr[rows]
        counts = self.indptr[rows + 1] - starts
        indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        at = np.arange(indptr[-1]) + np.repeat(starts - indptr[:-1], counts)
        return CSR((len(rows), self.shape[1]), indptr, self.indices[at],
                   self.data[at])

    @functools.cached_property
    def rows(self) -> np.ndarray:
        """Each stored value's row."""
        return np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))

    # astype: np.bincount gives integer zeros when nothing is stored.
    def matvec(self, w: np.ndarray) -> np.ndarray:
        """X @ w, each row's products summed in column order."""
        return np.bincount(self.rows, self.data * w[self.indices],
                           minlength=self.shape[0]).astype(float, copy=False)

    def rmatvec(self, v: np.ndarray) -> np.ndarray:
        """X.T @ v, each column's products summed in row order."""
        return np.bincount(self.indices, self.data * v[self.rows],
                           minlength=self.shape[1]).astype(float, copy=False)

    def dense(self, rows=None, columns=None) -> np.ndarray:
        """X[rows][:, columns] as a new C-contiguous array; None takes
        every row or column, and a column may not be taken twice."""
        M = self if rows is None else self.take(rows)
        n, d = M.shape
        columns = np.arange(d)[slice(None) if columns is None else columns]
        position = np.full(d, -1)
        position[columns] = np.arange(columns.size)
        if np.count_nonzero(position >= 0) != columns.size:
            raise ValueError("a column is taken twice")
        at = position[M.indices]
        kept = at >= 0
        out = np.zeros((n, columns.size))
        out[M.rows[kept], at[kept]] = M.data[kept]
        return out


def blocks(n: int, size: int) -> list[slice]:
    """Consecutive slices over range(n), each starting at a multiple of
    size and size long, but the last, which also takes a remainder of one:
    numpy multiplies a one-row block and sums a one-column block with
    other kernels than a larger matrix gets, which would change the
    bits."""
    starts = list(range(0, n, size))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    return [slice(start, stop) for start, stop in zip(starts,
                                                      starts[1:] + [n])]


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


def fit_space(tokens: list[tuple[str, ...]], word_quota: int = 7000,
              phrase_quota: int = 3000) -> FeatureSpace:
    """Fit vocabularies and idf on the training messages' kept tokens.

    Word vocabulary is the top ``word_quota`` unigrams by document
    frequency (ties broken lexicographically); the phrase vocabulary pools
    bigrams and trigrams the same way.  idf = ln((1+N)/(1+df)) + 1.  If the
    corpus yields fewer candidates than a quota the vocabulary shrinks with
    a warning and the actual size is recorded in the space.
    """
    n_docs = len(tokens)
    word_df = document_frequencies(tokens)
    phrase_df = document_frequencies(_phrases(toks) for toks in tokens)
    word_vocab = _top_by_df(word_df, word_quota, "word")
    phrase_vocab = _top_by_df(phrase_df, phrase_quota, "phrase")

    n_word, n_phrase = len(word_vocab), len(phrase_vocab)
    idf = np.ones(n_word + n_phrase + N_STRUCTURAL)
    for term, col in word_vocab.items():
        idf[col] = np.log((1.0 + n_docs) / (1.0 + word_df[term])) + 1.0
    for term, col in phrase_vocab.items():
        idf[n_word + col] = np.log((1.0 + n_docs) / (1.0 + phrase_df[term])) + 1.0

    return FeatureSpace(word_vocab=word_vocab, phrase_vocab=phrase_vocab,
                        idf=idf)


def vectorize(tokens: list[tuple[str, ...]], texts: list[str],
              space: FeatureSpace) -> dict[str, np.ndarray]:
    """CSR arrays ``shape, indptr, indices, data`` of the multiview X, one
    row per message (its kept tokens and raw text), nonzero columns in
    ascending order.

    TF-IDF weight is term count times idf; the word and phrase blocks are
    L2-normalized separately, the norm summing squares in the order each
    term first occurs; structural values are appended raw.
    Out-of-vocabulary terms are ignored.
    """
    indptr, indices, data = [0], [], []
    for toks, text in zip(tokens, texts, strict=True):
        row = _tfidf(toks, space.word_vocab, 0, space.idf)
        row.update(_tfidf(_phrases(toks), space.phrase_vocab, space.n_word,
                          space.idf))
        for col, val in enumerate(structural_features(text),
                                  start=space.structural_start):
            if val != 0.0:
                row[col] = float(val)
        cols = sorted(row)
        indices += cols
        data += [row[col] for col in cols]
        indptr.append(len(indices))
    return {"shape": np.array([len(indptr) - 1, space.n_columns],
                              dtype=np.int64),
            "indptr": np.array(indptr, dtype=np.int64),
            "indices": np.array(indices, dtype=np.int64),
            "data": np.array(data, dtype=np.float64)}


def _tfidf(terms, vocab: dict[str, int], offset: int,
           idf: np.ndarray) -> dict[int, float]:
    """L2-normalized count * idf of the in-vocabulary terms, by column."""
    counts = Counter(vocab[term] + offset for term in terms if term in vocab)
    values = {col: float(count * idf[col]) for col, count in counts.items()}
    norm = np.sqrt(sum(val ** 2 for val in values.values()))
    return {col: float(val / norm) for col, val in values.items()}

"""Shared fixtures: a small hand-written corpus and its fitted feature space."""

from __future__ import annotations

import os

from topicaudit import BLAS_THREAD_VARS

# The BLAS defaults topicaudit.cli sets for every stage, here
# for every test before anything imports numpy: in-process explain
# stages then fork their worker pool as the CLI's do, and no result
# depends on the number of cores the BLAS would otherwise use.
for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")

import pytest

from topicaudit import corpus as tc_corpus
from topicaudit import features as tc_features

SMALL_TSV = """\
ham\tOk lar i will call you later tonight
spam\tWIN a FREE prize now call 08001234567 to claim your prize
ham\tAre you coming to the meeting later today
spam\tURGENT you have won a FREE cash prize call now to claim
ham\tCan you call me when you get this message
ham\tSee you at the meeting tomorrow morning then
spam\tFREE entry to win cash now text WIN to 80082
ham\tI will be home later tonight after the meeting
spam\tClaim your free prize now urgent reply to this message
ham\tLet me know when you are coming home tonight
"""


@pytest.fixture(scope="session")
def small_messages(tmp_path_factory):
    """(texts, labels) of SMALL_TSV."""
    path = tmp_path_factory.mktemp("corpus") / "small.tsv"
    path.write_text(SMALL_TSV, encoding="utf-8")
    return tc_corpus.load_dataset(path)


@pytest.fixture(scope="session")
def small_space(small_messages):
    """The space fitted on every SMALL_TSV message, and their kept tokens."""
    tokens = [tc_corpus.tokenize(text) for text in small_messages[0]]
    df = tc_corpus.document_frequencies(tokens)
    stoplist = tc_corpus.default_stoplist()
    kept = [tc_corpus.preprocess(toks, stoplist, df, min_df=1)
            for toks in tokens]
    space = tc_features.fit_space(kept, word_quota=200, phrase_quota=100)
    return space, kept

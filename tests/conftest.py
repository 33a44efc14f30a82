"""Shared fixtures: a small hand-written corpus and its fitted feature space."""

from __future__ import annotations

import os

from topicaudit import BLAS_THREAD_VARS

# The BLAS defaults topicaudit.cli sets for explain, here for every test
# before anything imports numpy: in-process explain stages then fork
# their worker pool as the CLI's do, and no result depends on the number
# of cores the BLAS would otherwise use.
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
def small_messages(tmp_path_factory) -> list[tc_corpus.Message]:
    path = tmp_path_factory.mktemp("corpus") / "small.tsv"
    path.write_text(SMALL_TSV, encoding="utf-8")
    return tc_corpus.load_dataset(path)


@pytest.fixture(scope="session")
def small_space(small_messages):
    stoplist = tc_corpus.default_stoplist()
    df = tc_corpus.document_frequencies(
        [tc_corpus.TokenizedMessage(m.id, tc_corpus.tokenize(m.text))
         for m in small_messages])
    tokenized = [tc_corpus.preprocess(m, stoplist, df, min_df=1)
                 for m in small_messages]
    space = tc_features.fit_space(tokenized, word_quota=200,
                                  phrase_quota=100)
    return space, tokenized

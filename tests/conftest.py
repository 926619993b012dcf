import pytest

from mtlab.corpus import ParallelCorpus, SentencePair


@pytest.fixture
def small_corpus():
    rows = [
        ("low low lower", "tief tief tiefer"),
        ("the new lower lowest", "das neue tiefer tiefste"),
        ("low new west", "tief neu west"),
    ]
    pairs = tuple(SentencePair(s, t, i) for i, (s, t) in enumerate(rows))
    return ParallelCorpus(pairs)


def make_corpus(n):
    pairs = tuple(SentencePair(f"source sentence {i}", f"ziel satz {i}", i) for i in range(n))
    return ParallelCorpus(pairs)


@pytest.fixture
def corpus100():
    return make_corpus(100)

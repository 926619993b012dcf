import pytest

from mtlab import bleu, tokenizer
from mtlab.bsf import classifier
from mtlab.corpus import ParallelCorpus, SentencePair
from mtlab.rng import stream
from mtlab.synth import _PLACES


@pytest.fixture(autouse=True)
def empty_memos():
    """Start every test with both generations of the module-level memos
    empty (`Memo.clear`), so whether it takes a cold or a memoized path does
    not depend on the tests before it; a test of warm behaviour fills them
    itself."""
    tokenizer._parsed.clear()
    classifier._hashes.clear()
    bleu._pairs.clear()


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


def entity_sentences(n: int, seed: int = 0, language: str = "en") -> list[str]:
    """Sentences guaranteed to contain at least one recognizable entity."""
    rng = stream(seed, f"entity-sentences-{language}")
    en_shapes = [
        "The station is {d} km away.",
        "It is a {n}-minute walk to the beach.",
        "Check-in starts at {h}:{m:02d} pm on March {day}, {year}.",
        "The airport lies {d} miles from {place} and opens at {h}:{m:02d} am.",
        "Free shuttle at {h}:{m:02d} pm, about {d} km, booked for {mon}/{day}/{year}.",
    ]
    de_shapes = [
        "Der Bahnhof ist {dc} km entfernt.",
        "Der Strand ist nach einem {n}-minütigen Spaziergang erreichbar.",
        "Check-in ab {h}:{m:02d} Uhr am {day}.{mon}.{year}.",
        "Der Flughafen liegt {dc} km von {place} entfernt und öffnet um {h}:{m:02d} Uhr.",
    ]
    shapes = de_shapes if language == "de" else en_shapes
    out = []
    for _ in range(n):
        shape = shapes[int(rng.integers(len(shapes)))]
        out.append(
            shape.format(
                d=f"{rng.integers(1, 30)}.{rng.integers(0, 10)}",
                dc=f"{rng.integers(1, 30)},{rng.integers(0, 10)}",
                n=int(rng.integers(5, 90)),
                h=int(rng.integers(1, 12)),
                m=int(rng.integers(0, 60)),
                day=int(rng.integers(1, 28)),
                mon=int(rng.integers(1, 12)),
                year=int(rng.integers(2015, 2026)),
                place=_PLACES[rng.integers(len(_PLACES))],
            )
        )
    return out

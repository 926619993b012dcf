"""Seeded input generators the benchmark adds to ``mtlab.synth``.

Every generator takes only the workload seed (plus a fixed stream name) and
draws from ``random.Random``, which is stable across Python versions and
independent of the program under test.  Generators that plant values return
them next to the text, so checks compare against the truth and not against
the program's own reading of its input.
"""

from __future__ import annotations

import random
from decimal import Decimal

from mtlab.entities import DateValue, Distance, Duration, TimeOfDay

__all__ = [
    "rng",
    "zipf_lexicon",
    "zipf_sentences",
    "entity_sentences",
    "entity_pairs",
    "score_sheet",
]

_PLACES = ["Winterfell", "Dragonstone", "Oldtown", "Highgarden", "Sunspear", "Riverrun"]
_MONTHS = ["January", "February", "March", "April", "May", "June", "July",
           "August", "September", "October", "November", "December"]
_SYLLABLES = [c + v for c in "bdfgklmnprstvz" for v in "aeiou"]


def rng(seed: int, name: str) -> random.Random:
    return random.Random(f"{name}:{seed}")


class ZipfLexicon:
    """Pseudo-words ranked by frequency; rank r is drawn with weight 1/r**s."""

    def __init__(self, words: list[str], exponent: float):
        self.words = words
        total, cum = 0.0, []
        for r in range(1, len(words) + 1):
            total += 1.0 / r ** exponent
            cum.append(total)
        self.cum_weights = cum


def zipf_lexicon(seed: int, name: str, size: int, exponent: float) -> ZipfLexicon:
    """``size`` distinct pseudo-words of 1-4 syllables, drawn with weight 1/rank**exponent.

    Why: a pseudo-word vocabulary with a known frequency law, whose size and
    exponent set how much sentences share (BPE training input, cache misses)."""
    r = rng(seed, f"{name}-lexicon")
    seen: set[str] = set()
    words: list[str] = []
    while len(words) < size:
        word = "".join(r.choice(_SYLLABLES) for _ in range(r.randint(1, 4)))
        if word not in seen:
            seen.add(word)
            words.append(word)
    # frequent words are short, as in natural text; this also keeps the cost
    # of a sentence from depending on how long the seed's top words happen to be
    words.sort(key=len)
    return ZipfLexicon(words, exponent)


def zipf_sentences(lexicon: ZipfLexicon, r: random.Random, n: int) -> list[tuple[str, list[str]]]:
    """(sentence, true word list) pairs; 6-14 words, first one capitalized.

    Why: text whose words are all known, so a tokenize round trip can be
    checked word by word; how much it repeats is the lexicon's choice."""
    out = []
    for _ in range(n):
        words = r.choices(lexicon.words, cum_weights=lexicon.cum_weights, k=r.randint(6, 14))
        words[0] = words[0].capitalize()
        out.append((" ".join(words) + ".", words))
    return out


def _draw(r: random.Random) -> dict:
    whole, tenth = r.randint(1, 29), r.randint(0, 9)
    return {
        "d": f"{whole}.{tenth}", "dc": f"{whole},{tenth}",
        "d_val": Decimal(f"{whole}.{tenth}"),
        "n": r.randint(5, 89), "h": r.randint(1, 11), "m": r.randint(0, 59),
        "day": r.randint(1, 27), "mon": r.randint(1, 11), "year": r.randint(2015, 2025),
        "place": r.choice(_PLACES),
        "hw": r.randint(1, 9), "ht": r.randint(1, 9),
        "ka": r.randint(1, 9), "kb": r.randint(0, 999),
    }


# Each shape: (English text, German text, planted values).  The first five
# mirror mtlab.synth.entity_sentences; the last four add decimal durations
# and thousands-separated distances, which the shipped templates read only
# in part (ROADMAP item 4).  The shapes are written the way hotel copy
# states these values and are not tuned to the templates.
_SHAPES = [
    ("The station is {d} km away.",
     "Der Bahnhof ist {dc} km entfernt.",
     lambda v: [("distance", Distance(v["d_val"], "km"))]),
    ("It is a {n}-minute walk to the beach.",
     "Der Strand ist nach einem {n}-minütigen Spaziergang erreichbar.",
     lambda v: [("duration", Duration(v["n"]))]),
    ("Check-in starts at {h}:{m:02d} pm on {month} {day}, {year}.",
     "Check-in ab {h24}:{m:02d} Uhr am {day}.{mon_num}.{year}.",
     lambda v: [("time", TimeOfDay((v["h"] + 12) * 60 + v["m"])),
                ("date", DateValue(v["year"], v["mon"], v["day"]))]),
    ("The airport lies {d} miles from {place} and opens at {h}:{m:02d} am.",
     "Der Flughafen liegt {dc} Meilen von {place} entfernt und öffnet um {h}:{m:02d} Uhr.",
     lambda v: [("distance", Distance(v["d_val"], "mi")),
                ("time", TimeOfDay(v["h"] * 60 + v["m"]))]),
    ("Free shuttle at {h}:{m:02d} pm, about {d} km, booked for {mon}/{day}/{year}.",
     "Kostenloser Shuttle um {h24}:{m:02d} Uhr, etwa {dc} km, gebucht für {day}.{mon}.{year}.",
     lambda v: [("time", TimeOfDay((v["h"] + 12) * 60 + v["m"])),
                ("distance", Distance(v["d_val"], "km")),
                ("date", DateValue(v["year"], v["mon"], v["day"]))]),
    ("A {hw}.{ht} hour drive takes you to {place}.",
     "Eine Fahrt von {hw},{ht} Stunden bringt Sie nach {place}.",
     lambda v: [("duration", Duration(v["hw"] * 60 + v["ht"] * 6))]),
    ("The guided tour lasts {hw}.{ht} hours.",
     "Die Führung dauert {hw},{ht} Stunden.",
     lambda v: [("duration", Duration(v["hw"] * 60 + v["ht"] * 6))]),
    ("{place} is {ka},{kb:03d} km from the coast.",
     "{place} liegt {ka}.{kb:03d} km von der Küste entfernt.",
     lambda v: [("distance", Distance(Decimal(v["ka"] * 1000 + v["kb"]), "km"))]),
    ("The trail runs {ka},{kb:03d} m along the river.",
     "Der Weg verläuft {ka}.{kb:03d} m am Fluss entlang.",
     lambda v: [("distance", Distance(Decimal(v["ka"] * 1000 + v["kb"]), "m"))]),
]


def _render(shape: int, v: dict) -> tuple[str, str, list]:
    en, de, values = _SHAPES[shape]
    fields = dict(v, month=_MONTHS[v["mon"] - 1], mon_num=v["mon"], h24=v["h"] + 12)
    return en.format(**fields), de.format(**fields), values(v)


def entity_pairs(r: random.Random, n: int) -> list[tuple[str, str, list]]:
    """(English, German, [(type, true value), ...]) triples.

    Why: gives ``ner scan`` aligned pairs whose entities agree by
    construction, so every mismatch it counts comes from the templates."""
    return [_render(r.randrange(len(_SHAPES)), _draw(r)) for _ in range(n)]


def entity_sentences(r: random.Random, n: int) -> list[tuple[str, list]]:
    """(English sentence, planted values).

    Why: the request-path share where masking matters; the planted values
    measure how often the mask keeps an entity's value intact."""
    return [(en, values) for en, _, values in entity_pairs(r, n)]


def score_sheet(seed: int, systems: int = 4, sentences: int = 150):
    """Rows (sentence_id, rater, system, adequacy, fluency) from two raters,
    the true sentence-first means per system, and a BLEU score per system.

    Why: a human-evaluation sheet of the size a desk study collects, with
    the aggregate known in advance."""
    r = rng(seed, "score-sheet")
    names = [f"sys{chr(ord('a') + i)}" for i in range(systems)]
    rows, means, bleu = [], {}, {}
    for name in names:
        quality = r.uniform(1.5, 3.5)
        per_sentence = []
        for sid in range(sentences):
            scores = []
            for rater in ("r1", "r2"):
                adequacy = min(4, max(1, round(quality + r.uniform(-1.0, 1.0))))
                fluency = min(4, max(1, round(quality + r.uniform(-1.0, 1.0))))
                rows.append((sid, rater, name, adequacy, fluency))
                scores.append((adequacy, fluency))
            per_sentence.append(scores)
        means[name] = (
            sum((a1 + a2) / 2 for (a1, _), (a2, _) in per_sentence) / sentences,
            sum((f1 + f2) / 2 for (_, f1), (_, f2) in per_sentence) / sentences,
        )
        bleu[name] = round(10.0 + 8.0 * quality + r.uniform(-2.0, 2.0), 2)
    return rows, means, bleu

"""Seeded synthetic corpora: desk-scale stand-ins for the production data.

Everything here is generated deterministically from a seed so experiments
and tests can be reproduced without shipping data files.
"""

from __future__ import annotations

import numpy as np

from .corpus import ParallelCorpus, SentencePair
from .rng import stream

__all__ = [
    "toy_lm_stream",
    "two_symbol_stream",
    "toy_parallel_corpus",
    "entity_sentences",
    "parking_sentences",
    "parking_parallel",
    "embedding_corpus",
]


def toy_lm_stream(
    n_tokens: int, vocab_size: int = 64, seed: int = 0, noise: float = 0.05
) -> np.ndarray:
    """Noisy-cycle Markov chain: structured enough that perplexity has room
    to fall, noisy enough (`noise` = uniform-jump probability) that it
    cannot reach 1."""
    if vocab_size < 1:
        raise ValueError(f"vocab_size must be at least 1, got {vocab_size}")
    if not 0 <= noise <= 1:
        raise ValueError(f"noise must be in [0, 1], got {noise}")
    rng = stream(seed, "toy-lm")
    ids = np.empty(n_tokens, dtype=np.int64)
    state = 0
    jumps = np.array([1, 3, 7])
    probs = np.array([0.60, 0.20, 0.15]) * ((1.0 - noise) / 0.95)
    for i in range(n_tokens):
        ids[i] = state
        roll = rng.random()
        if roll < probs[0]:
            state = (state + jumps[0]) % vocab_size
        elif roll < probs[0] + probs[1]:
            state = (state + jumps[1]) % vocab_size
        elif roll < probs.sum():
            state = (state + jumps[2]) % vocab_size
        else:
            state = int(rng.integers(vocab_size))
    return ids


def two_symbol_stream(n_tokens: int) -> np.ndarray:
    """Deterministic alternating language; entropy zero, so perplexity -> 1."""
    return np.arange(n_tokens, dtype=np.int64) % 2


_PLACES = ["Winterfell", "Dragonstone", "Oldtown", "Highgarden", "Sunspear", "Riverrun"]
_AMENITIES = ["restaurant", "garden", "terrace", "sauna", "bar", "library"]
_EN_TEMPLATES = [
    "The {place} Hotel offers a {amenity} and free WiFi.",
    "Located in {place}, this property features a {amenity}.",
    "Guests can reach {place} in a {n}-minute car ride.",
    "The beach is {d} km from the hotel.",
    "Breakfast is served from {h}:00 am in the {amenity}.",
]
_DE_TEMPLATES = [
    "Das {place} Hotel bietet ein {amenity} und kostenloses WLAN.",
    "Diese Unterkunft in {place} verfügt über ein {amenity}.",
    "{place} erreichen Sie nach einer {n}-minütigen Autofahrt.",
    "Der Strand liegt {d} km vom Hotel entfernt.",
    "Frühstück wird ab {h}:00 Uhr im {amenity} serviert.",
]


def toy_parallel_corpus(n_pairs: int = 50, seed: int = 0) -> ParallelCorpus:
    """Aligned hotel-description sentences (paired templates sharing the
    same entity values, decimal style per language)."""
    rng = stream(seed, "toy-parallel")
    pairs = []
    for i in range(n_pairs):
        t = int(rng.integers(len(_EN_TEMPLATES)))
        values = {
            "place": _PLACES[rng.integers(len(_PLACES))],
            "amenity": _AMENITIES[rng.integers(len(_AMENITIES))],
            "n": int(rng.integers(5, 95)),
            "h": int(rng.integers(6, 11)),
        }
        whole, frac = int(rng.integers(1, 20)), int(rng.integers(0, 10))
        src = _EN_TEMPLATES[t].format(d=f"{whole}.{frac}", **values)
        tgt = _DE_TEMPLATES[t].format(d=f"{whole},{frac}", **values)
        pairs.append(SentencePair(src, tgt, i))
    return ParallelCorpus(tuple(pairs))


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


# ---------------------------------------------------------------------------
# parking-aspect corpus (labels: free / paid / other)

_PARKING = {
    "en": {
        "free": [
            "Free private parking is available on site.",
            "Guests enjoy free parking right next to the {amenity}.",
            "Parking is free of charge for all visitors.",
            "The hotel offers complimentary parking in {place}.",
            "You can park for free behind the building.",
            "Free public parking is possible nearby.",
        ],
        "paid": [
            "Private parking is possible at a charge.",
            "Parking costs {price} EUR per day.",
            "Paid public parking is available near the {amenity}.",
            "Secure parking is offered for an extra fee.",
            "A parking garage is available for {price} EUR per night.",
            "There is parking available nearby.",
        ],
        "other": [
            "The room has a balcony overlooking {place}.",
            "Breakfast is served daily in the {amenity}.",
            "All units include a flat-screen TV and a kettle.",
            "The staff speaks English and German.",
            "Towels and bed linen are provided.",
            "The {amenity} is open from morning until late evening.",
        ],
    },
    "de": {
        "free": [
            "Kostenlose Privatparkplätze stehen am Haus zur Verfügung.",
            "Gäste parken kostenfrei direkt neben dem {amenity_de}.",
            "Die Parkplätze sind für alle Besucher gratis.",
            "Das Hotel bietet kostenlose Parkplätze in {place}.",
            "Hinter dem Gebäude können Sie kostenfrei parken.",
            "Kostenfreie öffentliche Parkplätze sind in der Nähe vorhanden.",
        ],
        "paid": [
            "Private Parkplätze sind gegen Gebühr verfügbar.",
            "Das Parken kostet {price} EUR pro Tag.",
            "Gebührenpflichtige öffentliche Parkplätze gibt es am {amenity_de}.",
            "Bewachte Parkplätze werden gegen Aufpreis angeboten.",
            "Eine Garage steht für {price} EUR pro Nacht bereit.",
            "In der Nähe sind Parkplätze vorhanden.",
        ],
        "other": [
            "Das Zimmer verfügt über einen Balkon mit Blick auf {place}.",
            "Frühstück wird täglich im {amenity_de} serviert.",
            "Alle Unterkünfte verfügen über einen Flachbild-TV und einen Wasserkocher.",
            "Das Personal spricht Englisch und Deutsch.",
            "Handtücher und Bettwäsche werden gestellt.",
            "Das {amenity_de} ist von morgens bis spät abends geöffnet.",
        ],
    },
}
_AMENITIES_DE = ["Restaurant", "Garten", "Terrasse", "Saunabereich", "Café", "Lesezimmer"]
PARKING_LABELS = ("free", "paid", "other")


def _parking_sentence(language: str, label: str, rng) -> str:
    templates = _PARKING[language][label]
    template = templates[int(rng.integers(len(templates)))]
    return template.format(
        place=_PLACES[rng.integers(len(_PLACES))],
        amenity=_AMENITIES[rng.integers(len(_AMENITIES))],
        amenity_de=_AMENITIES_DE[rng.integers(len(_AMENITIES_DE))],
        price=int(rng.integers(5, 40)),
    )


def parking_sentences(language: str, n: int, seed: int = 0) -> list[tuple[str, str]]:
    """n labeled sentences, labels cycling free/paid/other."""
    rng = stream(seed, f"parking-{language}")
    out = []
    for i in range(n):
        label = PARKING_LABELS[i % 3]
        out.append((_parking_sentence(language, label, rng), label))
    return out


def parking_parallel(
    n: int, seed: int = 0, flip_fraction: float = 0.0
) -> tuple[list[tuple[str, str]], list[tuple[str, str]], list[int]]:
    """Aligned English/German labeled sentences with optional planted label
    flips on the German side; returns (en, de, flipped_indices)."""
    rng = stream(seed, "parking-parallel")
    en, de, flipped = [], [], []
    n_flips = int(n * flip_fraction)
    flip_at = set(rng.choice(n, size=n_flips, replace=False).tolist()) if n_flips else set()
    for i in range(n):
        label = PARKING_LABELS[i % 3]
        en.append((_parking_sentence("en", label, rng), label))
        de_label = label
        if i in flip_at:
            de_label = PARKING_LABELS[(PARKING_LABELS.index(label) + 1) % 3]
            flipped.append(i)
        de.append((_parking_sentence("de", de_label, rng), de_label))
    return en, de, flipped


def embedding_corpus(seed: int = 0, n_sentences: int = 800) -> list[list[str]]:
    """Tokenized sentences where in-group words share contexts, so their
    vectors should end up close (pet words, vehicle words, food words)."""
    rng = stream(seed, "embedding-corpus")
    groups = {
        "pet": (["pet", "dog", "cat", "puppy"],
                ["friendly", "welcome", "allowed", "policy", "leash", "owner"]),
        "car": (["car", "vehicle", "shuttle", "taxi"],
                ["rental", "airport", "road", "driver", "garage", "ride"]),
        "food": (["breakfast", "dinner", "meal", "buffet"],
                 ["served", "tasty", "menu", "fresh", "course", "cooked"]),
    }
    keys = sorted(groups)
    out = []
    for _ in range(n_sentences):
        key = keys[int(rng.integers(len(keys)))]
        words, contexts = groups[key]
        w = words[int(rng.integers(len(words)))]
        c1, c2, c3 = (contexts[int(rng.integers(len(contexts)))] for _ in range(3))
        sentence = [c1, w, c2, c3]
        if rng.random() < 0.3:
            sentence.insert(int(rng.integers(len(sentence) + 1)), "the")
        out.append(sentence)
    return out

"""Template-based entity handling: mismatch scanning, masking, locale-aware unmasking.

Entities (distances, durations, clock times, dates) are recognized by
per-language regex templates, replaced by indexed placeholders before
translation, and substituted back afterwards.  A target locale is a
language, which decides how values are written, plus a unit policy that
converts km and miles in every locale.  A corpus scan reports
source/target count mismatches to drive the template refinement loop.

The per-match records, `EntityMatch` and `PlaceholderEntry`, are
NamedTuples; the one-per-sentence records are frozen dataclasses.  Each
`EntityTemplate` keeps two memos (`memo.Memo`, SCAN_MEMO_LIMIT keys a
generation) that live and die with the template object: sentence -> spans
of its non-empty matches, so a sentence scanned again (validation rescans
the source that mask scanned; templated text repeats) runs no regex, and
matched text -> parsed value, so an entity text is parsed once.  A
template whose pattern is one of the shipped starter patterns, each of which
matches only text holding a digit (`needs_digit`), is skipped on sentences
without one; any other pattern is scanned on every sentence.
"""

from __future__ import annotations

import json
import re
import warnings
from collections import Counter
from dataclasses import asdict, dataclass, field
from decimal import ROUND_HALF_UP, Decimal
from typing import NamedTuple

from .corpus import ParallelCorpus, read_lines
from .memo import Memo
from .tokenizer import PLACEHOLDER_RE, format_placeholder

__all__ = [
    "EntityTemplate",
    "PlaceholderEntry",
    "PlaceholderMap",
    "LocaleFormat",
    "MismatchReport",
    "EntityError",
    "TemplateError",
    "DanglingPlaceholderError",
    "EntityWarning",
    "Distance",
    "Duration",
    "TimeOfDay",
    "DateValue",
    "KM_PER_MILE",
    "scan_mismatches",
    "mask",
    "unmask",
    "validate_entity_translation",
    "starter_templates",
    "load_templates",
    "parse_value",
]

KM_PER_MILE = Decimal("1.609344")
_UNIT_POLICIES = {"keep": None, "to_km": "mi", "to_mi": "km"}   # -> the unit it converts

TYPE_CODES = {"distance": "DIST", "duration": "DUR", "time": "TIME", "date": "DATE"}
MAX_SAMPLE_IDS = 50   # mismatched pair ids kept per entity type in a scan report
SCAN_MEMO_LIMIT = 1 << 12   # keys in each generation of a template's memos


class EntityError(ValueError):
    pass


class TemplateError(EntityError):
    pass


class DanglingPlaceholderError(EntityError):
    pass


class EntityWarning(UserWarning):
    pass


# ---------------------------------------------------------------------------
# normalized values


@dataclass(frozen=True)
class Distance:
    magnitude: Decimal
    unit: str  # m | km | mi

    def meters(self) -> float:
        return float(self.magnitude * _METERS_PER_UNIT[self.unit])


_METERS_PER_UNIT = {"m": Decimal(1), "km": Decimal(1000), "mi": KM_PER_MILE * 1000}


@dataclass(frozen=True)
class Duration:
    minutes: int


@dataclass(frozen=True)
class TimeOfDay:
    minutes: int  # since midnight


@dataclass(frozen=True)
class DateValue:
    year: int
    month: int
    day: int


def _values_comparable(a, b, rel_tol: float) -> bool:
    if type(a) is not type(b):
        return False
    if isinstance(a, Distance):
        am, bm = a.meters(), b.meters()
        return abs(am - bm) <= rel_tol * max(abs(am), abs(bm), 1e-12)
    return a == b


# ---------------------------------------------------------------------------
# templates


@dataclass
class EntityTemplate:
    entity_type: str
    language: str
    pattern: str
    regex: re.Pattern = field(init=False, repr=False)
    code: str = field(init=False, repr=False)   # the TYPE part of `⟦TYPE_i⟧`
    needs_digit: bool = field(init=False, repr=False)   # a starter pattern: no match without a digit
    _spans: Memo = field(init=False, repr=False, compare=False)
    _values: Memo = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._spans = Memo(SCAN_MEMO_LIMIT)
        self._values = Memo(SCAN_MEMO_LIMIT)
        self.code = TYPE_CODES.get(self.entity_type, self.entity_type.upper())
        # unmask finds placeholders by PLACEHOLDER_RE, so a code it cannot match would be lost
        if not PLACEHOLDER_RE.fullmatch(format_placeholder(self.code, 0)):
            raise TemplateError(
                f"template {self.entity_type}/{self.language}: placeholder code {self.code!r} "
                f"is not a capital A-Z followed by capitals A-Z or digits"
            )
        try:
            self.regex = re.compile(self.pattern, re.IGNORECASE)
        except re.error as exc:
            raise TemplateError(
                f"template {self.entity_type}/{self.language}: bad pattern {self.pattern!r}: {exc}"
            ) from None
        # the regex depends only on the pattern (the flags are fixed), so a starter's gate holds
        self.needs_digit = self.pattern in _DIGIT_PATTERNS

    def spans(self, sentence: str) -> tuple[tuple[int, int], ...]:
        """(start, end) of each non-empty match in the sentence (memoized)."""
        spans = self._spans.get(sentence)
        return self._spans.fill(sentence, self._scan) if spans is None else spans

    def _scan(self, sentence: str) -> tuple[tuple[int, int], ...]:
        return tuple(m.span() for m in self.regex.finditer(sentence) if m.end() > m.start())

    def parse(self, text: str):
        """`parse_value` of the text in this template's type and language."""
        return parse_value(self.entity_type, text, self.language)

    def value(self, text: str):
        """`parse(text)`, memoized; a parse error is raised again on every call."""
        value = self._values.get(text)
        return self._values.fill(text, self.parse) if value is None else value


_EN_MONTHS = {m.lower(): i + 1 for i, m in enumerate(
    ["January", "February", "March", "April", "May", "June", "July",
     "August", "September", "October", "November", "December"])}
_DE_MONTHS = {m.lower(): i + 1 for i, m in enumerate(
    ["Januar", "Februar", "März", "April", "Mai", "Juni", "Juli",
     "August", "September", "Oktober", "November", "Dezember"])}

_NUM_RE = re.compile(r"\d+(?:[.,]\d+)?")
_CLOCK_RE = re.compile(r"(\d{1,2})(?::(\d{2}))?")
_PM_RE = re.compile(r"\dp|p\.?\s?m\.?")
_AM_RE = re.compile(r"\da|a\.?\s?m\.?")
_ISO_DATE_RE = re.compile(r"(\d{4})-(\d{2})-(\d{2})")
_DIGITS_RE = re.compile(r"\d+")
_NUMERIC_DATE_RE = re.compile(r"(\d{1,2})[./](\d{1,2})[./](\d{4})")


def _parse_number(text: str, language: str) -> Decimal:
    m = _NUM_RE.search(text)
    if not m:
        raise EntityError(f"no number in entity text {text!r}")
    num = m.group()
    if language == "de":
        num = num.replace(",", ".")
    else:
        num = num.replace(",", "")  # thousands separator
    return Decimal(num)


def _parse_distance(text: str, language: str) -> Distance:
    low = text.lower()
    if "km" in low or "kilomet" in low:
        unit = "km"
    elif "mi" in low and "min" not in low or "meile" in low:
        unit = "mi"
    else:
        unit = "m"
    return Distance(_parse_number(text, language), unit)


def _parse_duration(text: str, language: str) -> Duration:
    low = text.lower()
    hours = any(k in low for k in ("hour", "stunde", "stündig"))
    n = _parse_number(text, language)
    return Duration(int(n * 60) if hours else int(n))


def _parse_time(text: str, language: str) -> TimeOfDay:
    low = text.lower().strip()
    m = _CLOCK_RE.search(low)
    if not m:
        raise EntityError(f"unparseable time {text!r}")
    hour, minute = int(m.group(1)), int(m.group(2) or 0)
    if _PM_RE.search(low) and hour != 12:
        hour += 12
    elif _AM_RE.search(low) and hour == 12:
        hour = 0
    return TimeOfDay((hour % 24) * 60 + minute)


def _parse_date(text: str, language: str) -> DateValue:
    months = _DE_MONTHS if language == "de" else _EN_MONTHS
    low = text.lower().strip()
    iso = _ISO_DATE_RE.fullmatch(low)
    if iso:
        return DateValue(int(iso.group(1)), int(iso.group(2)), int(iso.group(3)))
    for name, number in months.items():
        if name in low:
            nums = _DIGITS_RE.findall(low)
            if len(nums) >= 2:
                day, year = int(nums[0]), int(nums[-1])
                return DateValue(year, number, day)
    numeric = _NUMERIC_DATE_RE.fullmatch(low)
    if numeric:
        a, b, year = int(numeric.group(1)), int(numeric.group(2)), int(numeric.group(3))
        if language == "de":
            return DateValue(year, b, a)   # DD.MM.YYYY
        return DateValue(year, a, b)       # MM/DD/YYYY
    raise EntityError(f"unparseable date {text!r}")


_PARSERS = {
    "distance": _parse_distance,
    "duration": _parse_duration,
    "time": _parse_time,
    "date": _parse_date,
}


def parse_value(entity_type: str, text: str, language: str):
    """The normalized value of `text`, written in `language`; a type with no parser keeps `text`."""
    parser = _PARSERS.get(entity_type)
    return text if parser is None else parser(text, language)


_EN_MONTH_ALT = "|".join(m.capitalize() for m in _EN_MONTHS)
_DE_MONTH_ALT = "|".join(m.capitalize() for m in _DE_MONTHS)

_STARTER_PATTERNS = {
    "en": {
        "distance": r"\b\d+(?:\.\d+)?\s*(?:kilometers?|kilometres?|km|meters?|metres?|miles?|mi|m)\b",
        "duration": r"\b\d+[-\s]?(?:minutes?|min|hours?)\b",
        "time": r"\b\d{1,2}:\d{2}\s?(?:[ap]\.?m\.?)?\b|\b\d{1,2}\s?[ap]\.?m\.?(?=\W|$)",
        "date": (r"\b(?:" + _EN_MONTH_ALT + r")\s+\d{1,2},?\s+\d{4}\b"
                 r"|\b\d{1,2}\s+(?:" + _EN_MONTH_ALT + r")\s+\d{4}\b"
                 r"|\b\d{4}-\d{2}-\d{2}\b|\b\d{1,2}/\d{1,2}/\d{4}\b"),
    },
    "de": {
        "distance": r"\b\d+(?:,\d+)?\s*(?:Kilometern?|km|Metern?|Meilen?|m)\b",
        "duration": r"\b\d+[-\s]?(?:Minuten?|minütige[nrms]?|Min\.?|Stunden?|stündige[nrms]?)\b",
        "time": r"\b\d{1,2}:\d{2}(?:\s?Uhr)?\b|\b\d{1,2}\s?Uhr\b",
        "date": (r"\b\d{1,2}\.\s?(?:" + _DE_MONTH_ALT + r")\s+\d{4}\b"
                 r"|\b\d{1,2}\.\d{1,2}\.\d{4}\b|\b\d{4}-\d{2}-\d{2}\b"),
    },
}


# each starter pattern must match only text that holds a digit (a hypothesis test checks it)
_DIGIT_PATTERNS = frozenset(p for by_type in _STARTER_PATTERNS.values() for p in by_type.values())


def starter_templates(language: str) -> list[EntityTemplate]:
    """Shipped starting point for the refinement loop (English and German)."""
    try:
        patterns = _STARTER_PATTERNS[language]
    except KeyError:
        raise TemplateError(f"no starter templates for language {language!r}") from None
    return [EntityTemplate(t, language, p) for t, p in patterns.items()]


def load_templates(path: str) -> list[EntityTemplate]:
    """One record per line: type <tab> lang <tab> pattern; '#' comments."""
    templates = []
    for i, line in enumerate(read_lines(path), start=1):
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise TemplateError(f"{path}: line {i}: expected 3 tab-separated fields")
        templates.append(EntityTemplate(parts[0], parts[1], parts[2]))
    return templates


# ---------------------------------------------------------------------------
# matching


class EntityMatch(NamedTuple):
    start: int
    end: int
    text: str
    entity_type: str
    code: str
    value: object


def find_entities(sentence: str, templates: list[EntityTemplate]) -> list[EntityMatch]:
    """Non-overlapping matches, leftmost-longest; earlier template wins ties.

    Spans inside existing placeholders are never matched, which makes
    masking idempotent.
    """
    digit = _DIGITS_RE.search(sentence) is not None
    candidates = []
    for t_index, template in enumerate(templates):
        if digit or not template.needs_digit:
            for start, end in template.spans(sentence):
                candidates.append((start, start - end, t_index, end, template))
    if "⟦" in sentence:
        forbidden = [m.span() for m in PLACEHOLDER_RE.finditer(sentence)]
        candidates = [c for c in candidates
                      if not any(c[0] < fe and fs < c[3] for fs, fe in forbidden)]
    # a template's non-empty matches never share a start, so (start, -length,
    # t_index) is unique and the sort never compares templates
    candidates.sort()
    picked: list[EntityMatch] = []
    cursor = 0
    for start, neg_len, t_index, end, template in candidates:
        if start < cursor:
            continue
        text = sentence[start:end]
        picked.append(EntityMatch(start, end, text, template.entity_type, template.code,
                                  template.value(text)))
        cursor = end
    return picked


# ---------------------------------------------------------------------------
# masking / unmasking


class PlaceholderEntry(NamedTuple):
    index: int
    entity_type: str
    original_text: str
    value: object


@dataclass(frozen=True)
class PlaceholderMap:
    masked_sentence: str
    entries: tuple[PlaceholderEntry, ...]
    source_language: str


@dataclass(frozen=True)
class LocaleFormat:
    language: str              # "en" | "de"
    unit_policy: str = "keep"  # "keep" | "to_km" | "to_mi"

    def __post_init__(self):
        if self.language not in ("en", "de") or self.unit_policy not in _UNIT_POLICIES:
            raise EntityError(f"{self}: the language must be en or de and the unit policy "
                              f"one of {', '.join(_UNIT_POLICIES)}")


EN_LOCALE = LocaleFormat("en")
DE_LOCALE = LocaleFormat("de")


def mask(sentence: str, templates: list[EntityTemplate]) -> PlaceholderMap:
    """Replace recognized entities with indexed `⟦TYPE_i⟧` placeholders."""
    matches = find_entities(sentence, templates)
    out = []
    entries = []
    cursor = 0
    for i, m in enumerate(matches):
        out.append(sentence[cursor : m.start])
        out.append(format_placeholder(m.code, i))
        entries.append(PlaceholderEntry(i, m.entity_type, m.text, m.value))
        cursor = m.end
    out.append(sentence[cursor:])
    language = templates[0].language if templates else ""
    return PlaceholderMap("".join(out), tuple(entries), language)


def _converted(value, unit_policy: str):
    """A km or mi distance in the policy's unit, rounded to 0.1; any value the policy
    leaves as it is (meters, other types, `keep`) comes back as the same object."""
    if isinstance(value, Distance) and value.unit == _UNIT_POLICIES[unit_policy]:
        unit = "km" if value.unit == "mi" else "mi"
        mag = value.magnitude * KM_PER_MILE if unit == "km" else value.magnitude / KM_PER_MILE
        return Distance(mag.quantize(Decimal("0.1"), rounding=ROUND_HALF_UP), unit)
    return value


def _render_value(value, language: str) -> str:
    """`value` written in `language`, by the rule the parsers read: German `1,9 km`, `1 Meile`,
    `12,5 Meilen`, `14:30`, `05.03.2018`; English `1.9 km`, `12.5 mi`, `2:30 pm`, `03/05/2018`."""
    de = language == "de"
    if isinstance(value, Distance):
        number = str(value.magnitude)
        if de:
            unit = ("Meile" if number == "1" else "Meilen") if value.unit == "mi" else value.unit
            return f"{number.replace('.', ',')} {unit}"
        return f"{number} {value.unit}"
    if isinstance(value, Duration):
        return f"{value.minutes} min"
    if isinstance(value, TimeOfDay):
        hour, minute = divmod(value.minutes, 60)
        if de:
            return f"{hour:02d}:{minute:02d}"
        return f"{hour % 12 or 12}:{minute:02d} {'am' if hour < 12 else 'pm'}"
    if isinstance(value, DateValue):
        if de:
            return f"{value.day:02d}.{value.month:02d}.{value.year:04d}"
        return f"{value.month:02d}/{value.day:02d}/{value.year:04d}"
    return str(value)


def unmask(translated: str, pmap: PlaceholderMap, locale: LocaleFormat) -> str:
    """Substitute placeholders back, rendering values for the target locale.

    With the source locale, an entry the unit policy leaves as it is keeps
    its original surface form, making mask -> unmask with `keep` a
    byte-exact round trip.
    """
    if not pmap.entries and "⟦" not in translated:
        return translated
    by_index = {e.index: e for e in pmap.entries}
    seen = []
    source_locale = locale.language == pmap.source_language

    def substitute(m: re.Match) -> str:
        index = int(m.group(1))
        entry = by_index.get(index)
        if entry is None:
            raise DanglingPlaceholderError(
                f"placeholder {m.group()} has no entry in the map (indices "
                f"{sorted(by_index)})"
            )
        seen.append(index)
        value = _converted(entry.value, locale.unit_policy)
        if source_locale and value is entry.value:
            return entry.original_text
        return _render_value(value, locale.language)

    result = PLACEHOLDER_RE.sub(substitute, translated)
    # every seen index is in by_index, so equal counts with no repeat mean none was lost
    if len(seen) != len(by_index) or len(set(seen)) != len(seen):
        counts = Counter(seen)
        lost = sorted(set(by_index) - set(counts))
        if lost:
            warnings.warn(f"placeholders lost by translation: indices {lost}", EntityWarning)
        duplicated = sorted(i for i, n in counts.items() if n > 1)
        if duplicated:
            warnings.warn(f"placeholders duplicated by translation: indices {duplicated}",
                          EntityWarning)
    return result


# ---------------------------------------------------------------------------
# corpus scan & validation


@dataclass(frozen=True)
class MismatchReport:
    pair_count: int
    mismatch_counts: dict
    sample_ids: dict
    unmatched: dict           # language -> {surface: count}
    total_unmatched: int

    def to_json(self) -> str:
        return json.dumps(asdict(self), ensure_ascii=False)

    def to_text(self) -> str:
        lines = [f"pairs scanned: {self.pair_count}"]
        for etype in sorted(self.mismatch_counts):
            ids = ", ".join(str(i) for i in self.sample_ids[etype][:10])
            lines.append(f"{etype:<12} mismatched pairs: {self.mismatch_counts[etype]:<6} sample ids: {ids}")
        for lang in sorted(self.unmatched):
            lines.append(f"-- most common unmatched surfaces [{lang}] --")
            for surface, count in Counter(self.unmatched[lang]).most_common(20):
                lines.append(f"{count:>6}  {surface}")
        return "\n".join(lines)


def _pair_values(src_matches: list[EntityMatch], tgt_matches: list[EntityMatch],
                 rel_tol: float) -> tuple[list[EntityMatch], list[EntityMatch]]:
    """Greedy value pairing: each source match, in order, takes the first
    remaining target match with a comparable value.  Returns the unpaired
    source matches and the unpaired target matches."""
    remaining = list(tgt_matches)
    unpaired_src = []
    for sm in src_matches:
        hit = next((tm for tm in remaining if _values_comparable(sm.value, tm.value, rel_tol)), None)
        if hit is None:
            unpaired_src.append(sm)
        else:
            remaining.remove(hit)
    return unpaired_src, remaining


def scan_mismatches(
    corpus: ParallelCorpus,
    templates_src: list[EntityTemplate],
    templates_tgt: list[EntityTemplate],
) -> MismatchReport:
    """Count pairs whose per-type entity counts differ between the sides.

    For mismatched pairs, surfaces that cannot be paired with an
    equal-valued surface on the other side are tallied per language; the
    resulting frequency table is what the refinement loop proofreads.
    """
    if not templates_src or not templates_tgt:
        raise TemplateError("template lists must be non-empty for both sides")
    types = sorted({t.entity_type for t in templates_src} | {t.entity_type for t in templates_tgt})
    mismatch_counts = {t: 0 for t in types}
    sample_ids = {t: [] for t in types}
    src_lang = templates_src[0].language or "src"
    tgt_lang = templates_tgt[0].language or "tgt"
    if tgt_lang == src_lang:
        tgt_lang += "-tgt"
    unmatched = {src_lang: Counter(), tgt_lang: Counter()}
    total = 0
    for pair in corpus:
        src_matches = find_entities(pair.source, templates_src)
        tgt_matches = find_entities(pair.target, templates_tgt)
        if sorted(m.entity_type for m in src_matches) == sorted(m.entity_type for m in tgt_matches):
            continue  # every type's count matches
        for etype in types:
            src_here = [m for m in src_matches if m.entity_type == etype]
            tgt_here = [m for m in tgt_matches if m.entity_type == etype]
            if len(src_here) == len(tgt_here):
                continue
            mismatch_counts[etype] += 1
            if len(sample_ids[etype]) < MAX_SAMPLE_IDS:
                sample_ids[etype].append(pair.id)
            unpaired_src, unpaired_tgt = _pair_values(src_here, tgt_here, 1e-9)
            unmatched[src_lang].update(m.text for m in unpaired_src)
            unmatched[tgt_lang].update(m.text for m in unpaired_tgt)
            total += len(unpaired_src) + len(unpaired_tgt)
    return MismatchReport(len(corpus), mismatch_counts, sample_ids,
                          {k: dict(v) for k, v in unmatched.items()}, total)


@dataclass(frozen=True)
class EntityValidation:
    scores: tuple[int, ...]
    accuracy: float


def validate_entity_translation(
    pairs: list[tuple[str, str]],
    templates_src: list[EntityTemplate],
    templates_tgt: list[EntityTemplate],
    rel_tolerance: float = 0.005,
) -> EntityValidation:
    """Binary per-sentence scores: 1 iff the normalized entity values agree.

    Distances compare in meters (so unit conversions count as correct
    within the relative tolerance, which must lie in [0, 1)); other types
    compare exactly.
    """
    if not pairs:
        raise EntityError("no pairs to validate")
    if not 0 <= rel_tolerance < 1:
        raise EntityError(f"relative tolerance must be in [0, 1), got {rel_tolerance}")
    scores = []
    for i, (source, output) in enumerate(pairs):
        src_matches = find_entities(source, templates_src)
        if not src_matches:
            raise EntityError(f"pair {i}: source contains no audited entity")
        unpaired_src, unpaired_tgt = _pair_values(
            src_matches, find_entities(output, templates_tgt), rel_tolerance)
        scores.append(0 if unpaired_src or unpaired_tgt else 1)
    return EntityValidation(tuple(scores), sum(scores) / len(scores))

import hashlib
import json
import warnings
from collections import Counter
from decimal import Decimal
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtlab import entities as en
from mtlab import tokenizer as tk
from mtlab.corpus import ParallelCorpus, SentencePair
from mtlab.humaneval import AdequacyFluencyRecord
from mtlab.synth import entity_sentences

EN_TPL = en.starter_templates("en")
DE_TPL = en.starter_templates("de")


def corpus_from(rows):
    pairs = tuple(SentencePair(s, t, i) for i, (s, t) in enumerate(rows))
    return ParallelCorpus(pairs)


class TestMask:
    def test_duration_sentence(self):
        s = "Winterfell Railway Station can be reached in a 55-minute car ride."
        pmap = en.mask(s, EN_TPL)
        assert pmap.masked_sentence == (
            "Winterfell Railway Station can be reached in a ⟦DUR_0⟧ car ride."
        )
        entry = pmap.entries[0]
        assert (entry.index, entry.entity_type, entry.original_text) == (0, "duration", "55-minute")
        assert entry.value == en.Duration(55)

    def test_no_entities(self):
        pmap = en.mask("No entities here.", EN_TPL)
        assert pmap.masked_sentence == "No entities here."
        assert pmap.entries == ()
        assert en.unmask(pmap.masked_sentence, pmap, en.DE_LOCALE) == "No entities here."

    def test_two_distances_in_order(self):
        pmap = en.mask("1.9 km from A, 300 m from B", EN_TPL)
        assert "⟦DIST_0⟧" in pmap.masked_sentence and "⟦DIST_1⟧" in pmap.masked_sentence
        assert [e.index for e in pmap.entries] == [0, 1]
        assert pmap.entries[0].value == en.Distance(Decimal("1.9"), "km")
        assert pmap.entries[1].value == en.Distance(Decimal("300"), "m")

    def test_mask_is_idempotent(self):
        s = "It is 5 km away, a 10-minute ride."
        pmap = en.mask(s, EN_TPL)
        again = en.mask(pmap.masked_sentence, EN_TPL)
        assert again.entries == ()
        assert again.masked_sentence == pmap.masked_sentence

    def test_placeholder_count_matches_entries(self):
        for s in entity_sentences(50, seed=3):
            pmap = en.mask(s, EN_TPL)
            from mtlab.tokenizer import PLACEHOLDER_RE
            assert len(PLACEHOLDER_RE.findall(pmap.masked_sentence)) == len(pmap.entries)


class TestUnmask:
    def test_identity_locale_round_trip(self):
        for s in entity_sentences(100, seed=5):
            pmap = en.mask(s, EN_TPL)
            assert en.unmask(pmap.masked_sentence, pmap, en.EN_LOCALE) == s

    def test_german_locale_keeps_value(self):
        s = "Winterfell Railway Station can be reached in a 55-minute car ride."
        pmap = en.mask(s, EN_TPL)
        translated = "Den Bahnhof erreichen Sie nach einer ⟦DUR_0⟧ Autofahrt."
        out = en.unmask(translated, pmap, en.DE_LOCALE)
        assert "55" in out
        assert "⟦" not in out

    def test_decimal_separator(self):
        pmap = en.mask("only 1.9 km away", EN_TPL)
        out = en.unmask("nur ⟦DIST_0⟧ entfernt", pmap, en.DE_LOCALE)
        assert "1,9 km" in out

    def test_mile_conversion_with_rounding(self):
        pmap = en.mask("about 10 miles from town", EN_TPL)
        locale = en.LocaleFormat("de", "to_km")
        out = en.unmask("etwa ⟦DIST_0⟧ von der Stadt", pmap, locale)
        assert "16,1 km" in out

    @pytest.mark.parametrize("policy, expected", [
        ("keep", "The airport lies 12.5 miles away, 3 km from town."),
        ("to_km", "The airport lies 20.1 km away, 3 km from town."),
        ("to_mi", "The airport lies 12.5 miles away, 1.9 mi from town."),
    ])
    def test_unit_policy_applies_in_the_source_locale(self, policy, expected):
        pmap = en.mask("The airport lies 12.5 miles away, 3 km from town.", EN_TPL)
        assert en.unmask(pmap.masked_sentence, pmap, en.LocaleFormat("en", policy)) == expected

    @pytest.mark.parametrize("args", [("fr",), ("en", "to_xx")], ids=["language", "policy"])
    def test_locale_rejects_unknown_values(self, args):
        with pytest.raises(en.EntityError, match="must be en or de"):
            en.LocaleFormat(*args)

    def test_dangling_placeholder(self):
        pmap = en.mask("5 km away", EN_TPL)
        with pytest.raises(en.DanglingPlaceholderError):
            en.unmask("⟦DIST_0⟧ und ⟦DIST_7⟧", pmap, en.DE_LOCALE)

    def test_lost_placeholder_warns(self):
        pmap = en.mask("5 km away, a 10-minute ride", EN_TPL)
        with pytest.warns(en.EntityWarning, match="lost"):
            en.unmask("nur ⟦DIST_0⟧ entfernt", pmap, en.DE_LOCALE)

    def test_map_out_of_order_with_gaps_restores(self):
        # the shape `ner unmask` builds from a JSON map: any order, any indices
        entries = tuple(en.PlaceholderEntry(i, t.entity_type, text, t.parse(text)) for i, t, text in [
            (7, EN_TPL[2], "2:30 pm"), (2, EN_TPL[0], "1.9 km"), (4, EN_TPL[1], "10-minute")])
        pmap = en.PlaceholderMap("", entries, "en")
        translated = "⟦DIST_2⟧, ⟦DUR_4⟧ bis ⟦TIME_7⟧"
        with warnings.catch_warnings():
            warnings.simplefilter("error", en.EntityWarning)
            assert en.unmask(translated, pmap, en.EN_LOCALE) == "1.9 km, 10-minute bis 2:30 pm"
            assert en.unmask(translated, pmap, en.DE_LOCALE) == "1,9 km, 10 min bis 14:30"
        with pytest.raises(en.DanglingPlaceholderError, match=r"⟦DIST_3⟧ .*\[2, 4, 7\]"):
            en.unmask("⟦DIST_2⟧ ⟦DIST_3⟧", pmap, en.DE_LOCALE)

    @pytest.mark.parametrize("translated, messages", [
        ("⟦DIST_0⟧ ⟦DIST_0⟧", ["lost by translation: indices [1, 2]",
                               "duplicated by translation: indices [0]"]),
        ("⟦DIST_2⟧ ⟦DIST_2⟧ ⟦DIST_0⟧", ["lost by translation: indices [1]",
                                       "duplicated by translation: indices [2]"]),
        ("⟦DIST_1⟧ ⟦DIST_1⟧ ⟦DIST_1⟧ ⟦DIST_0⟧", ["lost by translation: indices [2]",
                                                "duplicated by translation: indices [1]"]),
        ("⟦DIST_0⟧ ⟦DIST_1⟧ ⟦DIST_2⟧ ⟦DIST_1⟧", ["duplicated by translation: indices [1]"]),
        ("⟦DIST_2⟧", ["lost by translation: indices [0, 1]"]),
        ("⟦DIST_2⟧ ⟦DIST_0⟧ ⟦DIST_1⟧", []),
    ], ids=["fewer", "same-count", "more", "extra", "one", "reordered"])
    def test_lost_and_duplicated_warnings(self, translated, messages):
        pmap = en.mask("1 km, 2 km, 3 km", EN_TPL)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", en.EntityWarning)
            en.unmask(translated, pmap, en.DE_LOCALE)
        assert [str(w.message) for w in caught] == [f"placeholders {m}" for m in messages]
        assert all(w.category is en.EntityWarning for w in caught)

    @pytest.mark.parametrize("templates, other, written", [
        (EN_TPL, en.DE_LOCALE, "04.05.2024"), (DE_TPL, en.EN_LOCALE, "05/04/2024"),
    ], ids=["en", "de"])
    def test_iso_date_renders_in_the_other_locale(self, templates, other, written):
        pmap = en.mask("ab 2024-05-04", templates)
        assert pmap.entries[0].value == en.DateValue(2024, 5, 4)
        assert en.unmask(pmap.masked_sentence, pmap, other) == f"ab {written}"

    def test_time_and_date_rendering(self):
        pmap = en.mask("open from 2:30 pm on March 5, 2018", EN_TPL)
        out = en.unmask("ab ⟦TIME_0⟧ am ⟦DATE_1⟧", pmap, en.DE_LOCALE)
        assert "14:30" in out
        assert "05.03.2018" in out


class TestScan:
    def test_all_counts_equal(self):
        corpus = corpus_from([("5 km away", "5 km entfernt"), ("a 10-minute ride", "eine 10-minütige Fahrt")])
        report = en.scan_mismatches(corpus, EN_TPL, DE_TPL)
        assert all(v == 0 for v in report.mismatch_counts.values())
        assert report.total_unmatched == 0

    def test_template_gap_found_then_fixed(self):
        corpus = corpus_from([("5 km away", "500 m entfernt")])
        # German template without the bare-m alternation misses "500 m"
        gappy = [en.EntityTemplate("distance", "de", r"\b\d+(?:,\d+)?\s*(?:Kilometern?|km)\b")]
        report = en.scan_mismatches(corpus, EN_TPL, gappy)
        assert report.mismatch_counts["distance"] == 1
        assert 0 in report.sample_ids["distance"]
        assert report.unmatched["en"].get("5 km") == 1
        fixed = [en.EntityTemplate("distance", "de", r"\b\d+(?:,\d+)?\s*(?:Kilometern?|km|Metern?|m)\b")]
        report2 = en.scan_mismatches(corpus, EN_TPL, fixed)
        assert report2.mismatch_counts["distance"] == 0

    def test_single_mismatched_pair_of_three(self):
        corpus = corpus_from([
            ("5 km away", "5 km entfernt"),
            ("about 3 km", "in der Nähe"),
            ("no entity", "nichts hier"),
        ])
        report = en.scan_mismatches(corpus, EN_TPL, DE_TPL)
        assert report.mismatch_counts["distance"] == 1
        assert report.sample_ids["distance"] == [1]

    def test_determinism(self):
        corpus = corpus_from([("5 km and 2:30 pm", "nur 5 km"), ("1 mile away", "1,6 km entfernt")])
        a = en.scan_mismatches(corpus, EN_TPL, DE_TPL)
        b = en.scan_mismatches(corpus, EN_TPL, DE_TPL)
        assert a == b

    def test_empty_templates_rejected(self):
        corpus = corpus_from([("x", "y")])
        with pytest.raises(en.TemplateError):
            en.scan_mismatches(corpus, [], DE_TPL)

    def test_matches_per_type_reference(self):
        # balanced pairs are skipped as a whole; pairs whose types come in
        # another order must count as balanced, and pairs with equal totals
        # but other types as mismatched, as the per-type loop counts them
        corpus = corpus_from([
            ("5 km, then 2 hours", "2 Stunden, dann 5 km"),
            ("at 10:30 after 3 km", "nach 3 km um 10:30"),
            ("5 km away", "2 Stunden entfernt"),
            ("5 km and 3 km", "5 km und 2 Stunden"),
            ("2 hours, 5 km, 3 km", "3 km, 5 km"),
            ("no entity", "nichts hier"),
            ("4 miles", "6,4 km"),
            ("at 10:30", "um 11:30 und 12:00"),
        ])
        assert en.scan_mismatches(corpus, EN_TPL, DE_TPL) == _reference_scan_mismatches(
            corpus, EN_TPL, DE_TPL)


def _reference_scan_mismatches(corpus, templates_src, templates_tgt):
    """`scan_mismatches` with the per-type comparison run on every pair."""
    types = sorted({t.entity_type for t in templates_src} | {t.entity_type for t in templates_tgt})
    mismatch_counts = {t: 0 for t in types}
    sample_ids = {t: [] for t in types}
    src_lang, tgt_lang = templates_src[0].language, templates_tgt[0].language
    unmatched = {src_lang: Counter(), tgt_lang: Counter()}
    total = 0
    for pair in corpus:
        src_matches = en.find_entities(pair.source, templates_src)
        tgt_matches = en.find_entities(pair.target, templates_tgt)
        for etype in types:
            src_here = [m for m in src_matches if m.entity_type == etype]
            tgt_here = [m for m in tgt_matches if m.entity_type == etype]
            if len(src_here) == len(tgt_here):
                continue
            mismatch_counts[etype] += 1
            if len(sample_ids[etype]) < en.MAX_SAMPLE_IDS:
                sample_ids[etype].append(pair.id)
            unpaired_src, unpaired_tgt = en._pair_values(src_here, tgt_here, 1e-9)
            unmatched[src_lang].update(m.text for m in unpaired_src)
            unmatched[tgt_lang].update(m.text for m in unpaired_tgt)
            total += len(unpaired_src) + len(unpaired_tgt)
    return en.MismatchReport(pair_count=len(corpus), mismatch_counts=mismatch_counts,
                             sample_ids=sample_ids,
                             unmatched={k: dict(v) for k, v in unmatched.items()},
                             total_unmatched=total)


class TestValidate:
    def test_equal_distance(self):
        result = en.validate_entity_translation([("5 km", "5 km")], EN_TPL, DE_TPL)
        assert result.scores == (1,)

    def test_converted_miles(self):
        result = en.validate_entity_translation([("10 miles", "16,1 km")], EN_TPL, DE_TPL)
        assert result.scores == (1,)
        assert result.accuracy == 1.0

    def test_wrong_duration(self):
        result = en.validate_entity_translation(
            [("a 55-minute ride", "einer 5-minütigen Fahrt")], EN_TPL, DE_TPL)
        assert result.scores == (0,)

    def test_distance_against_a_duration(self):
        result = en.validate_entity_translation([("5 km", "5 Minuten")], EN_TPL, DE_TPL)
        assert result.scores == (0,)

    def test_source_without_entity_rejected(self):
        with pytest.raises(en.EntityError):
            en.validate_entity_translation([("nothing here", "nichts")], EN_TPL, DE_TPL)

    def test_no_pairs_rejected(self):
        with pytest.raises(en.EntityError, match="no pairs"):
            en.validate_entity_translation([], EN_TPL, DE_TPL)

    @pytest.mark.parametrize("tolerance", [float("nan"), -1.0, -1e-9, 1.0, float("inf")])
    def test_tolerance_outside_unit_interval_rejected(self, tolerance):
        with pytest.raises(en.EntityError, match="tolerance"):
            en.validate_entity_translation([("5 km", "5 km")], EN_TPL, DE_TPL, tolerance)

    def test_zero_tolerance_accepted(self):
        result = en.validate_entity_translation([("5 km", "5 km")], EN_TPL, DE_TPL, 0.0)
        assert result.scores == (1,)


class TestTemplates:
    def test_bad_pattern_names_template(self):
        with pytest.raises(en.TemplateError, match="distance/en"):
            en.EntityTemplate("distance", "en", r"([unclosed")

    @pytest.mark.parametrize("entity_type", ["hotel_name", "hotel-name", "2nd", "hôtel", ""])
    def test_type_without_a_placeholder_code_rejected(self, entity_type):
        with pytest.raises(en.TemplateError, match="placeholder code"):
            en.EntityTemplate(entity_type, "en", r"Grand Hotel")

    @given(st.text(alphabet="az09_-ıßé", max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_every_accepted_type_round_trips(self, entity_type):
        try:
            template = en.EntityTemplate(entity_type, "en", r"Grand Hotel")
        except en.TemplateError:
            return
        s = "Grand Hotel, then Grand Hotel again."
        pmap = en.mask(s, [template])
        assert len(pmap.entries) == 2
        with warnings.catch_warnings():
            warnings.simplefilter("error", en.EntityWarning)
            assert en.unmask(pmap.masked_sentence, pmap, en.EN_LOCALE) == s

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "templates.tsv"
        path.write_text("# starters\n\n" + "".join(f"{t.entity_type}\t{t.language}\t{t.pattern}\n"
                                                   for t in EN_TPL), encoding="utf-8")
        loaded = en.load_templates(path)
        assert [(t.entity_type, t.language, t.pattern) for t in loaded] == [
            (t.entity_type, t.language, t.pattern) for t in EN_TPL
        ]

    def test_no_starters_for_another_language(self):
        with pytest.raises(en.TemplateError, match="no starter templates for language 'fr'"):
            en.starter_templates("fr")

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("onlytwo\tfields\n", encoding="utf-8")
        with pytest.raises(en.TemplateError, match="line 1"):
            en.load_templates(path)

    def test_parser_succeeds_on_generated_matches(self):
        # every surface the starter patterns accept must parse
        for language, templates in (("en", EN_TPL), ("de", DE_TPL)):
            for s in entity_sentences(200, seed=11, language=language):
                for m in en.find_entities(s, templates):
                    assert m.value is not None


def reference_find_entities(sentence, templates):
    """find_entities without the scan memo: every call runs every regex."""
    forbidden = ([(m.start(), m.end()) for m in tk.PLACEHOLDER_RE.finditer(sentence)]
                 if "⟦" in sentence else [])
    candidates = []
    for t_index, template in enumerate(templates):
        for m in template.regex.finditer(sentence):
            if m.end() == m.start():
                continue
            if any(m.start() < fe and fs < m.end() for fs, fe in forbidden):
                continue
            candidates.append((m.start(), -(m.end() - m.start()), t_index, m.end(), template))
    candidates.sort(key=lambda c: c[:3])
    picked = []
    cursor = 0
    for start, neg_len, t_index, end, template in candidates:
        if start < cursor:
            continue
        text = sentence[start:end]
        picked.append(en.EntityMatch(start, end, text, template.entity_type, template.code,
                                     template.parse(text)))
        cursor = end
    return picked


_FRAGMENTS = ["5", "12", "3.5", "1,5", "2024", "10:30", "7", "٣", "-", " ", " ", ".", ",", "/",
              ":", "km", "m", "mi", "miles", "Kilometer", "Meilen", "min", "minute", "Minuten",
              "hours", "Stunden", "Uhr", "pm", "a.m.", "March", "März", "Mai", "December",
              "ride", "Eiffel Tower", "⟦DIST_0⟧", "⟦DIST_0", "⟧"]
_SENTENCES = st.lists(st.sampled_from(_FRAGMENTS), max_size=14).map("".join)
# a user template that needs no digit and has no parser: the digit gate must never skip it
LANDMARK = en.EntityTemplate("landmark", "en", r"\bEiffel Tower\b")


def _memo_sizes(templates):
    return [len(m) for t in templates for memo in (t._spans, t._values)
            for m in (memo, memo.previous)]


@given(_SENTENCES)
@settings(max_examples=300, deadline=None)
def test_find_entities_matches_reference(sentence):
    for templates in (EN_TPL, DE_TPL, [*EN_TPL, LANDMARK]):
        expected = reference_find_entities(sentence, templates)
        assert en.find_entities(sentence, templates) == expected
        assert en.find_entities(sentence, templates) == expected   # from the memos
        fresh = [en.EntityTemplate(t.entity_type, t.language, t.pattern) for t in templates]
        for t in fresh:
            t._spans.limit = t._values.limit = 2
        for other in (sentence + " 5 km", sentence, "4 pm " + sentence, sentence):
            assert en.find_entities(other, fresh) == reference_find_entities(other, fresh)
            assert max(_memo_sizes(fresh)) <= 2   # both generations of both memos


def test_memo_keeps_a_recurring_sentence_across_one_offs():
    template = en.EntityTemplate("distance", "en", r"\d+ km")
    template._spans.limit = 2
    with mock.patch.object(template, "_scan", wraps=template._scan) as scan:
        for one_off in range(6):
            assert template.spans("5 km") == ((0, 4),)
            template.spans(f"{one_off} km, once")
    assert scan.call_count == 7   # "5 km" once, each one-off once


@pytest.mark.parametrize("pattern, needs_digit", [
    (r"\d+ km", False), (r"\d*", False), (r"(\d|a)", False), (r"(?=\d)x", False),
    (r"\d{0,2}", False), (r"[^a]", False), (r"\d+|km", False), (r"\bEiffel Tower\b", False),
])
def test_needs_digit(pattern, needs_digit):
    # only a shipped starter pattern is gated, whatever digits a loaded pattern demands
    assert en.EntityTemplate("distance", "en", pattern).needs_digit is needs_digit


def test_every_starter_template_is_gated():
    assert all(t.needs_digit for t in EN_TPL + DE_TPL)


# the words the starter patterns spell out, with their separators and no digit
_STARTER_WORDS = [
    *en._EN_MONTHS, *en._DE_MONTHS, "March", "März", "Mai", "May",
    "kilometers", "kilometer", "kilometres", "kilometre", "km", "meters", "meter", "metres",
    "metre", "miles", "mile", "mi", "m", "minutes", "minute", "min", "hours", "hour",
    "Kilometern", "Kilometer", "Metern", "Meter", "Meilen", "Meile", "Minuten", "Minute",
    "minütigen", "minütige", "Min.", "Min", "Stunden", "Stunde", "stündiger", "stündige",
    "am", "pm", "a.m.", "p.m.", "a", "p", "Uhr",
    ":", ",", ".", "/", "-", " ", "  ", "\t", "\n",
]


@given(st.lists(st.sampled_from(_STARTER_WORDS), max_size=12).map("".join))
@settings(max_examples=400, deadline=None)
def test_no_starter_matches_digit_free_text(text):
    # the gate skips starters on sentences without a digit, so that must never drop a match
    assert en._DIGITS_RE.search(text) is None
    for template in EN_TPL + DE_TPL:
        assert template._scan(text) == ()


def test_starter_patterns_stay_byte_identical():
    # the digit gate is keyed by these exact strings, and `ner scan`'s pinned digest reads them
    assert en._EN_MONTH_ALT == ("January|February|March|April|May|June|July|August|"
                                "September|October|November|December")
    assert en._DE_MONTH_ALT == ("Januar|Februar|März|April|Mai|Juni|Juli|August|"
                                "September|Oktober|November|Dezember")
    dumped = json.dumps(en._STARTER_PATTERNS, sort_keys=True, ensure_ascii=False)
    assert hashlib.sha256(dumped.encode()).hexdigest() == (
        "a8a73d5d2a29ba7a6c702ac09fbe54b56953a3c479197bd859938827c56eefc8")


def test_loaded_starter_line_is_gated_and_other_lines_are_not(tmp_path):
    starter = next(t for t in EN_TPL if t.entity_type == "distance")
    path = tmp_path / "templates.tsv"
    path.write_text(f"distance\ten\t{starter.pattern}\ndistance\tde\t{starter.pattern}\n"
                    f"distance\ten\t\\d+ km\n", encoding="utf-8")
    assert [t.needs_digit for t in en.load_templates(path)] == [True, True, False]


def test_ungated_template_still_matches_digit_free_text():
    landmark = en.EntityTemplate("landmark", "en", r"\bEiffel Tower\b")
    sentence = "Walk to the Eiffel Tower at noon."
    starters = en.starter_templates("en")
    matches = en.find_entities(sentence, [*starters, landmark])
    assert [(m.text, m.entity_type) for m in matches] == [("Eiffel Tower", "landmark")]
    # the gated starters ran no regex on the sentence; the ungated template did
    assert all(sentence not in t._spans for t in starters) and sentence in landmark._spans


def test_value_memo_parses_each_picked_text_once():
    calls = []

    def parse(text, language):
        calls.append(text)
        return en._parse_distance(text, language)

    distance = en.EntityTemplate("distance", "en", r"\d+ km")
    date = en.EntityTemplate("date", "en", r"\d+")   # "5" is no date, so parsing it would raise
    with mock.patch.dict(en._PARSERS, {"distance": parse}):
        for sentence in ("5 km", "then 5 km", "5 km again"):
            assert [m.value for m in en.find_entities(sentence, [distance, date])] == [
                en.Distance(Decimal(5), "km")]
    assert calls == ["5 km"]   # the overlapped "5" is never parsed


def test_parse_error_is_not_memoized():
    template = en.EntityTemplate("date", "en", r"\d+/\d+")   # no year, so no date parses
    for _ in range(2):
        with pytest.raises(en.EntityError, match="unparseable date"):
            en.find_entities("on 3/4", [template])
    assert "3/4" not in template._values and not template._values.previous


def test_fresh_templates_start_with_empty_memos():
    en.find_entities("5 km at 10:30", en.starter_templates("en"))
    assert all(t._spans == {} for t in en.starter_templates("en") + en.starter_templates("de"))


def test_zero_length_matches_are_dropped():
    empty_only = [en.EntityTemplate("foo", "en", r"x*")]
    assert en.find_entities("ab 5 km", empty_only) == []
    assert en.mask("ab 5 km", empty_only).masked_sentence == "ab 5 km"
    digits = [en.EntityTemplate("distance", "en", r"\d*")]
    pmap = en.mask("ab 5 km", digits)
    assert pmap.masked_sentence == "ab ⟦DIST_0⟧ km"
    assert pmap.entries == (en.PlaceholderEntry(0, "distance", "5", en.Distance(Decimal(5), "m")),)


@pytest.mark.parametrize("record, fields, defaults", [
    (tk._Unit, ("text", "case", "atomic", "joined_right"), {}),
    (tk.AnnotatedToken, ("piece", "case", "joined_right"), {"joined_right": False}),
    (en.EntityMatch, ("start", "end", "text", "entity_type", "code", "value"), {}),
    (en.PlaceholderEntry, ("index", "entity_type", "original_text", "value"), {}),
    (SentencePair, ("source", "target", "id"), {}),
    (AdequacyFluencyRecord, ("sentence_id", "rater_id", "system", "adequacy", "fluency"), {}),
], ids=["unit", "token", "match", "entry", "pair", "score"])
def test_per_item_records_keep_their_contract(record, fields, defaults):
    assert record._fields == fields
    assert record._field_defaults == defaults
    item = record(*[f"v{i}" for i in range(len(fields))])
    assert getattr(item, fields[-1]) == f"v{len(fields) - 1}"
    with pytest.raises(AttributeError):
        setattr(item, fields[0], "changed")
    assert hash(item) == hash(record(*item))
    assert len({item, record(*item)}) == 1


def test_unit_atomic_still_reads():
    units = tk._presplit("at ⟦DIST_0⟧  now")
    assert [(u.text, u.atomic) for u in units] == [
        ("at", False), ("⟦DIST_0⟧", True), ("  ", True), ("now", False)]


def test_german_locale_round_trip_on_generated():
    for s in entity_sentences(100, seed=9, language="de"):
        pmap = en.mask(s, DE_TPL)
        assert en.unmask(pmap.masked_sentence, pmap, en.DE_LOCALE) == s


@pytest.mark.parametrize("magnitude, written", [
    ("1", "1 Meile"), ("1.0", "1,0 Meilen"), ("1.5", "1,5 Meilen"), ("2", "2 Meilen")])
def test_german_mile_is_singular_only_for_a_written_one(magnitude, written):
    value = en.Distance(Decimal(magnitude), "mi")
    assert en._render_value(value, "de") == written
    assert [m.value for m in en.find_entities(written, DE_TPL)] == [value]


_MAGNITUDES = st.builds(lambda n, places: Decimal(n).scaleb(-places),
                        st.integers(0, 10**6), st.integers(0, 2))
_VALUES = st.one_of(
    st.builds(en.Distance, _MAGNITUDES, st.sampled_from(["m", "km", "mi"])),
    st.builds(en.Duration, st.integers(0, 10**4)),
    st.builds(en.TimeOfDay, st.integers(0, 24 * 60 - 1)),
    st.builds(en.DateValue, st.integers(1000, 9999), st.integers(1, 12), st.integers(1, 31)),
)


@given(_VALUES, st.sampled_from([(en.EN_LOCALE, EN_TPL), (en.DE_LOCALE, DE_TPL)]))
@settings(max_examples=400, deadline=None)
def test_written_value_is_found_whole_by_its_language_templates(value, target):
    # what unmask writes must be what the target language's starters find and parse back
    locale, templates = target
    pmap = en.PlaceholderMap("", (en.PlaceholderEntry(0, "", "", value),), "")
    text = en.unmask(tk.format_placeholder("X", 0), pmap, locale)
    assert [(m.start, m.end, m.value) for m in en.find_entities(text, templates)] == [
        (0, len(text), value)]

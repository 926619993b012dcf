import warnings
from decimal import Decimal
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtlab import entities as en
from mtlab import tokenizer as tk
from mtlab.corpus import ParallelCorpus, SentencePair
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
        locale = en.LocaleFormat("de", ",", "24h", "DD.MM.YYYY", "to_km")
        out = en.unmask("etwa ⟦DIST_0⟧ von der Stadt", pmap, locale)
        assert "16,1 km" in out

    def test_dangling_placeholder(self):
        pmap = en.mask("5 km away", EN_TPL)
        with pytest.raises(en.DanglingPlaceholderError):
            en.unmask("⟦DIST_0⟧ und ⟦DIST_7⟧", pmap, en.DE_LOCALE)

    def test_lost_placeholder_warns(self):
        pmap = en.mask("5 km away, a 10-minute ride", EN_TPL)
        with pytest.warns(en.EntityWarning, match="lost"):
            en.unmask("nur ⟦DIST_0⟧ entfernt", pmap, en.DE_LOCALE)

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
        en.save_templates(EN_TPL, path)
        loaded = en.load_templates(path)
        assert [(t.entity_type, t.language, t.pattern) for t in loaded] == [
            (t.entity_type, t.language, t.pattern) for t in EN_TPL
        ]

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


_FRAGMENTS = ["5", "12", "3.5", "1,5", "2024", "10:30", "7", "-", " ", " ", ".", ",", "/",
              ":", "km", "m", "mi", "miles", "Kilometer", "Meilen", "min", "minute", "Minuten",
              "hours", "Stunden", "Uhr", "pm", "a.m.", "March", "März", "Mai", "December",
              "ride", "⟦DIST_0⟧", "⟦DIST_0", "⟧"]
_SENTENCES = st.lists(st.sampled_from(_FRAGMENTS), max_size=14).map("".join)


@given(_SENTENCES)
@settings(max_examples=300, deadline=None)
def test_find_entities_matches_reference(sentence):
    for templates in (EN_TPL, DE_TPL):
        expected = reference_find_entities(sentence, templates)
        assert en.find_entities(sentence, templates) == expected
        assert en.find_entities(sentence, templates) == expected   # from the memo
        with mock.patch.object(en, "SCAN_MEMO_LIMIT", 2):
            for other in (sentence + " 5 km", sentence, "4 pm " + sentence, sentence):
                assert en.find_entities(other, templates) == reference_find_entities(other, templates)
                assert all(len(t._spans) <= 2 for t in templates)


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
], ids=["unit", "token", "match", "entry"])
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

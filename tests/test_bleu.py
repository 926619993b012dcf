import math
import random
from collections import Counter
from contextlib import suppress
from dataclasses import astuple
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtlab import bleu
from mtlab.bleu import BleuError, ScoringConfig, _score, corpus_bleu, sentence_bleu


def oracle_bleu(candidates, references, max_n=4):
    """Brute-force reference scorer: explicit loops, no shared code."""
    matches = [0] * max_n
    totals = [0] * max_n
    cand_len = ref_len = 0
    for cand, ref in zip(candidates, references):
        c = cand.split()
        r = ref.split()
        cand_len += len(c)
        ref_len += len(r)
        for n in range(1, max_n + 1):
            cand_grams = [" ".join(c[i : i + n]) for i in range(len(c) - n + 1)]
            ref_grams = [" ".join(r[i : i + n]) for i in range(len(r) - n + 1)]
            totals[n - 1] += len(cand_grams)
            for gram in set(cand_grams):
                matches[n - 1] += min(cand_grams.count(gram), ref_grams.count(gram))
    precisions = []
    for n in range(max_n):
        precisions.append(matches[n] / totals[n] if totals[n] else 0.0)
    bp = min(1.0, math.exp(1 - ref_len / cand_len)) if cand_len else 0.0
    if any(p == 0 for p in precisions):
        return 0.0
    return bp * math.exp(sum(math.log(p) for p in precisions) / max_n) * 100.0


def test_identity_scores_100():
    sentences = ["the cat sat on the mat", "a quick brown fox jumps over the dog"]
    report = corpus_bleu(sentences, sentences)
    assert report.score == pytest.approx(100.0)
    assert report.brevity_penalty == 1.0
    assert all(p == 1.0 for p in report.precisions)


def test_clipped_unigram_fixture():
    # "the" occurs twice in the reference, so the clipped count is 2 of 4
    report = corpus_bleu(["the the the the"], ["the cat the mat"])
    assert report.precisions[0] == pytest.approx(2 / 4)


def test_clipping_caps_at_reference_count():
    report = corpus_bleu(["the the the the"], ["the cat"])
    assert report.precisions[0] == pytest.approx(1 / 4)


def test_brevity_penalty_factor_e():
    # candidate length 2, reference length 2e is not integral; use ratio 1:2
    report = corpus_bleu(["a b c d"], ["a b c d e f g h"])
    assert report.brevity_penalty == pytest.approx(math.exp(1 - 2.0))


def test_matches_oracle_on_random_pairs():
    rng = random.Random(42)
    vocab = ["the", "cat", "dog", "sat", "mat", "on", "a", "ran", "big", "small"]
    for _ in range(50):
        n = rng.randint(1, 4)
        cands = [" ".join(rng.choices(vocab, k=rng.randint(4, 12))) for _ in range(n)]
        refs = [" ".join(rng.choices(vocab, k=rng.randint(4, 12))) for _ in range(n)]
        ours = corpus_bleu(cands, refs).score
        theirs = oracle_bleu(cands, refs)
        assert ours == pytest.approx(theirs, abs=1e-9)


def _brute_force_counts(candidates, references):
    """Clipped matches and totals per order, by counting each n-gram in lists."""
    matches, totals = [0] * 4, [0] * 4
    for c, r in zip(candidates, references):
        for n in range(1, 5):
            cand_grams = [tuple(c[i : i + n]) for i in range(len(c) - n + 1)]
            ref_grams = [tuple(r[i : i + n]) for i in range(len(r) - n + 1)]
            totals[n - 1] += len(cand_grams)
            matches[n - 1] += sum(min(cand_grams.count(g), ref_grams.count(g))
                                  for g in set(cand_grams))
    return matches, totals


# a four-word vocabulary repeats n-grams often; lists run from empty to
# longer than the highest order
token_lists = st.lists(st.sampled_from(["a", "b", "c", "A"]), max_size=9)


@given(st.lists(st.tuples(token_lists, token_lists), min_size=1, max_size=4),
       st.sampled_from(["none", "add_one"]), st.booleans())
@settings(max_examples=400, deadline=None)
def test_corpus_bleu_matches_brute_force_counts(pairs, smoothing, case_sensitive):
    config = ScoringConfig(smoothing=smoothing, case_sensitive=case_sensitive)
    cands, refs = [" ".join(c) for c, _ in pairs], [" ".join(r) for _, r in pairs]
    if not any(r for _, r in pairs):
        with pytest.raises(BleuError, match="no token"):
            corpus_bleu(cands, refs, config)
        return
    report = corpus_bleu(cands, refs, config)
    fold = (lambda toks: toks) if case_sensitive else (lambda toks: [t.lower() for t in toks])
    matches, totals = _brute_force_counts([fold(c) for c, _ in pairs],
                                          [fold(r) for _, r in pairs])
    precisions = tuple(1.0 / (t + 1) if m == 0 and smoothing == "add_one"
                       else (m / t if t else 0.0) for m, t in zip(matches, totals))
    cand_len, ref_len = sum(len(c) for c, _ in pairs), sum(len(r) for _, r in pairs)
    assert report.precisions == precisions
    assert (report.candidate_length, report.reference_length) == (cand_len, ref_len)
    bp = min(1.0, math.exp(1 - ref_len / cand_len)) if cand_len else 0.0
    assert report.brevity_penalty == bp
    if 0.0 in precisions:
        assert report.score == 0.0
    else:
        assert report.score == pytest.approx(
            bp * math.exp(sum(math.log(p) for p in precisions) / 4) * 100.0, abs=1e-9)


def counter_corpus_bleu(candidates, references, config):
    """Reference: clip one Counter of all orders' n-grams per side, for every pair."""
    def ngrams(tokens):
        return Counter(gram for n in range(1, 5) for gram in zip(*[tokens[i:] for i in range(n)]))

    matches, totals = [0] * 4, [0] * 4
    cand_len = ref_len = 0
    for cand, ref in zip(candidates, references):
        cand_toks, ref_toks = config.split(cand), config.split(ref)
        cand_len += len(cand_toks)
        ref_len += len(ref_toks)
        ref_counts = ngrams(ref_toks)
        for gram, count in ngrams(cand_toks).items():
            matches[len(gram) - 1] += min(count, ref_counts.get(gram, 0))
        for n in range(4):
            totals[n] += max(len(cand_toks) - n, 0)
    return _score(matches, totals, cand_len, ref_len, config)


# no token repeats, so no n-gram repeats unless lowercasing merges "a" and "A"
distinct_token_lists = st.lists(st.sampled_from(["a", "b", "c", "A", "d", "e", "f", "g", "h"]),
                                unique=True, max_size=9)
either_token_list = st.one_of(token_lists, distinct_token_lists)


@given(st.lists(st.tuples(either_token_list, either_token_list), min_size=1, max_size=4),
       st.sampled_from(["none", "add_one"]), st.booleans(),
       st.lists(st.booleans(), max_size=6), st.integers(0, 3),
       st.sampled_from([bleu.PAIR_MEMO_LIMIT, 2]))
@settings(max_examples=300, deadline=None)
def test_corpus_bleu_equals_counter_reference(pairs, smoothing, case_sensitive, primed, repeats,
                                              limit):
    """Also over a mix of pairs that add-one sentence BLEU has memoized, new
    pairs and repeated pairs, and with a memo of 2 pairs a generation;
    corpus BLEU only reads the memo."""
    config = ScoringConfig(smoothing=smoothing, case_sensitive=case_sensitive)
    sentence_config = ScoringConfig(smoothing="add_one", case_sensitive=case_sensitive)
    pairs = pairs + pairs[:repeats]
    cands, refs = [" ".join(c) for c, _ in pairs], [" ".join(r) for _, r in pairs]
    bleu._pairs.clear()
    with patch.object(bleu._pairs, "limit", limit):
        for cand, ref, prime in zip(cands, refs, primed):
            if prime:
                with suppress(BleuError):   # a side without a token
                    sentence_bleu(cand, ref, sentence_config)
                assert len(bleu._pairs) <= limit and len(bleu._pairs.previous) <= limit
        memo = (dict(bleu._pairs), dict(bleu._pairs.previous))
        if not any(r for _, r in pairs):
            with pytest.raises(BleuError, match="no token"):
                corpus_bleu(cands, refs, config)
        else:
            assert corpus_bleu(cands, refs, config) == counter_corpus_bleu(cands, refs, config)
        assert (bleu._pairs, bleu._pairs.previous) == memo


def test_corpus_bleu_counts_no_pair_again_across_a_rotation():
    """Sentence BLEU on 3 pairs with 2 pairs a generation moves the first
    two into `previous`; corpus BLEU still finds all three."""
    cands, refs = ["a b c", "b c d", "c d e"], ["a b c d", "b c", "e d c"]
    with patch.object(bleu._pairs, "limit", 2):
        for cand, ref in zip(cands, refs):
            sentence_bleu(cand, ref)
        assert len(bleu._pairs.previous) == 2
        with patch.object(bleu, "_add_pair", wraps=bleu._add_pair) as add_pair:
            report = corpus_bleu(cands, refs)
    assert add_pair.call_count == 0
    assert report == counter_corpus_bleu(cands, refs, ScoringConfig())


def _with_repeat(tokens, at, to):
    """`tokens` with a copy of one of its tokens inserted, so a token repeats."""
    to %= len(tokens) + 1
    return tokens[:to] + [tokens[at % len(tokens)]] + tokens[to:]


repeating_token_lists = st.builds(_with_repeat, token_lists.filter(bool),
                                  st.integers(0, 8), st.integers(0, 9))
nonempty_distinct_lists = distinct_token_lists.filter(bool)
# one strategy per counting path: the reference's tokens are distinct; only the
# candidate's are; both repeat a token.  Lowercasing can merge "a" and "A"
# and move a draw to another path.
pairs_by_path = st.one_of(
    st.tuples(st.one_of(repeating_token_lists, nonempty_distinct_lists), nonempty_distinct_lists),
    st.tuples(nonempty_distinct_lists, repeating_token_lists),
    st.tuples(repeating_token_lists, repeating_token_lists),
)


@given(pairs_by_path, st.sampled_from(["none", "add_one"]), st.booleans())
@settings(max_examples=400, deadline=None)
def test_sentence_bleu_equals_counter_reference_on_every_path(pair, smoothing, case_sensitive):
    config = ScoringConfig(smoothing=smoothing, case_sensitive=case_sensitive)
    cand, ref = " ".join(pair[0]), " ".join(pair[1])
    expected = counter_corpus_bleu([cand], [ref], config)
    bleu._pairs.clear()
    cold = sentence_bleu(cand, ref, config)
    assert list(bleu._pairs) == [(cand, ref, case_sensitive)]
    warm = sentence_bleu(cand, ref, config)
    assert astuple(cold) == astuple(warm) == astuple(expected)
    # the other smoothing reads the same memoized counts
    other = ScoringConfig("add_one" if smoothing == "none" else "none", case_sensitive)
    assert sentence_bleu(cand, ref, other) == counter_corpus_bleu([cand], [ref], other)
    assert len(bleu._pairs) == 1
    assert corpus_bleu([cand], [ref], config) == expected


# (candidate, reference, clipped matches per order, whether both sides repeat)
PATH_CASES = {
    "reference-distinct": ("the cat the cat sat", "the cat sat on mat", (3, 2, 1, 0), False),
    "candidate-distinct": ("a cat sat on the mat", "the cat sat on the mat the cat",
                           (5, 4, 3, 2), False),
    "both-repeat": ("the cat the cat", "the cat the mat the", (3, 2, 1, 0), True),
}


@pytest.mark.parametrize("case", PATH_CASES.values(), ids=PATH_CASES.keys())
def test_counting_path_matches_hand_count(monkeypatch, case):
    cand, ref, matches, clipped = case
    clip, calls = bleu._clip, []
    monkeypatch.setattr(bleu, "_clip", lambda *args: calls.append(args) or clip(*args))
    totals = [max(len(cand.split()) - n, 0) for n in range(4)]
    report = sentence_bleu(cand, ref)
    assert report.precisions == tuple(m / t for m, t in zip(matches, totals))
    assert bool(calls) == clipped
    assert report == corpus_bleu([cand], [ref])


@pytest.mark.parametrize("cand, ref", [("a b c d", "   "), ("a b c d", ""), (" \t", "a b"),
                                       ("", "a b")])
def test_sentence_without_tokens_rejected(cand, ref):
    # the first call counts the pair and memoizes it; the second reads the memo
    for _ in range(2):
        with pytest.raises(BleuError, match="token"):
            sentence_bleu(cand, ref, ScoringConfig(smoothing="add_one"))
        assert list(bleu._pairs) == [(cand, ref, True)]


def test_corpus_whose_references_hold_no_token_rejected():
    for memoized in (False, True):   # counted by corpus BLEU, then read from the memo
        if memoized:
            for cand, ref in [("a b c d", " "), ("a b", ""), ("c d", " \n ")]:
                with pytest.raises(BleuError, match="token"):
                    sentence_bleu(cand, ref)
        with pytest.raises(BleuError, match="no token"):
            corpus_bleu(["a b c d"], [" "], ScoringConfig(smoothing="add_one"))
        with pytest.raises(BleuError, match="no token"):
            corpus_bleu(["a b", "c d"], ["", " \n "])
        assert len(bleu._pairs) == (3 if memoized else 0)
    # one empty reference among others still scores
    assert corpus_bleu(["a b", "c d"], ["a b", ""]).reference_length == 2


def test_unknown_smoothing_rejected():
    with pytest.raises(BleuError, match="add-one"):
        ScoringConfig(smoothing="add-one")


def test_permutation_invariance():
    cands = ["a b c d", "e f g h", "the cat sat here"]
    refs = ["a b c x", "e f g h", "the dog sat here"]
    base = corpus_bleu(cands, refs).score
    order = [2, 0, 1]
    permuted = corpus_bleu([cands[i] for i in order], [refs[i] for i in order]).score
    assert permuted == pytest.approx(base)


def test_degrading_a_candidate_never_helps():
    cands = ["the cat sat on the mat", "a big dog ran fast today", "small birds fly south now"]
    refs = ["the cat sat on the mat", "a big dog ran fast today", "small birds fly south now"]
    base = corpus_bleu(cands, refs).score
    worse = list(cands)
    worse[1] = "zzz yyy xxx www vvv uuu"
    assert corpus_bleu(worse, refs).score <= base


def test_corpus_pooling_is_not_sentence_average():
    cands = ["the cat", "a b c d e f g h"]
    refs = ["the cat", "a b c d e f g h x"]
    pooled = corpus_bleu(cands, refs)
    per_sentence = [corpus_bleu([c], [r]).score for c, r in zip(cands, refs)]
    assert pooled.score != pytest.approx(sum(per_sentence) / 2)


def test_length_mismatch_rejected():
    with pytest.raises(BleuError):
        corpus_bleu(["a"], ["a", "b"])
    with pytest.raises(BleuError):
        corpus_bleu([], [])


def test_sentence_identity():
    assert sentence_bleu("der gleiche satz hier", "der gleiche satz hier").score == pytest.approx(100.0)


def test_sentence_zero_overlap_unsmoothed_is_zero():
    config = ScoringConfig(smoothing="none")
    assert sentence_bleu("aa bb cc dd", "ee ff gg hh", config).score == 0.0


def test_sentence_add_one_smoothing_positive():
    config = ScoringConfig(smoothing="add_one")
    report = sentence_bleu("the cat sat down", "the cat slept well", config)
    assert report.score > 0.0
    # recompute the smoothed value by hand: p1=2/4, p2=1/3, p3 and p4 smoothed
    expected = math.exp(
        (math.log(2 / 4) + math.log(1 / 3) + math.log(1 / 3) + math.log(1 / 2)) / 4
    ) * 100.0
    assert report.score == pytest.approx(expected)


def test_case_settings_never_share_a_memo_entry():
    folded, cased = ScoringConfig(case_sensitive=False), ScoringConfig()
    # two tokens hold no trigram, so only the first two orders can match
    assert sentence_bleu("A b", "a b", folded).precisions == (1.0, 1.0, 0.0, 0.0)
    assert corpus_bleu(["A b"], ["a b"], cased).precisions == (1 / 2, 0.0, 0.0, 0.0)
    assert sentence_bleu("A b", "a b", cased).precisions == (1 / 2, 0.0, 0.0, 0.0)
    assert sentence_bleu("A b", "a b", folded).precisions == (1.0, 1.0, 0.0, 0.0)
    assert corpus_bleu(["A b"], ["a b"], folded).precisions == (1.0, 1.0, 0.0, 0.0)
    assert corpus_bleu(["A b"], ["a b"], cased).precisions == (1 / 2, 0.0, 0.0, 0.0)
    assert set(bleu._pairs) == {("A b", "a b", False), ("A b", "a b", True)}


def test_case_sensitivity_flag():
    config = ScoringConfig(case_sensitive=False)
    assert corpus_bleu(["The Cat Sat Here"], ["the cat sat here"], config).score == pytest.approx(100.0)
    assert corpus_bleu(["The Cat Sat Here"], ["the cat sat here"]).score < 100.0


def test_score_range_invariants():
    rng = random.Random(1)
    vocab = ["u", "v", "w", "x", "y", "z"]
    for _ in range(20):
        cands = [" ".join(rng.choices(vocab, k=rng.randint(4, 9)))]
        refs = [" ".join(rng.choices(vocab, k=rng.randint(4, 9)))]
        report = corpus_bleu(cands, refs, ScoringConfig(smoothing="add_one"))
        assert 0.0 <= report.score <= 100.0
        assert 0.0 < report.brevity_penalty <= 1.0

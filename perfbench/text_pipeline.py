"""text_pipeline: the per-request post-processing path, one document at a time.

Per sentence: entities.mask (en) -> tokenizer.tokenize -> render_tokens ->
parse_tokens -> detokenize -> entities.unmask to the source locale (checked
byte-exact) and to German -> entities.validate_entity_translation ->
bleu.sentence_bleu (the round trip must score 100).  Each round reloads the
BPE model with tokenizer.load_model, so its encode cache starts empty and
every round does the same work.  Each round of documents ends with corpus
BLEU over the round's outputs, the BSF cross-language report, and the
human-evaluation summary and correlation.
"""

from __future__ import annotations

import csv
import os
import warnings
from collections import Counter
from dataclasses import dataclass

import gen
from harness import Round
from mtlab import bleu, bsf, entities, humaneval, synth, tokenizer

# interpreter-bound (regexes, dicts, strings), so timings are corrected by
# the Python reference kernel (see meter.py)
REFERENCE = "python"
DOCS_PER_ROUND = 40
SENTENCES_PER_DOC = 32
# sentences per round from each share: templated ones are highly shared (BPE
# cache hits), Zipf ones mostly new; every round has the same mix
SHARES = {"templated": 512, "entity": 384, "zipf": 384}
# flatter than natural text, so about 70% of the Zipf share's pre-split units
# are new within a round (the encode cache misses on them)
ZIPF_WORDS, ZIPF_EXPONENT = 100_000, 0.8
BPE_MERGES = 1000
SMOOTHED = bleu.ScoringConfig(smoothing="add_one")
PARKING_TERMS = {"en": ["parking", "park", "garage"],
                 "de": ["parkplätze", "parkplatz", "parken", "garage"]}


@dataclass
class State:
    seed: int
    lexicon: gen.ZipfLexicon
    model_path: str
    templates_en: list
    templates_de: list
    pairs: list
    flipped: set
    lexicon_en: bsf.AspectLexicon
    lexicon_de: bsf.AspectLexicon
    clf_en: object
    clf_de: object
    sheet_path: str
    sheet_means: dict
    sheet_bleu: dict
    sheet_sentences: int


def setup(seed: int, workdir: str) -> State:
    lexicon = gen.zipf_lexicon(seed, "zipf", ZIPF_WORDS, ZIPF_EXPONENT)
    corpus = synth.toy_parallel_corpus(1500, seed=seed)
    texts = (corpus.sources() + corpus.targets()
             + [s for s, _ in gen.zipf_sentences(lexicon, gen.rng(seed, "zipf-train"), 1500)]
             + [s for s, _ in gen.entity_sentences(gen.rng(seed, "entity-train"), 500)])
    model_path = os.path.join(workdir, "bpe.model")
    tokenizer.save_model(tokenizer.train_bpe_texts(texts, BPE_MERGES), model_path)

    en, de, flipped = synth.parking_parallel(300, seed=seed, flip_fraction=0.1)
    clf_en = bsf.train_classifier(synth.parking_sentences("en", 240, seed=seed), seed=seed)
    clf_de = bsf.train_classifier(synth.parking_sentences("de", 240, seed=seed), seed=seed)

    rows, means, scores = gen.score_sheet(seed)
    sheet_path = os.path.join(workdir, "sheet.csv")
    with open(sheet_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sentence_id", "rater_id", "system", "adequacy", "fluency"])
        writer.writerows(rows)
    return State(
        seed, lexicon, model_path,
        entities.starter_templates("en"), entities.starter_templates("de"),
        [(e[0], d[0]) for e, d in zip(en, de)], set(flipped),
        bsf.AspectLexicon("parking", "en", approved_terms=PARKING_TERMS["en"]),
        bsf.AspectLexicon("parking", "de", approved_terms=PARKING_TERMS["de"]),
        clf_en, clf_de, sheet_path, means, scores, len(rows) // (2 * len(means)),
    )


def _documents(state: State, index: int) -> list[list[tuple]]:
    """The round's documents as lists of (share, sentence, truth)."""
    r = gen.rng(state.seed, f"docs-{index}")
    corpus_seed = (state.seed * 100003 + index) & 0xFFFFFFFF
    sentences = (
        [("templated", s, None) for s in synth.toy_parallel_corpus(
            SHARES["templated"], seed=corpus_seed).sources()]
        + [("entity", s, truth) for s, truth in gen.entity_sentences(r, SHARES["entity"])]
        + [("zipf", s, truth) for s, truth in gen.zipf_sentences(state.lexicon, r, SHARES["zipf"])]
    )
    r.shuffle(sentences)
    return [sentences[i:i + SENTENCES_PER_DOC] for i in range(0, len(sentences), SENTENCES_PER_DOC)]


def _sentence(state: State, ctx, model, share: str, sentence: str, truth,
              outputs: list) -> str | None:
    counts = ctx.counts
    pmap = entities.mask(sentence, state.templates_en)
    masked = pmap.masked_sentence
    if ctx.tracer is not None:
        ctx.tracer.tag = share
        cached = len(model._cache)
    ts = tokenizer.tokenize(model, masked)
    if ctx.tracer is not None:
        ctx.tracer.tag = ""
        # encode cache misses: entries the call added, against units it encoded
        counts[f"encode.misses.{share}"] += len(model._cache) - cached
        counts[f"encode.units.{share}"] += sum(not u.atomic for u in tokenizer._presplit(masked))
    parsed = tokenizer.parse_tokens(tokenizer.render_tokens(ts))
    detok = tokenizer.detokenize(parsed)
    restored = entities.unmask(detok, pmap, entities.EN_LOCALE)
    german = entities.unmask(detok, pmap, entities.DE_LOCALE)
    if pmap.entries:
        entities.validate_entity_translation([(sentence, german)],
                                             state.templates_en, state.templates_de)
    score = bleu.sentence_bleu(restored, sentence, SMOOTHED).score
    outputs.append((restored, sentence))

    counts["tokenizer.pieces"] += len(ts)
    counts["sentences"] += 1
    for entry in pmap.entries:
        counts[f"entities.found.{entry.entity_type}"] += 1
    if truth is not None and share == "entity":
        found = Counter((e.entity_type, e.value) for e in pmap.entries)
        for planted in truth:
            counts["entities.planted"] += 1
            if found[planted] > 0:
                found[planted] -= 1
                counts["entities.value_exact"] += 1
    roundtrip = parsed == ts and detok == masked
    counts["tokenizer.roundtrip_ok"] += roundtrip
    if not roundtrip:
        return "tokenize/render/parse/detokenize round trip is not byte-exact"
    if restored != sentence:
        return "mask/unmask round trip is not byte-exact"
    if score != 100.0:
        return f"round-trip sentence BLEU {score} != 100"
    if share == "zipf" and restored[:-1].split(" ") != truth:
        return "zipf sentence words changed"
    return None


def _document(state: State, ctx, model, doc: list, outputs: list) -> str | None:
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", entities.EntityWarning)
        failure = None
        for share, sentence, truth in doc:
            failure = _sentence(state, ctx, model, share, sentence, truth, outputs) or failure
    for w in caught:
        if issubclass(w.category, entities.EntityWarning):
            text = str(w.message)
            ctx.counts["entities.placeholders_lost"] += "lost" in text
            ctx.counts["entities.placeholders_duplicated"] += "duplicated" in text
    return failure


def _corpus_bleu(ctx, outputs: list) -> str | None:
    with ctx.span("bleu.corpus_bleu"):
        report = bleu.corpus_bleu([o for o, _ in outputs], [ref for _, ref in outputs])
    ctx.counts["bleu.score_sum"] += report.score
    ctx.counts["bleu.reports"] += 1
    return None if report.score == 100.0 else f"round-trip corpus BLEU {report.score} != 100"


def _bsf_report(state: State, ctx) -> str | None:
    report = bsf.cross_language_report(state.pairs, state.lexicon_en, state.lexicon_de,
                                       state.clf_en, state.clf_de)
    ctx.counts["bsf.flips_planted"] += len(state.flipped)
    ctx.counts["bsf.flips_flagged"] += len(state.flipped & set(report.flagged_ids))
    if sum(report.volumes.values()) != report.matched_count:
        return "bsf report volumes do not add up to the matched count"
    if not set(report.flagged_ids) <= set(range(len(state.pairs))):
        return "bsf report flagged an unknown pair"
    return None


def _human_eval(state: State, ctx) -> str | None:
    records = humaneval.ingest_scores(state.sheet_path)
    summary = humaneval.summarize(records)
    human = {name: s.mean_adequacy for name, s in summary.systems.items()}
    corr = humaneval.correlate(state.sheet_bleu, human)
    for name, (adequacy, fluency) in state.sheet_means.items():
        s = summary.systems[name]
        if s.n != state.sheet_sentences or abs(s.mean_adequacy - adequacy) > 1e-9 \
                or abs(s.mean_fluency - fluency) > 1e-9:
            return f"summary of {name} differs from the sheet's true means"
    if corr.bleu_argmax != max(state.sheet_bleu, key=state.sheet_bleu.get):
        return "correlate picked the wrong BLEU argmax"
    return None


def run_round(state: State, index: int, ctx) -> Round:
    docs = _documents(state, index)
    model = tokenizer.load_model(state.model_path)
    outputs: list = []
    sentences_before = ctx.counts["sentences"]
    elapsed = ctx.stopwatch()
    for doc in docs:
        ctx.set_op()
        t0 = ctx.clock()
        ctx.attempt("document", _document, state, ctx, model, doc, outputs)
        ctx.latencies.append(ctx.clock() - t0)
    ctx.set_op()
    ctx.attempt("corpus_bleu", _corpus_bleu, ctx, outputs)
    ctx.set_op()
    ctx.attempt("bsf_report", _bsf_report, state, ctx)
    ctx.set_op()
    ctx.attempt("humaneval", _human_eval, state, ctx)
    return Round(ctx.counts["sentences"] - sentences_before, *elapsed())


def finish(state: State, ctx) -> dict:
    c = ctx.counts
    c["tokenizer.roundtrip_ok_ratio"] = c["tokenizer.roundtrip_ok"] / max(1, c["sentences"])
    c["entities.value_exact_ratio"] = c["entities.value_exact"] / max(1, c["entities.planted"])
    c["bsf.flip_recall"] = c["bsf.flips_flagged"] / max(1, c["bsf.flips_planted"])
    c["bleu.score"] = c["bleu.score_sum"] / max(1, c["bleu.reports"])
    extra = {"entities.value_exact_ratio": c["entities.value_exact_ratio"],
             "bsf.flip_recall": c["bsf.flip_recall"],
             "sentences": c["sentences"]}
    for share in SHARES:
        if c[f"encode.units.{share}"]:   # counted in traced runs only
            c[f"tokenizer.encode_miss_ratio.{share}"] = \
                c[f"encode.misses.{share}"] / c[f"encode.units.{share}"]
            extra[f"tokenizer.encode_miss_ratio.{share}"] = c[f"tokenizer.encode_miss_ratio.{share}"]
    return extra


def named_metrics(summary: dict, classes: dict) -> dict:
    return {"pipeline_sents_per_s": summary["items_per_s"],
            "doc_p50_ms": summary["op_p50_ms"],
            "doc_p90_ms": summary["op_p90_ms"]}

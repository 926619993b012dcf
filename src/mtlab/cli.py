"""Command-line entry point wiring the toolkit's workflows together.

Every subcommand writes its outputs into --out-dir (default: $MTLAB_OUT or
the current directory) through `_out`, which records each path; when it
succeeds, `main` adds a manifest.json that lists what was written and
digests every file it read.  Reports are emitted both as JSON and as
aligned text; trace CSVs are plot-ready.  Only the commands that draw random
numbers take --seed, after the subcommand, and no flag may be abbreviated.

Exit codes: 0 success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
from dataclasses import asdict

from . import bleu as bleu_mod
from . import bsf, corpus, entities, humaneval, presets, synth, tokenizer
from .manifest import write_manifest
from .optlab import (
    ClusterConfig,
    OptimizerConfig,
    SurrogateConfig,
    SurrogateModel,
    calibrated_cluster_config,
    check_gradients,
    corpus_size_sweep,
    epoch_batches,
    optimizers,
    simulate_cluster,
    train,
)
from .optlab.cluster import SINGLE_EPOCH_SECONDS

__all__ = ["main", "parse_duration", "format_duration", "parse_sizes"]


def parse_duration(text: str) -> float:
    """Seconds from '22260', '22260s', '371m', or '6h11m' style strings.

    The whole text must be one plain number or one or more <number><h|m|s>
    parts, and the total must be positive and finite."""
    text, number = text.strip(), r"\d+(?:\.\d+)?"
    total = 0.0
    if re.fullmatch(f"{number}|(?:{number}[hms])+", text):
        total = sum(float(value) * {"h": 3600.0, "m": 60.0, "s": 1.0, "": 1.0}[unit]
                    for value, unit in re.findall(f"({number})([hms]?)", text))
    if not 0.0 < total < math.inf:
        raise argparse.ArgumentTypeError(f"cannot parse duration {text!r}")
    return total


def format_duration(seconds: float) -> str:
    """'6h11m' style: seconds rounded to whole minutes."""
    if not math.isfinite(seconds):
        raise ValueError(f"cannot format a duration of {seconds} s")
    minutes = round(seconds / 60.0)
    return f"{minutes // 60}h{minutes % 60:02d}m"


def parse_sizes(text: str) -> list[int]:
    """Distinct non-negative sizes from a comma-separated list such as '100,250,500'."""
    try:
        sizes = [int(s) for s in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse size list {text!r}") from None
    if min(sizes) < 0:
        raise argparse.ArgumentTypeError(f"size list {text!r} holds a negative size")
    if len(set(sizes)) < len(sizes):
        raise argparse.ArgumentTypeError(f"size list {text!r} repeats a size")
    return sizes


class InputFile(str):
    """A flag value naming a file the command reads; `main` digests it into the manifest."""


def template_source(text: str) -> str:
    """A starter language code as is; anything else names a template file."""
    return text if text in ("en", "de") else InputFile(text)


def _load_corpus(args) -> corpus.ParallelCorpus:
    if args.tsv:
        return corpus.load_tsv(args.tsv)
    return corpus.load_parallel(args.src, args.tgt)


def _templates(source: str) -> list[entities.EntityTemplate]:
    if isinstance(source, InputFile):
        return entities.load_templates(source)
    return entities.starter_templates(source)


def _read_json(path: str, error: type):
    """A `corpus.read_text` file as JSON; a syntax fault raises `error`."""
    text = corpus.read_text(path)
    try:
        return json.loads(text)
    except ValueError as exc:
        raise error(f"{path}: {exc}") from None


def _out(args, name: str, lines: list[str] | None = None) -> str:
    """The path of output `name` in --out-dir, recorded for the manifest;
    `lines`, when given, are written there."""
    os.makedirs(args.out_dir, exist_ok=True)
    path = os.path.join(args.out_dir, name)
    args._outputs.append(path)
    if lines is not None:
        corpus.write_lines(lines, path)
    return path


def _by_line(path: str, fn, error: type) -> list:
    """`fn` of each line of `path`; an `error` it raises names the file and line."""
    results = []
    for lineno, line in enumerate(corpus.read_lines(path), start=1):
        try:
            results.append(fn(line))
        except error as exc:
            raise error(f"{path}: line {lineno}: {exc}") from None
    return results


# ---------------------------------------------------------------------------
# corpus


def cmd_corpus_split(args) -> None:
    loaded = _load_corpus(args)
    result = corpus.split(loaded, args.validation_size, args.seed)
    for part, name in ((result.train, "train"), (result.validation, "validation")):
        src_path, tgt_path = _out(args, f"{name}.src"), _out(args, f"{name}.tgt")
        corpus.write_parallel(part, src_path, tgt_path)
    print(f"train {len(result.train)} pairs, validation {len(result.validation)} pairs"
          f" (dropped {loaded.dropped_count})")


def cmd_corpus_subsample(args) -> None:
    loaded = _load_corpus(args)
    for size, sub in zip(args.sizes, corpus.subsample(loaded, args.sizes, args.seed)):
        src_path, tgt_path = _out(args, f"size-{size}.src"), _out(args, f"size-{size}.tgt")
        corpus.write_parallel(sub, src_path, tgt_path)
        print(f"size {size}: {len(sub)} pairs")


# ---------------------------------------------------------------------------
# bpe


def cmd_bpe_train(args) -> None:
    trained = tokenizer.train_bpe(_load_corpus(args), args.merges, args.mode)
    if args.mode == "joint":
        named = [(trained, "bpe.model", "joint model")]
    else:
        named = [(model, f"bpe.{side}.model", model.mode)
                 for model, side in zip(trained, ("src", "tgt"))]
    for model, name, label in named:
        path = _out(args, name)
        tokenizer.save_model(model, path)
        print(f"{label}: {model.merge_count} merges, alphabet {len(model.alphabet)}")


def cmd_bpe_apply(args) -> None:
    model = tokenizer.load_model(args.model)
    lines = corpus.read_lines(args.input)
    path = _out(args, args.output,
                [tokenizer.render_tokens(tokenizer.tokenize(model, line)) for line in lines])
    print(f"tokenized {len(lines)} sentences -> {path}")


def cmd_bpe_detok(args) -> None:
    restored = _by_line(args.input, lambda line: tokenizer.detokenize(tokenizer.parse_tokens(line)),
                        tokenizer.TokenizerError)
    path = _out(args, args.output, restored)
    print(f"detokenized {len(restored)} sentences -> {path}")


# ---------------------------------------------------------------------------
# ner


def cmd_ner_scan(args) -> None:
    loaded = _load_corpus(args)
    report = entities.scan_mismatches(loaded, _templates(args.templates_src),
                                      _templates(args.templates_tgt))
    _out(args, "mismatches.json", [report.to_json()])
    _out(args, "mismatches.txt", [report.to_text()])
    print(report.to_text())


def cmd_ner_mask(args) -> None:
    templates = _templates(args.templates)
    pmaps = _by_line(args.input, lambda line: entities.mask(line, templates), entities.EntityError)
    maps = [{"source_language": pmap.source_language,
             "entries": [{"index": e.index, "type": e.entity_type, "text": e.original_text}
                         for e in pmap.entries]}
            for pmap in pmaps]
    masked_path = _out(args, "masked.txt", [pmap.masked_sentence for pmap in pmaps])
    _out(args, "maps.json", [json.dumps(maps, ensure_ascii=False, indent=2)])
    total = sum(len(pmap.entries) for pmap in pmaps)
    print(f"masked {total} entities in {len(pmaps)} sentences -> {masked_path}")


def _is_map(stored) -> bool:
    """`ner mask`'s shape: source_language plus distinct-index entries of {index, type, text}."""
    return (isinstance(stored, dict) and isinstance(stored.get("source_language"), str)
            and isinstance(stored.get("entries"), list)
            and all(isinstance(e, dict) and type(e.get("index")) is int
                    and isinstance(e.get("type"), str) and isinstance(e.get("text"), str)
                    for e in stored["entries"])
            and len({e["index"] for e in stored["entries"]}) == len(stored["entries"]))


def cmd_ner_unmask(args) -> None:
    lines = corpus.read_lines(args.input)
    maps = _read_json(args.map, entities.EntityError)
    if not isinstance(maps, list):
        raise entities.EntityError(f"{args.map}: expected a JSON list of placeholder maps")
    if len(maps) != len(lines):
        raise entities.EntityError(f"{args.input} has {len(lines)} sentences but {args.map} "
                                   f"has {len(maps)} placeholder maps")
    locale = entities.LocaleFormat(args.locale, args.unit_policy)
    out_lines = []
    for n, (line, stored) in enumerate(zip(lines, maps), start=1):
        try:
            if not _is_map(stored):
                raise entities.EntityError("expected source_language and entries of "
                                           "{index, type, text} with distinct indices")
            language = stored["source_language"]
            pmap = entities.PlaceholderMap(line, tuple(
                entities.PlaceholderEntry(e["index"], e["type"], e["text"],
                                          entities.parse_value(e["type"], e["text"], language))
                for e in stored["entries"]), language)
            out_lines.append(entities.unmask(line, pmap, locale))
        except entities.EntityError as exc:
            raise entities.EntityError(f"{args.map}: map {n}: {exc}") from None
    path = _out(args, args.output, out_lines)
    print(f"unmasked {len(lines)} sentences -> {path}")


def cmd_ner_validate(args) -> None:
    pairs = corpus.read_pairs(args.pairs)
    # `read_pairs` reads one pair per line, so pair n is line n
    result = entities.validate_entity_translation(
        pairs, _templates(args.templates_src), _templates(args.templates_tgt),
        rel_tolerance=args.tolerance, pair_label=f"{args.pairs}: line")
    _out(args, "entity-validation.json", [json.dumps(asdict(result))])
    print(f"entity accuracy: {result.accuracy:.3f} over {len(pairs)} pairs")


# ---------------------------------------------------------------------------
# bleu


def cmd_bleu_corpus(args) -> None:
    config = bleu_mod.ScoringConfig(case_sensitive=not args.lowercase)
    report = bleu_mod.corpus_bleu(corpus.read_lines(args.candidates),
                                  corpus.read_lines(args.references), config)
    _out(args, "bleu.json", [report.to_json()])
    print(f"BLEU = {report.score:.2f} (BP {report.brevity_penalty:.3f}, "
          + "/".join(f"{p:.3f}" for p in report.precisions) + ")")


def cmd_bleu_sentence(args) -> None:
    config = bleu_mod.ScoringConfig(smoothing=args.smoothing, case_sensitive=not args.lowercase)
    report = bleu_mod.sentence_bleu(args.candidate, args.reference, config)
    print(report.to_json())


# ---------------------------------------------------------------------------
# optlab


def _toy_data(args, tokens: int):
    train_ids = synth.toy_lm_stream(tokens, args.vocab, seed=args.seed, noise=args.noise)
    val_ids = synth.toy_lm_stream(max(500, tokens // 5), args.vocab,
                                  seed=args.seed + 1, noise=args.noise)
    return train_ids, val_ids


def _toy_model(args) -> SurrogateModel:
    return SurrogateModel(SurrogateConfig(args.vocab, args.embed_dim, args.hidden_dim),
                          seed=args.seed)


def cmd_optlab_train(args) -> None:
    train_ids, val_ids = _toy_data(args, args.tokens)
    trace = train(_toy_model(args), train_ids, val_ids, OptimizerConfig(args.optimizer),
                  epochs=args.epochs, batch_size=args.batch_size, seed=args.seed)
    path = _out(args, f"trace-{args.optimizer}.csv")
    trace.to_csv(path)
    last = trace.rows[-1]
    print(f"{args.optimizer}: epoch {last.epoch} val_ppl {last.val_ppl:.3f} lr {last.lr:.5f}"
          + (" [divergent]" if trace.divergent else ""))


def cmd_optlab_simulate(args) -> None:
    train_ids, val_ids = _toy_data(args, args.tokens)
    warmup = ClusterConfig.async_warmup_iterations if args.warmup_iters is None else args.warmup_iters
    if args.calibrate_single is not None:
        # calibrated to the batches each epoch of this stream runs
        cluster = calibrated_cluster_config(
            args.cluster_mode, args.workers, args.calibrate_single,
            iterations_per_epoch=len(epoch_batches(train_ids, args.batch_size, args.seed, 1)),
            warmup_iterations=warmup)
    else:
        cluster = ClusterConfig(args.workers, args.cluster_mode,
                                per_batch_compute_time=(1.0 if args.batch_seconds is None
                                                        else args.batch_seconds),
                                async_warmup_iterations=warmup)
    trace = simulate_cluster(_toy_model(args), train_ids, val_ids, OptimizerConfig(args.optimizer),
                             cluster, epochs=args.epochs, batch_size=args.batch_size,
                             seed=args.seed)
    epoch_seconds = trace.rows[0].sim_seconds
    try:
        epoch_time = format_duration(epoch_seconds)
    except ValueError as exc:
        raise ValueError(f"{exc}: the simulated epoch overflows with per_batch_compute_time "
                         f"{cluster.per_batch_compute_time}") from None
    path = _out(args, f"sim-{args.cluster_mode}-{args.workers}.csv")
    trace.to_csv(path)
    payload = {
        "mode": args.cluster_mode,
        "workers": args.workers,
        "epoch_seconds": epoch_seconds,
        "epoch_time": epoch_time,
        "final_ppl": trace.final_ppl(),
        "max_staleness": trace.max_staleness,
    }
    _out(args, f"sim-{args.cluster_mode}-{args.workers}.json", [json.dumps(payload)])
    print(f"{args.cluster_mode} x{args.workers}: epoch {epoch_time}, "
          f"final ppl {trace.final_ppl():.3f}, max staleness {trace.max_staleness}")


def cmd_optlab_sweep(args) -> None:
    full, val_ids = _toy_data(args, max(args.sizes))
    streams = [(str(size), full[:size]) for size in args.sizes]
    traces = corpus_size_sweep(SurrogateConfig(args.vocab, args.embed_dim, args.hidden_dim),
                               streams, val_ids, OptimizerConfig(args.optimizer),
                               iteration_budget=args.budget, batch_size=args.batch_size,
                               seed=args.seed, checkpoint_every=args.checkpoint_every)
    for label, trace in traces.items():
        path = _out(args, f"sweep-{label}.csv")
        trace.to_csv(path)
        print(f"size {label}: final ppl {trace.final_ppl():.3f} at {trace.rows[-1].iterations} iterations")


def cmd_optlab_gradcheck(args) -> None:
    if args.samples < 1:
        raise ValueError(f"--samples must be at least 1, got {args.samples}")
    ids = synth.toy_lm_stream(args.batch_size * 4 + 1, args.vocab, seed=args.seed)
    error = check_gradients(_toy_model(args), ids[: args.batch_size], ids[1 : args.batch_size + 1],
                            n_samples=args.samples, step=args.step, seed=args.seed)
    print(f"max relative gradient error: {error:.3e} over {args.samples} coordinates")
    if not error < args.tolerance:
        raise ValueError(f"max relative gradient error {error:.3e} is not below "
                         f"--tolerance {args.tolerance:g}")


# ---------------------------------------------------------------------------
# bsf


def cmd_bsf_embed(args) -> None:
    sentences = [line.split() for line in corpus.read_lines(args.input)]
    emb = bsf.train_embeddings(sentences, dim=args.dim, window=args.window,
                               negatives=args.negatives, epochs=args.epochs, seed=args.seed)
    path = _out(args, args.output)
    bsf.save_embeddings(emb, path)
    print(f"trained {len(emb.vectors)} vectors (dim {emb.dim}) -> {path}")


def cmd_bsf_expand(args) -> None:
    emb = bsf.load_embeddings(args.vectors)
    candidates = bsf.expand_seeds(emb, args.seeds.split(","), args.k, args.min_sim)
    path = _out(args, args.output)
    bsf.save_terms(candidates, path, header="candidates for proofreading")
    for term, sim in candidates:
        print(f"{sim:.4f}  {term}")


def cmd_bsf_match(args) -> None:
    lexicon = bsf.AspectLexicon(approved_terms=bsf.load_terms(args.terms))
    sentences = corpus.read_lines(args.input)
    matched = bsf.match_sentences(sentences, lexicon)
    _out(args, "matched-ids.txt", [str(i) for i in matched])
    print(f"matched {len(matched)} of {len(sentences)} sentences")


def _read_labeled(path: str) -> list[tuple[str, str]]:
    return [(text, label) for label, text in corpus.read_pairs(path)]


def cmd_bsf_train(args) -> None:
    labeled = _read_labeled(args.labeled)
    spec = bsf.ClassifierSpec(bits=args.bits, lr=args.lr, epochs=args.epochs, l2=args.l2)
    clf = bsf.train_classifier(labeled, spec, seed=args.seed)
    path = _out(args, args.output)
    bsf.save_classifier(clf, path)
    print(f"trained on {len(labeled)} examples, labels {clf.labels} -> {path}")


def cmd_bsf_eval(args) -> None:
    clf = bsf.load_classifier(args.model)
    metrics = bsf.evaluate_classifier(clf, _read_labeled(args.labeled))
    _out(args, "bsf-eval.json", [json.dumps({"per_label": metrics.per_label,
                                              "accuracy": metrics.accuracy,
                                              "macro_f1": metrics.macro_f1, "n": metrics.n})])
    print(metrics.to_text())


def cmd_bsf_report(args) -> None:
    pairs = corpus.read_pairs(args.pairs)
    lexicon = bsf.AspectLexicon(approved_terms=bsf.load_terms(args.terms_src))
    report = bsf.cross_language_report(pairs, lexicon, None,
                                       bsf.load_classifier(args.clf_src),
                                       bsf.load_classifier(args.clf_tgt))
    _out(args, "bsf-report.json", [report.to_json()])
    _out(args, "bsf-report.txt", [report.to_text()])
    print(report.to_text())


# ---------------------------------------------------------------------------
# eval (human scores)


def cmd_eval_ingest(args) -> None:
    records = humaneval.ingest_scores(args.scores, (args.score_min, args.score_max))
    print(f"{len(records)} valid records from {args.scores}")


def cmd_eval_summarize(args) -> None:
    records = humaneval.ingest_scores(args.scores, (args.score_min, args.score_max))
    summary = humaneval.summarize(records, (args.score_min, args.score_max))
    _out(args, "summary.json", [summary.to_json()])
    _out(args, "summary.csv", ["system,adequacy,fluency,n"] + [
        f"{name},{s.mean_adequacy:.4f},{s.mean_fluency:.4f},{s.n}"
        for name, s in summary.systems.items()])
    for name, s in summary.systems.items():
        kappa = "n/a" if s.kappa_adequacy is None else f"{s.kappa_adequacy:.3f}"
        print(f"{name}: adequacy {s.mean_adequacy:.3f}, fluency {s.mean_fluency:.3f}, "
              f"kappa(adequacy) {kappa}, n={s.n}")


def cmd_eval_correlate(args) -> None:
    records = humaneval.ingest_scores(args.scores, (args.score_min, args.score_max))
    summary = humaneval.summarize(records, (args.score_min, args.score_max))
    bleu_by_system = _read_json(args.bleu, humaneval.ScoreError)
    if not isinstance(bleu_by_system, dict) or not all(
            type(score) in (int, float) for score in bleu_by_system.values()):
        raise humaneval.ScoreError(f"{args.bleu}: expected a JSON object mapping each system "
                                   "to a number")
    table = ["system,bleu,adequacy,fluency"]
    for name, s in summary.systems.items():
        if name in bleu_by_system:
            table.append(f"{name},{bleu_by_system[name]},{s.mean_adequacy:.4f},{s.mean_fluency:.4f}")
    reports = {}   # both before the first write, so that a rejected run writes nothing
    for metric in ("adequacy", "fluency"):
        human = {name: getattr(s, f"mean_{metric}") for name, s in summary.systems.items()}
        reports[metric] = humaneval.correlate(bleu_by_system, human)
    _out(args, "bleu-vs-human.csv", table)
    for metric, report in reports.items():
        _out(args, f"correlation-{metric}.json", [report.to_json()])
        print(f"{metric}: pearson {report.pearson_r:.3f}, spearman {report.spearman_rho:.3f}, "
              f"BLEU best={report.bleu_argmax}, human best={report.human_argmax}"
              + (" [argmax disagreement]" if report.argmax_disagreement else ""))


# ---------------------------------------------------------------------------
# experiment (the paper's runs; presets fixes every setting and seed)


def cmd_experiment_convergence(args) -> None:
    traces = presets.convergence_traces(args.epochs)
    for kind, trace in traces.items():
        path = _out(args, f"trace-{kind}.csv")
        trace.to_csv(path)
        print(f"{kind:>10}: wrote {path}")
    quarter = max(1, args.epochs // 4)
    print(f"\n{'optimizer':>10} {'ppl@' + str(quarter):>10} {'final ppl':>10} {'final lr':>10}")
    for kind, trace in traces.items():
        print(f"{kind:>10} {trace.ppl_at_epoch(quarter):>10.3f} "
              f"{trace.final_ppl():>10.3f} {trace.rows[-1].lr:>10.5f}")


def cmd_experiment_cluster_timing(args) -> None:
    print(f"single worker (calibration): {format_duration(SINGLE_EPOCH_SECONDS)}")
    print(f"{'workers':>8} {'mode':>6} {'simulated':>10} {'reported':>9} {'error':>7}")
    worst = 0.0
    for mode, workers, simulated, reported in presets.timing_table():
        err = (simulated - reported) / reported
        worst = max(worst, abs(err))
        print(f"{workers:>8} {mode:>6} {format_duration(simulated):>10} "
              f"{format_duration(reported):>9} {err:>+7.1%}")
    print(f"\nworst absolute error: {worst:.1%}")


def cmd_experiment_corpus_size(args) -> None:
    traces = presets.corpus_size_traces(args.sizes, args.budget, args.checkpoint_every)
    for label, trace in traces.items():
        trace.to_csv(_out(args, f"sweep-{label}.csv"))
    print("iterations " + " ".join(f"{label:>9}" for label in traces))
    for i, row in enumerate(next(iter(traces.values())).rows):
        cells = " ".join(f"{trace.rows[i].val_ppl:>9.3f}" for trace in traces.values())
        print(f"{row.iterations:>10} {cells}")


def cmd_experiment_bsf_demo(args) -> None:
    print("== lexicon expansion ==")
    emb = bsf.train_embeddings(synth.embedding_corpus(seed=1), dim=16, window=2, epochs=5, seed=4)
    for term, sim in bsf.expand_seeds(emb, ["pet", "dog"], k=4):
        print(f"  {sim:.3f} {term}")
    print("\n== per-language classifiers (500-example hold-out) ==")
    classifiers = presets.bsf_classifiers()
    for language, (_, metrics) in classifiers.items():
        print(f"[{language}] macro-F1 {metrics.macro_f1:.3f}")
        print(metrics.to_text())
    print("\n== cross-language report (5% planted flips) ==")
    report, flipped, _ = presets.bsf_flip_report(classifiers)
    print(report.to_text())
    print(f"\nplanted flips: {flipped}")


# ---------------------------------------------------------------------------
# parser


def _corpus_inputs(p):
    p.add_argument("--src", type=InputFile, help="source-side text file")
    p.add_argument("--tgt", type=InputFile, help="target-side text file")
    p.add_argument("--tsv", type=InputFile,
                   help="two-column TSV corpus (alternative to --src/--tgt)")
    p.set_defaults(_corpus_parser=p)  # main checks the combination


def _toy_flags(p, tokens=True, noise=True):
    p.add_argument("--vocab", type=int, default=128)
    p.add_argument("--embed-dim", type=int, default=48)
    p.add_argument("--hidden-dim", type=int, default=96)
    if tokens:  # the sweep sizes its streams from --sizes
        p.add_argument("--tokens", type=int, default=12000)
    if noise:  # gradcheck draws a fixed noiseless batch
        p.add_argument("--noise", type=float, default=0.15)
    p.add_argument("--batch-size", type=int, default=8)


def _score_flags(p):
    p.add_argument("--scores", type=InputFile, required=True, help="CSV score sheet")
    p.add_argument("--score-min", type=int, default=1)
    p.add_argument("--score-max", type=int, default=4)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `mtlab` parser, built once per process and shared by every `main`
    call; nothing in it depends on the environment or on one call's state."""
    parser = argparse.ArgumentParser(prog="mtlab", description=__doc__, allow_abbrev=False,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out-dir", help="output directory (default: $MTLAB_OUT or .)")
    # --out-dir also goes after the subcommand (SUPPRESS keeps the leaf from clobbering
    # a top-level value); no parser takes abbreviations, which would read --seed as --seeds
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out-dir", default=argparse.SUPPRESS)
    top = parser.add_subparsers(dest="group", required=True)

    def group(name, help_text):
        return top.add_parser(name, help=help_text, allow_abbrev=False).add_subparsers(
            dest="command", required=True)

    def command(sub, name, func, seeded=False):
        p = sub.add_parser(name, parents=[common], allow_abbrev=False)
        p.set_defaults(func=func)
        if seeded:  # only the commands that draw random numbers take --seed
            p.add_argument("--seed", type=int, default=0, help="random seed")
        return p

    sub = group("corpus", "load/split/subsample parallel corpora")
    p = command(sub, "split", cmd_corpus_split, seeded=True)
    _corpus_inputs(p)
    p.add_argument("--validation-size", type=int, required=True)
    p = command(sub, "subsample", cmd_corpus_subsample, seeded=True)
    _corpus_inputs(p)
    p.add_argument("--sizes", type=parse_sizes, required=True,
                   help="comma-separated sizes, e.g. 100,250,500")

    sub = group("bpe", "subword model training and application")
    p = command(sub, "train", cmd_bpe_train)
    _corpus_inputs(p)
    p.add_argument("--merges", type=int, required=True)
    p.add_argument("--mode", choices=["joint", "separate"], default="joint")
    p = command(sub, "apply", cmd_bpe_apply)
    p.add_argument("--model", type=InputFile, required=True)
    p.add_argument("--input", type=InputFile, required=True)
    p.add_argument("--output", default="tokenized.txt")
    p = command(sub, "detok", cmd_bpe_detok)
    p.add_argument("--input", type=InputFile, required=True)
    p.add_argument("--output", default="detokenized.txt")

    sub = group("ner", "entity templates: scan/mask/unmask/validate")
    p = command(sub, "scan", cmd_ner_scan)
    _corpus_inputs(p)
    p.add_argument("--templates-src", type=template_source, default="en",
                   help="template file or starter language code")
    p.add_argument("--templates-tgt", type=template_source, default="de")
    p = command(sub, "mask", cmd_ner_mask)
    p.add_argument("--input", type=InputFile, required=True)
    p.add_argument("--templates", type=template_source, default="en")
    p = command(sub, "unmask", cmd_ner_unmask)
    p.add_argument("--input", type=InputFile, required=True)
    p.add_argument("--map", type=InputFile, required=True)
    p.add_argument("--locale", choices=["en", "de"], required=True)
    p.add_argument("--unit-policy", choices=["keep", "to_km", "to_mi"], default="keep")
    p.add_argument("--output", default="unmasked.txt")
    p = command(sub, "validate", cmd_ner_validate)
    p.add_argument("--pairs", type=InputFile, required=True, help="TSV of source<TAB>output")
    p.add_argument("--templates-src", type=template_source, default="en")
    p.add_argument("--templates-tgt", type=template_source, default="de")
    p.add_argument("--tolerance", type=float, default=0.005)

    sub = group("bleu", "BLEU scoring")
    p = command(sub, "corpus", cmd_bleu_corpus)
    p.add_argument("--candidates", type=InputFile, required=True)
    p.add_argument("--references", type=InputFile, required=True)
    p.add_argument("--lowercase", action="store_true")
    p = command(sub, "sentence", cmd_bleu_sentence)
    p.add_argument("--candidate", required=True)
    p.add_argument("--reference", required=True)
    p.add_argument("--smoothing", choices=bleu_mod.SMOOTHINGS, default="add_one")
    p.add_argument("--lowercase", action="store_true")

    sub = group("optlab", "optimizer laboratory and cluster simulation")
    p = command(sub, "train", cmd_optlab_train, seeded=True)
    _toy_flags(p)
    p.add_argument("--optimizer", choices=optimizers.KINDS, default="sgd_decay")
    p.add_argument("--epochs", type=int, default=20)
    p = command(sub, "simulate", cmd_optlab_simulate, seeded=True)
    p.set_defaults(_simulate_parser=p)  # main checks the flags that belong to one mode
    _toy_flags(p)
    p.add_argument("--optimizer", choices=optimizers.KINDS, default="sgd_decay")
    p.add_argument("--workers", type=int, required=True)
    p.add_argument("--cluster-mode", choices=["sync", "async"], required=True)
    p.add_argument("--warmup-iters", type=int,
                   help=f"async mode only (default {ClusterConfig.async_warmup_iterations})")
    timing = p.add_mutually_exclusive_group()
    timing.add_argument("--calibrate-single", type=parse_duration, default=None,
                        help="single-worker epoch duration, e.g. 22260s or 6h11m")
    timing.add_argument("--batch-seconds", type=float, default=None, help="default 1.0")
    p.add_argument("--epochs", type=int, default=1)
    p = command(sub, "sweep", cmd_optlab_sweep, seeded=True)
    _toy_flags(p, tokens=False)
    p.add_argument("--optimizer", choices=optimizers.KINDS, default="sgd_decay")
    p.add_argument("--sizes", type=parse_sizes, required=True)
    p.add_argument("--budget", type=int, required=True)
    p.add_argument("--checkpoint-every", type=int, default=100)
    p = command(sub, "gradcheck", cmd_optlab_gradcheck, seeded=True)
    _toy_flags(p, tokens=False, noise=False)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--step", type=float, default=1e-5)
    p.add_argument("--tolerance", type=float, default=1e-6)

    sub = group("bsf", "business sensitivity framework")
    p = command(sub, "embed", cmd_bsf_embed, seeded=True)
    p.add_argument("--input", type=InputFile, required=True,
                   help="pre-tokenized text, one sentence per line")
    p.add_argument("--dim", type=int, default=32)
    p.add_argument("--window", type=int, default=4)
    p.add_argument("--negatives", type=int, default=5)
    p.add_argument("--epochs", type=int, default=3)
    p.add_argument("--output", default="vectors.txt")
    p = command(sub, "expand", cmd_bsf_expand)
    p.add_argument("--vectors", type=InputFile, required=True)
    p.add_argument("--seeds", required=True, help="comma-separated seed terms")
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--min-sim", type=float, default=0.0)
    p.add_argument("--output", default="candidates.txt")
    p = command(sub, "match", cmd_bsf_match)
    p.add_argument("--input", type=InputFile, required=True)
    p.add_argument("--terms", type=InputFile, required=True)
    p = command(sub, "train", cmd_bsf_train, seeded=True)
    p.add_argument("--labeled", type=InputFile, required=True, help="TSV of label<TAB>text")
    p.add_argument("--bits", type=int, default=18)
    p.add_argument("--lr", type=float, default=0.5)
    p.add_argument("--epochs", type=int, default=12)
    p.add_argument("--l2", type=float, default=1e-6)
    p.add_argument("--output", default="classifier.txt")
    p = command(sub, "eval", cmd_bsf_eval)
    p.add_argument("--model", type=InputFile, required=True)
    p.add_argument("--labeled", type=InputFile, required=True)
    p = command(sub, "report", cmd_bsf_report)
    p.add_argument("--pairs", type=InputFile, required=True, help="TSV of source<TAB>translation")
    p.add_argument("--terms-src", type=InputFile, required=True)
    p.add_argument("--clf-src", type=InputFile, required=True)
    p.add_argument("--clf-tgt", type=InputFile, required=True)

    sub = group("experiment", "the paper's experiments, each with fixed settings and seeds")
    p = command(sub, "convergence", cmd_experiment_convergence)
    p.add_argument("--epochs", type=int, default=presets.CONVERGENCE["epochs"])
    command(sub, "cluster-timing", cmd_experiment_cluster_timing)
    p = command(sub, "corpus-size", cmd_experiment_corpus_size)
    p.add_argument("--sizes", type=parse_sizes, default="500,1000,2000,4000,8000")
    p.add_argument("--budget", type=int, default=8000)
    p.add_argument("--checkpoint-every", type=int, default=500)
    command(sub, "bsf-demo", cmd_experiment_bsf_demo)

    sub = group("eval", "human evaluation analytics")
    _score_flags(command(sub, "ingest", cmd_eval_ingest))
    _score_flags(command(sub, "summarize", cmd_eval_summarize))
    p = command(sub, "correlate", cmd_eval_correlate)
    _score_flags(p)
    p.add_argument("--bleu", type=InputFile, required=True, help="JSON mapping system -> BLEU score")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.out_dir is None:  # read per call: the parser outlives any one environment
        args.out_dir = os.environ.get("MTLAB_OUT", ".")
    args._outputs = []  # filled by _out
    given = tuple(bool(getattr(args, flag, None)) for flag in ("tsv", "src", "tgt"))
    if hasattr(args, "_corpus_parser") and given not in ((True, False, False), (False, True, True)):
        args._corpus_parser.error("give --tsv, or both --src and --tgt")
    if hasattr(args, "_simulate_parser"):
        if args.cluster_mode != "async" and args.warmup_iters is not None:
            args._simulate_parser.error("--warmup-iters needs --cluster-mode async")
    try:
        args.func(args)
        inputs = [value for value in vars(args).values() if isinstance(value, InputFile)]
        write_manifest(args.out_dir, f"{args.group} {args.command}", vars(args), inputs,
                       args._outputs, getattr(args, "seed", None))
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

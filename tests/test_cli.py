import argparse
import itertools
import json
import os
import re
import shlex
import time
from pathlib import Path

import pytest

from mtlab import entities
from mtlab.cli import build_parser, main, parse_duration, parse_sizes
from mtlab.entities import starter_templates
from mtlab.manifest import file_digest
from mtlab.synth import parking_sentences, toy_parallel_corpus
from mtlab.corpus import write_parallel
from conftest import entity_sentences


@pytest.fixture
def corpus_files(tmp_path):
    corpus = toy_parallel_corpus(40, seed=2)
    src, tgt = tmp_path / "c.src", tmp_path / "c.tgt"
    write_parallel(corpus, src, tgt)
    return str(src), str(tgt)


def run(args):
    return main([str(a) for a in args])


def test_parse_duration_forms():
    assert parse_duration("22260") == 22260.0
    assert parse_duration("22260s") == 22260.0
    assert parse_duration("371m") == 22260.0
    assert parse_duration("6h11m") == 22260.0
    assert parse_duration("1.5h") == 5400.0
    for junk in ["soon", "", "6h11mfoo", "abc6h", "1.5.5h", "6h 11m", "0", "0.0", "0h", "0h0m0s",
                 "9" * 400 + "s"]:
        with pytest.raises(argparse.ArgumentTypeError):
            parse_duration(junk)


def test_corpus_split_writes_manifest(tmp_path, corpus_files):
    src, tgt = corpus_files
    out = tmp_path / "out"
    code = run(["--out-dir", out, "corpus", "split", "--seed", 5,
                "--src", src, "--tgt", tgt, "--validation-size", 8])
    assert code == 0
    assert (out / "train.src").exists() and (out / "validation.tgt").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["subcommand"] == "corpus split"
    assert manifest["seed"] == 5
    assert set(manifest["inputs"]) == {"c.src", "c.tgt"}


def test_corpus_split_rerun_is_bit_identical(tmp_path, corpus_files):
    src, tgt = corpus_files
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        run(["--out-dir", out, "corpus", "split", "--seed", 5,
             "--src", src, "--tgt", tgt, "--validation-size", 8])
        outs.append((out / "train.src").read_bytes() + (out / "validation.src").read_bytes())
    assert outs[0] == outs[1]


def test_corpus_subsample_nested(tmp_path, corpus_files):
    src, tgt = corpus_files
    out = tmp_path / "out"
    assert run(["--out-dir", out, "corpus", "subsample", "--src", src, "--tgt", tgt,
                "--sizes", "5,10"]) == 0
    small = (out / "size-5.src").read_text().splitlines()
    big = (out / "size-10.src").read_text().splitlines()
    assert set(small) <= set(big)


def test_bpe_train_apply_detok_round_trip(tmp_path, corpus_files):
    src, tgt = corpus_files
    out = tmp_path / "out"
    assert run(["--out-dir", out, "bpe", "train", "--src", src, "--tgt", tgt,
                "--merges", "80"]) == 0
    model_path = out / "bpe.model"
    assert model_path.exists()
    assert run(["--out-dir", out, "bpe", "apply", "--model", model_path,
                "--input", src, "--output", "tok.txt"]) == 0
    assert run(["--out-dir", out, "bpe", "detok", "--input", out / "tok.txt",
                "--output", "detok.txt"]) == 0
    assert (out / "detok.txt").read_bytes() == Path(src).read_bytes()


def test_bpe_zero_merges_gives_character_output(tmp_path, corpus_files):
    src, tgt = corpus_files
    out = tmp_path / "out"
    run(["--out-dir", out, "bpe", "train", "--src", src, "--tgt", tgt, "--merges", "0"])
    run(["--out-dir", out, "bpe", "apply", "--model", out / "bpe.model",
         "--input", src, "--output", "tok.txt"])
    first = (out / "tok.txt").read_text(encoding="utf-8").splitlines()[0]
    pieces = [item.rsplit("|", 1)[0].strip("■") for item in first.split(" ")]
    assert all(len(p) == 1 or p.startswith("\\") for p in pieces)


def test_bpe_separate_mode_writes_two_models(tmp_path, corpus_files):
    src, tgt = corpus_files
    out = tmp_path / "out"
    run(["--out-dir", out, "bpe", "train", "--src", src, "--tgt", tgt,
         "--merges", "30", "--mode", "separate"])
    assert (out / "bpe.src.model").exists() and (out / "bpe.tgt.model").exists()


def test_ner_scan_mask_unmask(tmp_path):
    """`ner mask` then `ner unmask` equals the library's mask -> unmask for each source
    language, target locale and unit policy: values are parsed in the map's language, and
    only `keep` in the source locale gives back the input."""
    for source in ("en", "de"):
        sentences = entity_sentences(12, seed=3, language=source)
        input_path = tmp_path / f"sents.{source}"
        input_path.write_text("\n".join(sentences) + "\n", encoding="utf-8")
        masked = tmp_path / f"masked-{source}"
        assert run(["--out-dir", masked, "ner", "mask", "--input", input_path,
                    "--templates", source]) == 0
        pmaps = [entities.mask(line, starter_templates(source)) for line in sentences]
        lines = (masked / "masked.txt").read_text(encoding="utf-8").splitlines()
        assert lines == [p.masked_sentence for p in pmaps] and any("⟦" in line for line in lines)
        for locale, policy in itertools.product(("en", "de"), ("keep", "to_km", "to_mi")):
            out = tmp_path / f"{source}-{locale}-{policy}"
            assert run(["--out-dir", out, "ner", "unmask", "--input", masked / "masked.txt",
                        "--map", masked / "maps.json", "--locale", locale,
                        "--unit-policy", policy, "--output", "restored.txt"]) == 0
            target = entities.LocaleFormat(locale, policy)
            expected = [entities.unmask(p.masked_sentence, p, target) for p in pmaps]
            assert (out / "restored.txt").read_text(encoding="utf-8").splitlines() == expected
            if locale == source and policy == "keep":
                assert expected == sentences


def test_ner_scan_reports_counts(tmp_path, corpus_files):
    src, tgt = corpus_files
    out = tmp_path / "out"
    assert run(["--out-dir", out, "ner", "scan", "--src", src, "--tgt", tgt]) == 0
    report = json.loads((out / "mismatches.json").read_text(encoding="utf-8"))
    assert "mismatch_counts" in report and report["pair_count"] == 40


def test_ner_scan_empty_corpus_reports_zero_pairs(tmp_path):
    for name in ("e.src", "e.tgt"):
        (tmp_path / name).write_text("", encoding="utf-8")
    out = tmp_path / "out"
    assert run(["--out-dir", out, "ner", "scan", "--src", tmp_path / "e.src",
                "--tgt", tmp_path / "e.tgt"]) == 0
    assert json.loads((out / "mismatches.json").read_text(encoding="utf-8"))["pair_count"] == 0
    assert (out / "manifest.json").exists()


def test_ner_validate(tmp_path):
    out = tmp_path / "out"
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("5 km away\t5 km entfernt\n10 miles off\t16,1 km entfernt\n",
                     encoding="utf-8")
    assert run(["--out-dir", out, "ner", "validate", "--pairs", pairs]) == 0
    payload = json.loads((out / "entity-validation.json").read_text())
    assert payload["accuracy"] == 1.0


def test_bleu_corpus_identity_scores_100(tmp_path):
    out = tmp_path / "out"
    text = tmp_path / "cand.txt"
    text.write_text("the hotel has a garden\nthe beach is close\n", encoding="utf-8")
    assert run(["--out-dir", out, "bleu", "corpus", "--candidates", text,
                "--references", text]) == 0
    report = json.loads((out / "bleu.json").read_text())
    assert report["score"] == pytest.approx(100.0)


def test_bleu_corpus_mismatched_lengths_exits_1(tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text("one\n", encoding="utf-8")
    b.write_text("one\ntwo\n", encoding="utf-8")
    assert run(["--out-dir", tmp_path, "bleu", "corpus", "--candidates", a,
                "--references", b]) == 1


def test_bleu_sentence(capsys, tmp_path):
    assert run(["--out-dir", tmp_path, "bleu", "sentence", "--candidate", "a b c d",
                "--reference", "a b c d"]) == 0
    assert '"score": 100.0' in capsys.readouterr().out


def test_bleu_input_without_tokens_exits_1(capsys, tmp_path):
    assert run(["--out-dir", tmp_path / "s", "bleu", "sentence", "--candidate", "a b c d",
                "--reference", "   ", "--smoothing", "add_one"]) == 1
    assert "token" in _one_error_line(capsys)
    cands, refs = tmp_path / "cands.txt", tmp_path / "refs.txt"
    cands.write_text("a b c d\ne f\n", encoding="utf-8")
    refs.write_text(" \n\n", encoding="utf-8")
    assert run(["--out-dir", tmp_path / "c", "bleu", "corpus", "--candidates", cands,
                "--references", refs]) == 1
    assert "no token" in _one_error_line(capsys)
    assert not (tmp_path / "c" / "bleu.json").exists()


def test_optlab_train_writes_trace(tmp_path):
    out = tmp_path / "out"
    assert run(["--out-dir", out, "optlab", "train", "--optimizer", "adam",
                "--epochs", 2, "--tokens", 600, "--vocab", 32,
                "--embed-dim", 8, "--hidden-dim", 16]) == 0
    lines = (out / "trace-adam.csv").read_text().splitlines()
    assert lines[0] == "epoch,iterations,sim_seconds,val_ppl,lr"
    assert len(lines) == 3


def test_optlab_simulate_calibrated_async8(tmp_path):
    out = tmp_path / "out"
    assert run(["--out-dir", out, "optlab", "simulate", "--workers", 8,
                "--cluster-mode", "async", "--calibrate-single", "22260s",
                "--warmup-iters", 0, "--vocab", 32, "--embed-dim", 8,
                "--hidden-dim", 16, "--epochs", 1, "--batch-size", 4,
                "--tokens", 4000]) == 0
    payload = json.loads((out / "sim-async-8.json").read_text())
    assert abs(payload["epoch_seconds"] - 3360.0) / 3360.0 < 0.15


def test_optlab_simulate_default_async_run_uses_every_trainer(tmp_path):
    # a default warmup longer than the epoch would run every K on one trainer
    traces = []
    for workers in (3, 8):
        out = tmp_path / f"k{workers}"
        assert run(["--out-dir", out, "optlab", "simulate", "--cluster-mode", "async",
                    "--tokens", 3000, "--vocab", 32, "--embed-dim", 8, "--hidden-dim", 16,
                    "--workers", workers]) == 0
        traces.append((out / f"sim-async-{workers}.csv").read_text())
    assert traces[0] != traces[1]


@pytest.mark.parametrize("flags, message", [
    (["--calibrate-single", "6h", "--batch-seconds", 99],
     "argument --batch-seconds: not allowed with argument --calibrate-single"),
    (["--warmup-iters", 0], "--warmup-iters needs --cluster-mode async"),
])
def test_optlab_simulate_other_mode_flag_is_usage_error(tmp_path, capsys, flags, message):
    with pytest.raises(SystemExit) as exc:
        main([str(a) for a in ["--out-dir", tmp_path, "optlab", "simulate", "--workers", 2,
                               "--cluster-mode", "sync", *flags]])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1].endswith("error: " + message)
    assert not (tmp_path / "manifest.json").exists()


@pytest.mark.parametrize("seconds, message", [
    ("inf", "per_batch_compute_time must be finite and > 0"),
    ("nan", "per_batch_compute_time must be finite and > 0"),
    (0, "per_batch_compute_time must be finite and > 0"),
    (-1, "per_batch_compute_time must be finite and > 0"),
    ("1e308", "the simulated epoch overflows with per_batch_compute_time"),
], ids=["inf", "nan", "zero", "negative", "overflow"])
def test_optlab_simulate_bad_batch_seconds_exit_1(tmp_path, capsys, seconds, message):
    assert run(["--out-dir", tmp_path, "optlab", "simulate", "--workers", 2,
                "--cluster-mode", "sync", "--tokens", 200, "--batch-seconds", seconds,
                "--vocab", 32, "--embed-dim", 8, "--hidden-dim", 16, "--epochs", 1]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and "Traceback" not in err
    assert message in err
    assert not (tmp_path / "manifest.json").exists()


def test_optlab_gradcheck_exit_status(tmp_path):
    assert run(["--out-dir", tmp_path, "optlab", "gradcheck", "--vocab", 24,
                "--embed-dim", 6, "--hidden-dim", 10, "--samples", 80]) == 0


def test_bsf_pipeline(tmp_path):
    out = tmp_path / "out"
    labeled = tmp_path / "labeled.tsv"
    rows = parking_sentences("en", 240, seed=8)
    labeled.write_text("".join(f"{label}\t{text}\n" for text, label in rows), encoding="utf-8")
    assert run(["--out-dir", out, "bsf", "train", "--labeled", labeled,
                "--output", "clf.txt"]) == 0
    assert run(["--out-dir", out, "bsf", "eval", "--model", out / "clf.txt",
                "--labeled", labeled]) == 0
    payload = json.loads((out / "bsf-eval.json").read_text())
    assert payload["macro_f1"] > 0.9


def test_bsf_embed_and_expand(tmp_path):
    out = tmp_path / "out"
    corpus_path = tmp_path / "tokens.txt"
    from mtlab.synth import embedding_corpus
    corpus_path.write_text("".join(" ".join(s) + "\n" for s in embedding_corpus(seed=2)),
                           encoding="utf-8")
    assert run(["--out-dir", out, "bsf", "embed", "--input", corpus_path,
                "--dim", 12, "--epochs", 2, "--output", "vec.txt"]) == 0
    assert run(["--out-dir", out, "bsf", "expand", "--vectors", out / "vec.txt",
                "--seeds", "dog", "--k", 3, "--output", "cand.txt"]) == 0
    assert (out / "cand.txt").read_text().strip()


def test_bsf_match(tmp_path):
    out = tmp_path / "out"
    sentences = tmp_path / "s.txt"
    sentences.write_text("Free parking here.\nA nice garden.\n", encoding="utf-8")
    terms = tmp_path / "terms.txt"
    terms.write_text("parking\n", encoding="utf-8")
    assert run(["--out-dir", out, "bsf", "match", "--input", sentences,
                "--terms", terms]) == 0
    assert (out / "matched-ids.txt").read_text().split() == ["0"]


def test_bsf_report_end_to_end(tmp_path):
    from mtlab.synth import parking_parallel
    out = tmp_path / "out"
    en_data, de_data, _ = parking_parallel(150, seed=4, flip_fraction=0.05)
    (tmp_path / "pairs.tsv").write_text(
        "".join(f"{e[0]}\t{d[0]}\n" for e, d in zip(en_data, de_data)), encoding="utf-8")
    for lang, rows in (("en", en_data), ("de", de_data)):
        (tmp_path / f"labeled.{lang}.tsv").write_text(
            "".join(f"{label}\t{text}\n" for text, label in rows), encoding="utf-8")
        assert run(["--out-dir", out, "bsf", "train", "--labeled", tmp_path / f"labeled.{lang}.tsv",
                    "--output", f"clf.{lang}.txt"]) == 0
    (tmp_path / "terms.en.txt").write_text("parking\npark\n", encoding="utf-8")
    assert run(["--out-dir", out, "bsf", "report", "--pairs", tmp_path / "pairs.tsv",
                "--terms-src", tmp_path / "terms.en.txt",
                "--clf-src", out / "clf.en.txt", "--clf-tgt", out / "clf.de.txt"]) == 0
    payload = json.loads((out / "bsf-report.json").read_text(encoding="utf-8"))
    assert set(payload["labels"]) == {"free", "paid", "other"}
    assert (out / "bsf-report.txt").read_text(encoding="utf-8")


_BSF_REPORT_FILES = ["--pairs", "p.tsv", "--terms-src", "en.txt", "--clf-src", "en.clf",
                     "--clf-tgt", "de.clf"]


def _bsf_report_with_terms(tmp_path, terms_src):
    """`bsf report` on two pairs, with two hand-written classifiers that always say `b`."""
    (tmp_path / "pairs.tsv").write_text(
        "Free parking here.\tGratis parken.\nA nice garden.\tEin Garten.\n", encoding="utf-8")
    (tmp_path / "terms.en.txt").write_text(terms_src, encoding="utf-8")
    (tmp_path / "clf.txt").write_text("bsfclf-v1 4 2 1\na\tb\nbias 0.0 1.0\n", encoding="utf-8")
    return run(["--out-dir", tmp_path / "out", "bsf", "report", "--pairs", tmp_path / "pairs.tsv",
                "--terms-src", tmp_path / "terms.en.txt",
                "--clf-src", tmp_path / "clf.txt", "--clf-tgt", tmp_path / "clf.txt"])


def test_bsf_report_drops_a_punctuation_only_term(tmp_path):
    assert _bsf_report_with_terms(tmp_path, "parking\n--\n") == 0
    payload = json.loads((tmp_path / "out" / "bsf-report.json").read_text(encoding="utf-8"))
    assert payload["matched_count"] == 1


def test_bsf_report_without_usable_terms_exits_1(tmp_path, capsys):
    assert _bsf_report_with_terms(tmp_path, "--\n...\n") == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "has no usable terms" in err


def test_bsf_match_unusable_terms_file_exits_1_naming_it(tmp_path, capsys):
    (tmp_path / "s.txt").write_text("Free parking here.\n", encoding="utf-8")
    terms = tmp_path / "terms.txt"
    terms.write_text("# approved\n--\n", encoding="utf-8")
    assert run(["--out-dir", tmp_path / "out", "bsf", "match", "--input", tmp_path / "s.txt",
                "--terms", terms]) == 1
    assert f"terms file {terms} has no usable terms" in _one_error_line(capsys)
    assert not (tmp_path / "out" / "manifest.json").exists()


@pytest.mark.parametrize("argv", [
    ["match", "--input", "s.txt", "--terms", "t.txt", "--aspect", "parking"],
    ["match", "--input", "s.txt", "--terms", "t.txt", "--language", "en"],
    ["report", *_BSF_REPORT_FILES, "--aspect", "parking"],
    ["report", *_BSF_REPORT_FILES, "--lang-src", "en"],
    ["report", *_BSF_REPORT_FILES, "--lang-tgt", "de"],
], ids=["match-aspect", "match-language", "report-aspect", "report-lang-src",
        "report-lang-tgt"])
def test_bsf_deleted_lexicon_name_flags_are_usage_errors(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run(["--out-dir", tmp_path, "bsf", *argv])
    assert exc.value.code == 2
    assert "unrecognized arguments: --" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["ner", "unmask", "--input", "m.txt", "--map", "maps.json", "--locale", "de",
     "--templates", "en"],
    ["bsf", "report", *_BSF_REPORT_FILES, "--terms-tgt", "de.txt"],
], ids=["unmask-templates", "report-terms-tgt"])
def test_deleted_path_flags_are_usage_errors(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run(["--out-dir", tmp_path, *argv])
    assert exc.value.code == 2
    assert "unrecognized arguments: --" in capsys.readouterr().err
    assert not list(tmp_path.rglob("manifest.json"))


def test_ner_unmask_restores_an_unparsed_type_as_written(tmp_path):
    (tmp_path / "masked.txt").write_text("ab ⟦DUR_0⟧ cd\n", encoding="utf-8")
    (tmp_path / "maps.json").write_text(json.dumps(
        [{"source_language": "en",
          "entries": [{"index": 0, "type": "unknown_kind", "text": "55-minute"}]}]),
        encoding="utf-8")
    for locale in ("en", "de"):
        out = tmp_path / locale
        assert run(["--out-dir", out, "ner", "unmask", "--input", tmp_path / "masked.txt",
                    "--map", tmp_path / "maps.json", "--locale", locale]) == 0
        assert (out / "unmasked.txt").read_text(encoding="utf-8") == "ab 55-minute cd\n"


def test_eval_flow(tmp_path):
    out = tmp_path / "out"
    scores = tmp_path / "scores.csv"
    rows = ["sentence_id,rater_id,system,adequacy,fluency"]
    for system, (adequacy, fluency) in {"1M": (2, 2), "7.5M": (3, 3), "10M": (4, 4)}.items():
        for sid in range(1, 4):
            for rater in ("r1", "r2"):
                rows.append(f"{sid},{rater},{system},{adequacy},{fluency}")
    scores.write_text("\n".join(rows) + "\n", encoding="utf-8")
    bleu_path = tmp_path / "bleu.json"
    bleu_path.write_text(json.dumps({"1M": 46.5, "7.5M": 47.95, "10M": 47.41}), encoding="utf-8")

    assert run(["--out-dir", out, "eval", "ingest", "--scores", scores]) == 0
    assert run(["--out-dir", out, "eval", "summarize", "--scores", scores]) == 0
    assert run(["--out-dir", out, "eval", "correlate", "--scores", scores,
                "--bleu", bleu_path]) == 0
    correlation = json.loads((out / "correlation-adequacy.json").read_text())
    assert correlation["argmax_disagreement"] is True
    assert (out / "bleu-vs-human.csv").read_text().splitlines()[0] == "system,bleu,adequacy,fluency"


def test_eval_summarize_wide_score_range_is_fast_and_keeps_kappa(tmp_path):
    scores = tmp_path / "scores.csv"
    rows = ["sentence_id,rater_id,system,adequacy,fluency"]
    for sid, (a1, a2, f1, f2) in enumerate([(1, 2, 3, 3), (2, 2, 4, 3), (4, 3, 2, 1),
                                            (3, 3, 1, 2), (2, 1, 4, 4)], start=1):
        rows += [f"{sid},r1,sysA,{a1},{f1}", f"{sid},r2,sysA,{a2},{f2}"]
    scores.write_text("\n".join(rows) + "\n", encoding="utf-8")
    kappas = {}
    for high in (4, 1_000_000):
        start = time.perf_counter()
        assert run(["--out-dir", tmp_path / str(high), "eval", "summarize", "--scores", scores,
                    "--score-max", high]) == 0
        assert time.perf_counter() - start < 1.0
        system = json.loads((tmp_path / str(high) / "summary.json").read_text())["sysA"]
        kappas[high] = (system["kappa_adequacy"], system["kappa_fluency"])
    assert None not in kappas[4]
    assert kappas[1_000_000] == pytest.approx(kappas[4], rel=0, abs=1e-12)


@pytest.mark.parametrize("command", ["ingest", "summarize"])
@pytest.mark.parametrize("rows", [["1,r1,sysA,3,4"], []], ids=["one-row", "header-only"])
def test_eval_empty_score_range_exits_1(tmp_path, capsys, command, rows):
    scores = tmp_path / "scores.csv"
    scores.write_text("\n".join(["sentence_id,rater_id,system,adequacy,fluency", *rows]) + "\n",
                      encoding="utf-8")
    assert run(["--out-dir", tmp_path / "out", "eval", command, "--scores", scores,
                "--score-min", "4", "--score-max", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: score range 4-2 is empty: its minimum exceeds its maximum\n"


def test_domain_error_exits_1(tmp_path):
    missing = tmp_path / "nope.txt"
    assert run(["--out-dir", tmp_path, "bleu", "corpus", "--candidates", missing,
                "--references", missing]) == 1


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["bleu", "corpus", "--unknown-flag"])
    assert exc.value.code == 2


SEEDED = {"corpus split", "corpus subsample", "optlab train", "optlab simulate", "optlab sweep",
          "optlab gradcheck", "bsf embed", "bsf train"}


def test_seed_only_where_random_numbers_are_drawn_and_no_abbreviations():
    parser = build_parser()
    assert {s for a in parser._actions for s in a.option_strings} == {"-h", "--help", "--out-dir"}
    with_seed, parsers = set(), [parser]
    for group, group_parser in parser._subparsers._group_actions[0].choices.items():
        parsers.append(group_parser)
        for command, leaf in group_parser._subparsers._group_actions[0].choices.items():
            parsers.append(leaf)
            if "--seed" in leaf._option_string_actions:
                with_seed.add(f"{group} {command}")
    assert with_seed == SEEDED
    assert len(parsers) == 1 + 8 + 28 and not any(p.allow_abbrev for p in parsers)


@pytest.mark.parametrize("argv", [
    ["experiment", "cluster-timing", "--seed", 9],
    ["bsf", "expand", "--vectors", "v", "--seeds", "dog", "--seed", 3],
    ["bsf", "match", "--input", "i", "--term", "t"],
    ["--out", "o", "experiment", "cluster-timing"],
], ids=["unseeded-command", "seed-beside-seeds", "abbreviated-flag", "abbreviated-top-level-flag"])
def test_unseeded_seed_and_abbreviated_flags_are_usage_errors(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)  # a parser that took `--out` for `--out-dir` would write `o/`
    with pytest.raises(SystemExit) as exc:
        run(["--out-dir", tmp_path, *argv])
    assert exc.value.code == 2
    assert not list(tmp_path.rglob("manifest.json"))


def _readme_commands() -> list[str]:
    """Each `mtlab ...` command in README's bash blocks, continuation lines joined."""
    text = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```bash\n(.*?)^```", text, flags=re.M | re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [line for line in lines if line.startswith("mtlab ")]


def test_readme_lists_the_commands():
    assert len(_readme_commands()) == 32


@pytest.mark.parametrize("line", _readme_commands())
def test_readme_commands_parse(line):
    build_parser().parse_args(shlex.split(line, comments=True)[1:])


@pytest.mark.parametrize("argv", [
    ["train", "--epochs", 0],
    ["train", "--batch-size", 0],
    ["simulate", "--workers", 2, "--cluster-mode", "sync", "--epochs", 0],
    ["sweep", "--sizes", 500, "--budget", 0],
    ["sweep", "--sizes", 500, "--budget", 10, "--checkpoint-every", 0],
    ["gradcheck", "--batch-size", 0],
    ["gradcheck", "--samples", 0],
    ["simulate", "--workers", 2, "--cluster-mode", "sync", "--calibrate-single", "6h",
     "--batch-size", 0],
    ["simulate", "--workers", 3, "--cluster-mode", "async", "--warmup-iters", -5],
    ["simulate", "--workers", 0, "--cluster-mode", "sync"],
])
def test_optlab_counts_below_one_exit_1(tmp_path, capsys, argv):
    small = ["--vocab", 32, "--embed-dim", 8, "--hidden-dim", 16]
    if argv[0] in ("train", "simulate"):  # only these read a --tokens stream
        small += ["--tokens", 600]
    assert run(["--out-dir", tmp_path, "optlab", *argv, *small]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("flags, message", [
    (["--tokens", 1], "token stream must contain at least one bigram"),
    (["--batch-size", 0], "batch_size must be at least 1, got 0"),
], ids=["one-token", "zero-batch"])
def test_optlab_simulate_calibrated_names_the_stream_or_batch_fault(tmp_path, capsys, flags,
                                                                    message):
    # the calibrated run counts its batches as training batches them
    assert run(["--out-dir", tmp_path, "optlab", "simulate", "--workers", 2,
                "--cluster-mode", "sync", "--calibrate-single", "6h", *flags]) == 1
    assert message in _one_error_line(capsys)


@pytest.mark.parametrize("argv, message", [
    (["gradcheck", "--step", 0], "step must be finite and positive"),
    (["gradcheck", "--step", "nan"], "step must be finite and positive"),
    (["train", "--noise", "nan"], "noise must be in [0, 1]"),
    (["train", "--noise", 2], "noise must be in [0, 1]"),
    (["train", "--noise", -0.5], "noise must be in [0, 1]"),
    (["simulate", "--workers", 2, "--cluster-mode", "sync", "--noise", "nan"],
     "noise must be in [0, 1]"),
    (["sweep", "--sizes", 500, "--budget", 10, "--noise", 2], "noise must be in [0, 1]"),
])
def test_optlab_bad_step_or_noise_exits_1(tmp_path, capsys, argv, message):
    small = ["--vocab", 32, "--embed-dim", 8, "--hidden-dim", 16]
    if argv[0] in ("train", "simulate"):
        small += ["--tokens", 600, "--epochs", 1]
    assert run(["--out-dir", tmp_path, "optlab", *argv, *small]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and "Traceback" not in err
    assert message in err
    assert not (tmp_path / "manifest.json").exists()


@pytest.mark.parametrize("flag, field", [("--embed-dim", "embed_dim"), ("--vocab", "vocab_size"),
                                         ("--hidden-dim", "hidden_dim")])
@pytest.mark.parametrize("value", [0, -1])
def test_optlab_model_sizes_below_one_exit_1(tmp_path, capsys, recwarn, flag, field, value):
    argv = ["--out-dir", tmp_path, "optlab", "train", "--epochs", 1, "--tokens", 200, flag, value]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err == f"error: {field} must be at least 1, got {value}\n"
    assert not recwarn.list


@pytest.mark.parametrize("argv", [
    ["corpus", "subsample", "--sizes", "5x"],
    ["optlab", "sweep", "--sizes", "5x", "--budget", "10"],
    ["experiment", "corpus-size", "--sizes", "5x"],
])
def test_malformed_sizes_is_usage_error(capsys, argv):
    for sizes, message in [("5x", "cannot parse size list '5x'"),
                           ("300,-100", "size list '300,-100' holds a negative size"),
                           ("-1", "size list '-1' holds a negative size"),
                           ("300,300", "size list '300,300' repeats a size"),
                           ("1,01", "size list '1,01' repeats a size")]:
        with pytest.raises(SystemExit) as exc:
            main([sizes if arg == "5x" else arg for arg in argv])
        assert exc.value.code == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert errors == [f"mtlab {' '.join(argv[:2])}: error: argument --sizes: {message}"]


def test_size_zero_is_accepted():
    assert parse_sizes("0,5") == [0, 5]


def test_sweep_rejects_tokens(capsys):
    # the sweep sizes its streams from --sizes, so --tokens would be ignored
    with pytest.raises(SystemExit) as exc:
        main(["optlab", "sweep", "--sizes", "300", "--budget", "10", "--tokens", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tokens 5" in capsys.readouterr().err


@pytest.mark.parametrize("flag", [["--tokens", "5"], ["--noise", "0.5"]], ids=["tokens", "noise"])
def test_gradcheck_rejects_stream_flags(capsys, flag):
    # gradcheck draws a fixed noiseless batch, so these flags would be ignored
    with pytest.raises(SystemExit) as exc:
        main(["optlab", "gradcheck", *flag])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["corpus", "split", "--validation-size", 2],
    ["corpus", "subsample", "--sizes", 5],
    ["bpe", "train", "--merges", 5],
    ["ner", "scan"],
])
@pytest.mark.parametrize("inputs", [
    [],
    ["--src", "c.src"],
    ["--tsv", "c.tsv", "--src", "c.src", "--tgt", "c.tgt"],
])
def test_corpus_inputs_are_tsv_or_src_and_tgt(capsys, command, inputs):
    with pytest.raises(SystemExit) as exc:
        main([str(a) for a in command + inputs])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1].endswith("error: give --tsv, or both --src and --tgt")
    assert "Traceback" not in err


FAULTY = "<faulty file>"


@pytest.mark.parametrize("argv, content, line", [
    (["ner", "validate", "--pairs", FAULTY], b"5 km away\t5 km entfernt\nno tab\n", 2),
    (["ner", "validate", "--pairs", FAULTY], b"5 km away\t5 km entfernt\textra\n", 1),
    (["bsf", "report", "--pairs", FAULTY, "--terms-src", FAULTY, "--clf-src", FAULTY,
      "--clf-tgt", FAULTY], b"Free parking.\tGratis parken.\nno tab\n", 2),
    (["bsf", "train", "--labeled", FAULTY], b"free\tFree parking.\nno tab\n", 2),
    (["bpe", "detok", "--input", FAULTY], b"fine\n\xff broken\n", 2),
    (["bleu", "corpus", "--candidates", FAULTY, "--references", FAULTY], b"fine\n\xff broken\n", 2),
    (["bpe", "apply", "--model", FAULTY, "--input", FAULTY], b"bpe-v1 joint 2\na b\nbad\n", 3),
    (["bpe", "apply", "--model", FAULTY, "--input", FAULTY], b"bpe-v1 joint x\na b\n", 1),
    (["bsf", "eval", "--model", FAULTY, "--labeled", FAULTY],
     b"bsfclf-v1 4 2 1\na\tb\nbias 0.0 0.0\n99 1 2\n", 4),
    (["bsf", "eval", "--model", FAULTY, "--labeled", FAULTY],
     b"bsfclf-v1 4 2 1\na\tb\nbias 0.0 0.0\n3 1\n", 4),
    (["bsf", "eval", "--model", FAULTY, "--labeled", FAULTY],
     b"bsfclf-v1 x 2 1\na\tb\nbias 0.0 0.0\n", 1),
    (["bsf", "expand", "--vectors", FAULTY, "--seeds", "a"], b"1 2\na 0.5 x\n", 2),
    (["bsf", "expand", "--vectors", FAULTY, "--seeds", "a"], b"1 x\na 0.5 0.25\n", 1),
    (["bsf", "expand", "--vectors", FAULTY, "--seeds", "a"], b"1 2\n\xff 0.5 0.25\n", 2),
    (["bpe", "apply", "--model", FAULTY, "--input", FAULTY], b"bpe-v1 joint 1\na \xffb\n", 2),
    (["bsf", "eval", "--model", FAULTY, "--labeled", FAULTY],
     b"bsfclf-v1 40 2 1\na\tb\nbias 0.0 0.0\n", 1),
    (["eval", "ingest", "--scores", FAULTY],
     b"sentence_id,rater_id,system,adequacy,fluency\n1,a,x,3,4\n2,a,\xff,3,4\n", 3),
    (["eval", "ingest", "--scores", FAULTY],
     b"sentence_id,rater_id,system,adequacy,fluency\n1,a,x,3,4\r2,a,x,3,4\n", 2),
    (["bpe", "apply", "--model", FAULTY, "--input", FAULTY], b"bpe-v1 joint 2\na b\n", 1),
    (["bsf", "eval", "--model", FAULTY, "--labeled", FAULTY],
     b"bsfclf-v1 4 3 1\na\tb\nbias 0.0 0.0\n", 2),
    (["ner", "mask", "--templates", FAULTY, "--input", FAULTY], b"# c\ndistance\ten\t(\n", 2),
    (["ner", "mask", "--templates", FAULTY, "--input", FAULTY], b"dist-ance\ten\t\\d+ km\n", 1),
], ids=["validate-no-tab", "validate-three-columns", "report-no-tab", "train-no-tab",
        "detok-utf8", "bleu-utf8", "bpe-model-merge", "bpe-model-header",
        "classifier-slot-out-of-range", "classifier-value-count", "classifier-header",
        "vectors-non-float", "vectors-header", "vectors-utf8", "bpe-model-utf8",
        "classifier-bits-too-large", "scores-utf8", "scores-lone-cr", "bpe-model-merge-count",
        "classifier-label-count", "templates-bad-pattern", "templates-bad-code"])
def test_file_faults_exit_1_naming_the_line(tmp_path, capsys, argv, content, line):
    path = tmp_path / "faulty.txt"
    path.write_bytes(content)
    code = run(["--out-dir", tmp_path / "out", *[path if a == FAULTY else a for a in argv]])
    err = capsys.readouterr().err
    assert code == 1
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and f"line {line}" in err


def _save_three_ways(directory, name, lines):
    """The same lines saved with LF, with CRLF, and with LF but no final newline."""
    body = "\n".join(lines).encode("utf-8")
    paths = {}
    for variant, data in (("lf", body + b"\n"), ("crlf", body.replace(b"\n", b"\r\n") + b"\r\n"),
                          ("no-final-newline", body)):
        paths[variant] = directory / f"{name}.{variant}"
        paths[variant].write_bytes(data)
    return paths


def test_line_ends_give_identical_outputs(tmp_path, corpus_files):
    src, tgt = corpus_files
    model = tmp_path / "bpe" / "bpe.model"
    assert run(["--out-dir", model.parent, "bpe", "train", "--src", src, "--tgt", tgt,
                "--merges", 40]) == 0
    sentences = entity_sentences(12, seed=3)
    texts = _save_three_ways(tmp_path, "sents", sentences)
    refs = _save_three_ways(tmp_path, "refs", [s.rsplit(" ", 1)[0] for s in sentences])
    labeled = _save_three_ways(tmp_path, "labeled", [
        f"{label}\t{text}" for text, label in parking_sentences("en", 60, seed=8)])
    outputs = {}
    for variant in texts:
        out = tmp_path / variant
        for argv in (["bpe", "apply", "--model", model, "--input", texts[variant]],
                     ["ner", "mask", "--input", texts[variant]],
                     ["bleu", "corpus", "--candidates", texts[variant], "--references", refs[variant]],
                     ["bsf", "train", "--labeled", labeled[variant], "--bits", 12, "--epochs", 2]):
            assert run(["--out-dir", out, *argv]) == 0
        outputs[variant] = {name: (out / name).read_bytes() for name in (
            "tokenized.txt", "masked.txt", "maps.json", "bleu.json", "classifier.txt")}
    assert outputs["crlf"] == outputs["lf"]
    assert outputs["no-final-newline"] == outputs["lf"]


def _one_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and "Traceback" not in err
    return err


@pytest.mark.parametrize("argv, message", [
    (["convergence", "--epochs", 0], "epochs must be at least 1, got 0"),
    (["corpus-size", "--budget", 0], "iteration_budget must be at least 1, got 0"),
    (["corpus-size", "--checkpoint-every", 0], "checkpoint_every must be at least 1, got 0"),
    (["corpus-size", "--sizes", 1], "token stream must contain at least one bigram"),
])
def test_experiment_bad_counts_exit_1(tmp_path, capsys, argv, message):
    assert run(["--out-dir", tmp_path, "experiment", *argv]) == 1
    assert message in _one_error_line(capsys)
    assert not (tmp_path / "manifest.json").exists()


@pytest.mark.parametrize("line", ["|L", "a■|L ■|N"], ids=["bare-case", "left-mark-only"])
def test_bpe_detok_empty_piece_exits_1(tmp_path, capsys, line):
    text = tmp_path / "in.txt"
    text.write_text(f"ok|L\n{line}\n", encoding="utf-8")
    assert run(["--out-dir", tmp_path / "out", "bpe", "detok", "--input", text]) == 1
    assert "empty piece" in _one_error_line(capsys)
    assert not (tmp_path / "out" / "manifest.json").exists()


@pytest.mark.parametrize("line, message", [
    ("a|b|L", "unescaped"), ("a\\q|L", "unknown escape"), ("a\\|L", "lone backslash"),
    ("■a|L", "left mark"), ("a■|L", "right mark"), ("a\\eb|L", "unknown escape"),
    ("a■b|L", "raw marker"), ("a|L ■b|L", "left mark"), ("a■|L b|N", "right mark"),
    ("a|L \\e|N", "unknown escape"),
], ids=["raw-bar", "unknown-escape", "trailing-backslash", "first-left-mark", "last-right-mark",
        "inner-empty-escape", "raw-marker", "left-mark-before-cased", "right-mark-before-n",
        "empty-escape"])
def test_bpe_detok_body_render_never_writes_exits_1(tmp_path, capsys, line, message):
    text = tmp_path / "in.txt"
    text.write_text(f"ok|L\n{line}\n", encoding="utf-8")
    assert run(["--out-dir", tmp_path / "out", "bpe", "detok", "--input", text]) == 1
    error = _one_error_line(capsys)
    assert f"{text}: line 2: " in error and message in error
    assert not (tmp_path / "out" / "manifest.json").exists()


@pytest.mark.parametrize("argv, message", [
    (["corpus", "split", "--validation-size", -1], "validation size must be non-negative"),
    (["bpe", "train", "--merges", -1], "merge_count must be non-negative"),
], ids=["validation-size", "merges"])
def test_negative_corpus_counts_exit_1(tmp_path, capsys, corpus_files, argv, message):
    src, tgt = corpus_files
    assert run(["--out-dir", tmp_path / "out", *argv, "--src", src, "--tgt", tgt]) == 1
    assert message in _one_error_line(capsys)
    assert not (tmp_path / "out").exists()


def test_bsf_eval_on_an_empty_labeled_file_exits_1(tmp_path, capsys):
    model, labeled = tmp_path / "clf.txt", tmp_path / "labeled.tsv"
    model.write_text("bsfclf-v1 4 2 1\na\tb\nbias 0.0 0.0\n", encoding="utf-8")
    labeled.write_bytes(b"")
    assert run(["--out-dir", tmp_path / "out", "bsf", "eval", "--model", model,
                "--labeled", labeled]) == 1
    assert "held-out set is empty" in _one_error_line(capsys)


def test_ner_mask_unparseable_value_names_the_line(tmp_path, capsys):
    templates, text = tmp_path / "templates.tsv", tmp_path / "in.txt"
    templates.write_text("time\ten\tnoon\n", encoding="utf-8")
    text.write_text("We open at 9.\nLunch is at noon.\n", encoding="utf-8")
    assert run(["--out-dir", tmp_path / "out", "ner", "mask", "--input", text,
                "--templates", templates]) == 1
    assert _one_error_line(capsys) == f"error: {text}: line 2: unparseable time 'noon'\n"
    assert not (tmp_path / "out").exists()


def test_bpe_detok_error_names_the_line(tmp_path, capsys):
    text = tmp_path / "in.txt"
    text.write_text("ok|L\n\nfine|L\na|b|L\n", encoding="utf-8")
    assert run(["--out-dir", tmp_path / "out", "bpe", "detok", "--input", text]) == 1
    assert _one_error_line(capsys).startswith(f"error: {text}: line 4: token item 'a|b|L'")


@pytest.mark.parametrize("maps, message", [
    (b"[{}]", "map 1"),
    (b'[{"source_language": "en", "entries": [{"index": 0, "text": "5 km"}]}]', "map 1"),
    (b'[{"source_language": "en", "entries": [{"index": "0", "type": "distance", '
     b'"text": "5 km"}]}]', "map 1"),
    (b'{"entries": []}', "list of placeholder maps"),
    (b"[{", "maps.json"),
    (b'[\n  {"a":\xff}\n]\n', "maps.json: invalid UTF-8 at line 2"),
    (b'[{"source_language": "en", "entries": [{"index": 0, "type": "distance", "text": "5 km"}, '
     b'{"index": 0, "type": "distance", "text": "9 km"}]}]', "maps.json: map 1: "),
    (b'[{"source_language": "en", "entries": [{"index": 0, "type": "distance", "text": "far"}]}]',
     "maps.json: map 1: no number in entity text 'far'"),
    (b'[{"source_language": "en", "entries": [{"index": 1, "type": "distance", "text": "5 km"}]}]',
     "maps.json: map 1: placeholder ⟦DIST_0⟧ has no entry"),
    (b'[{"source_language": "en", "entries": []}, {"source_language": "en", "entries": []}]',
     "masked.txt has 1 sentences but "),
], ids=["no-entries", "entry-without-type", "string-index", "not-a-list", "not-json", "bad-byte",
        "repeated-index", "unparsed-value", "dangling-placeholder", "count-mismatch"])
def test_malformed_placeholder_map_exits_1(tmp_path, capsys, maps, message):
    (tmp_path / "masked.txt").write_text("ab ⟦DIST_0⟧ cd\n", encoding="utf-8")
    (tmp_path / "maps.json").write_bytes(maps)
    assert run(["--out-dir", tmp_path / "out", "ner", "unmask", "--input", tmp_path / "masked.txt",
                "--map", tmp_path / "maps.json", "--locale", "de"]) == 1
    err = _one_error_line(capsys)
    assert "maps.json" in err and message in err


@pytest.mark.parametrize("bleu, message", [
    (b'["a", "b"]', "expected a JSON object"), (b'{"1M": "46.5"}', "expected a JSON object"),
    (b'{"1M": true}', "expected a JSON object"), (b"{", "Expecting"),
    (b'{\n  "1M": \xff\n}\n', "bleu.json: invalid UTF-8 at line 2"),
], ids=["list", "string-score", "bool-score", "not-json", "bad-byte"])
def test_malformed_bleu_scores_exit_1_naming_the_file(tmp_path, capsys, bleu, message):
    scores = tmp_path / "scores.csv"
    scores.write_text("sentence_id,rater_id,system,adequacy,fluency\n1,r1,1M,2,2\n"
                      "1,r1,10M,3,3\n", encoding="utf-8")
    (tmp_path / "bleu.json").write_bytes(bleu)
    assert run(["--out-dir", tmp_path / "out", "eval", "correlate", "--scores", scores,
                "--bleu", tmp_path / "bleu.json"]) == 1
    err = _one_error_line(capsys)
    assert "bleu.json" in err and message in err


@pytest.mark.parametrize("score", ["NaN", "Infinity", "1e400", "1" + "0" * 400],
                         ids=["nan", "infinity", "overflowing-float", "400-digit-int"])
def test_bleu_score_without_a_finite_float_exits_1_naming_the_system(tmp_path, capsys, score):
    scores = tmp_path / "scores.csv"
    scores.write_text("sentence_id,rater_id,system,adequacy,fluency\n1,r1,a,2,2\n"
                      "1,r1,b,3,3\n1,r1,c,4,1\n", encoding="utf-8")
    (tmp_path / "bleu.json").write_text(f'{{"a": {score}, "b": 20.0, "c": 30.0}}',
                                        encoding="utf-8")
    assert run(["--out-dir", tmp_path / "out", "eval", "correlate", "--scores", scores,
                "--bleu", tmp_path / "bleu.json"]) == 1
    assert "BLEU score of system 'a' is not a finite float" in _one_error_line(capsys)
    assert not (tmp_path / "out" / "correlation-adequacy.json").exists()


def test_score_range_bound_beyond_a_float_exits_1(tmp_path, capsys):
    huge = 10 ** 400
    scores = tmp_path / "scores.csv"
    scores.write_text(f"sentence_id,rater_id,system,adequacy,fluency\n1,r1,a,{huge},2\n"
                      "2,r1,a,3,3\n", encoding="utf-8")
    assert run(["--out-dir", tmp_path / "out", "eval", "summarize", "--scores", scores,
                "--score-max", huge]) == 1
    assert "a score range bound does not fit a float" in _one_error_line(capsys)
    assert not (tmp_path / "out" / "manifest.json").exists()


@pytest.mark.parametrize("bits", [0, -1, 40])
def test_bsf_train_bits_out_of_range_exits_1(tmp_path, capsys, bits):
    labeled = tmp_path / "labeled.tsv"
    labeled.write_text("free\tFree parking.\npaid\tPaid parking.\n", encoding="utf-8")
    assert run(["--out-dir", tmp_path / "out", "bsf", "train", "--labeled", labeled,
                "--bits", bits]) == 1
    assert "bits must be in 1..24" in _one_error_line(capsys)


@pytest.mark.parametrize("flag, value, message", [
    ("--epochs", 0, "epochs must be at least 1"),
    ("--epochs", -2, "epochs must be at least 1"),
    ("--lr", "nan", "lr must be finite and positive"),
    ("--lr", -1, "lr must be finite and positive"),
    ("--l2", "inf", "l2 must be finite and non-negative"),
])
def test_bsf_train_bad_settings_exit_1(tmp_path, capsys, flag, value, message):
    labeled = tmp_path / "labeled.tsv"
    labeled.write_text("free\tFree parking.\npaid\tPaid parking.\n", encoding="utf-8")
    assert run(["--out-dir", tmp_path / "out", "bsf", "train", "--labeled", labeled,
                flag, value]) == 1
    assert message in _one_error_line(capsys)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("negatives", [0, -1])
def test_bsf_embed_negatives_below_one_exit_1(tmp_path, capsys, negatives):
    text = tmp_path / "tokens.txt"
    text.write_text("the dog and the cat\n", encoding="utf-8")
    assert run(["--out-dir", tmp_path / "out", "bsf", "embed", "--input", text,
                "--negatives", negatives]) == 1
    assert "must all be positive" in _one_error_line(capsys)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--k", -3, "k must be at least 1, got -3"),
    ("--k", 0, "k must be at least 1, got 0"),
    ("--min-sim", "nan", "min_sim must be a number"),
])
def test_bsf_expand_bad_k_or_min_sim_exits_1(tmp_path, capsys, flag, value, message):
    vectors = tmp_path / "vec.txt"
    vectors.write_text("3 2\npet 1.0 0.0\ndog 0.9 0.44\ncar 0.1 0.99\n", encoding="utf-8")
    assert run(["--out-dir", tmp_path / "out", "bsf", "expand", "--vectors", vectors,
                "--seeds", "pet", flag, value]) == 1
    assert message in _one_error_line(capsys)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["bsf", "embed", "--dim", "1000000000000000"],
    ["optlab", "gradcheck", "--vocab", "1000000000000000"],
    ["optlab", "train", "--tokens", "10000000000000000"],
], ids=["embed-dim", "gradcheck-vocab", "train-tokens"])
@pytest.mark.filterwarnings("ignore:embedding corpus has only")
def test_size_too_large_for_memory_exits_1(tmp_path, capsys, argv):
    # each size asks numpy for more than a PiB, which it refuses at once
    (tmp_path / "t.txt").write_text("a b c\n", encoding="utf-8")
    if argv[1] == "embed":
        argv = [*argv, "--input", str(tmp_path / "t.txt")]
    assert run(["--out-dir", tmp_path / "out", *argv]) == 1
    assert "Unable to allocate" in _one_error_line(capsys)
    assert not (tmp_path / "out" / "manifest.json").exists()


def test_out_dir_default_follows_mtlab_out_on_each_call(tmp_path, monkeypatch, corpus_files):
    src, tgt = corpus_files
    for name in ("first", "second"):
        monkeypatch.setenv("MTLAB_OUT", str(tmp_path / name))
        assert run(["corpus", "split", "--src", src, "--tgt", tgt, "--validation-size", 5]) == 0
        manifest = json.loads((tmp_path / name / "manifest.json").read_text())
        assert manifest["config"]["out_dir"] == str(tmp_path / name)
        assert manifest["outputs"] == ["train.src", "train.tgt", "validation.src", "validation.tgt"]


def test_flag_value_naming_a_group_runs_the_command(tmp_path, monkeypatch, corpus_files):
    monkeypatch.chdir(tmp_path)
    src, tgt = corpus_files
    assert run(["--out-dir", "bpe", "corpus", "split", "--src", src, "--tgt", tgt,
                "--validation-size", 5]) == 0
    manifest = json.loads((tmp_path / "bpe" / "manifest.json").read_text())
    assert manifest["subcommand"] == "corpus split"
    assert (tmp_path / "bpe" / "validation.src").exists()


def test_failing_gradcheck_exits_1_without_manifest(tmp_path, capsys):
    assert run(["--out-dir", tmp_path, "optlab", "gradcheck", "--vocab", 24, "--embed-dim", 6,
                "--hidden-dim", 10, "--samples", 20, "--tolerance", 0]) == 1
    assert "--tolerance" in _one_error_line(capsys)
    assert not (tmp_path / "manifest.json").exists()


@pytest.mark.parametrize("tolerance", ["nan", "-1", "inf"])
def test_ner_validate_tolerance_outside_unit_interval_exits_1(tmp_path, capsys, tolerance):
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("5 km away\t5 km entfernt\n10 miles off\t16,1 km entfernt\n",
                     encoding="utf-8")
    assert run(["--out-dir", tmp_path / "out", "ner", "validate", "--pairs", pairs,
                "--tolerance", tolerance]) == 1
    assert f"tolerance must be in [0, 1), got {float(tolerance)}" in _one_error_line(capsys)
    assert not (tmp_path / "out" / "entity-validation.json").exists()


def test_ner_validate_empty_pairs_exits_1(tmp_path, capsys):
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("", encoding="utf-8")
    assert run(["--out-dir", tmp_path / "out", "ner", "validate", "--pairs", pairs]) == 1
    assert "no pairs" in _one_error_line(capsys)
    assert not (tmp_path / "out" / "entity-validation.json").exists()


@pytest.mark.parametrize("template, masked, texts", [
    ("foo\ten\tx*", "ab 5 km", []),
    ("distance\ten\t\\d*", "ab ⟦DIST_0⟧ km", ["5"]),
], ids=["only-empty-matches", "empty-and-digit-matches"])
def test_ner_mask_ignores_zero_length_matches(tmp_path, template, masked, texts):
    (tmp_path / "tpl.tsv").write_text(template + "\n", encoding="utf-8")
    (tmp_path / "sents.txt").write_text("ab 5 km\n", encoding="utf-8")
    out = tmp_path / "out"
    assert run(["--out-dir", out, "ner", "mask", "--input", tmp_path / "sents.txt",
                "--templates", tmp_path / "tpl.tsv"]) == 0
    assert (out / "masked.txt").read_text(encoding="utf-8").splitlines() == [masked]
    entries = json.loads((out / "maps.json").read_text(encoding="utf-8"))[0]["entries"]
    assert [e["text"] for e in entries] == texts


def test_template_type_without_a_placeholder_code_exits_1(tmp_path, capsys):
    (tmp_path / "tpl.tsv").write_text("hotel_name\ten\tGrand Hotel\n", encoding="utf-8")
    (tmp_path / "sents.txt").write_text("At the Grand Hotel.\n", encoding="utf-8")
    assert run(["--out-dir", tmp_path / "out", "ner", "mask", "--input", tmp_path / "sents.txt",
                "--templates", tmp_path / "tpl.tsv"]) == 1
    assert "HOTEL_NAME" in _one_error_line(capsys)
    assert not (tmp_path / "out" / "manifest.json").exists()


@pytest.mark.parametrize("command", ["scan", "mask", "validate"])
def test_template_files_are_manifest_inputs(tmp_path, command):
    for lang in ("en", "de"):
        (tmp_path / f"tpl.{lang}").write_text(
            "".join(f"{t.entity_type}\t{t.language}\t{t.pattern}\n" for t in starter_templates(lang)),
            encoding="utf-8")
    (tmp_path / "c.tsv").write_text("A 5 km walk.\tEin Weg von 5 km.\n", encoding="utf-8")
    (tmp_path / "sents.txt").write_text("A 5 km walk.\n", encoding="utf-8")
    both = ["--templates-src", tmp_path / "tpl.en", "--templates-tgt", tmp_path / "tpl.de"]
    argv = {
        "scan": ["--tsv", tmp_path / "c.tsv", *both],
        "mask": ["--input", tmp_path / "sents.txt", "--templates", tmp_path / "tpl.en"],
        "validate": ["--pairs", tmp_path / "c.tsv", *both],
    }[command]
    out = tmp_path / "out"
    assert run(["--out-dir", out, "ner", command, *argv]) == 0
    inputs = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["inputs"]
    expected = {"tpl.en"} if command == "mask" else {"tpl.en", "tpl.de"}
    assert expected <= set(inputs)
    for name in expected:
        assert inputs[name] == file_digest(tmp_path / name)

"""Golden runs of every CLI subcommand.

Runs all 28 subcommands (32 invocations) on small seeded inputs in a
scratch directory, with relative paths so the recorded config is stable,
and pins each run's exit code, stdout, the SHA-256 of every file it
writes and its manifest.json minus `written_at`.  Templates are given as
starter codes.  A sweep then moves each flag of each run to one other
value and checks that the run changes.  Regenerate only from a commit
whose outputs are known good; the script prints each run and key whose
value changed:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import hashlib
import io
import json
import os
import shutil
import tempfile

import pytest

from mtlab.cli import InputFile, build_parser, main, parse_sizes, template_source
from mtlab.corpus import write_lines, write_parallel
from mtlab.entities import find_entities, starter_templates
from mtlab.synth import (
    embedding_corpus,
    parking_parallel,
    toy_parallel_corpus,
)
from conftest import entity_sentences

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "cli_manifests.json")
TINY_MODEL = ["--vocab", "24", "--embed-dim", "6", "--hidden-dim", "10", "--batch-size", "8"]
TINY_LM = [*TINY_MODEL, "--tokens", "600"]

# (run name, argv); each run writes into the out-dir named after it, and
# later runs read earlier runs' outputs
RUNS = [
    ("corpus-split", ["corpus", "split", "--seed", "3", "--src", "c.src", "--tgt", "c.tgt",
                      "--validation-size", "5"]),
    ("corpus-subsample", ["corpus", "subsample", "--tsv", "c.tsv", "--sizes", "5,10",
                          "--seed", "4"]),
    ("bpe-train", ["bpe", "train", "--src", "c.src", "--tgt", "c.tgt", "--merges", "40"]),
    ("bpe-train-separate", ["bpe", "train", "--tsv", "c.tsv", "--merges", "20",
                            "--mode", "separate"]),
    ("bpe-apply", ["bpe", "apply", "--model", "out/bpe-train/bpe.model", "--input", "c.src"]),
    ("bpe-detok", ["bpe", "detok", "--input", "out/bpe-apply/tokenized.txt",
                   "--output", "restored.txt"]),
    ("ner-scan", ["ner", "scan", "--src", "c.src", "--tgt", "c.tgt", "--templates-tgt", "de"]),
    ("ner-mask", ["ner", "mask", "--input", "sents.txt", "--templates", "en"]),
    ("ner-unmask", ["ner", "unmask", "--input", "out/ner-mask/masked.txt",
                    "--map", "out/ner-mask/maps.json", "--locale", "de",
                    "--unit-policy", "to_km"]),
    ("ner-unmask-source", ["ner", "unmask", "--input", "out/ner-mask/masked.txt",
                           "--map", "out/ner-mask/maps.json", "--locale", "en",
                           "--unit-policy", "to_km"]),
    ("ner-validate", ["ner", "validate", "--pairs", "pairs.tsv", "--tolerance", "0.01"]),
    ("bleu-corpus", ["bleu", "corpus", "--candidates", "cand.txt", "--references", "ref.txt",
                     "--lowercase"]),
    ("bleu-sentence", ["bleu", "sentence", "--candidate", "the hotel has a pool",
                       "--reference", "the hotel has a garden"]),
    ("optlab-train", ["optlab", "train", "--optimizer", "adam", "--epochs", "2", *TINY_LM]),
    ("optlab-simulate", ["optlab", "simulate", "--workers", "3", "--cluster-mode", "async",
                         "--warmup-iters", "5", "--batch-seconds", "2", "--seed", "5",
                         *TINY_LM]),
    ("optlab-simulate-calibrated", ["optlab", "simulate", "--workers", "2",
                                    "--cluster-mode", "sync", "--calibrate-single", "6h11m",
                                    *TINY_LM]),
    ("optlab-sweep", ["optlab", "sweep", "--sizes", "300,600", "--budget", "40",
                      "--checkpoint-every", "15", *TINY_MODEL]),
    ("optlab-gradcheck", ["optlab", "gradcheck", "--samples", "20", *TINY_MODEL]),
    ("bsf-embed", ["bsf", "embed", "--input", "tokens.txt", "--dim", "8", "--epochs", "1",
                   "--seed", "2"]),
    ("bsf-expand", ["bsf", "expand", "--vectors", "out/bsf-embed/vectors.txt",
                    "--seeds", "dog,car", "--k", "4"]),
    ("bsf-match", ["bsf", "match", "--input", "sentences.en.txt", "--terms", "terms.en.txt"]),
    ("bsf-train-en", ["bsf", "train", "--labeled", "labeled.en.tsv", "--bits", "10",
                      "--epochs", "3", "--output", "clf.en.txt"]),
    ("bsf-train-de", ["bsf", "train", "--labeled", "labeled.de.tsv", "--bits", "10",
                      "--epochs", "3", "--output", "clf.de.txt", "--seed", "1"]),
    ("bsf-eval", ["bsf", "eval", "--model", "out/bsf-train-en/clf.en.txt",
                  "--labeled", "labeled.en.tsv"]),
    ("bsf-report", ["bsf", "report", "--pairs", "bsf-pairs.tsv",
                    "--terms-src", "terms.en.txt",
                    "--clf-src", "out/bsf-train-en/clf.en.txt",
                    "--clf-tgt", "out/bsf-train-de/clf.de.txt"]),
    ("experiment-convergence", ["experiment", "convergence", "--epochs", "1"]),
    ("experiment-cluster-timing", ["experiment", "cluster-timing"]),
    ("experiment-corpus-size", ["experiment", "corpus-size", "--sizes", "500,1000",
                                "--budget", "100", "--checkpoint-every", "50"]),
    ("experiment-bsf-demo", ["experiment", "bsf-demo"]),
    ("eval-ingest", ["eval", "ingest", "--scores", "scores.csv"]),
    ("eval-summarize", ["eval", "summarize", "--scores", "scores.csv"]),
    ("eval-correlate", ["eval", "correlate", "--scores", "scores.csv", "--bleu", "bleu.json"]),
]


def write_inputs() -> None:
    """The seeded input files, written into the current directory."""
    corpus = toy_parallel_corpus(30, seed=2)
    write_parallel(corpus, "c.src", "c.tgt")
    write_lines([f"{p.source}\t{p.target}" for p in corpus], "c.tsv")
    write_lines(entity_sentences(8, seed=3), "sents.txt")
    en = starter_templates("en")
    pairs = [p for p in toy_parallel_corpus(30, seed=6) if find_entities(p.source, en)]
    write_lines([f"{p.source}\t{p.target.replace('1', '7', p.id % 2)}" for p in pairs],
                "pairs.tsv")
    refs = [p.source for p in pairs]
    write_lines(refs, "ref.txt")
    write_lines([r.upper() if i % 3 else " ".join(r.split()[:-1]) for i, r in enumerate(refs)],
                "cand.txt")
    write_lines([" ".join(s) for s in embedding_corpus(seed=2, n_sentences=250)], "tokens.txt")
    en_data, de_data, _ = parking_parallel(60, seed=4, flip_fraction=0.1)
    write_lines([text for text, _ in en_data], "sentences.en.txt")
    write_lines([f"{e[0]}\t{d[0]}" for e, d in zip(en_data, de_data)], "bsf-pairs.tsv")
    for lang, rows in (("en", en_data), ("de", de_data)):
        write_lines([f"{label}\t{text}" for text, label in rows], f"labeled.{lang}.tsv")
    write_lines(["parking", "park"], "terms.en.txt")
    rows = ["sentence_id,rater_id,system,adequacy,fluency"]
    for system, (adequacy, fluency) in {"1M": (2, 3), "7.5M": (3, 3), "10M": (4, 2)}.items():
        for sid in range(1, 4):
            for rater in ("r1", "r2"):
                rows.append(f"{sid},{rater},{system},{adequacy},{fluency}")
    write_lines(rows, "scores.csv")
    write_lines([json.dumps({"1M": 46.5, "7.5M": 47.95, "10M": 47.41})], "bleu.json")


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def run_one(name: str, argv: list[str]) -> dict:
    """`argv` run into out/<name>: its exit code, stdout and the SHA-256 of each file it wrote."""
    out_dir = os.path.join("out", name)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(["--out-dir", out_dir, *argv])
    written = sorted(os.listdir(out_dir)) if os.path.isdir(out_dir) else []
    files = {f: _sha256(os.path.join(out_dir, f)) for f in written if f != "manifest.json"}
    return {"exit": code, "stdout": stdout.getvalue(), "files": files}


def run_all() -> dict:
    """Every run in RUNS from the current directory: what it printed and wrote."""
    write_inputs()
    record = {}
    for name, argv in RUNS:
        record[name] = run_one(name, argv)
        with open(os.path.join("out", name, "manifest.json"), encoding="utf-8") as fh:
            manifest = json.load(fh)
        del manifest["written_at"]
        record[name]["manifest"] = manifest
    return record


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def baseline(tmp_path_factory):
    """A directory in which run_all ran, and what it recorded; the flag sweep
    reruns single runs there against those outputs."""
    path = tmp_path_factory.mktemp("cli-golden")
    here = os.getcwd()
    os.chdir(path)
    try:
        return path, run_all()
    finally:
        os.chdir(here)


def _leaves() -> dict:
    """'group command' -> the leaf parser, for every subcommand."""
    groups = build_parser()._subparsers._group_actions[0].choices
    return {f"{group} {command}": leaf for group, parser in groups.items()
            for command, leaf in parser._subparsers._group_actions[0].choices.items()}


def test_runs_cover_every_subcommand(golden):
    every = set(_leaves())
    assert len(every) == 28
    assert {run["manifest"]["subcommand"] for run in golden.values()} == every


def test_every_run_matches_golden(baseline, golden):
    got = baseline[1]
    assert sorted(got) == sorted(golden)
    for name, want in golden.items():
        assert got[name] == want, name


def test_every_manifest_lists_the_files_its_run_wrote(baseline):
    """Each output a run writes goes through `_out`, which records it: the
    manifest's outputs are exactly the files in the run's out-dir."""
    for name, run in baseline[1].items():
        assert sorted(run["manifest"]["outputs"]) == sorted(run["files"]), name


def _reject_constant(constant: str):
    raise ValueError(f"{constant} is not strict JSON")


def test_every_json_output_is_strict_json(baseline):
    """No run writes NaN or +-Infinity, which a strict JSON reader rejects."""
    path, record = baseline
    outputs = [path / "out" / name / f for name, run in record.items()
               for f in [*run["files"], "manifest.json"] if f.endswith(".json")]
    assert len(outputs) > len(record)   # every manifest and the runs' own JSON outputs
    for output in outputs:
        json.loads(output.read_text(encoding="utf-8"), parse_constant=_reject_constant)


# Values for flags whose generic move (int +1, float x2, text + "x", the next
# choice, the other starter code, a size list less its last size, a flag
# toggled) shows no effect on these inputs, keyed by flag or "subcommand flag"
MOVES = {
    "--score-min": "3",  # the sheet's scores lie in 2-4: only a narrower range drops rows
    "--score-max": "3",
    "ner validate --tolerance": "0.5",  # 0.01 and 0.02 pass and fail the same pairs
    "optlab gradcheck --tolerance": "1e-9",  # below the measured error, so the check fails
    "--calibrate-single": "3h",
    "--candidate": "the hotel has a garden",  # "poolx" would miss the reference as "pool" does
    "--reference": "the hotel has a pool",
    "--seeds": "dog",  # "carx" would change the run too, but with a warning
}

# (run, flag) -> why moving the flag changes nothing on the golden inputs
UNCHANGED = {}


def _moved(subcommand: str, action, value) -> list[str]:
    """The argv tokens that give `action` one other valid value than `value`."""
    flag = action.option_strings[0]
    if action.nargs == 0:  # a store_true flag is toggled
        return [] if value else [flag]
    moved = MOVES.get(f"{subcommand} {flag}", MOVES.get(flag))
    if moved is None:
        if action.choices:
            moved = next(choice for choice in action.choices if choice != value)
        elif action.type is template_source:
            moved = "de" if value == "en" else "en"
        elif action.type is parse_sizes:
            moved = ",".join(str(size) for size in value[:-1])
        elif action.type is int:
            moved = 1 if value is None else value + 1
        elif action.type is float:
            moved = 1.0 if value is None else value * 2 or 0.5
        elif action.type is None:
            moved = f"{value or ''}x"
        else:
            raise AssertionError(f"{subcommand} {flag}: add a value to MOVES")
    return [flag, str(moved)]


def _without(argv: list[str], action) -> list[str]:
    """`argv` with every occurrence of `action`'s flag and its value dropped."""
    kept, skip = [], 0
    for token in argv:
        if skip:
            skip -= 1
        elif token in action.option_strings:
            skip = 0 if action.nargs == 0 else 1
        else:
            kept.append(token)
    return kept


def _rerun(name: str, argv: list[str]) -> dict:
    """`name` run again with `argv`, its baseline outputs set aside meanwhile;
    a usage error records exit 2 and nothing else."""
    out_dir = os.path.join("out", name)
    os.rename(out_dir, out_dir + ".baseline")
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            return run_one(name, argv)
    except SystemExit as exc:
        return {"exit": exc.code}
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        os.rename(out_dir + ".baseline", out_dir)


def test_every_flag_changes_its_run(baseline, monkeypatch):
    """Each flag of a run's subcommand, moved to one other value, changes the
    run's exit code, stdout or an output file: a manifest's config never
    records a setting that took no effect.  Paths are not moved."""
    path, record = baseline
    monkeypatch.chdir(path)
    leaves, unchanged = _leaves(), set()
    for name, argv in RUNS:
        args = build_parser().parse_args(argv)
        subcommand = f"{args.group} {args.command}"
        for action in leaves[subcommand]._actions:
            if action.dest in ("help", "out_dir", "output") or action.type is InputFile:
                continue
            moved = [*_without(argv, action),
                     *_moved(subcommand, action, getattr(args, action.dest))]
            got = _rerun(name, moved)
            if all(got.get(key) == record[name][key] for key in ("exit", "stdout", "files")):
                unchanged.add((name, action.option_strings[0]))
    assert sorted(unchanged) == sorted(UNCHANGED)


def _changed_keys(old, new, path=""):
    """(dotted key, old value, new value) for each leaf that differs."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(old.keys() | new.keys()):
            yield from _changed_keys(old.get(key, "(absent)"), new.get(key, "(absent)"),
                                     f"{path}.{key}" if path else key)
    elif old != new:
        yield path, old, new


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        here = os.getcwd()
        os.chdir(scratch)
        try:
            record = run_all()
        finally:
            os.chdir(here)
    if os.path.exists(GOLDEN_PATH):
        with open(GOLDEN_PATH, encoding="utf-8") as fh:
            previous = json.load(fh)
        for key, old, new in _changed_keys(previous, record):
            print(f"changed {key}: {json.dumps(old)[:60]} -> {json.dumps(new)[:60]}")
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True, ensure_ascii=False)
        fh.write("\n")
    print(f"wrote {GOLDEN_PATH}")

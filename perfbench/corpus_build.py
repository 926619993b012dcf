"""corpus_build: the offline model build, run as the CLI a user types.

Each round runs the command list twice through ``mtlab.cli.main`` in this
process, stdout captured in memory: once on the golden input set (fixed
seed, outputs pinned by digests in goldens.json) and once on the input set
made from the workload seed (outputs checked by invariants).  Every command
must exit 0 and write a manifest whose input digests match the files read.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from dataclasses import dataclass

import gen
from harness import Round
from mtlab import cli, synth

# mostly interpreter-bound (BPE pair counting, pre-splitting, regexes)
REFERENCE = "python"
GOLDEN_SEED = 0
TEMPLATED_PAIRS = 1200
ENTITY_PAIRS = 300
ZIPF_PAIRS = 800
# natural-text frequencies over a mid-sized vocabulary: enough distinct words
# that a 1500-merge BPE training run spends its time in the merge loop
ZIPF_WORDS, ZIPF_EXPONENT = 8000, 1.1
EMBED_SENTENCES = 300
LABELED = 240
TEMPLATED_MERGES = 600
ZIPF_MERGES = 1500


@dataclass
class InputSet:
    name: str
    seed: int
    files: dict        # role -> path
    lines: dict        # path -> line count
    out: str


@dataclass
class State:
    sets: list


def _write_lines(path: str, lines: list[str]) -> int:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(line + "\n" for line in lines)
    return len(lines)


def _inputs(name: str, seed: int, root: str) -> InputSet:
    d = os.path.join(root, name)
    os.makedirs(d)
    r = gen.rng(seed, "corpus-build")
    rows = [(p.source, p.target) for p in synth.toy_parallel_corpus(TEMPLATED_PAIRS, seed=seed)]
    rows += [(en, de) for en, de, _ in gen.entity_pairs(r, ENTITY_PAIRS)]
    r.shuffle(rows)
    # about one pair in a hundred has a blank target, which loading drops
    for i in r.sample(range(len(rows)), len(rows) // 100):
        rows[i] = (rows[i][0], "")
    lex_en = gen.zipf_lexicon(seed, "zipf-en", ZIPF_WORDS, ZIPF_EXPONENT)
    lex_de = gen.zipf_lexicon(seed, "zipf-de", ZIPF_WORDS, ZIPF_EXPONENT)
    zipf = list(zip(gen.zipf_sentences(lex_en, r, ZIPF_PAIRS), gen.zipf_sentences(lex_de, r, ZIPF_PAIRS)))
    files = {role: os.path.join(d, role) for role in (
        "templated.en", "templated.de", "zipf.en", "zipf.de", "embed.txt", "labeled.en.tsv",
        "labeled.de.tsv")}
    lines = {}
    for role, content in (
        ("templated.en", [s for s, _ in rows]),
        ("templated.de", [t for _, t in rows]),
        ("zipf.en", [en for (en, _), _ in zipf]),
        ("zipf.de", [de for _, (de, _) in zipf]),
        ("embed.txt", [" ".join(s) for s in synth.embedding_corpus(seed, n_sentences=EMBED_SENTENCES)]),
        ("labeled.en.tsv", [f"{label}\t{text}" for text, label in synth.parking_sentences("en", LABELED, seed=seed)]),
        ("labeled.de.tsv", [f"{label}\t{text}" for text, label in synth.parking_sentences("de", LABELED, seed=seed)]),
    ):
        lines[files[role]] = _write_lines(files[role], content)
    return InputSet(name, seed, files, lines, os.path.join(d, "out"))


def setup(seed: int, workdir: str) -> State:
    return State([_inputs("golden", GOLDEN_SEED, workdir), _inputs("seeded", seed, workdir)])


def commands(s: InputSet) -> list[tuple[str, str, list[str], list[str]]]:
    """(span name, tag, argv, input files) for one pass over an input set."""
    f, out = s.files, s.out
    t = ["--src", f["templated.en"], "--tgt", f["templated.de"]]
    z = ["--src", f["zipf.en"], "--tgt", f["zipf.de"]]
    seed = ["--seed", str(s.seed)]
    vectors = os.path.join(out, "bsf", "vectors.txt")
    return [
        ("corpus_split", "", ["corpus", "split", *t, "--validation-size", "200", *seed,
                              "--out-dir", os.path.join(out, "split")], t[1::2]),
        ("corpus_subsample", "", ["corpus", "subsample", *t, "--sizes", "200,500,1000", *seed,
                                  "--out-dir", os.path.join(out, "subsample")], t[1::2]),
        ("bpe_train", "templated", ["bpe", "train", *t, "--merges", str(TEMPLATED_MERGES),
                                    "--mode", "joint", "--out-dir", os.path.join(out, "bpe-templated")],
         t[1::2]),
        ("bpe_train", "zipf", ["bpe", "train", *z, "--merges", str(ZIPF_MERGES), "--mode", "joint",
                               "--out-dir", os.path.join(out, "bpe-zipf")], z[1::2]),
        ("ner_scan", "", ["ner", "scan", *t, "--out-dir", os.path.join(out, "ner")], t[1::2]),
        ("bsf_embed", "", ["bsf", "embed", "--input", f["embed.txt"], "--dim", "16", "--epochs", "2",
                           *seed, "--out-dir", os.path.join(out, "bsf")], [f["embed.txt"]]),
        ("bsf_expand", "", ["bsf", "expand", "--vectors", vectors, "--seeds", "dog,car,dinner",
                            "--k", "5", "--out-dir", os.path.join(out, "bsf")], [vectors]),
        ("bsf_train", "en", ["bsf", "train", "--labeled", f["labeled.en.tsv"], "--output", "clf.en.txt",
                             *seed, "--out-dir", os.path.join(out, "bsf")], [f["labeled.en.tsv"]]),
        ("bsf_train", "de", ["bsf", "train", "--labeled", f["labeled.de.tsv"], "--output", "clf.de.txt",
                             *seed, "--out-dir", os.path.join(out, "bsf")], [f["labeled.de.tsv"]]),
    ]


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def merges_digest(model_path: str) -> str:
    """Digest of a BPE model's header and merge lines (alphabet trailer excluded)."""
    with open(model_path, encoding="utf-8") as fh:
        lines = [line for line in fh if not line.startswith("#alphabet")]
    return hashlib.sha256("".join(lines).encode("utf-8")).hexdigest()


def golden_digests(out: str, only: str | None = None) -> dict:
    """The outputs goldens.json pins: both merge lists and the ner scan JSON."""
    makers = {
        "bpe_templated_merges": lambda: merges_digest(os.path.join(out, "bpe-templated", "bpe.model")),
        "bpe_zipf_merges": lambda: merges_digest(os.path.join(out, "bpe-zipf", "bpe.model")),
        "ner_scan_json": lambda: _sha256(os.path.join(out, "ner", "mismatches.json")),
    }
    return {key: make() for key, make in makers.items() if only in (None, key)}


def run_command(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            return cli.main(argv)
        except SystemExit as exc:   # argparse usage errors
            return exc.code if isinstance(exc.code, int) else 2


def _check(ctx, s: InputSet, name: str, tag: str, argv: list[str], inputs: list[str]):
    with ctx.span(f"cli.{name}"):
        t0 = ctx.clock()
        try:
            code = run_command(argv)
        finally:
            ctx.latencies.append(ctx.clock() - t0)
    if code != 0:
        return f"exit code {code}"
    out_dir = argv[argv.index("--out-dir") + 1]
    with open(os.path.join(out_dir, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    for path in inputs:
        if manifest["inputs"].get(os.path.basename(path)) != _sha256(path):
            return f"manifest digest of {os.path.basename(path)} is wrong"
    if name == "bpe_train":
        with open(os.path.join(out_dir, "bpe.model"), encoding="utf-8") as fh:
            merges = int(fh.readline().split()[2])
        if not 0 < merges <= int(argv[argv.index("--merges") + 1]):
            return f"bpe model has {merges} merges"
    goldens = ctx.goldens.get("corpus_build")
    if s.name == "golden" and goldens:
        key = {"bpe_train": f"bpe_{tag}_merges", "ner_scan": "ner_scan_json"}.get(name)
        if key is not None and golden_digests(s.out, key)[key] != goldens[key]:
            return f"{key} differs from the golden digest"
    return None


def _line_count(s: InputSet, path: str) -> int:
    known = s.lines.get(path)
    if known is not None:
        return known
    with open(path, encoding="utf-8") as fh:
        return sum(1 for _ in fh)


def run_round(state: State, index: int, ctx) -> Round:
    lines = 0
    elapsed = ctx.stopwatch()
    for s in state.sets:
        for name, tag, argv, inputs in commands(s):
            ctx.set_op(tag)
            failure = ctx.attempt(f"{s.name} {name} {tag}".strip(), _check, ctx, s, name, tag,
                                  argv, inputs)
            if not failure:
                lines += sum(_line_count(s, p) for p in inputs)
    seconds = elapsed()
    if ctx.tracer is not None:
        ctx.tracer.tag = ""
    return Round(lines, *seconds)


def named_metrics(summary: dict, classes: dict) -> dict:
    return {"build_lines_per_s": summary["items_per_s"]}

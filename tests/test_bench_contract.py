"""The names the benchmark reaches into must keep working.

`perfbench/` wraps mtlab's entry points by module attribute and reads a few
private names (ROADMAP, "Constraints that apply to every item").  A rename
in the program would otherwise fail only when the benchmark runs, so these
tests load the span tracer by file path (keeping `perfbench/` off
`sys.path`) and check every name it patches or reads.
"""

import importlib.util
import inspect
import sys
import time
from pathlib import Path

import numpy as np

# every module `install` patches is loaded first, so the snapshot covers its names
import mtlab.bleu
import mtlab.bsf
import mtlab.cli
import mtlab.corpus
import mtlab.entities
import mtlab.humaneval
import mtlab.optlab.cluster
import mtlab.optlab.training
import mtlab.tokenizer as tk
from mtlab import presets
from mtlab.optlab import SurrogateModel

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _owners():
    """Every loaded mtlab module and each class defined in one."""
    modules = [m for name, m in sorted(sys.modules.items())
               if name == "mtlab" or name.startswith("mtlab.")]
    classes = {id(v): v for m in modules for v in vars(m).values()
               if inspect.isclass(v) and v.__module__.startswith("mtlab")}
    return modules + list(classes.values())


def test_span_install_patches_and_restore_puts_every_name_back():
    spans = _load_spans()
    owners = _owners()
    before = [dict(vars(owner)) for owner in owners]
    restore = spans.install(spans.Tracer(time.perf_counter))
    try:
        patched = [(owner, attr, old[attr]) for owner, old in zip(owners, before)
                   for attr, value in vars(owner).items() if old.get(attr) is not value]
        assert {"train_bpe", "step"} <= {attr for _, attr, _ in patched}   # a module and a class
        for owner, attr, original in patched:
            assert vars(owner)[attr].__wrapped__ is original, (owner, attr)
    finally:
        restore()
    for owner, old in zip(owners, before):
        now = vars(owner)
        assert now.keys() == old.keys(), owner
        assert all(now[attr] is value for attr, value in old.items()), owner


def test_tokenizer_names_the_text_pipeline_reads():
    model = tk.train_bpe_texts(["the hotel garden", "the garden view"], 8)
    text = "the ⟦DIST_0⟧ garden"
    before = len(model._cache)
    tk.tokenize(model, text)
    units = tk._presplit(text)
    assert [(u.text, u.atomic) for u in units] == [("the", False), ("⟦DIST_0⟧", True), ("garden", False)]
    assert len(model._cache) - before == len({u.text for u in units if not u.atomic})


def test_bsf_call_shapes_the_text_pipeline_uses():
    lexicon = mtlab.bsf.AspectLexicon("parking", "en", approved_terms=["parking"])
    assert (lexicon.aspect, lexicon.language, lexicon.approved_terms) == ("parking", "en", ["parking"])
    params = list(inspect.signature(mtlab.bsf.cross_language_report).parameters)
    assert params[:5] == ["pairs", "lexicon_src", "lexicon_tgt", "clf_src", "clf_tgt"]


def test_presets_the_lm_train_workload_reads():
    cfg = presets.CONVERGENCE
    assert {"batch_size", "seed", "corpus_seed"} <= cfg.keys()
    train_ids, val_ids = presets.convergence_data()
    assert isinstance(train_ids, np.ndarray) and isinstance(val_ids, np.ndarray)
    model = presets.convergence_model()
    assert isinstance(model, SurrogateModel) and model.params


def test_sentence_bleu_never_calls_corpus_bleu(monkeypatch):
    """The benchmark times `sentence_bleu` and `corpus_bleu` as separate spans."""
    def refuse(*args, **kwargs):
        raise AssertionError("sentence_bleu called corpus_bleu")

    monkeypatch.setattr(mtlab.bleu, "corpus_bleu", refuse)
    pair = ("the cat sat on the mat", "the cat sat on a mat")
    cold = mtlab.bleu.sentence_bleu(*pair)
    assert len(mtlab.bleu._pairs) == 1
    assert mtlab.bleu.sentence_bleu(*pair) == cold

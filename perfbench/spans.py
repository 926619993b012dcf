"""In-memory span tracer that wraps mtlab's public entry points from outside.

The untraced run never imports this module's patches: the program runs
unmodified.  The traced run replaces module attributes where the program
looks them up (``mtlab.cli.write_manifest``, ``mtlab.tokenizer.train_bpe``,
...) and class methods (``Optimizer.step``, ``SurrogateModel.loss_and_grads``)
with wrappers that record one span per call.  Spans are kept in flat arrays
and written out only when the run ends.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter
from contextlib import contextmanager

__all__ = ["Tracer", "install"]


class Tracer:
    """Spans (name, start, end, parent, op id, tag) plus counters.

    ``op`` is the document or job id the benchmark loop is working on and
    ``tag`` a label it sets around a group of calls (the sentence share, or
    which corpus a ``bpe train`` reads).  Spans are only recorded while
    ``active`` is true, so set-up work stays out of the trace.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.active = False
        self.op = -1
        self.tag = ""
        self.counts: Counter = Counter()
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._tags: list[str] = []
        self._tag_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.tag_id = array("i")
        self.parent = array("i")
        self.op_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []

    # -- recording -------------------------------------------------------

    def _intern(self, table: list, ids: dict, key: str) -> int:
        found = ids.get(key)
        if found is None:
            found = ids[key] = len(table)
            table.append(key)
        return found

    def _open(self, name: str) -> int:
        index = len(self.start)
        self.name_id.append(self._intern(self._names, self._name_ids, name))
        self.tag_id.append(self._intern(self._tags, self._tag_ids, self.tag))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op_id.append(self.op)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(index)
        self.start[index] = self.clock()
        return index

    def _close(self, index: int) -> None:
        self.end[index] = self.clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        if not self.active:
            yield
            return
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, name, fn, on_call=None, on_result=None):
        """Wrapper recording a span per call.

        ``name`` is a string or a function of the call's positional
        arguments; ``on_call(tracer, args)`` and ``on_result(tracer, args,
        result)`` update counters at the same boundary.
        """
        tracer = self
        fixed = name if isinstance(name, str) else None

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if on_call is not None:
                on_call(tracer, args)
            index = tracer._open(fixed or name(args))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if on_result is not None:
                on_result(tracer, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- reporting -------------------------------------------------------

    def __len__(self) -> int:
        return len(self.start)

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name and per (name, tag): total s, self s and calls.

        Self time is a span's duration minus the durations of its direct
        children; calls on one thread nest, so children never overlap.
        """
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, dict[str, float]] = {}
        for i in range(n):
            dur = self.end[i] - self.start[i]
            name = self._names[self.name_id[i]]
            tag = self._tags[self.tag_id[i]]
            for key in (name, f"{name}.{tag}") if tag else (name,):
                row = out.setdefault(key, {"s": 0.0, "self_s": 0.0, "calls": 0})
                row["s"] += dur
                row["self_s"] += dur - child[i]
                row["calls"] += 1
        return out

    def top_level_seconds(self, since: float) -> float:
        """Total time of the outermost spans that start at ``since`` or later."""
        return sum(self.end[i] - self.start[i] for i in range(len(self.start))
                   if self.parent[i] < 0 and self.start[i] >= since)

    def write(self, path: str) -> None:
        """Tab-separated spans: index, name, tag, parent, op, start, end."""
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("index\tname\ttag\tparent\top\tstart\tend\n")
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self._names[self.name_id[i]]}\t{self._tags[self.tag_id[i]]}\t"
                         f"{self.parent[i]}\t{self.op_id[i]}\t{self.start[i]:.9f}\t{self.end[i]:.9f}\n")


def _count(key: str, amount):
    def hook(tracer: Tracer, args):
        tracer.counts[key] += amount(args)
    return hook


def install(tracer: Tracer):
    """Patch mtlab's entry points with tracing wrappers; returns an undo function."""
    import mtlab.bleu
    import mtlab.bsf
    import mtlab.cli
    import mtlab.corpus
    import mtlab.entities
    import mtlab.humaneval
    import mtlab.optlab.cluster
    import mtlab.optlab.training
    import mtlab.tokenizer
    from mtlab.bsf.classifier import HashedLinearClassifier
    from mtlab.optlab import Optimizer, SurrogateModel

    def loaded(t, args, result):
        t.counts["corpus.pairs"] += len(result)
        t.counts["corpus.dropped"] += result.dropped_count

    def scanned(t, args, result):
        t.counts["entities.mismatched_pairs"] += sum(result.mismatch_counts.values())
        t.counts["entities.scans"] += 1

    def trained(t, args, result):
        models = result if isinstance(result, tuple) else (result,)
        t.counts["tokenizer.merges"] += sum(m.merge_count for m in models)

    # (owner, attribute, span name, on_call, on_result).  bleu.corpus_bleu is
    # not patched on its module because sentence_bleu calls it internally;
    # the benchmark wraps its own corpus-level call instead.
    plan = [
        (mtlab.tokenizer, "train_bpe", "tokenizer.train_bpe", None, trained),
        (mtlab.tokenizer, "save_model", "tokenizer.save_model", None, None),
        (mtlab.tokenizer, "load_model", "tokenizer.load_model", None, None),
        (mtlab.tokenizer, "tokenize", "tokenizer.tokenize", None, None),
        (mtlab.tokenizer, "render_tokens", "tokenizer.render_tokens", None, None),
        (mtlab.tokenizer, "parse_tokens", "tokenizer.parse_tokens", None, None),
        (mtlab.tokenizer, "detokenize", "tokenizer.detokenize", None, None),
        (mtlab.entities, "mask", "entities.mask", None, None),
        (mtlab.entities, "unmask", "entities.unmask", None, None),
        (mtlab.entities, "validate_entity_translation", "entities.validate", None, None),
        (mtlab.entities, "scan_mismatches", "entities.scan_mismatches", None, scanned),
        (mtlab.bleu, "sentence_bleu", "bleu.sentence_bleu", None, None),
        (mtlab.humaneval, "ingest_scores", "humaneval.ingest_scores", None, None),
        (mtlab.humaneval, "summarize", "humaneval.summarize", None, None),
        (mtlab.humaneval, "correlate", "humaneval.correlate", None, None),
        (mtlab.bsf, "train_embeddings", "bsf.train_embeddings", None, None),
        (mtlab.bsf, "load_embeddings", "bsf.load_embeddings", None, None),
        (mtlab.bsf, "expand_seeds", "bsf.expand_seeds", None, None),
        (mtlab.bsf, "train_classifier", "bsf.train_classifier", None, None),
        (mtlab.bsf, "save_classifier", "bsf.save_classifier", None, None),
        (mtlab.bsf, "cross_language_report", "bsf.cross_language_report", None, None),
        (HashedLinearClassifier, "predict", "bsf.predict", None, None),
        (mtlab.corpus, "load_parallel", "corpus.load", None, loaded),
        (mtlab.corpus, "load_tsv", "corpus.load", None, loaded),
        (mtlab.corpus, "split", "corpus.split", None, None),
        (mtlab.corpus, "subsample", "corpus.subsample", None, None),
        (mtlab.corpus, "write_parallel", "corpus.write_parallel", None, None),
        (mtlab.cli, "write_manifest", "manifest.write_manifest", None, None),
        (SurrogateModel, "loss_and_grads", "optlab.loss_and_grads",
         _count("optlab.examples", lambda args: len(args[2])), None),
        (SurrogateModel, "perplexity", "optlab.perplexity", None, None),
        (Optimizer, "step", lambda args: "optlab.step." + args[0].config.kind,
         _count("optlab.updates", lambda args: 1), None),
        (mtlab.optlab.training, "accumulate_gradients", "optlab.accumulate_gradients", None, None),
        (mtlab.optlab.cluster, "accumulate_gradients", "optlab.accumulate_gradients", None, None),
    ]
    undo = []
    for owner, attr, name, on_call, on_result in plan:
        original = owner.__dict__[attr]
        undo.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(name, original, on_call, on_result))

    def restore():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore

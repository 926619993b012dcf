"""lm_train: the optimizer lab on acceptance criterion 2's exact preset.

A round runs every job once, one after another: ``optlab.train`` per
optimizer kind, ``train(accum_steps=4)``, calibrated sync and async cluster
simulations with K=4, and a corpus-size sweep with a tiny model where
per-call overhead dominates.  The preset fixes the data, so the workload
seed only chooses which job a round starts with.  Each job's per-epoch
validation perplexities must match goldens.json within ``ppl_rel_tol``,
and the sync run must leave parameters bit-equal to the accumulated run.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from harness import Round
from mtlab import optlab, presets, synth

# numpy-bound (small float64 matrix products), so timings are corrected by
# the numpy reference kernel (see meter.py)
REFERENCE = "numpy"
EPOCHS = 1
ACCUM = 4
WORKERS = 4
SWEEP_CONFIG = optlab.SurrogateConfig(32, 8, 16)
SWEEP_SIZES = (500, 1000, 2000, 4000)
SWEEP_BUDGET = 200
SWEEP_CHECKPOINT = 50
TRAIN_JOBS = ("train.sgd_decay", "train.adam", "train.adagrad", "train.adadelta",
              "train.sgd_decay_accum4")
JOBS = TRAIN_JOBS + ("simulate.sync", "simulate.async", "sweep")
# the sync simulation must leave the same parameters as accumulated training
SYNC_PAIR = ("train.sgd_decay_accum4", "simulate.sync")


@dataclass
class State:
    seed: int
    train_ids: object
    val_ids: object
    sweep_streams: list
    sweep_val: object
    examples: dict        # job -> bigrams consumed by one run of it


def setup(seed: int, workdir: str) -> State:
    cfg = presets.CONVERGENCE
    train_ids, val_ids = presets.convergence_data()
    full = synth.toy_lm_stream(max(SWEEP_SIZES), SWEEP_CONFIG.vocab_size, seed=cfg["corpus_seed"])
    sweep_val = synth.toy_lm_stream(800, SWEEP_CONFIG.vocab_size, seed=cfg["corpus_seed"] + 1)
    streams = [(str(n), full[:n]) for n in SWEEP_SIZES]
    examples = {job: EPOCHS * (len(train_ids) - 1) for job in JOBS}
    examples["sweep"] = sum(_sweep_examples(ids, cfg["batch_size"], cfg["seed"]) for _, ids in streams)
    return State(seed, train_ids, val_ids, streams, sweep_val, examples)


def _sweep_examples(ids, batch_size: int, seed: int) -> int:
    """Bigrams the sweep consumes from one stream within its iteration budget."""
    total, iterations, epoch = 0, 0, 0
    while iterations < SWEEP_BUDGET:
        epoch += 1
        for x, _ in optlab.epoch_batches(ids, batch_size, seed, epoch):
            total += len(x)
            iterations += 1
            if iterations >= SWEEP_BUDGET:
                break
    return total


def run_job(state: State, job: str):
    """Run one job; returns (per-epoch or per-checkpoint perplexities, model or None, trace)."""
    cfg = presets.CONVERGENCE
    common = dict(epochs=EPOCHS, batch_size=cfg["batch_size"], seed=cfg["seed"])
    if job == "sweep":
        traces = optlab.corpus_size_sweep(
            SWEEP_CONFIG, state.sweep_streams, state.sweep_val, optlab.OptimizerConfig("sgd_decay"),
            iteration_budget=SWEEP_BUDGET, batch_size=cfg["batch_size"], seed=cfg["seed"],
            checkpoint_every=SWEEP_CHECKPOINT)
        return {label: [row.val_ppl for row in t.rows] for label, t in traces.items()}, None, None
    model = presets.convergence_model()
    if job.startswith("train."):
        kind = job[len("train."):]
        accum = ACCUM if kind.endswith("_accum4") else 1
        trace = optlab.train(model, state.train_ids, state.val_ids,
                             optlab.OptimizerConfig(kind.replace("_accum4", "")),
                             accum_steps=accum, **common)
    else:
        mode = job[len("simulate."):]
        cluster = optlab.calibrated_cluster_config(
            mode, WORKERS, iterations_per_epoch=-(-(len(state.train_ids) - 1) // cfg["batch_size"]))
        trace = optlab.simulate_cluster(model, state.train_ids, state.val_ids,
                                        optlab.OptimizerConfig("sgd_decay"), cluster, **common)
    return [row.val_ppl for row in trace.rows], model, trace


def params_digest(model) -> str:
    digest = hashlib.sha256()
    for name in sorted(model.params):
        digest.update(model.params[name].tobytes())
    return digest.hexdigest()


def _close(got: list, want: list, tol: float) -> bool:
    return len(got) == len(want) and all(abs(g - w) <= tol * abs(w) for g, w in zip(got, want))


def _check(ctx, state: State, job: str, digests: dict):
    with ctx.span("optlab." + job):
        t0 = ctx.clock()
        try:
            ppls, model, trace = run_job(state, job)
        finally:
            ctx.latencies.append(ctx.clock() - t0)
    goldens = ctx.goldens.get("lm_train")
    if job == "simulate.async":
        ctx.counts["optlab.async.max_staleness"] = max(ctx.counts["optlab.async.max_staleness"],
                                                       trace.max_staleness)
        if trace.max_staleness > WORKERS - 2:   # one worker holds the master copy
            return f"async staleness {trace.max_staleness} exceeds trainers - 1"
    if trace is not None and trace.divergent:
        return "training diverged"
    if model is not None:
        digests[job] = params_digest(model)
    if job in SYNC_PAIR and all(j in digests for j in SYNC_PAIR) \
            and digests[SYNC_PAIR[0]] != digests[SYNC_PAIR[1]]:
        return "sync K=4 parameters differ from train(accum_steps=4)"
    if goldens:
        tol = goldens["ppl_rel_tol"]
        want = goldens["jobs"][job]
        ok = (ppls.keys() == want.keys() and all(_close(ppls[k], want[k], tol) for k in want)
              if job == "sweep" else _close(ppls, want, tol))
        if not ok:
            return f"perplexities {ppls} differ from goldens {want}"
    return None


def run_round(state: State, index: int, ctx) -> Round:
    start = state.seed % len(JOBS)
    order = JOBS[start:] + JOBS[:start]
    digests: dict = {}
    classes = {"train": [0, 0.0], "sim": [0, 0.0]}
    items = 0
    elapsed = ctx.stopwatch()
    for job in order:
        ctx.set_op()
        t0 = ctx.clock()
        failure = ctx.attempt(job, _check, ctx, state, job, digests)
        if not failure:
            cls = classes["train" if job in TRAIN_JOBS else "sim"]
            cls[0] += state.examples[job]
            cls[1] += ctx.clock() - t0
            items += state.examples[job]
    return Round(items, *elapsed(), classes)


def named_metrics(summary: dict, classes: dict) -> dict:
    return {"train_examples_per_s": classes.get("train"),
            "sim_examples_per_s": classes.get("sim")}

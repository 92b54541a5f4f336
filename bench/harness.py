"""Timed and traced runs of one workload through the public CLI functions.

A round is one ``cmd_generate -> cmd_train -> cmd_eval`` pipeline in a
fresh output directory. A run repeats whole rounds until its measuring time
is used up and reports medians over rounds. Set-up is measured apart, in
fresh interpreters (``probe.py``).
"""

from __future__ import annotations

import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import numpy as np
from xreid import cli, counters, data, encoder, evaluation, kernels, losses, mmd, training

import checks
import layers
import workloads
from spans import Tracer, span_cost, write_csv

MODULES = SimpleNamespace(
    cli=cli, data=data, training=training, losses=losses, mmd=mmd, kernels=kernels, evaluation=evaluation
)
#: Fresh-interpreter set-ups per timed run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Batches, drawn as training draws them, on which the traced run times
#: every MMD loss variant.
REPLAY_BATCHES = 100
PROBE = Path(__file__).resolve().parent / "probe.py"


def measure_setup(workload: str, seed: int, work: Path) -> tuple[float, Path]:
    """Median wall time of a fresh interpreter that imports xreid, resolves
    the workload's config and runs ``cmd_generate``; returns it with the
    dataset directory of the last probe."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, str(PROBE), workload, str(seed), str(work / "setup")],
            check=True,
            cwd=workloads.ROOT,
        )  # no timeout: with one, the wait polls in steps of up to 50 ms
        times.append(time.perf_counter() - start)
    return statistics.median(times), work / "setup" / "dataset"


def run_round(cfg, eval_repeats: int = 1) -> dict:
    """One pipeline, then ``eval_repeats - 1`` more evals: wall time of each
    command and the counters they moved."""
    pairs, distances = counters.kernel_pairs.count, counters.center_distances.count
    t0 = time.perf_counter()
    cli.cmd_generate(cfg)
    t1 = time.perf_counter()
    cli.cmd_train(cfg)
    t2 = time.perf_counter()
    report = cli.cmd_eval(cfg)
    t3 = time.perf_counter()
    eval_s = [t3 - t2]
    for _ in range(eval_repeats - 1):
        start = time.perf_counter()
        cli.cmd_eval(cfg)
        eval_s.append(time.perf_counter() - start)
    return {
        "train_s": t2 - t1,
        "eval_s": eval_s,
        "pipeline_s": t3 - t0,
        "kernel_pairs": counters.kernel_pairs.count - pairs,
        "center_distances": counters.center_distances.count - distances,
        "report": report,
    }


class Session:
    """Rounds of one workload and seed; counts commands attempted and failed."""

    def __init__(self, workload: str, seed: int, work: Path):
        self.workload, self.seed, self.work = workload, seed, work
        self.eval_repeats = workloads.EVAL_REPEATS[workload]
        self.commands = 2 + self.eval_repeats
        self.attempted = 0
        self.failed = 0
        self.rounds: list[dict] = []
        self.configs = []

    def round(self, tracer: Tracer | None = None) -> dict | None:
        cfg = workloads.config(self.workload, self.seed, self.work / f"round{self.attempted // self.commands}")
        self.attempted += self.commands
        try:
            if tracer is None:
                result = run_round(cfg, self.eval_repeats)
            else:
                with tracer.installed(layers.targets(MODULES)), tracer.span(layers.ROUND):
                    result = run_round(cfg, self.eval_repeats)
        except Exception:  # a failed command fails its round; the run goes on
            traceback.print_exc()
            self.failed += self.commands
            return None
        self.rounds.append(result)
        self.configs.append(cfg)
        return result

    def check(self) -> list[str]:
        """Output checks on the last round, plus equal reports in every round."""
        if not self.rounds:
            return ["no round completed"]
        start = time.perf_counter()
        cfg = self.configs[-1]
        texts = {(Path(c.output_dir) / "eval" / "report.csv").read_text() for c in self.configs}
        failures = [] if len(texts) == 1 else [f"{len(texts)} different eval reports from one seed"]
        failures += checks.check_run(cfg, self.rounds[-1]["report"], np.random.default_rng(self.seed))
        print(f"output checks: {time.perf_counter() - start:.1f} s", file=sys.stderr)
        return failures

    def sizes(self) -> tuple[int, int]:
        """(samples trained per round, query-trials evaluated per round)."""
        cfg = self.configs[-1]
        dataset = Path(cfg.output_dir) / "dataset"
        n_train = len(data.load(dataset / "train.csv"))
        test = data.load(dataset / "test.csv")
        query = data.THERMAL if cfg["eval.query_modality"] == "thermal" else data.VISIBLE
        batch = cfg.batch_spec().batch_size
        steps = cfg["train.epochs"] * math.ceil(n_train / batch)
        return batch * steps, int(np.sum(test.modalities == query)) * cfg["eval.trials"]


def _manifest_files(dataset: Path) -> dict:
    return json.loads((dataset / "manifest.json").read_text())["files"]


def timed_run(workload: str, seed: int, seconds: float, work: Path):
    """End-to-end metrics with tracing off; returns (metrics, session, failures)."""
    setup_s, probe_dataset = measure_setup(workload, seed, work)
    session = Session(workload, seed, work)
    start = time.perf_counter()
    while session.attempted == 0 or time.perf_counter() - start < seconds:
        session.round()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not session.rounds:
        raise RuntimeError(f"every round of {workload} failed")

    failures = session.check()
    round_dataset = Path(session.configs[-1].output_dir) / "dataset"
    if _manifest_files(probe_dataset) != _manifest_files(round_dataset):
        failures.append("set-up probe and timed rounds generated different datasets")
    samples, query_trials = session.sizes()
    rounds = session.rounds
    metrics = {
        "setup_s": setup_s,
        "train_samples_per_s": statistics.median(samples / r["train_s"] for r in rounds),
        "eval_queries_per_s": statistics.median(query_trials / t for r in rounds for t in r["eval_s"]),
        "pipeline_s": statistics.median(r["pipeline_s"] for r in rounds),
        "peak_rss_mb": peak_rss_mb,
    }
    return metrics, session, failures


def replay_mmd(cfg, tracer: Tracer) -> dict:
    """Time each MMD loss variant, as ``losses`` calls it, on the first
    batches training drew (encoded by the trained parameters)."""
    root = Path(cfg.output_dir)
    train_set = data.load(root / "dataset" / "train.csv")
    params = encoder.load_checkpoint(root / "train" / "checkpoint.bin")
    batches = checks.own_batches(cfg, train_set, params, REPLAY_BATCHES)
    spec, margin, estimator = cfg.kernel_spec(), cfg.margin(), cfg["mmd.estimator"]
    active = classes = 0
    with tracer.installed(layers.targets(MODULES)), tracer.span(layers.REPLAY):
        for feats, _, _ in batches:
            gated = losses.loss_margin_mmd_id(feats, spec, margin, estimator)
            active += gated.active_classes
            classes += len(gated.class_ids)
            losses.loss_mmd_id(feats, spec, estimator)
            losses.loss_mmd_marginal(feats, spec, estimator)
    return {"gate_active": active, "gate_classes": classes}


def traced_run(workload: str, seed: int, seconds: float, work: Path):
    """Per-layer metrics: untraced and traced rounds alternate, then the
    MMD replay; returns (metrics, session, failures)."""
    session = Session(workload, seed, work)
    tracer = Tracer()
    untraced, traced = [], []
    start = time.perf_counter()
    while session.attempted == 0 or time.perf_counter() - start < seconds:
        for sink, tr in ((untraced, None), (traced, tracer)):
            result = session.round(tr)
            if result is not None:
                sink.append(result)
    if not traced or not untraced:
        raise RuntimeError(f"{workload}: no traced or no untraced round completed")
    counts = replay_mmd(session.configs[-1], tracer)
    counts["kernel_pairs"] = sum(r["kernel_pairs"] for r in traced)
    counts["center_distances"] = sum(r["center_distances"] for r in traced)
    counts["untraced_pipeline_s"] = [r["pipeline_s"] for r in untraced]
    counts["span_cost_s"] = span_cost()
    metrics = layers.layer_metrics(tracer.spans, counts)
    write_csv(work.parent / "spans.csv", tracer.spans)
    return metrics, session, session.check()

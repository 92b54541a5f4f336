"""Where the traced run wraps the program, and the per-layer metrics.

Each target is a module attribute the program calls a function through:
``cli`` calls ``run_training`` as ``cli.run_training``, ``training`` calls
``forward`` as ``training.forward``, ``mmd`` calls ``squared_distances`` as
``mmd.squared_distances``, and so on. Wrapping there records every call the
program makes without touching its code. Span names are
``<defining module>.<function>``, so a span's layer is the module that
defines the function.
"""

from __future__ import annotations

import math
import statistics

from spans import layer_of, self_times

LAYERS = ("data", "cli", "kernels", "mmd", "losses", "encoder", "training", "evaluation")

#: Span names of the benchmark's own structure.
ROUND = "bench.round"
REPLAY = "bench.replay"
RUN_TRAINING = "training.run_training"
STEP = "losses.loss_total"

#: Tail percentile reported next to the median when a per-call timing has at
#: least ten samples beyond it.
TAIL = 0.90
TAIL_MIN_SAMPLES = 100


def targets(xreid_modules):
    """``(module, attribute, span name)`` for every traced call site."""
    m = xreid_modules
    return [
        (m.cli, "cmd_generate", "cli.cmd_generate"),
        (m.cli, "cmd_train", "cli.cmd_train"),
        (m.cli, "cmd_eval", "cli.cmd_eval"),
        (m.cli, "load_dataset", "cli.load_dataset"),
        (m.data, "generate", "data.generate"),
        (m.data, "dump", "data.dump"),
        (m.data, "load", "data.load"),
        (m.data, "sample_batch", "data.sample_batch"),
        (m.cli, "run_training", "training.run_training"),
        (m.cli, "write_log", "training.write_log"),
        (m.cli, "encode_dataset", "training.encode_dataset"),
        (m.cli, "save_checkpoint", "encoder.save_checkpoint"),
        (m.cli, "load_checkpoint", "encoder.load_checkpoint"),
        (m.training, "forward", "encoder.forward"),
        (m.training, "backward", "encoder.backward"),
        (m.training, "sgd_step", "encoder.sgd_step"),
        (m.training, "loss_total", "losses.loss_total"),
        (m.losses, "loss_id", "losses.loss_id"),
        (m.losses, "loss_hc_tri", "losses.loss_hc_tri"),
        (m.losses, "hetero_centers", "losses.hetero_centers"),
        (m.losses, "loss_margin_mmd_id", "mmd.loss_margin_mmd_id"),
        (m.losses, "loss_mmd_id", "mmd.loss_mmd_id"),
        (m.losses, "loss_mmd_marginal", "mmd.loss_mmd_marginal"),
        (m.mmd, "resolve_bandwidth", "kernels.resolve_bandwidth"),
        (m.mmd, "squared_distances", "kernels.squared_distances"),
        (m.kernels, "median_heuristic_bandwidth", "kernels.median_heuristic_bandwidth"),
        (m.kernels, "squared_distances", "kernels.squared_distances"),
        (m.cli, "evaluate", "evaluation.evaluate"),
        (m.evaluation, "similarity_matrix", "evaluation.similarity_matrix"),
        (m.evaluation, "cmc_map", "evaluation.cmc_map"),
        (m.cli, "similarity_stats", "evaluation.similarity_stats"),
        (m.cli, "write_report", "evaluation.write_report"),
    ]


class SpanTable:
    """Spans with durations, self times and the scope each one ran in."""

    def __init__(self, spans):
        self.spans = spans
        self.duration = [end - start for _, start, end, _ in spans]
        self.self_time = self_times(spans)
        self.root = []
        self.in_training = []
        for index, (name, _, _, parent) in enumerate(spans):
            if parent < 0:
                self.root.append(index)
                self.in_training.append(False)
            else:
                self.root.append(self.root[parent])
                self.in_training.append(
                    self.spans[parent][0] == RUN_TRAINING or self.in_training[parent]
                )

    def select(self, name, scope=None):
        """Indices of spans called ``name``; scope ``"training"`` keeps those
        under ``run_training``, any other scope those under a root of that name."""
        out = []
        for index, span in enumerate(self.spans):
            if span[0] != name:
                continue
            if scope == "training" and not self.in_training[index]:
                continue
            if scope not in (None, "training") and self.spans[self.root[index]][0] != scope:
                continue
            out.append(index)
        return out

    def durations(self, name, scope=None, own=False):
        values = self.self_time if own else self.duration
        return [values[i] for i in self.select(name, scope)]

    def per_parent(self, child, parent):
        """Total duration of ``child`` spans under each ``parent`` span."""
        totals = {i: 0.0 for i in self.select(parent)}
        for index in self.select(child):
            up = self.spans[index][3]
            while up >= 0 and up not in totals:
                up = self.spans[up][3]
            if up >= 0:
                totals[up] += self.duration[index]
        return list(totals.values())

    def layer_self_per_round(self, layer):
        """Self time of ``layer``'s spans within each round."""
        totals = {i: 0.0 for i in self.select(ROUND)}
        for index, (name, _, _, _) in enumerate(self.spans):
            if layer_of(name) == layer and self.root[index] in totals:
                totals[self.root[index]] += self.self_time[index]
        return list(totals.values())


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def tail(values) -> float:
    """Nearest-rank TAIL percentile; 0 below TAIL_MIN_SAMPLES samples."""
    if len(values) < TAIL_MIN_SAMPLES:
        return 0.0
    return sorted(values)[math.ceil(TAIL * len(values)) - 1]


def layer_metrics(spans, counts) -> dict[str, float]:
    """Per-layer metrics of a traced run.

    ``counts`` holds what spans do not: ``kernel_pairs`` and
    ``center_distances`` (counter increments during training),
    ``gate_active`` and ``gate_classes`` (summed over the replayed margin
    losses), ``untraced_pipeline_s`` (untraced round times) and
    ``span_cost_s`` (what one traced call adds).
    """
    t = SpanTable(spans)
    ms, us = 1e3, 1e6
    steps = len(t.select(STEP, "training"))
    per_step = 1.0 / steps if steps else 0.0

    def call(name, scale, scope=None, own=False):
        return median(t.durations(name, scope, own)) * scale

    out: dict[str, float] = {}

    def timed(metric, name, scope=None, own=False):
        values = t.durations(name, scope, own)
        out[metric] = median(values) * us
        out[metric + "_p90"] = tail(values) * us

    out["data.generate_ms"] = call("data.generate", ms)
    out["data.dump_ms"] = median(t.per_parent("data.dump", "cli.cmd_generate")) * ms
    out["data.load_ms"] = median(t.per_parent("data.load", "cli.load_dataset")) * ms
    timed("data.sample_batch_us", "data.sample_batch", "training")

    out["cli.load_dataset_ms"] = call("cli.load_dataset", ms)
    out["cli.cmd_eval_self_ms"] = call("cli.cmd_eval", ms, own=True)

    sq = t.durations("kernels.squared_distances", "training")
    out["kernels.squared_distances_calls_per_step"] = len(sq) * per_step
    out["kernels.squared_distances_us_per_step"] = sum(sq) * per_step * us
    med = t.durations("kernels.median_heuristic_bandwidth", "training")
    out["kernels.median_heuristic_us_per_step"] = sum(med) * per_step * us

    for loss in ("loss_margin_mmd_id", "loss_mmd_id", "loss_mmd_marginal"):
        timed(f"mmd.{loss}_us", f"mmd.{loss}", REPLAY)
    out["mmd.kernel_pairs_per_step"] = counts["kernel_pairs"] * per_step
    classes = counts["gate_classes"]
    out["mmd.gate_open_share"] = counts["gate_active"] / classes if classes else 0.0

    timed("losses.loss_total_self_us", STEP, "training", own=True)
    timed("losses.loss_hc_tri_us", "losses.loss_hc_tri", "training")
    timed("losses.loss_id_us", "losses.loss_id", "training")
    out["losses.center_distances_per_step"] = counts["center_distances"] * per_step

    timed("encoder.forward_us", "encoder.forward", "training")
    timed("encoder.backward_us", "encoder.backward", "training")
    timed("encoder.sgd_step_us", "encoder.sgd_step", "training")
    out["encoder.save_checkpoint_ms"] = call("encoder.save_checkpoint", ms)
    out["encoder.load_checkpoint_ms"] = call("encoder.load_checkpoint", ms)

    out["training.run_training_self_ms"] = call(RUN_TRAINING, ms, own=True)
    out["training.encode_dataset_ms"] = call("training.encode_dataset", ms)

    evaluations = len(t.select("evaluation.evaluate"))
    out["evaluation.evaluate_ms"] = call("evaluation.evaluate", ms)
    out["evaluation.cmc_map_us"] = call("evaluation.cmc_map", us)
    out["evaluation.similarity_matrix_calls_per_evaluate"] = (
        len(t.select("evaluation.similarity_matrix")) / evaluations if evaluations else 0.0
    )
    out["evaluation.similarity_stats_ms"] = call("evaluation.similarity_stats", ms)
    out["evaluation.write_report_ms"] = call("evaluation.write_report", ms)

    for layer in LAYERS:
        out[f"{layer}.self_ms_per_round"] = median(t.layer_self_per_round(layer)) * ms

    traced = median(t.durations(ROUND))
    untraced = median(counts["untraced_pipeline_s"])
    out["trace.overhead_ms_per_round"] = (traced - untraced) * ms
    out["trace.overhead_share"] = (traced - untraced) / untraced if untraced else 0.0
    rounds = len(t.select(ROUND))
    out["trace.spans_per_round"] = sum(1 for r in t.root if t.spans[r][0] == ROUND) / rounds if rounds else 0.0
    out["trace.span_cost_us"] = counts["span_cost_s"] * us
    return out

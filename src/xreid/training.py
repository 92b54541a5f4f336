"""Training loop: identity-balanced batches, total loss, momentum SGD.

All randomness is drawn from named streams of the experiment's root seed, so
two runs from the same resolved config produce bitwise-identical parameters.
Per-epoch diagnostics (loss terms, margin-gate survivors, mean per-class
MMD^2, wall-clock seconds) are collected as rows for the training log.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import seeds
from .config import ExperimentConfig
from .data import BatchSampler, DescriptorSet, FeatureSet
from .encoder import EncoderParams, SgdState, backward, embed, forward, init_params, sgd_step
from .losses import loss_total

LOG_COLUMNS = (
    "epoch",
    "loss_total",
    "loss_id",
    "loss_mmd",
    "loss_hctri",
    "active_classes",
    "mean_class_mmd2",
    "seconds",
)


class TrainingDiverged(RuntimeError):
    """Raised when the loss goes non-finite; carries the last good parameters."""

    def __init__(self, message: str, last_good: EncoderParams, epoch: int):
        super().__init__(message)
        self.last_good = last_good
        self.epoch = epoch


@dataclass
class EpochStats:
    epoch: int
    loss_total: float
    loss_id: float
    loss_mmd: float
    loss_hctri: float
    active_classes: float
    mean_class_mmd2: float
    seconds: float

    def row(self) -> str:
        return (
            f"{self.epoch},{self.loss_total:.6f},{self.loss_id:.6f},{self.loss_mmd:.6f},"
            f"{self.loss_hctri:.6f},{self.active_classes:.6f},{self.mean_class_mmd2:.6f},"
            f"{self.seconds:.3f}"
        )


def class_index(train_identities: np.ndarray) -> dict[int, int]:
    """Map raw identity labels to contiguous classifier indices."""
    return {int(c): i for i, c in enumerate(np.unique(train_identities))}


def run_training(
    config: ExperimentConfig,
    train_set: DescriptorSet,
) -> tuple[EncoderParams, list[EpochStats]]:
    """Train an encoder on the given set under the config; returns params + log."""
    classes = train_set.cells.ids
    shape = config.encoder_shape(num_classes=len(classes))
    params = init_params(shape, seeds.stream(config.seed, "init"))
    sampler = BatchSampler(train_set, config.batch_spec(), seeds.stream(config.seed, "sampler"))

    kernel_spec = config.kernel_spec()
    margin = config.margin()
    hctri = config.hctri()
    weights = config.loss_weights()
    hyper = config.sgd_hyper()
    estimator = config["mmd.estimator"]
    variant = config["mmd.variant"]

    state = SgdState()
    epochs = config["train.epochs"]
    batches = sampler.batches_per_epoch()

    stats: list[EpochStats] = []
    last_good = params.copy()
    for epoch in range(epochs):
        t0 = time.perf_counter()
        sums = np.zeros(4)
        active_sum = 0.0
        active_n = 0
        mmd2_sum = 0.0
        mmd2_n = 0
        for _ in range(batches):
            batch = sampler.next_batch()
            out = forward(params, batch.descriptors, batch.modalities, train=True)
            if not np.isfinite(out.pooled).all():
                raise TrainingDiverged(
                    f"non-finite pooled features at epoch {epoch}", last_good, epoch
                )
            feats = FeatureSet(out.pooled, batch.identities, batch.modalities)
            bundle = loss_total(
                feats,
                out.logits,
                np.searchsorted(classes, batch.identities),
                kernel_spec=kernel_spec,
                margin=margin,
                hctri=hctri,
                weights=weights,
                estimator=estimator,
                mmd_variant=variant,
            )
            if not np.isfinite(bundle.total):
                raise TrainingDiverged(
                    f"non-finite loss {bundle.total} at epoch {epoch}", last_good, epoch
                )
            grads = backward(out, bundle.grad_pooled, bundle.grad_logits)
            sgd_step(params, grads, state, hyper, epoch)

            sums += (bundle.total, bundle.id_term, bundle.margin_mmd_term, bundle.hctri_term)
            if bundle.active_classes is not None:
                active_sum += bundle.active_classes
                active_n += 1
            if bundle.class_mmd2 is not None:
                mmd2_sum += float(bundle.class_mmd2.mean())
                mmd2_n += 1
        means = sums / batches
        stats.append(
            EpochStats(
                epoch=epoch,
                loss_total=means[0],
                loss_id=means[1],
                loss_mmd=means[2],
                loss_hctri=means[3],
                active_classes=active_sum / active_n if active_n else float("nan"),
                mean_class_mmd2=mmd2_sum / mmd2_n if mmd2_n else float("nan"),
                seconds=time.perf_counter() - t0,
            )
        )
        last_good = params.copy()
    return params, stats


def write_log(path, stats: list[EpochStats]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(LOG_COLUMNS) + "\n")
        for row in stats:
            fh.write(row.row() + "\n")


def encode_dataset(
    params: EncoderParams,
    dataset: DescriptorSet,
    features: str = "pooled",
    chunk: int = 512,
) -> FeatureSet:
    """Eval-mode features of a whole dataset, in chunks.

    Each chunk's features (see :func:`~xreid.encoder.embed`) are written into
    one preallocated (N, D) array, so only one chunk's activations are alive
    at a time.
    """
    if features not in ("pooled", "bn"):
        raise ValueError(f"features must be 'pooled' or 'bn', got {features!r}")
    out = np.empty((len(dataset), params.shape.embedding_dim))
    for start in range(0, len(dataset), chunk):
        sl = slice(start, start + chunk)
        out[sl] = embed(params, dataset.descriptors[sl], dataset.modalities[sl], features == "bn")
    return FeatureSet(out, dataset.identities, dataset.modalities)


__all__ = [
    "LOG_COLUMNS",
    "TrainingDiverged",
    "EpochStats",
    "class_index",
    "run_training",
    "write_log",
    "encode_dataset",
]

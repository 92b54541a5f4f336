"""Training loop and its log: identity-balanced batches, total loss, momentum SGD.

All randomness is drawn from named streams of the experiment's root seed, so
two runs from the same resolved config produce bitwise-identical parameters.
Each epoch fills one table with a row per step (the four loss terms, the
margin-gate survivors and the mean per-class MMD^2, NaN where the loss has no
gate); its column means and the epoch's wall-clock seconds make the
:class:`EpochStats` row of the training log, whose columns are its fields. A
non-finite pooled feature, loss or gradient raises :class:`TrainingDiverged`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields

import numpy as np

from . import seeds
from .config import ExperimentConfig
from .data import BatchSampler, DescriptorSet, FeatureSet
from .encoder import EncoderParams, backward, forward, init_params, sgd_step
from .losses import loss_total


class TrainingDiverged(RuntimeError):
    """Raised when training goes non-finite; carries the last good parameters."""

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


LOG_COLUMNS = tuple(f.name for f in fields(EpochStats))


def class_index(train_identities: np.ndarray) -> dict[int, int]:
    """Map raw identity labels to contiguous classifier indices."""
    return {int(c): i for i, c in enumerate(np.unique(train_identities))}


def run_training(
    config: ExperimentConfig,
    train_set: DescriptorSet,
) -> tuple[EncoderParams, list[EpochStats]]:
    """Train an encoder on the given set under the config; returns params + log.

    A set with an empty (identity, modality) cell is refused before the
    first batch, not when the sampler first draws that identity.
    """
    empty = train_set.cells.first_empty()
    if empty is not None:
        identity, modality = empty
        raise ValueError(
            f"train split: identity {identity} has no {'thermal' if modality else 'visible'} samples"
        )
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

    grads = params.zeros_like()  # every backward writes all of it
    velocity = params.zeros_like()
    last_good = params.copy()  # refilled after each epoch
    tape = None  # the first forward makes the tape every later step refills
    epochs = config["train.epochs"]
    batches = sampler.batches_per_epoch()

    stats: list[EpochStats] = []
    for epoch in range(epochs):
        t0 = time.perf_counter()
        # one row per step; a diagnostic the bundle lacks is NaN, and so is
        # its epoch mean
        table = np.empty((batches, 6))
        for step in range(batches):
            batch = sampler.next_batch()
            # a non-finite pooled feature or logit raises TrainingDiverged
            # below, which says what numpy's warnings would
            with np.errstate(over="ignore", invalid="ignore"):
                tape = forward(params, batch.descriptors, batch.modalities, train=True, out=tape)
            if not np.isfinite(tape.pooled).all():
                raise TrainingDiverged(
                    f"non-finite pooled features at epoch {epoch}", last_good, epoch
                )
            bundle = loss_total(
                FeatureSet(tape.pooled, batch.identities, batch.modalities),
                tape.logits,
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
            backward(tape, bundle.grad_pooled, bundle.grad_logits, out=grads)
            try:  # a non-finite gradient aborts the step before any change
                sgd_step(params, grads, velocity, hyper, epoch)
            except FloatingPointError as exc:
                raise TrainingDiverged(f"{exc} at epoch {epoch}", last_good, epoch) from None

            mmd2 = bundle.class_mmd2
            table[step] = (
                bundle.total,
                bundle.id_term,
                bundle.margin_mmd_term,
                bundle.hctri_term,
                np.nan if bundle.active_classes is None else bundle.active_classes,
                np.nan if mmd2 is None else mmd2.sum() / len(mmd2),  # np.mean's bits
            )
        stats.append(EpochStats(epoch, *table.sum(axis=0) / batches, time.perf_counter() - t0))
        np.copyto(last_good.buffer, params.buffer)
    return params, stats


def write_log(path, stats: list[EpochStats]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(LOG_COLUMNS) + "\n")
        for row in stats:
            fh.write(row.row() + "\n")


__all__ = [
    "LOG_COLUMNS",
    "TrainingDiverged",
    "EpochStats",
    "class_index",
    "run_training",
    "write_log",
]

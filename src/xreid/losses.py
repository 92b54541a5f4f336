"""Identity cross-entropy, hetero-center triplet loss, and the total objective.

The total objective is a weighted sum of three terms applied at different
points of the encoder head: softmax cross-entropy on classifier logits, the
margin-gated class-conditional MMD loss on pooled features, and the
hetero-center triplet loss on pooled features. Zero-weighted terms are
skipped entirely, so ablation runs never evaluate the corresponding code and
contribute bitwise-zero gradient.

The hetero-center triplet loss compares per-(identity, modality) centroid
vectors: for each identity, both the visible- and thermal-anchored hinge use
the cross-modal center pair as positive and the hardest (minimum-distance)
center of any other identity, over both modalities, as negative.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import counters
from .data import CellIndex, FeatureSet
from .kernels import KernelSpec
# loss_mmd_id is loss_margin_mmd_id at rho = 0; bench/ times it as losses.loss_mmd_id
from .mmd import LossValue, MarginConfig, loss_margin_mmd_id, loss_mmd_id, loss_mmd_marginal

MMD_VARIANTS = ("margin_id", "marginal")

# a term whose weight is zero: no value, no gradient, no diagnostics
_SKIPPED = LossValue(0.0, None)


@dataclass(frozen=True)
class LossWeights:
    """Weights of the total objective; defaults follow the reference recipe."""

    lambda_id: float = 1.0
    lambda_margin_mmd: float = 0.25
    lambda_hctri: float = 2.0

    def __post_init__(self):
        if not all(w >= 0 for w in (self.lambda_id, self.lambda_margin_mmd, self.lambda_hctri)):
            raise ValueError("loss weights must be >= 0")


@dataclass(frozen=True)
class HcTriConfig:
    margin_rho1: float = 0.3

    def __post_init__(self):
        if not self.margin_rho1 >= 0:
            raise ValueError(f"hc-tri margin must be >= 0, got {self.margin_rho1}")


@dataclass(frozen=True)
class LossBundle:
    """Scalar terms plus gradients in pooled-feature and logit space."""

    total: float
    id_term: float
    margin_mmd_term: float
    hctri_term: float
    grad_pooled: np.ndarray   # (N, D): lambda-weighted sum of metric-loss gradients
    grad_logits: np.ndarray   # (N, C): lambda-weighted cross-entropy gradient
    active_classes: int | None = None    # margin-gate survivors, when applicable
    class_mmd2: np.ndarray | None = None  # raw per-class MMD^2, when applicable


def loss_id(logits, labels) -> LossValue:
    """Mean softmax cross-entropy; gradient is (softmax - onehot) / N."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n, c = logits.shape
    if labels.min() < 0 or labels.max() >= c:
        bad = labels[(labels < 0) | (labels >= c)][0]
        raise ValueError(f"label {bad} out of range for {c} classes")
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1))
    loss = float(np.add.reduce(log_z - shifted[np.arange(n), labels]) / n)  # np.mean
    probs = np.exp(shifted - log_z[:, None])
    grad = probs
    grad[np.arange(n), labels] -= 1.0
    grad /= n
    return LossValue(loss, grad)


def _cell_centers(features: np.ndarray, index: CellIndex) -> np.ndarray:
    """The centroid of every cell of ``index``, in cell order (identity rank,
    visible before thermal).

    Each centroid sums its rows in row order, starting from the first. The
    slots that every cell has are gathered as one (slot, cell) block, never
    more rows than the set has, and added one slot at a time; the rows of
    larger cells past those slots follow one slot at a time. (``add.reduce``
    over the slots may sum pairwise, which changes the bits.)
    """
    counts = index.counts
    if not counts.all():
        identity, modality = index.first_empty()
        raise ValueError(f"identity {identity} has no {'thermal' if modality else 'visible'} samples")
    first, order = index.starts[:-1], index.order
    width = int(counts.max(initial=0))
    low = int(counts.min(initial=width))  # 0 only without cells
    block = features[order[first + np.arange(max(low, 1))[:, None]]]
    sums = block[0]
    for rows in block[1:]:
        sums += rows
    for j in range(max(low, 1), width):
        has = np.flatnonzero(counts > j)  # the cells with a row j
        sums[has] += features[order[first[has] + j]]
    return sums / counts[:, None]


def hetero_centers(batch: FeatureSet) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-identity centroids of each modality, over the batch's ``cells``.

    Returns (identities ascending, visible centers, thermal centers), the
    centroids that :func:`loss_hc_tri` compares; see :func:`_cell_centers`
    for how each is summed.
    """
    centers = _cell_centers(batch.features, batch.cells)
    return batch.cells.ids, centers[0::2], centers[1::2]


def _directions(diff: np.ndarray, dist: np.ndarray) -> np.ndarray:
    # unit rows; subgradient choice at coincident centers: zero direction.
    # A zero distance divides by inf, which gives zeros of either sign; the
    # sign is lost when the directions are summed into a +0.0 start.
    return diff / np.where(dist > 0, dist, np.inf)[:, None]


@lru_cache(maxsize=8)
def _anchor_layout(p: int):
    # per identity count, read-only since every caller shares them: each
    # anchor's cell (the visible centers, then the thermal ones), its
    # candidates of another identity, the anchors' row numbers, the first
    # three cells each anchor updates (its pair, then itself; the fourth is
    # its hardest negative)
    anchor_cell = np.concatenate([np.arange(0, 2 * p, 2), np.arange(1, 2 * p, 2)])
    other = anchor_cell[:, None] // 2 != np.arange(2 * p)[None, :] // 2
    anchors = np.arange(2 * p)
    i = anchors % p
    targets = np.stack([2 * i, 2 * i + 1, anchor_cell, np.zeros_like(i)], axis=1)
    for array in (anchor_cell, other, anchors, targets):
        array.flags.writeable = False
    return anchor_cell, other, anchors, targets


def loss_hc_tri(batch: FeatureSet, cfg: HcTriConfig) -> LossValue:
    """Hetero-center triplet loss with batch-hard negative mining over centers.

    Hinge terms at exactly zero are inactive; ties in the hardest-negative
    minimum are broken by a fixed candidate order (ascending identity, visible
    before thermal), and only the first minimizer receives gradient.
    """
    index = batch.cells
    centers = _cell_centers(batch.features, index)
    p = len(index.ids)
    if p < 2:
        raise ValueError(f"hc-tri needs >= 2 identities in the batch, got {p}")
    anchor_cell, other, anchors, pair_targets = _anchor_layout(p)

    # protocol-level cost: P positive distances, 2(P-1) negatives per anchor
    pair = centers[0::2] - centers[1::2]
    d_pos = np.sqrt(np.add.reduce(pair * pair, axis=1))
    counters.center_distances.add(p + 2 * p * 2 * (p - 1))

    # the distance between every two centers, in cell order, squaring the
    # differences in place; candidates are the centers in cell order, which
    # is the tie-break order, so argmin lands on the first minimizer; anchors
    # are the visible centers then the thermal ones
    sq = centers[:, None, :] - centers[None, :, :]
    dist = np.sqrt(np.add.reduce(np.square(sq, out=sq), axis=2))
    d_masked = np.where(other, dist[anchor_cell], np.inf)
    neg_idx = np.argmin(d_masked, axis=1)
    d_neg = d_masked[anchors, neg_idx]

    terms = cfg.margin_rho1 + np.concatenate([d_pos, d_pos]) - d_neg
    active = terms > 0
    loss = float(terms[active].sum())

    # each active anchor pulls its own pair together and pushes its hardest
    # negative away; the four updates per anchor are summed in anchor order,
    # each cell's from +0.0 (what np.add.at on zeros does, bit for bit)
    a = np.flatnonzero(active)
    targets = pair_targets[a]
    targets[:, 3] = neg_idx[a]
    width = centers.shape[1]
    updates = np.empty((len(a), 4, width))
    updates[:, 0] = _directions(pair, d_pos)[a % p]
    np.negative(updates[:, 0], out=updates[:, 1])
    negative = centers[anchor_cell[a]] - centers[neg_idx[a]]
    updates[:, 3] = _directions(negative, d_neg[a])
    np.negative(updates[:, 3], out=updates[:, 2])
    flat = (targets * width)[:, :, None] + np.arange(width)
    grad_cells = np.bincount(flat.ravel(), updates.ravel(), minlength=centers.size)

    # centers are means, so each member feature receives grad / cell size
    grad_cells = grad_cells.reshape(centers.shape) / index.counts[:, None]
    return LossValue(loss, grad_cells[index.cell])


def loss_total(
    batch: FeatureSet,
    logits,
    labels,
    *,
    kernel_spec: KernelSpec,
    margin: MarginConfig,
    hctri: HcTriConfig,
    weights: LossWeights,
    estimator: str = "biased",
    mmd_variant: str = "margin_id",
) -> LossBundle:
    """Weighted total objective with gradients accumulated per term.

    ``mmd_variant`` selects the alignment loss that ``lambda_margin_mmd``
    weighs: the margin-gated class-conditional one (``"margin_id"``, the
    default; ungated at ``margin.rho = 0``) or the marginal one. Terms with
    zero weight are skipped outright. The per-class MMD and hc-tri share the
    batch's ``cells``.
    """
    if mmd_variant not in MMD_VARIANTS:
        raise ValueError(f"mmd_variant must be one of {MMD_VARIANTS}, got {mmd_variant!r}")
    logits = np.asarray(logits, dtype=np.float64)
    if len(logits) != len(batch):
        raise ValueError(f"batch has {len(batch)} features but logits have {len(logits)} rows")

    grad_pooled = np.zeros_like(batch.features)
    grad_logits = np.zeros_like(logits)
    id_loss = mmd_loss = hctri_loss = _SKIPPED

    if weights.lambda_id != 0.0:
        id_loss = loss_id(logits, labels)
        grad_logits += weights.lambda_id * id_loss.grad

    if weights.lambda_margin_mmd != 0.0:
        if mmd_variant == "margin_id":
            mmd_loss = loss_margin_mmd_id(batch, kernel_spec, margin, estimator)
        else:
            mmd_loss = loss_mmd_marginal(batch, kernel_spec, estimator)
        grad_pooled += weights.lambda_margin_mmd * mmd_loss.grad

    if weights.lambda_hctri != 0.0:
        hctri_loss = loss_hc_tri(batch, hctri)
        grad_pooled += weights.lambda_hctri * hctri_loss.grad

    total = (
        weights.lambda_id * id_loss.value
        + weights.lambda_margin_mmd * mmd_loss.value
        + weights.lambda_hctri * hctri_loss.value
    )
    return LossBundle(
        total=float(total),
        id_term=float(id_loss.value),
        margin_mmd_term=float(mmd_loss.value),
        hctri_term=float(hctri_loss.value),
        grad_pooled=grad_pooled,
        grad_logits=grad_logits,
        active_classes=mmd_loss.active_classes,
        class_mmd2=mmd_loss.class_mmd2,
    )


__all__ = [
    "MMD_VARIANTS",
    "LossWeights",
    "HcTriConfig",
    "LossBundle",
    "loss_id",
    "hetero_centers",
    "loss_hc_tri",
    "loss_total",
]

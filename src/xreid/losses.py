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

import numpy as np

from . import counters
from .data import FeatureSet
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
    loss = float(np.mean(log_z - shifted[np.arange(n), labels]))
    probs = np.exp(shifted - log_z[:, None])
    grad = probs
    grad[np.arange(n), labels] -= 1.0
    grad /= n
    return LossValue(loss, grad)


def hetero_centers(batch: FeatureSet) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-identity centroids of each modality, over the batch's ``cells``.

    Returns (identities ascending, visible centers, thermal centers). Each
    centroid sums its rows in row order, starting from the first, which is
    what numpy's ``mean(axis=0)`` does on two or more feature columns.
    """
    index = batch.cells
    gap = index.first_empty()
    if gap is not None:
        raise ValueError(f"identity {gap[0]} has no {'thermal' if gap[1] else 'visible'} samples")
    first = index.starts[:-1]
    sums = batch.features[index.order[first]]
    for j in range(1, int(index.counts.max(initial=0))):
        has = np.flatnonzero(index.counts > j)  # the cells with a row j
        sums[has] += batch.features[index.order[first[has] + j]]
    centers = sums / index.counts[:, None]
    return index.ids, centers[0::2], centers[1::2]


def _directions(diff: np.ndarray, dist: np.ndarray) -> np.ndarray:
    # unit rows; subgradient choice at coincident centers: zero direction
    return np.divide(diff, dist[:, None], out=np.zeros_like(diff), where=dist[:, None] > 0)


def loss_hc_tri(batch: FeatureSet, cfg: HcTriConfig) -> LossValue:
    """Hetero-center triplet loss with batch-hard negative mining over centers.

    Hinge terms at exactly zero are inactive; ties in the hardest-negative
    minimum are broken by a fixed candidate order (ascending identity, visible
    before thermal), and only the first minimizer receives gradient.
    """
    ids, cv, ct = hetero_centers(batch)
    p = len(ids)
    if p < 2:
        raise ValueError(f"hc-tri needs >= 2 identities in the batch, got {p}")

    # protocol-level cost: P positive distances, 2(P-1) negatives per anchor
    d_pos = np.linalg.norm(cv - ct, axis=1)
    counters.center_distances.add(p + 2 * p * 2 * (p - 1))

    # candidates are the centers in cell order, which is the tie-break order,
    # so argmin lands on the first minimizer; anchors are the visible centers
    # then the thermal ones
    cand = np.empty((2 * p, cv.shape[1]))
    cand[0::2] = cv
    cand[1::2] = ct
    anchor_cell = np.concatenate([np.arange(0, 2 * p, 2), np.arange(1, 2 * p, 2)])
    diff = cand[anchor_cell][:, None, :] - cand[None, :, :]
    d = np.sqrt((diff * diff).sum(axis=2))
    d_masked = np.where(anchor_cell[:, None] // 2 != np.arange(2 * p)[None, :] // 2, d, np.inf)
    neg_idx = np.argmin(d_masked, axis=1)
    d_neg = d_masked[np.arange(2 * p), neg_idx]

    terms = cfg.margin_rho1 + np.concatenate([d_pos, d_pos]) - d_neg
    loss = float(terms[terms > 0].sum())

    # each active anchor pulls its own pair together and pushes its hardest
    # negative away; the four updates per anchor are applied in anchor order
    a = np.flatnonzero(terms > 0)
    i = a % p
    u = _directions(cv - ct, d_pos)[i]
    w = _directions(diff[a, neg_idx[a]], d_neg[a])
    targets = np.stack([2 * i, 2 * i + 1, anchor_cell[a], neg_idx[a]], axis=1)
    updates = np.stack([u, -u, -w, w], axis=1).reshape(-1, cv.shape[1])
    grad_cells = np.zeros_like(cand)
    np.add.at(grad_cells, targets.ravel(), updates)

    # centers are means, so each member feature receives grad / cell size
    return LossValue(loss, (grad_cells / batch.cells.counts[:, None])[batch.cells.cell])


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

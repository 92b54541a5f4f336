"""Squared maximum mean discrepancy estimators and the alignment losses.

MMD^2 between two samples is estimated either with the biased V-statistic
(full double sums, diagonal included; nonnegative) or the unbiased
U-statistic (diagonal excluded; may be negative, and is never clamped). On
top of the estimators sit three losses over a labeled feature batch:

* marginal: MMD^2 between all visible and all thermal features;
* class-conditional: the average of per-identity MMD^2 values;
* margin-gated class-conditional: a per-identity hard gate that passes the
  full MMD^2 through while it exceeds the margin rho and contributes exactly
  zero (value and gradient) once it does not.

All five go through one engine: rows are gathered into padded (group, slot)
blocks, one group per identity or a single group, visible slots first. One
``squared_distances`` call gives every group's distance block, one
``resolve_bandwidth`` call every group's base bandwidth (median heuristic
over its union of modalities), and one kernel evaluation the xx, xy and yy
sub-blocks of all groups. A term sum_ij W_ij k(x_i, x_j) has the analytic
gradient 2[(W∘A)X - X·rowsum(W∘A)], from d k(x,y)/dx = A(x,y) (y - x); the
per-group weights W carry the estimator, the group average and the gate.
Median-heuristic bandwidths are constants to the gradients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import counters
from .data import THERMAL, VISIBLE, CellIndex, FeatureSet, cell_index
from .kernels import KernelSpec, mixture_kernel_matrix, resolve_bandwidth, squared_distances

_ESTIMATORS = ("biased", "unbiased")


@dataclass(frozen=True)
class MmdEstimate:
    """One MMD^2 estimate with its three expectation terms.

    ``value == same_x_term + same_y_term - 2 * cross_term`` exactly as
    computed; raw estimates are never clamped (the unbiased one may be
    negative).
    """

    value: float
    same_x_term: float
    same_y_term: float
    cross_term: float


@dataclass(frozen=True)
class MarginConfig:
    """Margin on squared MMD; rho = 0 recovers the plain class-conditional loss."""

    rho: float = 1.4

    def __post_init__(self):
        if self.rho < 0:
            raise ValueError(f"margin rho must be >= 0, got {self.rho}")


@dataclass(frozen=True)
class LossValue:
    """What every loss returns: its value, its gradient, and the per-class
    diagnostics of the losses that have them (None for the others)."""

    value: float
    grad: np.ndarray  # d loss / d input, one row per input row (feature or logit)
    class_ids: np.ndarray | None = None   # ascending identities of the per-class MMD
    class_mmd2: np.ndarray | None = None  # raw per-class MMD^2 (pre-gate)
    active_classes: int | None = None     # classes whose MMD^2 exceeded rho


def _engine(x, index: CellIndex, spec: KernelSpec, estimator: str, rho=None, owner=None):
    """MMD^2 of each group of rows (one per identity of ``index``), and the
    value and gradient of the group average over the groups whose MMD^2
    exceeds ``rho`` (all when None). ``owner`` names a marginal index's one
    group in errors. Returns ((mmd2, same_x, same_y, cross), active, value,
    grad)."""
    if estimator not in _ESTIMATORS:
        raise ValueError(f"estimator must be one of {_ESTIMATORS}, got {estimator!r}")
    n_groups = len(index.ids)
    counts = index.counts
    n, m = counts[0::2], counts[1::2]
    gap = index.first_empty()
    if gap is not None:
        who = owner or f"identity {gap[0]}"
        raise ValueError(f"{who} has no {'thermal' if gap[1] else 'visible'} features")
    if estimator == "unbiased" and min(n.min(), m.min()) < 2:
        g = np.flatnonzero(np.minimum(n, m) < 2)[0]
        raise ValueError(f"unbiased estimator needs >= 2 samples per set, got {n[g]} and {m[g]}")

    # padded (group, slot) blocks: visible rows in slots [0, s), thermal rows
    # in [s, L), each in batch order; empty slots repeat row 0
    s = int(n.max())
    order = index.order
    cell = index.cell[order]
    slot = np.arange(len(cell)) - index.starts[cell] + s * (cell % 2)
    rows = np.zeros((n_groups, s + int(m.max())), dtype=np.intp)
    valid = np.zeros(rows.shape, dtype=bool)
    rows[cell // 2, slot] = order
    valid[cell // 2, slot] = True

    xb = x[rows]
    d2 = squared_distances(xb, xb)
    # pairs with an empty slot sit at infinite distance: the median skips
    # them and their kernel values and gradient weights are exactly 0
    if not valid.all():
        np.copyto(d2, np.inf, where=~(valid[:, :, None] & valid[:, None, :]))
    bw = spec.bandwidths(resolve_bandwidth(spec, d2))
    if estimator == "unbiased":
        diagonal = np.arange(d2.shape[-1])
        d2[:, diagonal, diagonal] = np.inf  # same-set diagonals excluded
        pairs_x, pairs_y, self_pairs = n * (n - 1), m * (m - 1), -1
    else:
        pairs_x, pairs_y, self_pairs = n * n, m * m, 1
    # distinct kernel pairs after exploiting symmetry, u(u -+ 1)/2 over each
    # group's u = n + m rows; mixture size does not multiply the count
    counters.kernel_pairs.add(((n + m) * (n + m + self_pairs)).sum() // 2)

    # the visible slots' rows hold the xx and xy sub-blocks, so the kernel
    # is never evaluated on the redundant yx sub-block
    k_top, a_top = mixture_kernel_matrix(d2[:, :s], bw, grad_weights=True)
    kyy, ayy = mixture_kernel_matrix(d2[:, s:, s:], bw, grad_weights=True)
    kxx, kxy, axx, axy = k_top[..., :s], k_top[..., s:], a_top[..., :s], a_top[..., s:]
    same_x = np.add.reduce(kxx, axis=(1, 2)) / pairs_x
    same_y = np.add.reduce(kyy, axis=(1, 2)) / pairs_y
    cross = np.add.reduce(kxy, axis=(1, 2)) / (n * m)
    mmd2 = same_x + same_y - 2.0 * cross
    active = np.ones(n_groups, dtype=bool) if rho is None else mmd2 - rho > 0
    value = float(np.where(active, mmd2, 0.0).sum() / n_groups)

    # W∘A per sub-block, W carrying the estimator's normalization, the group
    # average and the gate; same-set and cross-set terms stay separate so
    # that they cancel exactly when the modalities coincide
    weight = 2.0 * active / n_groups
    wxx = axx * (weight / pairs_x)[:, None, None]
    wyy = ayy * (weight / pairs_y)[:, None, None]
    wxy = axy * (weight / (n * m))[:, None, None]
    wyx = np.swapaxes(wxy, 1, 2)
    xs, ys = xb[:, :s], xb[:, s:]
    gx = (wxx @ xs - wxy @ ys) - xs * (wxx.sum(axis=2) - wxy.sum(axis=2))[..., None]
    gy = (wyy @ ys - wyx @ xs) - ys * (wyy.sum(axis=2) - wyx.sum(axis=2))[..., None]
    grad = np.empty_like(x)
    grad[rows[valid]] = np.concatenate([gx, gy], axis=1)[valid]
    return (mmd2, same_x, same_y, cross), active, value, grad


def _marginal(x, modalities, spec: KernelSpec, estimator: str):
    # one group holding every row, there even when the rows are not
    ids = np.zeros(1, dtype=np.int64)
    index = cell_index(ids.repeat(len(modalities)), modalities, ids=ids)
    return _engine(x, index, spec, estimator, owner="the batch")


def _estimate(xs, ys, spec: KernelSpec, estimator: str) -> MmdEstimate:
    xs, ys = (np.atleast_2d(np.asarray(v, dtype=np.float64)) for v in (xs, ys))
    if xs.shape[0] == 0 or ys.shape[0] == 0:
        raise ValueError("MMD requires nonempty sample sets")
    if xs.shape[1] != ys.shape[1]:
        raise ValueError(f"dimension mismatch: xs has {xs.shape[1]}, ys has {ys.shape[1]}")
    modalities = np.repeat([VISIBLE, THERMAL], [len(xs), len(ys)])
    terms, _, _, _ = _marginal(np.vstack([xs, ys]), modalities, spec, estimator)
    return MmdEstimate(*(float(t[0]) for t in terms))


def mmd2_biased(xs, ys, spec: KernelSpec) -> MmdEstimate:
    """Biased (V-statistic) MMD^2: full double sums including the diagonal."""
    return _estimate(xs, ys, spec, "biased")


def mmd2_unbiased(xs, ys, spec: KernelSpec) -> MmdEstimate:
    """Unbiased (U-statistic) MMD^2: same-set diagonals excluded. May be negative."""
    return _estimate(xs, ys, spec, "unbiased")


def loss_mmd_marginal(batch: FeatureSet, spec: KernelSpec, estimator: str = "biased") -> LossValue:
    """MMD^2 between the batch's visible and thermal features, with gradients.

    The unbiased value is the signed U-statistic, not clamped at 0.
    """
    _, _, value, grad = _marginal(batch.features, batch.modalities, spec, estimator)
    return LossValue(value, grad)


def loss_mmd_id(
    batch: FeatureSet,
    spec: KernelSpec,
    estimator: str = "biased",
    index: CellIndex | None = None,
) -> LossValue:
    """Average per-identity MMD^2 between modalities, with gradients.

    Each identity gets its own median-heuristic bandwidth; the unbiased
    average is signed, not clamped at 0. ``index`` is the batch's
    :func:`~xreid.data.cell_index`, built here when not given.
    """
    if index is None:
        index = cell_index(batch.identities, batch.modalities)
    (mmd2, _, _, _), _, value, grad = _engine(batch.features, index, spec, estimator)
    return LossValue(value, grad, index.ids, mmd2)


def loss_margin_mmd_id(
    batch: FeatureSet,
    spec: KernelSpec,
    margin: MarginConfig,
    estimator: str = "biased",
    index: CellIndex | None = None,
) -> LossValue:
    """Margin-gated class-conditional MMD loss.

    A class contributes its full MMD^2 while MMD^2 - rho > 0 and exactly
    zero (no gradient) otherwise; the loss is the class average of the
    surviving terms. At rho = 0 no class is gated, for either estimator, so
    the value, gradient and per-class MMD^2 equal :func:`loss_mmd_id`'s
    bitwise. ``active_classes`` counts the classes the gate passed.
    ``index`` is as for :func:`loss_mmd_id`.
    """
    if index is None:
        index = cell_index(batch.identities, batch.modalities)
    rho = margin.rho if margin.rho > 0 else None
    (mmd2, _, _, _), active, value, grad = _engine(batch.features, index, spec, estimator, rho)
    return LossValue(value, grad, index.ids, mmd2, int(active.sum()))


__all__ = [
    "MmdEstimate",
    "MarginConfig",
    "LossValue",
    "mmd2_biased",
    "mmd2_unbiased",
    "loss_mmd_marginal",
    "loss_mmd_id",
    "loss_margin_mmd_id",
]

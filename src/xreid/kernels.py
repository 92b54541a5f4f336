"""RBF (Gaussian) kernels, Gram matrices, and bandwidth selection.

Everything downstream (the MMD estimators and losses) is built on the single
kernel k(x, y) = exp(-||x - y||^2 / (2 sigma^2)), optionally averaged over a
mixture of bandwidth scales with uniform weights. The feature map is never
materialized; only kernel values are.

Kernels are evaluated on squared distances computed beforehand: one (N, M)
matrix, or a (C, L, L) stack of blocks with one bandwidth row per block, as
the MMD losses use. ``mixture_kernel_matrix`` can also return the weight
matrix A of the analytic feature gradient from the same evaluation.

Bandwidth is either fixed or chosen by the median heuristic (median of all
pairwise squared distances over the data at hand). The heuristic is treated
as a constant by every gradient computation in this library: no gradient
flows through bandwidth selection.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

#: Default mixture scales: five kernels spanning two octaves either side of
#: the base bandwidth, a common multi-kernel convention.
DEFAULT_MIXTURE_SCALES = (0.25, 0.5, 1.0, 2.0, 4.0)


@dataclass(frozen=True)
class KernelSpec:
    """Bandwidth strategy and mixture definition for RBF kernels.

    ``sigma_squared=None`` selects the median heuristic; a positive float
    fixes the base bandwidth. ``mixture_scales`` multiply the base bandwidth,
    with uniform mixture weights; ``(1.0,)`` reduces to a single kernel.
    """

    sigma_squared: float | None = None
    mixture_scales: tuple[float, ...] = DEFAULT_MIXTURE_SCALES

    def __post_init__(self):
        if self.sigma_squared is not None and not self.sigma_squared > 0:
            raise ValueError(f"fixed sigma_squared must be > 0, got {self.sigma_squared}")
        scales = tuple(float(s) for s in self.mixture_scales)
        if len(scales) == 0:
            raise ValueError("mixture_scales must be nonempty")
        if any(s <= 0 for s in scales):
            raise ValueError(f"mixture_scales must all be > 0, got {scales}")
        object.__setattr__(self, "mixture_scales", scales)

    @property
    def is_median_heuristic(self) -> bool:
        return self.sigma_squared is None

    def bandwidths(self, base) -> np.ndarray:
        """Per-scale bandwidths sigma_s^2 = scale_s * base, on the last axis;
        an array of bases gives one row per base."""
        return np.multiply.outer(base, self.mixture_scales)


def _as_matrix(xs, name: str) -> np.ndarray:
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim == 1:
        xs = xs[None, :]
    if xs.ndim != 2:
        raise ValueError(f"{name} must be a vector or an (N, D) matrix, got shape {xs.shape}")
    if xs.shape[0] == 0:
        raise ValueError(f"{name} is empty")
    return xs


def squared_distances(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances between rows, clipped at 0.

    Leading axes stack independent blocks: (C, N, D) and (C, M, D) inputs
    give (C, N, M) distances.
    """
    xx = np.einsum("...d,...d->...", xs, xs)[..., :, None]
    yy = np.einsum("...d,...d->...", ys, ys)[..., None, :]
    d2 = xx + yy - 2.0 * xs @ np.swapaxes(ys, -1, -2)
    return np.maximum(d2, 0.0)


def rbf_kernel(x, y, sigma_squared: float) -> float:
    """exp(-||x - y||^2 / (2 sigma^2)) for a single pair of vectors."""
    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    if x.shape != y.shape:
        raise ValueError(f"dimension mismatch: x has {x.shape[0]}, y has {y.shape[0]}")
    if not sigma_squared > 0:
        raise ValueError(f"sigma_squared must be > 0, got {sigma_squared}")
    d = x - y
    return float(np.exp(-np.dot(d, d) / (2.0 * sigma_squared)))


def median_heuristic_bandwidth(features) -> float:
    """Median of all N(N-1)/2 pairwise squared distances over the rows.

    Returns 1.0 when the median is 0 (all points identical) so that a
    collapsed batch never produces a degenerate bandwidth.
    """
    xs = _as_matrix(getattr(features, "features", features), "features")
    n = xs.shape[0]
    if n < 2:
        raise ValueError(f"median heuristic needs at least 2 vectors, got {n}")
    return float(resolve_bandwidth(KernelSpec(), squared_distances(xs, xs)[None])[0])


@lru_cache(maxsize=8)
def _upper_triangle(size: int) -> np.ndarray:
    # flat indices of a (size, size) block's strict upper triangle; cached
    # per block size and read-only, since every caller shares the array
    upper = np.flatnonzero(~np.tri(size, dtype=bool))
    upper.flags.writeable = False
    return upper


def resolve_bandwidth(spec: KernelSpec, d2: np.ndarray) -> np.ndarray:
    """Base bandwidth of each block of a (C, L, L) squared-distance stack: the
    fixed value, or the median heuristic over the block's distinct pairs
    (upper triangle), leaving out pairs at infinite distance (padding)."""
    blocks = len(d2)
    if not spec.is_median_heuristic:
        return np.full(blocks, float(spec.sigma_squared))
    pairs = d2.reshape(blocks, -1).take(_upper_triangle(d2.shape[-1]), axis=1)
    count = np.isfinite(pairs).sum(axis=1)
    lo, hi = (count - 1) // 2, count // 2
    pairs = np.partition(pairs, np.concatenate([lo, hi]), axis=1)
    med = 0.5 * (pairs[np.arange(blocks), lo] + pairs[np.arange(blocks), hi])
    return np.where(med > 0, med, 1.0)


def mixture_kernel_matrix(d2: np.ndarray, bandwidths, grad_weights: bool = False):
    """Uniform mixture of RBF kernels over precomputed squared distances.

    ``bandwidths`` holds sigma_s^2 on its last axis: shape (S,) for one
    matrix, (C, S) for a (C, N, M) stack. With ``grad_weights`` the result
    is ``(K, A)``, where A = (1/S) sum_s K_s / sigma_s^2 is the weight of the
    analytic gradient d k(x, y) / dx = A (y - x).
    """
    s2 = np.asarray(bandwidths, dtype=np.float64)[..., None, None]
    # -d2 / (2 s2) == (-0.5 d2) / s2 exactly, since halving is exact
    per_scale = np.expand_dims(d2 * -0.5, -3) / s2
    np.exp(per_scale, out=per_scale)
    k = np.add.reduce(per_scale, axis=-3) / s2.shape[-3]
    if not grad_weights:
        return k
    per_scale /= s2
    return k, np.add.reduce(per_scale, axis=-3) / s2.shape[-3]


def gram(xs, ys, spec: KernelSpec) -> np.ndarray:
    """(N, M) Gram matrix of the kernel mixture between two sets of vectors.

    Under the median heuristic the base bandwidth is computed once from the
    union of ``xs`` and ``ys`` for this call.
    """
    xs = _as_matrix(xs, "xs")
    ys = _as_matrix(ys, "ys")
    if xs.shape[1] != ys.shape[1]:
        raise ValueError(f"dimension mismatch: xs has {xs.shape[1]}, ys has {ys.shape[1]}")
    if spec.is_median_heuristic:
        base = median_heuristic_bandwidth(np.vstack([xs, ys]))
    else:
        base = spec.sigma_squared
    return mixture_kernel_matrix(squared_distances(xs, ys), spec.bandwidths(base))


__all__ = [
    "DEFAULT_MIXTURE_SCALES",
    "KernelSpec",
    "rbf_kernel",
    "median_heuristic_bandwidth",
    "resolve_bandwidth",
    "squared_distances",
    "mixture_kernel_matrix",
    "gram",
]

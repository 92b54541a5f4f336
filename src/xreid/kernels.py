"""RBF (Gaussian) kernel mixtures on squared distances, and bandwidth selection.

Everything downstream (the MMD estimators and losses) is built on the single
kernel k(x, y) = exp(-||x - y||^2 / (2 sigma^2)), averaged over a mixture of
bandwidth scales with uniform weights. The feature map is never
materialized; only kernel values are.

The module holds ``KernelSpec`` (bandwidth strategy and mixture scales) and
the three primitives the MMD engine calls in turn:

* ``squared_distances``: one (N, M) matrix, or a (C, L, L) stack of blocks;
* ``resolve_bandwidth``: each block's base bandwidth, fixed or by the median
  heuristic (median of the block's distinct pairwise squared distances);
* ``mixture_kernel_matrix``: the kernel mixture over those distances, and
  the weight matrix A of the analytic feature gradient from the same
  evaluation. It runs one scale at a time, adding each scale's kernel
  (and gradient weight) into K (and A) in scale order, so only one scale's
  values exist at once.

The median heuristic is treated as a constant by every gradient computation
in this library: no gradient flows through bandwidth selection.
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
        if not all(s > 0 for s in scales):
            raise ValueError(f"mixture_scales must all be > 0, got {scales}")
        object.__setattr__(self, "mixture_scales", scales)

    @property
    def is_median_heuristic(self) -> bool:
        return self.sigma_squared is None

    def bandwidths(self, base) -> np.ndarray:
        """Per-scale bandwidths sigma_s^2 = scale_s * base, on the last axis;
        an array of bases gives one row per base."""
        return np.multiply.outer(base, self.mixture_scales)


def squared_distances(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances between rows, clipped at 0.

    Leading axes stack independent blocks: (C, N, D) and (C, M, D) inputs
    give (C, N, M) distances.
    """
    xx = np.einsum("...d,...d->...", xs, xs)[..., :, None]
    yy = np.einsum("...d,...d->...", ys, ys)[..., None, :]
    d2 = xx + yy
    d2 -= 2.0 * xs @ np.swapaxes(ys, -1, -2)
    return np.maximum(d2, 0.0, out=d2)


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
    # a full sort: partition with more than one kth leaves numpy's fast
    # selection path and is slower; the order statistics are the same
    pairs.sort(axis=1)
    med = 0.5 * (pairs[np.arange(blocks), lo] + pairs[np.arange(blocks), hi])
    return np.where(med > 0, med, 1.0)


def mixture_kernel_matrix(d2: np.ndarray, bandwidths) -> tuple[np.ndarray, np.ndarray]:
    """Uniform mixture of RBF kernels over precomputed squared distances.

    ``bandwidths`` holds sigma_s^2 on its last axis: shape (S,) for one
    matrix, (C, S) for a (C, N, M) stack. The result is ``(K, A)``, where
    A = (1/S) sum_s K_s / sigma_s^2 is the weight of the analytic gradient
    d k(x, y) / dx = A (y - x).
    """
    s2 = np.asarray(bandwidths, dtype=np.float64)[..., None, None]
    scales = s2.shape[-3]
    # -d2 / (2 s2) == (-0.5 d2) / s2 exactly, since halving is exact
    half = d2 * -0.5
    # one scale at a time, added in scale order (0.0 + K_0 is K_0 exactly)
    k = a = 0.0
    scaled = None
    for i in range(scales):
        s2_s = s2[..., i, :, :]
        scaled = np.divide(half, s2_s, out=scaled)
        np.exp(scaled, out=scaled)
        k += scaled
        scaled /= s2_s
        a += scaled
    k /= scales
    a /= scales
    return k, a


__all__ = [
    "DEFAULT_MIXTURE_SCALES",
    "KernelSpec",
    "resolve_bandwidth",
    "squared_distances",
    "mixture_kernel_matrix",
]

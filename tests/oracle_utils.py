"""Independent oracles for the test suite.

Everything here is deliberately naive (scalar loops, math.exp) and shares no
code with the library implementations it checks.
"""

import math

import numpy as np

from xreid.data import FeatureSet, THERMAL, VISIBLE


def kernel_oracle(x, y, sigma2s):
    """Mixture RBF kernel of two vectors, scalar arithmetic only."""
    d2 = sum((float(a) - float(b)) ** 2 for a, b in zip(x, y))
    return sum(math.exp(-d2 / (2.0 * s2)) for s2 in sigma2s) / len(sigma2s)


def mmd2_oracle(xs, ys, sigma2s, unbiased=False):
    """Double-loop MMD^2 estimate."""
    n, m = len(xs), len(ys)
    same_x = same_y = cross = 0.0
    for i in range(n):
        for j in range(n):
            if unbiased and i == j:
                continue
            same_x += kernel_oracle(xs[i], xs[j], sigma2s)
    for i in range(m):
        for j in range(m):
            if unbiased and i == j:
                continue
            same_y += kernel_oracle(ys[i], ys[j], sigma2s)
    for i in range(n):
        for j in range(m):
            cross += kernel_oracle(xs[i], ys[j], sigma2s)
    if unbiased:
        same_x /= n * (n - 1)
        same_y /= m * (m - 1)
    else:
        same_x /= n * n
        same_y /= m * m
    cross /= n * m
    return same_x + same_y - 2.0 * cross


def median_bandwidth_oracle(rows):
    """Median of all pairwise squared distances by scalar loops; 1.0 if 0."""
    rows = [[float(v) for v in r] for r in rows]
    d2 = sorted(
        sum((a - b) ** 2 for a, b in zip(rows[i], rows[j]))
        for i in range(len(rows))
        for j in range(i + 1, len(rows))
    )
    mid = len(d2) // 2
    med = d2[mid] if len(d2) % 2 else 0.5 * (d2[mid - 1] + d2[mid])
    return med if med > 0 else 1.0


def fd_gradient(f, x, eps=1e-5):
    """Central finite differences of scalar f over array x (modified in place)."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat, gflat = x.reshape(-1), grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        up = f()
        flat[i] = orig - eps
        down = f()
        flat[i] = orig
        gflat[i] = (up - down) / (2.0 * eps)
    return grad


def rel_error(a, b):
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)
    return np.linalg.norm(a - b) / denom


def random_two_modality_batch(rng, n_classes=2, per_cell=(1, 4), dim=3, scale=1.0):
    """FeatureSet with every identity present in both modalities."""
    feats, ids, mods = [], [], []
    for c in range(n_classes):
        center = scale * rng.standard_normal(dim)
        for modality in (VISIBLE, THERMAL):
            k = int(rng.integers(per_cell[0], per_cell[1] + 1))
            for _ in range(k):
                feats.append(center + rng.standard_normal(dim))
                ids.append(c)
                mods.append(modality)
    return FeatureSet(np.array(feats), np.array(ids), np.array(mods))


def cmc_map_oracle(similarities, query_ids, gallery_ids):
    """Brute-force CMC/mAP: explicit stable sort and precision-at-hit."""
    n_q, n_g = similarities.shape
    cmc = np.zeros(n_g)
    aps = []
    for q in range(n_q):
        # stable descending order by similarity, ties by gallery index
        order = sorted(range(n_g), key=lambda j: (-similarities[q, j], j))
        hits = [pos for pos, j in enumerate(order) if gallery_ids[j] == query_ids[q]]
        assert hits, "oracle: query identity missing from gallery"
        cmc[hits[0]:] += 1.0
        precisions = [(h + 1) / (pos + 1) for h, pos in enumerate(hits)]
        aps.append(sum(precisions) / len(precisions))
    return cmc / n_q, np.array(aps)


def softmax_ce_oracle(logits, labels):
    """Log-sum-exp cross entropy, scalar arithmetic."""
    total = 0.0
    for row, label in zip(logits, labels):
        mx = max(row)
        lse = mx + math.log(sum(math.exp(v - mx) for v in row))
        total += lse - row[label]
    return total / len(labels)

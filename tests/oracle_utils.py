"""Independent oracles for the test suite.

Everything here is deliberately naive (scalar loops, math.exp, per-cell and
per-array loops) and shares no code with the library implementations it
checks.
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


def gem_pool(channel_values, p: float) -> float:
    """Generalized power mean ((1/H) sum x^p)^(1/p) of nonnegative values."""
    x = np.asarray(channel_values, dtype=np.float64).ravel()
    if x.size == 0:
        raise ValueError("gem_pool needs at least one value")
    if np.any(x < 0):
        raise ValueError(f"gem_pool inputs must be nonnegative, got min {x.min()}")
    if p < 1:
        raise ValueError(f"gem power must be >= 1, got {p}")
    return float(np.mean(x ** p) ** (1.0 / p))


def sample_batch_reference(dataset, spec, rng):
    """PK sampler that scans the whole dataset for every cell's pool."""
    ids = np.unique(dataset.identities)
    if len(ids) < spec.p:
        raise ValueError(f"dataset has {len(ids)} identities, batch needs P={spec.p}")
    chosen = rng.choice(ids, size=spec.p, replace=False)
    picks = []
    for identity in chosen:
        for modality in (VISIBLE, THERMAL):
            pool = np.where((dataset.identities == identity) & (dataset.modalities == modality))[0]
            if len(pool) == 0:
                raise ValueError(f"identity {identity} has no samples of modality {modality}")
            replace = len(pool) < spec.k
            picks.append(rng.choice(pool, size=spec.k, replace=replace))
    return dataset.select(np.concatenate(picks))


def hetero_centers_reference(batch):
    """Per-identity visible and thermal centroids, one masked mean per cell."""
    ids = np.unique(batch.identities)
    dim = batch.features.shape[1]
    cv = np.empty((len(ids), dim))
    ct = np.empty((len(ids), dim))
    for i, c in enumerate(ids):
        for modality, out in ((VISIBLE, cv), (THERMAL, ct)):
            rows = batch.features[(batch.identities == c) & (batch.modalities == modality)]
            if len(rows) == 0:
                name = "visible" if modality == VISIBLE else "thermal"
                raise ValueError(f"identity {c} has no {name} samples")
            out[i] = rows.mean(axis=0)
    return ids, cv, ct


def _unit(diff, dist):
    return diff / dist if dist > 0 else np.zeros_like(diff)


def loss_hc_tri_reference(batch, margin):
    """Hetero-center triplet loss with one gradient update per active anchor."""
    ids, cv, ct = hetero_centers_reference(batch)
    p = len(ids)
    if p < 2:
        raise ValueError(f"hc-tri needs >= 2 identities in the batch, got {p}")
    d_pos = np.linalg.norm(cv - ct, axis=1)
    anchors = np.vstack([cv, ct])
    cand = np.empty((2 * p, cv.shape[1]))
    cand[0::2] = cv
    cand[1::2] = ct
    diff = anchors[:, None, :] - cand[None, :, :]
    d = np.sqrt((diff * diff).sum(axis=2))
    anchor_identity = np.concatenate([np.arange(p), np.arange(p)])
    cand_identity = np.repeat(np.arange(p), 2)
    d_masked = np.where(cand_identity[None, :] != anchor_identity[:, None], d, np.inf)
    neg_idx = np.argmin(d_masked, axis=1)
    d_neg = d_masked[np.arange(2 * p), neg_idx]
    terms = margin + np.concatenate([d_pos, d_pos]) - d_neg
    loss = float(terms[terms > 0].sum())

    grad_cv = np.zeros_like(cv)
    grad_ct = np.zeros_like(ct)
    for a in np.where(terms > 0)[0]:
        i = int(a % p)
        u = _unit(cv[i] - ct[i], float(d_pos[i]))
        grad_cv[i] += u
        grad_ct[i] -= u
        k = int(neg_idx[a])
        j, cand_grad = k // 2, grad_cv if k % 2 == 0 else grad_ct
        anchor_grad = grad_cv if a < p else grad_ct
        w = _unit(anchors[a] - cand[k], float(d_neg[a]))
        anchor_grad[i] -= w
        cand_grad[j] += w

    grad = np.zeros_like(batch.features)
    for i, c in enumerate(ids):
        for modality, grad_center in ((VISIBLE, grad_cv), (THERMAL, grad_ct)):
            rows = np.where((batch.identities == c) & (batch.modalities == modality))[0]
            grad[rows] = grad_center[i] / len(rows)
    return loss, grad


def sgd_step_reference(arrays, trainable, grads, velocity, hyper, lr, gem_p_learnable):
    """Momentum SGD over a name -> array dict, one array at a time.

    Updates ``arrays`` and ``velocity`` (name -> array dicts) in place.
    """
    for name in trainable:
        g = np.asarray(grads[name], dtype=np.float64)
        if not np.all(np.isfinite(g)):
            bad = int(np.size(g) - np.isfinite(g).sum())
            raise FloatingPointError(
                f"non-finite gradient in {name!r}: {bad} of {np.size(g)} entries"
            )
        arr = arrays[name]
        decay = 0.0 if name in ("bn.gamma", "bn.beta", "gem_p") else hyper.weight_decay
        step = g + decay * arr
        v = velocity.setdefault(name, np.zeros_like(arr))
        v *= hyper.momentum
        v += step
        arr -= lr * v
    if gem_p_learnable and arrays["gem_p"] < 1.0:
        arrays["gem_p"][...] = 1.0

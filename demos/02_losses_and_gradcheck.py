"""Total objective anatomy plus a finite-difference audit of its gradients.

Run: python demos/02_losses_and_gradcheck.py
"""

import numpy as np

from xreid import (
    FeatureSet,
    HcTriConfig,
    KernelSpec,
    LossWeights,
    MarginConfig,
    hetero_centers,
    loss_hc_tri,
    loss_id,
    loss_total,
)
from xreid.data import THERMAL, VISIBLE

rng = np.random.default_rng(7)

# a small batch: 3 identities, 2 samples per modality, visible/thermal offset
# (identities close enough that some triplet hinges stay active)
feats, ids, mods = [], [], []
for c in range(3):
    center = 1.5 * rng.standard_normal(4)
    shift = 2.0 * rng.standard_normal(4)
    for modality, off in ((VISIBLE, 0.0), (THERMAL, shift)):
        for _ in range(2):
            feats.append(center + off + 0.3 * rng.standard_normal(4))
            ids.append(c)
            mods.append(modality)
batch = FeatureSet(np.array(feats), np.array(ids), np.array(mods))
logits = rng.standard_normal((len(batch), 3))

print("== Identity cross-entropy ==")
value = loss_id(np.zeros((4, 3)), np.array([0, 1, 2, 0])).value
print(f"uniform logits over 3 classes -> ln(3) = {value:.6f}")

print("\n== Hetero-center triplet loss ==")
ids_sorted, cv, ct = hetero_centers(batch)
print("cross-modal center distances per identity:",
      np.round(np.linalg.norm(cv - ct, axis=1), 3))
res = loss_hc_tri(batch, HcTriConfig(0.3))
print(f"loss = {res.value:.6f}; gradient norm per feature: {np.round(np.linalg.norm(res.grad, axis=1), 3)}")

print("\n== Weighted total and ablations ==")
kw = dict(kernel_spec=KernelSpec(sigma_squared=2.0, mixture_scales=(0.5, 1.0)),
          margin=MarginConfig(0.0), hctri=HcTriConfig(0.3))
for name, weights in (
    ("identity only     ", LossWeights(1.0, 0.0, 0.0)),
    ("+ margin MMD      ", LossWeights(1.0, 0.25, 0.0)),
    ("+ hc-tri (default)", LossWeights(1.0, 0.25, 2.0)),
):
    bundle = loss_total(batch, logits, batch.identities, weights=weights, **kw)
    print(f"{name}: total={bundle.total:8.4f}  (id={bundle.id_term:.4f} "
          f"mmd={bundle.margin_mmd_term:.4f} hctri={bundle.hctri_term:.4f})")

print("\n== Central-difference audit of the feature gradient ==")
weights = LossWeights(1.0, 0.25, 2.0)
bundle = loss_total(batch, logits, batch.identities, weights=weights, **kw)
eps = 1e-5
fd = np.zeros_like(batch.features)
flat, fdflat = batch.features.reshape(-1), fd.reshape(-1)
for i in range(flat.size):
    orig = flat[i]
    flat[i] = orig + eps
    up = loss_total(batch, logits, batch.identities, weights=weights, **kw).total
    flat[i] = orig - eps
    down = loss_total(batch, logits, batch.identities, weights=weights, **kw).total
    flat[i] = orig
    fdflat[i] = (up - down) / (2 * eps)
err = np.linalg.norm(bundle.grad_pooled - fd) / np.linalg.norm(fd)
print(f"relative error between analytic and finite-difference gradients: {err:.2e}")

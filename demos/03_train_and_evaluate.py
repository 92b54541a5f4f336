"""End-to-end miniature experiment: generate data, train, evaluate retrieval.

Uses a reduced copy of the default config so it finishes in well under a
minute. For full runs use the CLI:

    xreid generate --set output.dir=runs/demo
    xreid train    --set output.dir=runs/demo
    xreid eval     --set output.dir=runs/demo

Run: python demos/03_train_and_evaluate.py
"""

import numpy as np

from xreid import ExperimentConfig, seeds
from xreid.data import THERMAL, generate
from xreid.encoder import encode_dataset
from xreid.evaluation import evaluate, similarity_stats
from xreid.training import run_training

cfg = ExperimentConfig.defaults()
cfg.values.update({
    "data.num_identities": 20,
    "data.samples_per_identity": 10,
    "train.epochs": 20,
    "eval.trials": 10,
})

train_set, test_set = generate(cfg.synthetic_spec(), seeds.stream(cfg.seed, "data"))
print(f"train: {len(train_set)} samples / {len(np.unique(train_set.identities))} identities; "
      f"test: {len(test_set)} samples / {len(np.unique(test_set.identities))} identities")

params, stats = run_training(cfg, train_set)
print("\nepoch  total     id      mmd    hc-tri  active  mean-MMD^2")
for s in stats[:: max(1, len(stats) // 6)]:
    print(f"{s.epoch:5d}  {s.loss_total:7.3f} {s.loss_id:7.3f} {s.loss_mmd:7.3f} "
          f"{s.loss_hctri:7.3f}  {s.active_classes:5.2f}  {s.mean_class_mmd2:8.3f}")

feats = encode_dataset(params, test_set, features=cfg["eval.features"])
query = feats.select(feats.modalities == THERMAL)
gallery = feats.select(feats.modalities != THERMAL)
report = evaluate(query, gallery, trials=cfg["eval.trials"],
                  rng=seeds.stream(cfg.seed, "gallery-trials"))
print(f"\nretrieval over {report.trials} single-shot gallery trials:")
print(f"  rank-1 {report.rank(1):.3f}   rank-5 {report.rank(5):.3f}   mAP {report.map:.3f}")

sim = similarity_stats(feats)
print(f"centroid cosine similarities: intra {sim.intra_mean:.3f} +- {sim.intra_std:.3f}, "
      f"inter {sim.inter_mean:.3f} +- {sim.inter_std:.3f}")
print("a healthy run separates the intra distribution above the inter one.")

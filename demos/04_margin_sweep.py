"""Margin sensitivity at reduced scale: train + eval across a grid of rho.

The equivalent CLI run (full scale, writes sweep.csv):

    xreid sweep-margin --rhos 0.8,1.0,1.2,1.4,1.6,1.8 --set output.dir=runs/sweep

Run: python demos/04_margin_sweep.py
"""

from xreid import ExperimentConfig, seeds
from xreid.data import THERMAL, generate
from xreid.evaluation import evaluate
from xreid.training import encode_dataset, run_training

cfg = ExperimentConfig.defaults()
cfg.values.update({
    "data.num_identities": 20,
    "data.samples_per_identity": 10,
    "train.epochs": 15,
})

train_set, test_set = generate(cfg.synthetic_spec(), seeds.stream(cfg.seed, "data"))

print("rho    rank1    mAP")
for rho in (0.8, 1.0, 1.2, 1.4, 1.6, 1.8):
    cfg.values["mmd.margin_rho"] = rho
    params, _ = run_training(cfg, train_set)
    feats = encode_dataset(params, test_set)
    query = feats.select(feats.modalities == THERMAL)
    gallery = feats.select(feats.modalities != THERMAL)
    report = evaluate(query, gallery, trials=cfg["eval.trials"],
                      rng=seeds.stream(cfg.seed, "gallery-trials"))
    print(f"{rho:.1f}  {report.rank(1):7.3f}  {report.map:6.3f}")

print("\nthe margin gates per-class alignment, so nearby margins behave alike.")

"""Acceptance suite: one test per release criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. The trend criteria (6-8) train real models on the default synthetic
data and take a few minutes combined; everything else is fast.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from oracle_utils import fd_gradient, mmd2_oracle, rel_error
from xreid import counters, seeds
from xreid.cli import cmd_eval, cmd_generate, cmd_sweep_margin, cmd_train
from xreid.config import ExperimentConfig
from xreid.data import FeatureSet, THERMAL, VISIBLE, generate
from xreid.encoder import EncoderShape, backward, forward, init_params
from xreid.evaluation import cmc_map, evaluate, similarity_stats
from xreid.kernels import KernelSpec
from xreid.losses import HcTriConfig, LossWeights, hetero_centers, loss_hc_tri, loss_id, loss_total
from xreid.mmd import (
    MarginConfig,
    loss_margin_mmd_id,
    loss_mmd_id,
    loss_mmd_marginal,
    mmd2_biased,
    mmd2_unbiased,
)
from oracle_utils import cmc_map_oracle


def report(criterion: str, detail: str = ""):
    print(f"\nACCEPTANCE {criterion}: PASS {detail}")


def _near_hinge_kink(batch, cfg, tol=1e-3):
    """True when any hinge term or negative-mining gap sits within tol of a
    non-differentiable point (the gradient criterion excludes those)."""
    _, cv, ct = hetero_centers(batch)
    p = len(cv)
    for i in range(p):
        d_pos = np.linalg.norm(cv[i] - ct[i])
        for anchor in (cv[i], ct[i]):
            cands = sorted(
                np.linalg.norm(anchor - cand[j])
                for j in range(p)
                if j != i
                for cand in (cv, ct)
            )
            if abs(cfg.margin_rho1 + d_pos - cands[0]) < tol or cands[1] - cands[0] < tol:
                return True
    return False


def random_batch(rng, n_classes, per_cell_max, dim, gap=2.0):
    feats, ids, mods = [], [], []
    for c in range(n_classes):
        center = 3.0 * rng.standard_normal(dim)
        shift = gap * rng.standard_normal(dim)
        for modality, off in ((VISIBLE, 0.0), (THERMAL, shift)):
            for _ in range(int(rng.integers(2, per_cell_max + 1))):
                feats.append(center + off + 0.5 * rng.standard_normal(dim))
                ids.append(c)
                mods.append(modality)
    return FeatureSet(np.array(feats), np.array(ids), np.array(mods))


def test_criterion_1_mmd_oracle_suite():
    """MMD estimators match naive double-loop oracles on 200+ random batches."""
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    checked = 0
    for _ in range(100):
        n, m = int(rng.integers(2, 11)), int(rng.integers(2, 11))
        dim = int(rng.integers(1, 6))
        xs = 2.0 * rng.standard_normal((n, dim))
        ys = 2.0 * rng.standard_normal((m, dim)) + rng.standard_normal(dim)
        base = float(rng.uniform(0.5, 4.0))
        scales = (0.5, 1.0, 2.0)
        spec = KernelSpec(sigma_squared=base, mixture_scales=scales)
        sigma2s = [s * base for s in scales]
        for unbiased in (False, True):
            est = (mmd2_unbiased if unbiased else mmd2_biased)(xs, ys, spec)
            expected = mmd2_oracle(xs, ys, sigma2s, unbiased=unbiased)
            assert abs(est.value - expected) < 1e-10
            checked += 1
    two_point = mmd2_biased(
        np.array([[0.0]]), np.array([[2.0]]), KernelSpec(sigma_squared=2.0, mixture_scales=(1.0,))
    )
    assert abs(two_point.value - (2.0 - 2.0 * np.exp(-1.0))) < 1e-12
    elapsed = time.perf_counter() - start
    assert checked >= 200
    assert elapsed < 10.0
    report("1", f"({checked} oracle comparisons, closed form to 1e-12, {elapsed:.1f}s < 10s)")


def test_criterion_2_gradient_suite():
    """Analytic gradients match central differences at relative 1e-4."""
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    spec = KernelSpec(sigma_squared=2.0, mixture_scales=(0.5, 1.0))
    checks = 0

    for _ in range(12):
        batch = random_batch(rng, int(rng.integers(2, 4)), 3, int(rng.integers(2, 4)))
        res = loss_mmd_marginal(batch, spec)
        fd = fd_gradient(lambda: loss_mmd_marginal(batch, spec).value, batch.features)
        assert rel_error(res.grad, fd) < 1e-4
        checks += 1

    for _ in range(12):
        batch = random_batch(rng, int(rng.integers(2, 4)), 3, 2)
        res = loss_mmd_id(batch, spec)
        fd = fd_gradient(lambda: loss_mmd_id(batch, spec).value, batch.features)
        assert rel_error(res.grad, fd) < 1e-4
        checks += 1

    gated_seen = 0
    for trial in range(12):
        # one aligned class per batch sits inside the margin: exact zero grads
        aligned = rng.standard_normal((3, 2))
        far = rng.standard_normal((3, 2))
        batch = FeatureSet(
            np.vstack([far, far + 8.0, aligned, aligned]),
            np.array([0] * 6 + [1] * 6),
            np.array([VISIBLE] * 3 + [THERMAL] * 3 + [VISIBLE] * 3 + [THERMAL] * 3),
        )
        margin = MarginConfig(0.5)
        res = loss_margin_mmd_id(batch, spec, margin)
        if res.active_classes < 2:
            assert np.all(res.grad[6:] == 0.0)
            gated_seen += 1
        fd = fd_gradient(lambda: loss_margin_mmd_id(batch, spec, margin).value, batch.features)
        assert rel_error(res.grad, fd) < 1e-4
        checks += 1
    assert gated_seen == 12

    hctri_checked = 0
    for _ in range(16):
        batch = random_batch(rng, 3, 3, 3)
        cfg = HcTriConfig(0.3)
        value, grad = loss_hc_tri(batch, cfg)
        if value == 0.0 or _near_hinge_kink(batch, cfg):
            continue
        fd = fd_gradient(lambda: loss_hc_tri(batch, cfg)[0], batch.features)
        assert rel_error(grad, fd) < 1e-4
        checks += 1
        hctri_checked += 1
    assert hctri_checked >= 5

    for _ in range(8):
        logits = rng.standard_normal((6, 4))
        labels = rng.integers(0, 4, 6)
        _, grad = loss_id(logits, labels)
        fd = fd_gradient(lambda: loss_id(logits, labels)[0], logits)
        assert rel_error(grad, fd) < 1e-4
        checks += 1

    # full encoder pipeline, all three losses, every parameter
    for trial in range(6):
        shape = EncoderShape(descriptor_dim=3, num_classes=3, specific_widths=(4, 5),
                             shared_widths=(5, 4))
        params = init_params(shape, rng)
        for stack in (params.specific_visible, params.specific_thermal, params.shared):
            for _, b in stack:
                b += 0.1 * rng.standard_normal(b.shape)
        descriptors = rng.standard_normal((8, 2, 3))
        modalities = np.tile([VISIBLE, THERMAL], 4)
        identities = np.repeat([0, 1], 4)

        def total():
            out = forward(params, descriptors, modalities, train=True)
            fs = FeatureSet(out.pooled, identities, modalities)
            bundle = loss_total(
                fs, out.logits, identities, kernel_spec=spec, margin=MarginConfig(0.0),
                hctri=HcTriConfig(0.3), weights=LossWeights(1.0, 0.25, 2.0),
            )
            return bundle, out

        bundle, out = total()
        grads = backward(out.tape, bundle.grad_pooled, bundle.grad_logits)
        for name, arr in params.named_arrays():
            if name.startswith("bn.running") or name == "gem_p":
                continue
            fd = fd_gradient(lambda: total()[0].total, arr)
            assert rel_error(grads[name], fd) < 1e-4, name
        checks += 1

    # zero-weighted terms contribute exactly zero gradient
    batch = random_batch(rng, 3, 3, 3)
    logits = rng.standard_normal((len(batch), 3))
    bundle = loss_total(
        batch, logits, batch.identities, kernel_spec=spec, margin=MarginConfig(0.0),
        hctri=HcTriConfig(0.3), weights=LossWeights(1.0, 0.0, 0.0),
    )
    assert np.all(bundle.grad_pooled == 0.0)

    elapsed = time.perf_counter() - start
    assert checks >= 50
    assert elapsed < 120.0
    report("2", f"({checks} gradient configurations, {elapsed:.1f}s < 120s)")


def test_criterion_3_margin_gate():
    """Hard gate at the documented margin values, bitwise rho=0 equivalence."""
    spec = KernelSpec(sigma_squared=2.0, mixture_scales=(1.0,))
    batch = FeatureSet(np.array([[0.0], [2.0]]), np.array([0, 0]), np.array([VISIBLE, THERMAL]))
    value = 2.0 - 2.0 * np.exp(-1.0)
    assert abs(value - 1.2642411176571153) < 1e-12

    gated = loss_margin_mmd_id(batch, spec, MarginConfig(1.4))
    assert gated.value == 0.0 and np.all(gated.grad == 0.0) and gated.active_classes == 0

    passed = loss_margin_mmd_id(batch, spec, MarginConfig(1.0))
    assert abs(passed.value - value) < 1e-12 and passed.active_classes == 1

    rng = np.random.default_rng(303)
    rand = random_batch(rng, 3, 3, 3)
    zero_margin = loss_margin_mmd_id(rand, spec, MarginConfig(0.0))
    plain = loss_mmd_id(rand, spec)
    assert zero_margin.value == plain.value
    assert np.array_equal(zero_margin.grad, plain.grad)
    report("3", "(gate closed at rho=1.4, open at rho=1.0, rho=0 bitwise equal)")


@pytest.mark.parametrize("p,k", [(4, 4), (2, 3), (8, 2)])
def test_criterion_4_cost_accounting(p, k):
    """Pair counters reproduce the documented per-batch computation counts."""
    rng = np.random.default_rng(404)
    feats, ids, mods = [], [], []
    for c in range(p):
        for m in (VISIBLE, THERMAL):
            for _ in range(k):
                feats.append(rng.standard_normal(3) + 4.0 * c)
                ids.append(c)
                mods.append(m)
    batch = FeatureSet(np.array(feats), np.array(ids), np.array(mods))

    counters.kernel_pairs.reset()
    loss_margin_mmd_id(batch, KernelSpec(sigma_squared=1.0, mixture_scales=(1.0,)),
                       MarginConfig(0.0), estimator="unbiased")
    assert counters.kernel_pairs.count == p * k * (2 * k - 1)

    counters.center_distances.reset()
    loss_hc_tri(batch, HcTriConfig(0.3))
    assert counters.center_distances.count == p + 2 * p * 2 * (p - 1)
    report("4", f"(P={p}, K={k}: PK(2K-1)={p*k*(2*k-1)} kernel pairs, "
                f"P+4P(P-1)={p + 4*p*(p-1)} center distances)")


def test_criterion_5_retrieval_oracle():
    """Evaluator matches brute force exactly; hand case and chance level hold."""
    rng = np.random.default_rng(505)
    for _ in range(40):
        n_g = int(rng.integers(2, 21))
        n_q = int(rng.integers(1, 21))
        g_ids = rng.integers(0, max(1, n_g // 2), size=n_g)
        q_ids = g_ids[rng.integers(0, n_g, size=n_q)]
        sims = rng.standard_normal((n_q, n_g))
        cmc, ap = cmc_map(sims, q_ids, g_ids)
        o_cmc, o_ap = cmc_map_oracle(sims, q_ids, g_ids)
        assert np.array_equal(cmc, o_cmc) and np.array_equal(ap, o_ap)

    sims = np.array([
        [5.0, 1.0, 1.0, 1.0, 1.0],
        [9.0, 5.0, 1.0, 1.0, 1.0],
        [9.0, 8.0, 7.0, 5.0, 1.0],
    ])
    _, ap = cmc_map(sims, np.array([0, 1, 3]), np.arange(5))
    assert abs(ap.mean() - (1.0 + 0.5 + 0.25) / 3.0) < 1e-12

    g = 10
    queries = 2000
    gallery = FeatureSet(rng.standard_normal((g, 8)), np.arange(g), np.full(g, VISIBLE))
    query = FeatureSet(rng.standard_normal((queries, 8)), rng.integers(0, g, queries),
                       np.full(queries, THERMAL))
    rep = evaluate(query, gallery, trials=1, seed=3)
    expected_map = sum(1.0 / r for r in range(1, g + 1)) / g
    var_bound = sum(1.0 / r**2 for r in range(1, g + 1)) / g
    assert abs(rep.map - expected_map) <= 3 * np.sqrt(var_bound / queries)
    report("5", f"(exact oracle match <= size 20, hand mAP 7/12, chance mAP "
                f"{rep.map:.4f} vs {expected_map:.4f})")


ABLATIONS = {
    "ce": {"loss.lambda_margin_mmd": 0.0, "loss.lambda_hctri": 0.0, "mmd.variant": "none"},
    "ce_hctri": {"loss.lambda_margin_mmd": 0.0, "mmd.variant": "none"},
    "full": {},
    "ce_margin": {"loss.lambda_hctri": 0.0},
    "ce_marginal": {"loss.lambda_hctri": 0.0, "mmd.variant": "marginal"},
}
TREND_SEEDS = (0, 1, 2)


def _read_separation(report_path) -> float:
    lines = Path(report_path).read_text().splitlines()
    assert lines[-2] == "intra_mean,intra_std,inter_mean,inter_std"
    intra_mean, _, inter_mean, _ = (float(v) for v in lines[-1].split(","))
    return intra_mean - inter_mean


@pytest.fixture(scope="module")
def ablation_runs(tmp_path_factory):
    """Paired train+eval runs per (seed, ablation) on shared per-seed data."""
    root = tmp_path_factory.mktemp("trends")
    start = time.perf_counter()
    results = {}
    for seed in TREND_SEEDS:
        data_cfg = ExperimentConfig.defaults()
        data_cfg.values["seed"] = seed
        data_cfg.values["output.dir"] = str(root / f"seed{seed}")
        data_dir = cmd_generate(data_cfg)
        for name, overrides in ABLATIONS.items():
            cfg = ExperimentConfig.defaults()
            cfg.values["seed"] = seed
            cfg.values["output.dir"] = str(root / f"seed{seed}" / name)
            cfg.values.update(overrides)
            cmd_train(cfg, data_dir=data_dir)
            report = cmd_eval(cfg, data_dir=data_dir)
            sep = _read_separation(Path(cfg.output_dir) / "eval" / "report.csv")
            results[(seed, name)] = (report.rank(1), sep)
    results["elapsed"] = time.perf_counter() - start
    return results


@pytest.mark.slow
def test_criterion_6_ablation_trends(ablation_runs):
    """Loss-component orderings on the default synthetic data, 3-seed means."""
    mean_rank1 = {
        name: np.mean([ablation_runs[(s, name)][0] for s in TREND_SEEDS])
        for name in ABLATIONS
    }
    gaps = {
        "full > ce_hctri": mean_rank1["full"] - mean_rank1["ce_hctri"],
        "ce_hctri > ce": mean_rank1["ce_hctri"] - mean_rank1["ce"],
        "ce_margin > ce_marginal": mean_rank1["ce_margin"] - mean_rank1["ce_marginal"],
    }
    for name, gap in gaps.items():
        assert gap >= 0.02, f"{name}: gap {gap:+.3f} < 2 points ({mean_rank1})"
    assert ablation_runs["elapsed"] < 15 * 60
    detail = " ".join(f"{k}:{v:.3f}" for k, v in mean_rank1.items())
    report("6", f"({detail}; gaps "
                + " ".join(f"{k.split(' ')[0]}+{100*v:.1f}pt" for k, v in gaps.items())
                + f"; {ablation_runs['elapsed']:.0f}s < 900s)")


@pytest.mark.slow
def test_criterion_7_similarity_separation(ablation_runs):
    """Centroid-similarity separation: full model beats the CE+HC-Tri baseline."""
    seed = TREND_SEEDS[0]
    full_sep = ablation_runs[(seed, "full")][1]
    base_sep = ablation_runs[(seed, "ce_hctri")][1]
    assert full_sep > base_sep
    report("7", f"(intra-inter separation {full_sep:.3f} > {base_sep:.3f} on seed {seed})")


@pytest.mark.slow
def test_criterion_8_margin_sweep_stability(tmp_path):
    """Rank-1 varies by < 10 points across the documented margin grid."""
    cfg = ExperimentConfig.defaults()
    cfg.values["output.dir"] = str(tmp_path / "sweep")
    rows = cmd_sweep_margin(cfg, [0.8, 1.0, 1.2, 1.4, 1.6, 1.8])
    assert len(rows) == 6
    table = (Path(cfg.output_dir) / "sweep" / "sweep.csv").read_text().splitlines()
    assert table[0] == "rho,rank1,mAP"
    assert len(table) == 7
    rank1s = [r[1] for r in rows]
    spread = max(rank1s) - min(rank1s)
    assert spread < 0.10, f"rank-1 spread {spread:.3f} across margins {rank1s}"
    report("8", f"(6-row sweep, rank-1 spread {100*spread:.1f} points < 10)")


@pytest.mark.slow
def test_criterion_9_determinism(tmp_path):
    """Every command re-run from its resolved config is bit-for-bit identical."""

    def overrides(root):
        return {
            "output.dir": str(root),
            "data.num_identities": 10,
            "data.samples_per_identity": 4,
            "batch.p": 3,
            "batch.k": 2,
            "train.epochs": 2,
            "optim.warmup_epochs": 1,
            "eval.trials": 3,
            "encoder.specific_widths": (8, 12),
            "encoder.shared_widths": (12, 12),
        }

    cfg_a = ExperimentConfig.defaults()
    cfg_a.values.update(overrides(tmp_path / "a"))
    cmd_generate(cfg_a)
    cmd_train(cfg_a)
    cmd_eval(cfg_a)
    cmd_sweep_margin(cfg_a, [1.0, 1.4])

    resolved = Path(cfg_a.output_dir) / "train" / "config.resolved"
    cfg_b = ExperimentConfig.from_file(resolved)
    cfg_b.values["output.dir"] = str(tmp_path / "b")
    cmd_generate(cfg_b)
    cmd_train(cfg_b)
    cmd_eval(cfg_b)
    cmd_sweep_margin(cfg_b, [1.0, 1.4])

    identical = [
        "dataset/train.csv", "dataset/test.csv", "dataset/manifest.json",
        "train/checkpoint.bin", "eval/report.csv", "eval/embeddings.csv",
        "sweep/sweep.csv",
    ]
    for rel in identical:
        a = (tmp_path / "a" / rel).read_bytes()
        b = (tmp_path / "b" / rel).read_bytes()
        assert a == b, rel
    # training log identical except the wall-clock column
    strip = lambda p: [",".join(l.split(",")[:-1]) for l in p.read_text().splitlines()]
    assert strip(tmp_path / "a" / "train" / "log.csv") == strip(tmp_path / "b" / "train" / "log.csv")
    report("9", f"({len(identical)} output files byte-identical, log identical minus wall-clock)")

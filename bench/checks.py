"""Output checks, run after the timed region of every benchmark run.

Each check recomputes a program output by a route that shares no code with
the program (scalar double loops, Python's stable ``sorted``, a centroid
loop over the written embeddings) or tests a property the method
guarantees. A check returns a list of failure messages; empty means pass.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np
from xreid import cli, data, encoder, evaluation, losses, mmd, seeds, training
from xreid.data import THERMAL, VISIBLE, BatchSampler, FeatureSet

#: Batches of each workload checked against the oracles.
ORACLE_BATCHES = 3
#: Feature coordinates per batch checked by central finite differences.
FD_COORDS = 12
FD_STEP = 1e-6
FD_ATOL, FD_RTOL = 1e-6, 1e-4
MMD_ATOL = 1e-10
#: Rank-1 must reach this multiple of chance (1 / gallery identities).
RANK1_OVER_CHANCE = 2.0


def own_batches(cfg, train_set, params, count):
    """The first ``count`` batches the workload's training drew, encoded by
    the trained parameters: (features, logits, labels) per batch."""
    sampler = BatchSampler(train_set, cfg.batch_spec(), seeds.stream(cfg.seed, "sampler"))
    mapping = training.class_index(train_set.identities)
    out = []
    for _ in range(count):
        batch = sampler.next_batch()
        fwd = encoder.forward(params, batch.descriptors, batch.modalities, train=True)
        labels = np.array([mapping[int(i)] for i in batch.identities])
        out.append((FeatureSet(fwd.pooled, batch.identities, batch.modalities), fwd.logits, labels))
    return out


def _sq(a, b) -> float:
    return sum((x - y) * (x - y) for x, y in zip(a, b))


def naive_mmd2(xs, ys, scales) -> float:
    """Biased MMD^2 by double loops, median-heuristic bandwidth over the union."""
    xs, ys = xs.tolist(), ys.tolist()
    union = xs + ys
    pairs = sorted(_sq(a, b) for i, a in enumerate(union) for b in union[i + 1:])
    mid = len(pairs) // 2
    base = pairs[mid] if len(pairs) % 2 else 0.5 * (pairs[mid - 1] + pairs[mid])
    bandwidths = [s * (base if base > 0 else 1.0) for s in scales]

    def k(a, b):
        d2 = _sq(a, b)
        return sum(math.exp(-d2 / (2.0 * s2)) for s2 in bandwidths) / len(bandwidths)

    def mean(rows_a, rows_b):
        return sum(k(a, b) for a in rows_a for b in rows_b) / (len(rows_a) * len(rows_b))

    return mean(xs, xs) + mean(ys, ys) - 2.0 * mean(xs, ys)


def check_mmd(cfg, feats) -> list[str]:
    """Per-class MMD^2, the gate's active count and the marginal value
    (every workload uses the biased estimator)."""
    failures = []
    spec, rho = cfg.kernel_spec(), cfg["mmd.margin_rho"]
    scales = spec.mixture_scales
    res = mmd.loss_margin_mmd_id(feats, spec, cfg.margin(), "biased")
    naive = []
    for c, got in zip(res.class_ids, res.class_mmd2):
        cell = feats.identities == c
        want = naive_mmd2(
            feats.features[cell & (feats.modalities == VISIBLE)],
            feats.features[cell & (feats.modalities == THERMAL)],
            scales,
        )
        naive.append(want)
        if abs(got - want) > MMD_ATOL:
            failures.append(f"identity {c}: MMD^2 {got!r}, double loop {want!r}")
    if len(res.class_ids) != len(np.unique(feats.identities)):
        failures.append(f"{len(res.class_ids)} classes evaluated in a batch of {len(np.unique(feats.identities))}")
    # a value within 1e-9 of rho may fall either side of the gate
    low = sum(v > rho + 1e-9 for v in naive)
    high = sum(v > rho - 1e-9 for v in naive)
    if not low <= res.active_classes <= high:
        failures.append(f"gate open for {res.active_classes} classes, {low} values above rho={rho}")

    got = mmd.loss_mmd_marginal(feats, spec, "biased").value
    want = naive_mmd2(feats.modality_slice(VISIBLE), feats.modality_slice(THERMAL), scales)
    if abs(got - want) > MMD_ATOL:
        failures.append(f"marginal MMD^2 {got!r}, double loop {want!r}")
    return failures


def check_gradient(cfg, feats, logits, labels, rng) -> list[str]:
    """``loss_total``'s ``grad_pooled`` against central finite differences.

    The program treats median-heuristic bandwidths as constants, so the
    perturbed evaluations reuse the bandwidths of the unperturbed one.
    """
    kwargs = dict(
        kernel_spec=cfg.kernel_spec(),
        margin=cfg.margin(),
        hctri=cfg.hctri(),
        weights=cfg.loss_weights(),
        estimator=cfg["mmd.estimator"],
        mmd_variant=cfg["mmd.variant"],
    )
    original = mmd.resolve_bandwidth
    recorded = []

    def record(*args, **kw):
        recorded.append(original(*args, **kw))
        return recorded[-1]

    def loss_at(x):
        replay = iter(recorded)
        mmd.resolve_bandwidth = lambda *args, **kw: next(replay)
        try:
            fs = FeatureSet(x, feats.identities, feats.modalities)
            return losses.loss_total(fs, logits, labels, **kwargs).total
        finally:
            mmd.resolve_bandwidth = original

    mmd.resolve_bandwidth = record
    try:
        analytic = losses.loss_total(feats, logits, labels, **kwargs).grad_pooled
    finally:
        mmd.resolve_bandwidth = original

    failures = []
    x = feats.features.copy()
    for flat in rng.choice(x.size, size=min(FD_COORDS, x.size), replace=False):
        idx = np.unravel_index(flat, x.shape)
        up, down = x.copy(), x.copy()
        up[idx] += FD_STEP
        down[idx] -= FD_STEP
        fd = (loss_at(up) - loss_at(down)) / (2.0 * FD_STEP)
        if abs(fd - analytic[idx]) > FD_ATOL + FD_RTOL * abs(analytic[idx]):
            failures.append(f"grad_pooled{idx}: analytic {analytic[idx]!r}, finite difference {fd!r}")
    return failures


def check_training_log(path) -> list[str]:
    """Every loss term is finite and the late epochs beat the first one."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    failures = []
    for row in rows:
        for term in ("loss_total", "loss_id", "loss_mmd", "loss_hctri"):
            if not math.isfinite(float(row[term])):
                failures.append(f"epoch {row['epoch']}: {term} = {row[term]}")
    totals = [float(row["loss_total"]) for row in rows]
    late = totals[-max(1, len(totals) // 4):]
    if len(totals) < 2 or not sum(late) / len(late) < totals[0]:
        failures.append(f"loss_total did not fall: first epoch {totals[0]}, late epochs {late}")
    return failures


def brute_cmc_map(sims, query_ids, gallery_ids):
    """CMC and AP by a stable sort per query (ties go to the lower index)."""
    n_q, n_g = sims.shape
    first_hits = []
    ap = []
    for q in range(n_q):
        row = sims[q].tolist()
        order = sorted(range(n_g), key=lambda j: -row[j])
        hits = [pos + 1 for pos, j in enumerate(order) if gallery_ids[j] == query_ids[q]]
        first_hits.append(hits[0])
        ap.append(sum((i + 1) / r for i, r in enumerate(hits)) / len(hits))
    cmc = [sum(h <= k for h in first_hits) / n_q for k in range(1, n_g + 1)]
    return cmc, ap


def _centroid_line(path):
    """intra/inter centroid cosine stats from an embeddings CSV, by loops."""
    sums: dict[tuple[int, str], list[float]] = {}
    counts: dict[tuple[int, str], int] = {}
    with open(path, encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            parts = line.rstrip("\n").split(",")
            key = (int(parts[0]), parts[1])
            vals = [float(v) for v in parts[2:]]
            acc = sums.setdefault(key, [0.0] * len(vals))
            for i, v in enumerate(vals):
                acc[i] += v
            counts[key] = counts.get(key, 0) + 1
    ids = sorted({i for i, _ in sums})

    def unit(key):
        c = [v / counts[key] for v in sums[key]]
        norm = math.sqrt(sum(v * v for v in c))
        return [v / max(norm, 1e-12) for v in c]

    vis = [unit((i, "v")) for i in ids]
    th = [unit((i, "t")) for i in ids]
    intra, inter = [], []
    for a, va in enumerate(vis):
        for b, tb in enumerate(th):
            (intra if a == b else inter).append(sum(x * y for x, y in zip(va, tb)))

    def mean_std(xs):
        m = sum(xs) / len(xs)
        return m, math.sqrt(sum((x - m) ** 2 for x in xs) / len(xs))

    return (*mean_std(intra), *mean_std(inter))


def check_eval(cfg, report) -> list[str]:
    """CMC/mAP properties, ``cmc_map`` against a brute-force recomputation on
    the score matrices it receives, and the report's centroid line."""
    failures = []
    chance = 1.0 / report.per_trial_cmc.shape[1]
    if not report.rank(1) >= RANK1_OVER_CHANCE * chance:
        failures.append(f"rank-1 {report.rank(1)} is not {RANK1_OVER_CHANCE}x chance {chance}")
    for t, cmc in enumerate(report.per_trial_cmc):
        if np.any(np.diff(cmc) < 0) or cmc[-1] != 1.0:
            failures.append(f"trial {t + 1}: CMC not non-decreasing to 1")
        steps = np.diff(np.concatenate([[0.0], cmc]))
        single_shot = float(np.sum(steps / np.arange(1, len(cmc) + 1)))
        if abs(single_shot - report.per_trial_map[t]) > 1e-12:
            failures.append(f"trial {t + 1}: mAP {report.per_trial_map[t]!r}, sum of cmc steps / k {single_shot!r}")

    # Re-run eval with cmc_map recorded; the rerun must reproduce the report.
    out = Path(cfg.output_dir) / "eval"
    first = (out / "report.csv").read_text()
    seen = []
    original = evaluation.cmc_map

    def recording(sims, query_ids, gallery_ids):
        result = original(sims, query_ids, gallery_ids)
        seen.append((np.array(sims), np.asarray(query_ids), np.asarray(gallery_ids), result))
        return result

    evaluation.cmc_map = recording
    try:
        cli.cmd_eval(cfg)
    finally:
        evaluation.cmc_map = original
    if (out / "report.csv").read_text() != first:
        failures.append("eval rerun wrote a different report.csv")
    if len(seen) != report.trials:
        failures.append(f"cmc_map called {len(seen)} times for {report.trials} trials")
    for t, (sims, qids, gids, (cmc, ap)) in enumerate(seen):
        want_cmc, want_ap = brute_cmc_map(sims, qids.tolist(), gids.tolist())
        if cmc.tolist() != want_cmc or ap.tolist() != want_ap:
            failures.append(f"trial {t + 1}: cmc_map differs from the stable-sort recomputation")

    lines = first.strip().splitlines()
    reported = [float(v) for v in lines[-1].split(",")]
    loop = _centroid_line(out / "embeddings.csv")
    if lines[-2] != "intra_mean,intra_std,inter_mean,inter_std" or any(
        not abs(r - w) <= 1e-6 for r, w in zip(reported, loop)
    ):
        failures.append(f"centroid line {lines[-1]} vs centroid loop {loop}")
    return failures


def check_run(cfg, report, rng) -> list[str]:
    """Every check on one finished run directory."""
    root = Path(cfg.output_dir)
    failures = check_training_log(root / "train" / "log.csv")
    train_set = data.load(root / "dataset" / "train.csv")
    params = encoder.load_checkpoint(root / "train" / "checkpoint.bin")
    for feats, logits, labels in own_batches(cfg, train_set, params, ORACLE_BATCHES):
        failures += check_mmd(cfg, feats)
        failures += check_gradient(cfg, feats, logits, labels, rng)
    failures += check_eval(cfg, report)
    return failures

"""Cross-modal retrieval evaluation: CMC, mAP, and centroid similarity stats.

The protocol is single-shot with repeated gallery trials: per trial one
gallery sample per identity is drawn uniformly, every query is ranked against
that gallery by descending similarity, and CMC/mAP are averaged over trials.
Average precision is computed in the general multi-relevant form (mean of
precision at each hit), which reduces to 1/rank under single-shot galleries.

The similarity diagnostic summarizes per-identity centroid geometry: cosine
similarities between the visible and thermal centroid of the same identity
(intra) versus different identities (inter), reported as Gaussian fits
(mean, standard deviation).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import FeatureSet, THERMAL, VISIBLE

RANK_COLUMNS = (1, 5, 10, 20)


@dataclass(frozen=True)
class EvalReport:
    cmc: np.ndarray           # (K_max,) rank-k accuracies averaged over trials
    map: float
    trials: int
    per_trial_cmc: np.ndarray  # (trials, K_max)
    per_trial_map: np.ndarray  # (trials,)

    def rank(self, k: int) -> float:
        """Rank-k accuracy, saturating at the gallery size."""
        return float(self.cmc[min(k, len(self.cmc)) - 1])


@dataclass(frozen=True)
class SimilarityStats:
    intra_mean: float
    intra_std: float
    inter_mean: float
    inter_std: float


def _normalize_rows(x: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    return x / np.maximum(norms, 1e-12)


def similarity_matrix(query: np.ndarray, gallery: np.ndarray, ranking: str = "cosine") -> np.ndarray:
    """Pairwise ranking scores; higher means more similar."""
    if ranking == "cosine":
        return _normalize_rows(query) @ _normalize_rows(gallery).T
    if ranking == "euclidean":
        qq = np.sum(query**2, axis=1)[:, None]
        gg = np.sum(gallery**2, axis=1)[None, :]
        return -(qq + gg - 2.0 * query @ gallery.T)
    raise ValueError(f"ranking must be 'cosine' or 'euclidean', got {ranking!r}")


def cmc_map(similarities: np.ndarray, query_ids, gallery_ids) -> tuple[np.ndarray, np.ndarray]:
    """Per-query CMC curves (averaged) and AP values from a score matrix.

    Ties are broken by gallery index (stable sort on descending score).
    Handles galleries with multiple relevant items per query.
    """
    similarities = np.asarray(similarities, dtype=np.float64)
    query_ids = np.asarray(query_ids)
    gallery_ids = np.asarray(gallery_ids)
    n_q, n_g = similarities.shape

    order = np.argsort(-similarities, axis=1, kind="stable")
    matches = gallery_ids[order] == query_ids[:, None]

    cmc = np.zeros(n_g)
    ap = np.empty(n_q)
    for q in range(n_q):
        hit_positions = np.where(matches[q])[0]
        if len(hit_positions) == 0:
            raise ValueError(f"query identity {query_ids[q]} absent from gallery")
        cmc[hit_positions[0]:] += 1.0
        ranks = hit_positions + 1.0
        ap[q] = float(np.mean(np.arange(1, len(ranks) + 1) / ranks))
    return cmc / n_q, ap


def evaluate(
    query: FeatureSet,
    gallery: FeatureSet,
    trials: int = 10,
    seed: int | np.random.Generator = 0,
    ranking: str = "cosine",
) -> EvalReport:
    """Single-shot multi-trial cross-modal retrieval evaluation."""
    q_mods = np.unique(query.modalities)
    g_mods = np.unique(gallery.modalities)
    if len(q_mods) != 1 or len(g_mods) != 1:
        raise ValueError("query and gallery must each contain a single modality")
    if q_mods[0] == g_mods[0]:
        raise ValueError(f"query and gallery share modality {int(q_mods[0])}; they must differ")
    gallery_identities = np.unique(gallery.identities)
    missing = np.setdiff1d(np.unique(query.identities), gallery_identities)
    if len(missing) > 0:
        raise ValueError(f"query identity {missing[0]} absent from gallery")
    if trials < 1:
        raise ValueError("trials must be >= 1")

    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    id_pools = [np.where(gallery.identities == g)[0] for g in gallery_identities]
    n_gal_ids = len(gallery_identities)

    per_trial_cmc = np.empty((trials, n_gal_ids))
    per_trial_map = np.empty(trials)
    for t in range(trials):
        chosen = np.array([pool[rng.integers(len(pool))] for pool in id_pools])
        sims = similarity_matrix(query.features, gallery.features[chosen], ranking)
        cmc, ap = cmc_map(sims, query.identities, gallery.identities[chosen])
        per_trial_cmc[t] = cmc
        per_trial_map[t] = ap.mean()

    return EvalReport(
        cmc=per_trial_cmc.mean(axis=0),
        map=float(per_trial_map.mean()),
        trials=trials,
        per_trial_cmc=per_trial_cmc,
        per_trial_map=per_trial_map,
    )


def similarity_stats(test: FeatureSet) -> SimilarityStats:
    """Gaussian fit of intra- vs inter-identity centroid cosine similarities.

    Inter-identity pairs need at least 2 identities; fewer raise ValueError.
    """
    ids = np.unique(test.identities)
    if len(ids) < 2:
        raise ValueError(
            f"similarity stats need features of >= 2 identities to compare, got {len(ids)}"
        )
    dim = test.features.shape[1]
    cv = np.empty((len(ids), dim))
    ct = np.empty((len(ids), dim))
    for i, c in enumerate(ids):
        for modality, out in ((VISIBLE, cv), (THERMAL, ct)):
            rows = test.features[(test.identities == c) & (test.modalities == modality)]
            if len(rows) == 0:
                name = "visible" if modality == VISIBLE else "thermal"
                raise ValueError(f"identity {c} has no {name} samples")
            out[i] = rows.mean(axis=0)
    sims = _normalize_rows(cv) @ _normalize_rows(ct).T
    intra = np.diag(sims)
    off_mask = ~np.eye(len(ids), dtype=bool)
    inter = sims[off_mask]
    return SimilarityStats(
        intra_mean=float(intra.mean()),
        intra_std=float(intra.std()),
        inter_mean=float(inter.mean()),
        inter_std=float(inter.std()),
    )


def write_report(path, report: EvalReport, stats: SimilarityStats | None = None) -> None:
    """Write the delimited evaluation report (6 decimal places throughout)."""

    def row(label, cmc, map_value):
        ranks = ",".join(f"{cmc[min(k, len(cmc)) - 1]:.6f}" for k in RANK_COLUMNS)
        return f"{label},{ranks},{map_value:.6f}\n"

    with open(path, "w", encoding="utf-8") as fh:
        fh.write("trial,rank1,rank5,rank10,rank20,mAP\n")
        for t in range(report.trials):
            fh.write(row(t + 1, report.per_trial_cmc[t], report.per_trial_map[t]))
        fh.write(row("mean", report.cmc, report.map))
        if stats is not None:
            fh.write("intra_mean,intra_std,inter_mean,inter_std\n")
            fh.write(
                f"{stats.intra_mean:.6f},{stats.intra_std:.6f},"
                f"{stats.inter_mean:.6f},{stats.inter_std:.6f}\n"
            )


__all__ = [
    "RANK_COLUMNS",
    "EvalReport",
    "SimilarityStats",
    "similarity_matrix",
    "cmc_map",
    "evaluate",
    "similarity_stats",
    "write_report",
]

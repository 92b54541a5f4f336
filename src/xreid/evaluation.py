"""Cross-modal retrieval evaluation: CMC, mAP, and centroid similarity stats.

The protocol is single-shot with repeated gallery trials: per trial one
gallery sample per identity is drawn uniformly, every query is ranked against
that gallery by descending similarity, and CMC/mAP are averaged over trials.
A relevant item's 1-based rank is 1 + (items scoring higher) + (items tied
with it at a lower gallery index): ties go to the lower index, as in a stable
sort. Average precision is computed in the general multi-relevant form (mean
of precision at each hit), which reduces to 1/rank under single-shot galleries.

The similarity diagnostic summarizes per-identity centroid geometry: cosine
similarities between the visible and thermal centroid of the same identity
(intra) versus different identities (inter), reported as Gaussian fits
(mean, standard deviation).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import FeatureSet
from .losses import hetero_centers

RANK_COLUMNS = (1, 5, 10, 20)


def _at_rank(cmc: np.ndarray, k: int):
    """Rank-k accuracy from a CMC curve, saturating at the gallery size."""
    if k < 1:
        raise ValueError(f"rank k must be >= 1, got {k}")
    return cmc[min(k, len(cmc)) - 1]


@dataclass(frozen=True)
class EvalReport:
    cmc: np.ndarray           # (K_max,) rank-k accuracies averaged over trials
    map: float
    trials: int
    per_trial_cmc: np.ndarray  # (trials, K_max)
    per_trial_map: np.ndarray  # (trials,)

    def rank(self, k: int) -> float:
        """Rank-k accuracy for k >= 1, saturating at the gallery size."""
        return float(_at_rank(self.cmc, k))


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

    Ties go to the lower gallery index. Handles galleries with multiple
    relevant items per query, in any order and with repeated identities.

    Each relevant item is ranked by counting, so no rank order or hit
    matrix is built. With one relevant item per query the scores are read
    in place and, beyond O(n_q) index arrays, the working memory is one
    n_q x n_g boolean at a time (an eighth of a float64 score matrix).
    Rows with several relevant items are copied, one row per item, and rows
    holding a tie with the relevant item's score are copied for the
    tie-break.
    """
    similarities = np.asarray(similarities, dtype=np.float64)
    query_ids = np.asarray(query_ids)
    gallery_ids = np.asarray(gallery_ids)
    n_q, n_g = similarities.shape

    # relevant pairs (q, g) in (query, gallery index) order, from the gallery
    # ids' stable sort rather than an n_q x n_g id comparison
    by_id = np.argsort(gallery_ids, kind="stable")
    sorted_ids = gallery_ids[by_id]
    lo = np.searchsorted(sorted_ids, query_ids, side="left")
    n_hits = np.searchsorted(sorted_ids, query_ids, side="right") - lo
    if not n_hits.all():
        raise ValueError(f"query identity {query_ids[np.argmin(n_hits)]} absent from gallery")
    first = np.cumsum(n_hits) - n_hits  # each query's first pair
    q = np.repeat(np.arange(n_q), n_hits)
    j = np.arange(len(q)) - first[q]    # 0-based hit number within its query
    g = by_id[lo[q] + j]

    # 0-based rank of each relevant item (q, g): the gallery items scoring
    # higher, plus those scoring equal at a lower gallery index. With one
    # relevant item per query, q is arange(n_q) and the rows are the matrix.
    rows = similarities if len(q) == n_q else similarities[q]
    score = similarities[q, g][:, None]
    rank = np.count_nonzero(rows > score, axis=1)
    tied = np.flatnonzero(np.count_nonzero(rows == score, axis=1) > 1)
    rank[tied] += np.count_nonzero(
        (rows[tied] == score[tied]) & (np.arange(n_g) < g[tied, None]), axis=1
    )
    # a query's hits in rank order; q keeps its blocks, so j still numbers them
    key = q * n_g + rank
    key.sort()
    rank = key - q * n_g

    cmc = np.cumsum(np.bincount(rank[first], minlength=n_g)) / n_q
    # zero-padded rows, so a sequential cumsum adds each query's precisions
    # in rank order and the padding adds exact zeros
    precision = np.zeros((n_q, n_hits.max()))
    precision[q, j] = (j + 1) / (rank + 1.0)
    ap = np.cumsum(precision, axis=1)[:, -1] / n_hits
    return cmc, ap


def evaluate(
    query: FeatureSet,
    gallery: FeatureSet,
    rng: np.random.Generator,
    trials: int = 10,
    ranking: str = "cosine",
) -> EvalReport:
    """Single-shot multi-trial cross-modal retrieval evaluation.

    Each trial's gallery draw comes from ``rng``, the only source of
    randomness. A trial's n_q x n_g score matrix is freed before the next
    trial's is built, so it is the largest array ``evaluate`` holds: the
    working memory peaks at about one score matrix plus the normalized query
    features (n_q x D) while scoring, or one n_q x n_g boolean while ranking.
    """
    q_mods = np.unique(query.modalities)
    g_mods = np.unique(gallery.modalities)
    if len(q_mods) != 1 or len(g_mods) != 1:
        raise ValueError("query and gallery must each contain a single modality")
    if q_mods[0] == g_mods[0]:
        raise ValueError(f"query and gallery share modality {int(q_mods[0])}; they must differ")
    index = gallery.cells
    missing = np.setdiff1d(query.identities, index.ids)
    if len(missing) > 0:
        raise ValueError(f"query identity {missing[0]} absent from gallery")
    if trials < 1:
        raise ValueError("trials must be >= 1")

    cells = 2 * np.arange(len(index.ids)) + g_mods[0]  # each identity's gallery pool
    first, counts = index.starts[cells], index.counts[cells]

    per_trial_cmc = np.empty((trials, len(index.ids)))
    per_trial_map = np.empty(trials)
    for t in range(trials):
        chosen = index.order[first + rng.integers(counts)]
        # the scores live only for their cmc_map call
        cmc, ap = cmc_map(
            similarity_matrix(query.features, gallery.features[chosen], ranking),
            query.identities,
            index.ids,
        )
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
    ids, cv, ct = hetero_centers(test)
    if len(ids) < 2:
        raise ValueError(
            f"similarity stats need features of >= 2 identities to compare, got {len(ids)}"
        )
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


def write_report(path, report: EvalReport, stats: SimilarityStats) -> None:
    """Write the delimited evaluation report (6 decimal places throughout),
    the similarity statistics' header and row last."""

    def row(label, cmc, map_value):
        ranks = ",".join(f"{_at_rank(cmc, k):.6f}" for k in RANK_COLUMNS)
        return f"{label},{ranks},{map_value:.6f}\n"

    with open(path, "w", encoding="utf-8") as fh:
        fh.write("trial,rank1,rank5,rank10,rank20,mAP\n")
        for t in range(report.trials):
            fh.write(row(t + 1, report.per_trial_cmc[t], report.per_trial_map[t]))
        fh.write(row("mean", report.cmc, report.map))
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

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracle_utils import cmc_map_oracle, gallery_draws_reference
from xreid.data import FeatureSet, THERMAL, VISIBLE
from xreid import evaluation
from xreid.evaluation import (
    RANK_COLUMNS,
    EvalReport,
    cmc_map,
    evaluate,
    similarity_matrix,
    similarity_stats,
    write_report,
)


def feature_set(features, identities, modality):
    n = len(features)
    return FeatureSet(np.asarray(features, dtype=float), np.asarray(identities),
                      np.full(n, modality))


class TestCmcMap:
    def test_hand_placed_ranks(self):
        # 3 queries with match ranks 1, 2, 4 in a 5-item gallery:
        # mAP = (1 + 1/2 + 1/4)/3, CMC = [1/3, 2/3, 2/3, 1, 1]
        sims = np.array(
            [
                [5.0, 1.0, 1.0, 1.0, 1.0],   # match first
                [9.0, 5.0, 1.0, 1.0, 1.0],   # one distractor above
                [9.0, 8.0, 7.0, 5.0, 1.0],   # three above
            ]
        )
        q_ids = np.array([0, 1, 3])
        g_ids = np.arange(5)
        cmc, ap = cmc_map(sims, q_ids, g_ids)
        assert ap.mean() == pytest.approx((1.0 + 0.5 + 0.25) / 3.0, abs=1e-12)
        assert ap.mean() == pytest.approx(0.5833333333333334, abs=1e-12)
        assert np.allclose(cmc, [1 / 3, 2 / 3, 2 / 3, 1.0, 1.0], atol=1e-12)

    def test_matches_bruteforce_oracle_exactly(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            n_g = int(rng.integers(2, 21))
            n_q = int(rng.integers(1, 21))
            g_ids = rng.integers(0, max(1, n_g // 2), size=n_g)
            q_ids = g_ids[rng.integers(0, n_g, size=n_q)]
            sims = rng.standard_normal((n_q, n_g))
            cmc, ap = cmc_map(sims, q_ids, g_ids)
            o_cmc, o_ap = cmc_map_oracle(sims, q_ids, g_ids)
            assert np.array_equal(cmc, o_cmc)
            assert np.array_equal(ap, o_ap)

    @given(st.data())
    def test_matches_oracle_on_ties_and_repeated_identities(self, data):
        n_q = data.draw(st.integers(1, 30))
        n_g = data.draw(st.integers(2, 30))
        g_ids = np.array(data.draw(st.lists(st.integers(0, 4), min_size=n_g, max_size=n_g)))
        q_ids = g_ids[data.draw(st.lists(st.integers(0, n_g - 1), min_size=n_q, max_size=n_q))]
        levels = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=3, unique=True))
        picks = data.draw(st.lists(st.integers(0, len(levels) - 1),
                                   min_size=n_q * n_g, max_size=n_q * n_g))
        sims = np.array(levels)[picks].reshape(n_q, n_g)
        cmc, ap = cmc_map(sims, q_ids, g_ids)
        o_cmc, o_ap = cmc_map_oracle(sims, q_ids, g_ids)
        assert np.array_equal(cmc, o_cmc)
        assert np.array_equal(ap, o_ap)

    def test_ties_break_by_gallery_index(self):
        sims = np.array([[1.0, 1.0, 1.0]])
        cmc, ap = cmc_map(sims, np.array([2]), np.array([0, 1, 2]))
        assert ap[0] == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_multiple_relevant_items(self):
        # gallery ids [0, 0, 1]; query id 0 ranks its two matches 1st and 3rd:
        # AP = mean(1/1, 2/3)
        sims = np.array([[9.0, 1.0, 5.0]])
        cmc, ap = cmc_map(sims, np.array([0]), np.array([0, 0, 1]))
        assert ap[0] == pytest.approx((1.0 + 2.0 / 3.0) / 2.0, abs=1e-12)
        assert cmc.tolist() == [1.0, 1.0, 1.0]

    def test_single_shot_ranks_without_copying_the_scores(self):
        # one relevant item per query: the score matrix is ranked in place
        # by counting, so cmc_map's peak stays below half a copy of it
        import tracemalloc

        rng = np.random.default_rng(5)
        sims = rng.standard_normal((300, 300))
        ids = np.arange(300)
        gallery_ids = rng.permutation(300)
        tracemalloc.start()
        cmc, ap = cmc_map(sims, ids, gallery_ids)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 0.5 * sims.nbytes
        want_cmc, want_ap = cmc_map_oracle(sims, ids, gallery_ids)
        assert np.array_equal(cmc, want_cmc) and np.array_equal(ap, want_ap)

    def test_missing_identity_raises(self):
        with pytest.raises(ValueError, match="absent"):
            cmc_map(np.ones((1, 2)), np.array([5]), np.array([0, 1]))


class TestEvaluate:
    def test_perfect_retrieval(self):
        rng = np.random.default_rng(1)
        feats = rng.standard_normal((6, 4))
        query = feature_set(feats, np.arange(6), THERMAL)
        gallery = feature_set(feats, np.arange(6), VISIBLE)
        report = evaluate(query, gallery, trials=3, rng=np.random.default_rng(0))
        assert report.rank(1) == 1.0
        assert report.map == 1.0

    def test_single_shot_draws_one_per_identity(self):
        rng = np.random.default_rng(2)
        gallery = feature_set(rng.standard_normal((12, 3)), np.repeat(np.arange(4), 3), VISIBLE)
        query = feature_set(rng.standard_normal((4, 3)), np.arange(4), THERMAL)
        report = evaluate(query, gallery, trials=5, rng=np.random.default_rng(1))
        assert report.cmc.shape == (4,)          # one gallery item per identity
        assert report.per_trial_cmc.shape == (5, 4)
        assert report.cmc[-1] == 1.0

    def test_cmc_monotone_and_bounded(self):
        rng = np.random.default_rng(3)
        gallery = feature_set(rng.standard_normal((20, 5)), np.arange(20) % 10, VISIBLE)
        query = feature_set(rng.standard_normal((30, 5)), np.arange(30) % 10, THERMAL)
        report = evaluate(query, gallery, trials=4, rng=np.random.default_rng(2))
        assert np.all(np.diff(report.cmc) >= -1e-15)
        assert np.all((0 <= report.cmc) & (report.cmc <= 1))
        assert 0.0 <= report.map <= 1.0

    def test_chance_level_closed_form(self):
        # random features independent of identity: E[rank1] = 1/G,
        # E[AP] = H_G / G (harmonic number over gallery size)
        rng = np.random.default_rng(4)
        g = 10
        queries = 2000
        gallery = feature_set(rng.standard_normal((g, 8)), np.arange(g), VISIBLE)
        query = feature_set(rng.standard_normal((queries, 8)), rng.integers(0, g, queries), THERMAL)
        report = evaluate(query, gallery, trials=1, rng=np.random.default_rng(3))
        expected_map = sum(1.0 / r for r in range(1, g + 1)) / g
        assert expected_map == pytest.approx(0.2928968, abs=1e-7)
        ap_sigma = report.per_trial_map.std() if report.trials > 1 else 0.0
        # per-query AP variance bound: Var(1/rank) <= E[(1/rank)^2]
        var_bound = sum(1.0 / r**2 for r in range(1, g + 1)) / g
        sigma_mean = np.sqrt(var_bound / queries)
        assert abs(report.map - expected_map) <= 3 * sigma_mean
        assert abs(report.rank(1) - 1.0 / g) <= 3 * np.sqrt((1 / g) * (1 - 1 / g) / queries)

    def test_trial_determinism(self):
        rng = np.random.default_rng(5)
        gallery = feature_set(rng.standard_normal((9, 3)), np.repeat(np.arange(3), 3), VISIBLE)
        query = feature_set(rng.standard_normal((6, 3)), np.arange(6) % 3, THERMAL)
        a = evaluate(query, gallery, trials=7, rng=np.random.default_rng(42))
        b = evaluate(query, gallery, trials=7, rng=np.random.default_rng(42))
        assert np.array_equal(a.per_trial_cmc, b.per_trial_cmc)
        assert np.array_equal(a.per_trial_map, b.per_trial_map)

    def test_same_modality_rejected(self):
        fs = feature_set(np.zeros((2, 2)), [0, 1], VISIBLE)
        with pytest.raises(ValueError, match="modality"):
            evaluate(fs, fs, trials=1, rng=np.random.default_rng(0))

    def test_query_identity_missing_named(self):
        query = feature_set(np.zeros((1, 2)), [9], THERMAL)
        gallery = feature_set(np.zeros((2, 2)), [0, 1], VISIBLE)
        with pytest.raises(ValueError, match="9"):
            evaluate(query, gallery, trials=1, rng=np.random.default_rng(0))

    def test_holds_one_trial_of_scores(self):
        # each trial's scores are freed before the next trial's are built,
        # and ranking makes no copy of them: the peak stays near one score
        # matrix (plus the normalized queries, here a sixth of it)
        import tracemalloc

        rng = np.random.default_rng(6)
        n_q, n_ids, dim = 1000, 100, 16
        gallery = feature_set(rng.standard_normal((3 * n_ids, dim)),
                              rng.permutation(np.repeat(np.arange(n_ids), 3)), VISIBLE)
        query = feature_set(rng.standard_normal((n_q, dim)), rng.integers(0, n_ids, n_q), THERMAL)
        gallery.cells  # built once and cached: not part of evaluate's working memory
        tracemalloc.start()
        try:
            evaluate(query, gallery, trials=4, rng=np.random.default_rng(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * (n_q * n_ids * 8)

    def test_euclidean_ranking_flag(self):
        # cosine and euclidean disagree when a far point shares direction
        query = feature_set([[1.0, 0.0]], [0], THERMAL)
        gallery = feature_set([[10.0, 0.0], [0.9, 0.45]], [0, 1], VISIBLE)
        cos = evaluate(query, gallery, trials=1, rng=np.random.default_rng(0), ranking="cosine")
        euc = evaluate(query, gallery, trials=1, rng=np.random.default_rng(0), ranking="euclidean")
        assert cos.rank(1) == 1.0
        assert euc.rank(1) == 0.0


@st.composite
def ragged_retrieval(draw, max_ids=8, max_rows=5):
    """(query, gallery) of opposite modalities: 1-8 gallery identities with
    1-``max_rows`` rows each, rows shuffled, and 1-12 queries of those
    identities."""
    n_ids = draw(st.integers(1, max_ids))
    ids = np.array(draw(st.lists(st.integers(0, 99), min_size=n_ids, max_size=n_ids, unique=True)))
    counts = draw(st.lists(st.integers(1, max_rows), min_size=n_ids, max_size=n_ids))
    g_ids = np.repeat(ids, counts)[np.array(draw(st.permutations(range(sum(counts)))))]
    q_ids = np.array(draw(st.lists(st.sampled_from(ids.tolist()), min_size=1, max_size=12)))
    g_mod = draw(st.sampled_from([VISIBLE, THERMAL]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    query = feature_set(rng.standard_normal((len(q_ids), 3)), q_ids, 1 - g_mod)
    return query, feature_set(rng.standard_normal((len(g_ids), 3)), g_ids, g_mod)


class TestEvaluateMatchesReference:
    @given(ragged_retrieval(), st.integers(1, 6), st.integers(0, 2**32 - 1),
           st.sampled_from(["cosine", "euclidean"]))
    def test_gallery_draws_and_scores_bitwise(self, retrieval, trials, seed, ranking):
        query, gallery = retrieval
        calls = []
        original = evaluation.similarity_matrix

        def record(q, g, r):
            calls.append(g)
            return original(q, g, r)

        evaluation.similarity_matrix = record
        try:
            report = evaluate(query, gallery, trials=trials, rng=np.random.default_rng(seed), ranking=ranking)
        finally:
            evaluation.similarity_matrix = original

        draws = gallery_draws_reference(gallery.identities, trials, np.random.default_rng(seed))
        assert len(calls) == trials
        for t, chosen in enumerate(draws):
            assert np.array_equal(calls[t], gallery.features[chosen])
            sims = similarity_matrix(query.features, gallery.features[chosen], ranking)
            cmc, ap = cmc_map(sims, query.identities, gallery.identities[chosen])
            assert np.array_equal(report.per_trial_cmc[t], cmc)
            assert report.per_trial_map[t] == ap.mean()


class TestSimilarityStats:
    def test_identical_centroids(self):
        feats = np.tile([1.0, 2.0, 3.0], (8, 1))
        fs = FeatureSet(feats, np.repeat([0, 1], 4), np.tile([VISIBLE, THERMAL], 4))
        stats = similarity_stats(fs)
        assert stats.intra_mean == pytest.approx(1.0, abs=1e-12)
        assert stats.inter_mean == pytest.approx(1.0, abs=1e-12)
        assert stats.intra_std == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_identities(self):
        feats = np.array([
            [1.0, 0.0], [1.0, 0.0],  # id 0 visible/thermal
            [0.0, 1.0], [0.0, 1.0],  # id 1 visible/thermal
        ])
        fs = FeatureSet(feats, np.array([0, 0, 1, 1]),
                        np.array([VISIBLE, THERMAL, VISIBLE, THERMAL]))
        stats = similarity_stats(fs)
        assert stats.intra_mean == pytest.approx(1.0, abs=1e-12)
        assert stats.inter_mean == pytest.approx(0.0, abs=1e-12)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(6)
        n_ids = 5
        feats, ids, mods = [], [], []
        for c in range(n_ids):
            for m in (VISIBLE, THERMAL):
                for _ in range(3):
                    feats.append(rng.standard_normal(4))
                    ids.append(c)
                    mods.append(m)
        fs = FeatureSet(np.array(feats), np.array(ids), np.array(mods))
        stats = similarity_stats(fs)

        def centroid(c, m):
            rows = fs.features[(fs.identities == c) & (fs.modalities == m)]
            return rows.mean(axis=0)

        def cos(a, b):
            return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))

        intra = [cos(centroid(c, VISIBLE), centroid(c, THERMAL)) for c in range(n_ids)]
        inter = [
            cos(centroid(i, VISIBLE), centroid(j, THERMAL))
            for i in range(n_ids)
            for j in range(n_ids)
            if i != j
        ]
        assert stats.intra_mean == pytest.approx(np.mean(intra), abs=1e-12)
        assert stats.intra_std == pytest.approx(np.std(intra), abs=1e-12)
        assert stats.inter_mean == pytest.approx(np.mean(inter), abs=1e-12)
        assert stats.inter_std == pytest.approx(np.std(inter), abs=1e-12)

    def test_missing_modality_rejected(self):
        fs = feature_set(np.zeros((2, 2)), [0, 1], VISIBLE)
        with pytest.raises(ValueError, match="thermal"):
            similarity_stats(fs)

    def test_one_identity_rejected(self):
        fs = FeatureSet(np.eye(2), np.array([3, 3]), np.array([VISIBLE, THERMAL]))
        with pytest.raises(ValueError, match=">= 2 identities"):
            similarity_stats(fs)


class TestReportFile:
    def test_layout_and_precision(self, tmp_path):
        report = EvalReport(
            cmc=np.array([0.5, 0.75, 1.0]),
            map=0.6789012345,
            trials=2,
            per_trial_cmc=np.array([[0.5, 0.5, 1.0], [0.5, 1.0, 1.0]]),
            per_trial_map=np.array([0.6, 0.7578024690]),
        )
        from xreid.evaluation import SimilarityStats

        stats = SimilarityStats(0.9, 0.01, 0.2, 0.05)
        path = tmp_path / "report.csv"
        write_report(path, report, stats)
        lines = path.read_text().splitlines()
        assert lines[0] == "trial,rank1,rank5,rank10,rank20,mAP"
        assert lines[1].startswith("1,0.500000,")
        assert lines[3].startswith("mean,0.500000,")
        assert lines[4] == "intra_mean,intra_std,inter_mean,inter_std"
        assert lines[5] == "0.900000,0.010000,0.200000,0.050000"
        # rank columns beyond the gallery size saturate at the last cmc entry
        assert lines[3] == "mean,0.500000,1.000000,1.000000,1.000000,0.678901"

    def test_rank_lookup_saturates_and_refuses_k_below_one(self, tmp_path):
        report = EvalReport(
            cmc=np.array([0.5, 0.75, 1.0]), map=0.6, trials=1,
            per_trial_cmc=np.array([[0.5, 0.75, 1.0]]), per_trial_map=np.array([0.6]),
        )
        assert [report.rank(k) for k in (1, 2, 3, 4, 20)] == [0.5, 0.75, 1.0, 1.0, 1.0]
        for k in (0, -1):
            with pytest.raises(ValueError, match=f"rank k must be >= 1, got {k}"):
                report.rank(k)
        # the report's rank columns are the same lookup
        write_report(tmp_path / "report.csv", report)
        mean = (tmp_path / "report.csv").read_text().splitlines()[-1].split(",")
        assert mean[1:-1] == [f"{report.rank(k):.6f}" for k in RANK_COLUMNS]


def test_similarity_matrix_modes():
    q = np.array([[1.0, 0.0]])
    g = np.array([[2.0, 0.0], [0.0, 1.0]])
    cos = similarity_matrix(q, g, "cosine")
    assert cos[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert cos[0, 1] == pytest.approx(0.0, abs=1e-12)
    euc = similarity_matrix(q, g, "euclidean")
    assert euc[0, 0] == pytest.approx(-1.0, abs=1e-12)
    with pytest.raises(ValueError, match="ranking"):
        similarity_matrix(q, g, "manhattan")

import numpy as np
import pytest

from xreid.kernels import (
    DEFAULT_MIXTURE_SCALES,
    KernelSpec,
    gram,
    median_heuristic_bandwidth,
    mixture_kernel_matrix,
    rbf_kernel,
    resolve_bandwidth,
    squared_distances,
)


class TestRbfKernel:
    def test_zero_distance_is_one(self):
        x = np.array([0.3, -1.2, 4.0])
        assert rbf_kernel(x, x, 1.0) == 1.0

    def test_closed_form_1d(self):
        # exp(-(2-0)^2 / (2*2)) = exp(-1)
        assert rbf_kernel([0.0], [2.0], 2.0) == pytest.approx(np.exp(-1.0), abs=1e-15)

    def test_closed_form_2d(self):
        # ||x-y||^2 = 2, exp(-2/2) = exp(-1)
        assert rbf_kernel([1.0, 0.0], [0.0, 1.0], 1.0) == pytest.approx(np.exp(-1.0), abs=1e-15)

    def test_dimension_mismatch_names_both(self):
        with pytest.raises(ValueError, match="3.*2|dimension"):
            rbf_kernel([1.0, 2.0, 3.0], [1.0, 2.0], 1.0)

    def test_nonpositive_bandwidth(self):
        for bad in (0.0, -1.0):
            with pytest.raises(ValueError, match="sigma_squared"):
                rbf_kernel([0.0], [1.0], bad)


class TestMedianHeuristic:
    def test_two_points(self):
        # single pair, median is that pair's squared distance
        xs = np.array([[0.0], [3.0]])
        assert median_heuristic_bandwidth(xs) == 9.0

    def test_three_collinear_points(self):
        # pairwise squared distances {1, 4, 9} -> median 4
        xs = np.array([[0.0], [1.0], [3.0]])
        assert median_heuristic_bandwidth(xs) == 4.0

    def test_identical_points_fallback(self):
        xs = np.ones((5, 3))
        assert median_heuristic_bandwidth(xs) == 1.0

    def test_needs_two_vectors(self):
        with pytest.raises(ValueError, match="at least 2"):
            median_heuristic_bandwidth(np.ones((1, 3)))


class TestKernelSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            KernelSpec(sigma_squared=-1.0)
        with pytest.raises(ValueError):
            KernelSpec(mixture_scales=())
        with pytest.raises(ValueError):
            KernelSpec(mixture_scales=(1.0, 0.0))

    def test_default_is_median_with_five_scales(self):
        spec = KernelSpec()
        assert spec.is_median_heuristic
        assert spec.mixture_scales == DEFAULT_MIXTURE_SCALES
        assert len(DEFAULT_MIXTURE_SCALES) == 5

    def test_bandwidths_scale_the_base(self):
        spec = KernelSpec(sigma_squared=2.0, mixture_scales=(1.0, 2.0))
        assert spec.bandwidths(2.0).tolist() == [2.0, 4.0]


class TestGram:
    def test_self_gram_symmetric_unit_diagonal(self):
        rng = np.random.default_rng(0)
        xs = rng.standard_normal((6, 3))
        g = gram(xs, xs, KernelSpec()).values
        assert np.allclose(g, g.T, atol=1e-15)
        assert np.allclose(np.diag(g), 1.0, atol=1e-15)

    def test_single_scale_matches_rbf_pointwise(self):
        rng = np.random.default_rng(1)
        xs = rng.standard_normal((4, 2))
        ys = rng.standard_normal((5, 2))
        g = gram(xs, ys, KernelSpec(sigma_squared=1.5, mixture_scales=(1.0,))).values
        for i in range(4):
            for j in range(5):
                assert g[i, j] == pytest.approx(rbf_kernel(xs[i], ys[j], 1.5), rel=1e-12)

    def test_two_scale_mixture_closed_form(self):
        # scales (1, 2) on x=0, y=2 with sigma^2=2: (exp(-1) + exp(-0.5)) / 2
        g = gram([[0.0]], [[2.0]], KernelSpec(sigma_squared=2.0, mixture_scales=(1.0, 2.0)))
        expected = (np.exp(-1.0) + np.exp(-0.5)) / 2.0
        assert g.values[0, 0] == pytest.approx(expected, abs=1e-15)
        assert expected == pytest.approx(0.4872050, abs=5e-7)

    def test_transpose_symmetry(self):
        rng = np.random.default_rng(2)
        xs = rng.standard_normal((5, 4))
        ys = rng.standard_normal((7, 4))
        spec = KernelSpec(sigma_squared=0.7, mixture_scales=(0.5, 1.0, 2.0))
        assert np.allclose(gram(xs, ys, spec).values.T, gram(ys, xs, spec).values, atol=1e-15)

    def test_median_heuristic_uses_union(self):
        xs = np.array([[0.0], [1.0]])
        ys = np.array([[3.0]])
        # union pairwise squared distances {1, 9, 4} -> median 4
        spec = KernelSpec(mixture_scales=(1.0,))
        g = gram(xs, ys, spec).values
        assert g[0, 0] == pytest.approx(np.exp(-9.0 / 8.0), rel=1e-12)

    def test_self_grams_positive_semidefinite(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = rng.integers(2, 9)
            xs = rng.standard_normal((n, rng.integers(1, 5)))
            g = gram(xs, xs, KernelSpec()).values
            eigs = np.linalg.eigvalsh(g)
            assert eigs.min() >= -1e-8

    def test_offdiagonal_monotone_in_bandwidth(self):
        rng = np.random.default_rng(4)
        xs = rng.standard_normal((5, 3))
        prev = None
        for s2 in (0.5, 1.0, 2.0, 4.0):
            g = gram(xs, xs, KernelSpec(sigma_squared=s2, mixture_scales=(1.0,))).values
            off = g[~np.eye(5, dtype=bool)]
            if prev is not None:
                assert np.all(off > prev)
            prev = off

    def test_scale_collapse_bitwise(self):
        rng = np.random.default_rng(5)
        xs = rng.standard_normal((4, 3))
        ys = rng.standard_normal((6, 3))
        mixture = gram(xs, ys, KernelSpec(sigma_squared=1.3, mixture_scales=(1.0,))).values
        single = np.exp(-squared_distances(xs, ys) / (2.0 * 1.3))
        assert np.array_equal(mixture, single)

    def test_row_col_counts(self):
        g = gram(np.zeros((3, 2)), np.zeros((5, 2)), KernelSpec(sigma_squared=1.0))
        assert (g.row_count, g.col_count) == (3, 5)

    def test_entries_in_unit_interval(self):
        rng = np.random.default_rng(6)
        g = gram(rng.standard_normal((8, 3)), rng.standard_normal((9, 3)), KernelSpec()).values
        assert np.all(g > 0) and np.all(g <= 1)

    def test_empty_and_mismatched_inputs(self):
        with pytest.raises(ValueError, match="empty"):
            gram(np.zeros((0, 2)), np.zeros((3, 2)), KernelSpec(sigma_squared=1.0))
        with pytest.raises(ValueError, match="dimension"):
            gram(np.zeros((2, 2)), np.zeros((3, 4)), KernelSpec(sigma_squared=1.0))


def test_mixture_kernel_matrix_uniform_weights():
    d2 = np.array([[0.0, 4.0]])
    out = mixture_kernel_matrix(d2, np.array([2.0, 4.0]))
    assert out[0, 0] == 1.0
    assert out[0, 1] == pytest.approx((np.exp(-1.0) + np.exp(-0.5)) / 2.0, abs=1e-15)


def test_mixture_kernel_matrix_grad_weights_per_block():
    # A = (1/S) sum_s K_s / sigma_s^2 per block, with one bandwidth row per block
    d2 = np.array([[[0.0, 4.0]], [[1.0, 9.0]]])
    bandwidths = np.array([[2.0, 4.0], [1.0, 3.0]])
    k, a = mixture_kernel_matrix(d2, bandwidths, grad_weights=True)
    for c in range(2):
        for j in range(2):
            ks = [np.exp(-d2[c, 0, j] / (2.0 * s2)) for s2 in bandwidths[c]]
            assert k[c, 0, j] == pytest.approx(np.mean(ks), abs=1e-15)
            assert a[c, 0, j] == pytest.approx(np.mean([v / s2 for v, s2 in zip(ks, bandwidths[c])]), abs=1e-15)


class TestBlockStacks:
    def test_stacked_distances_match_each_block(self):
        rng = np.random.default_rng(7)
        xs = rng.standard_normal((3, 5, 4))
        stacked = squared_distances(xs, xs)
        for c in range(3):
            assert np.allclose(stacked[c], squared_distances(xs[c], xs[c]), atol=1e-12)

    def test_padded_block_medians(self):
        # pairs at infinite distance (padding) take no part in a block's median
        rng = np.random.default_rng(8)
        xs = rng.standard_normal((3, 6, 2))
        valid = np.array([[1, 1, 0, 1, 1, 0], [1, 1, 1, 1, 1, 1], [1, 0, 0, 0, 1, 0]], dtype=bool)
        d2 = squared_distances(xs, xs)
        d2[~(valid[:, :, None] & valid[:, None, :])] = np.inf
        bases = resolve_bandwidth(KernelSpec(), d2)
        for c in range(3):
            assert bases[c] == pytest.approx(median_heuristic_bandwidth(xs[c][valid[c]]), abs=1e-12)
        assert resolve_bandwidth(KernelSpec(sigma_squared=2.5), d2).tolist() == [2.5, 2.5, 2.5]

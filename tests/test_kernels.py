import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracle_utils import kernel_oracle, median_bandwidth_oracle
from xreid.kernels import (
    DEFAULT_MIXTURE_SCALES,
    KernelSpec,
    mixture_kernel_matrix,
    resolve_bandwidth,
    squared_distances,
)


def median_base(xs):
    """The median heuristic's base bandwidth over the rows of ``xs``."""
    return resolve_bandwidth(KernelSpec(), squared_distances(xs, xs)[None])[0]


def kernel(xs, ys, spec):
    """The (N, M) kernel mixture between rows, by the MMD engine's route; the
    base bandwidth is the spec's fixed one, else the median over ``xs``."""
    xs, ys = np.atleast_2d(xs).astype(np.float64), np.atleast_2d(ys).astype(np.float64)
    base = median_base(xs) if spec.is_median_heuristic else spec.sigma_squared
    return mixture_kernel_matrix(squared_distances(xs, ys), spec.bandwidths(base))[0]


def single(sigma_squared):
    return KernelSpec(sigma_squared=sigma_squared, mixture_scales=(1.0,))


class TestRbfKernel:
    def test_zero_distance_is_one(self):
        x = np.array([0.3, -1.2, 4.0])
        assert kernel(x, x, single(1.0))[0, 0] == 1.0

    def test_closed_form_1d(self):
        # exp(-(2-0)^2 / (2*2)) = exp(-1)
        assert kernel([0.0], [2.0], single(2.0))[0, 0] == pytest.approx(np.exp(-1.0), abs=1e-15)

    def test_closed_form_2d(self):
        # ||x-y||^2 = 2, exp(-2/2) = exp(-1)
        assert kernel([1.0, 0.0], [0.0, 1.0], single(1.0))[0, 0] == pytest.approx(np.exp(-1.0), abs=1e-15)


class TestMedianHeuristic:
    def test_two_points(self):
        # single pair, median is that pair's squared distance
        xs = np.array([[0.0], [3.0]])
        assert median_base(xs) == 9.0

    def test_three_collinear_points(self):
        # pairwise squared distances {1, 4, 9} -> median 4
        xs = np.array([[0.0], [1.0], [3.0]])
        assert median_base(xs) == 4.0

    def test_identical_points_fallback(self):
        xs = np.ones((5, 3))
        assert median_base(xs) == 1.0


class TestKernelSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            KernelSpec(sigma_squared=-1.0)
        with pytest.raises(ValueError):
            KernelSpec(mixture_scales=())
        with pytest.raises(ValueError):
            KernelSpec(mixture_scales=(1.0, 0.0))
        with pytest.raises(ValueError):
            KernelSpec(mixture_scales=(float("nan"),))
        with pytest.raises(ValueError):
            KernelSpec(sigma_squared=float("nan"))

    def test_default_is_median_with_four_scales(self):
        spec = KernelSpec()
        assert spec.is_median_heuristic
        assert spec.mixture_scales == DEFAULT_MIXTURE_SCALES
        assert len(DEFAULT_MIXTURE_SCALES) == 4

    def test_bandwidths_scale_the_base(self):
        spec = KernelSpec(sigma_squared=2.0, mixture_scales=(1.0, 2.0))
        assert spec.bandwidths(2.0).tolist() == [2.0, 4.0]


class TestGram:
    def test_self_gram_symmetric_unit_diagonal(self):
        rng = np.random.default_rng(0)
        xs = rng.standard_normal((6, 3))
        g = kernel(xs, xs, KernelSpec())
        assert np.allclose(g, g.T, atol=1e-15)
        assert np.allclose(np.diag(g), 1.0, atol=1e-15)

    def test_single_scale_matches_rbf_pointwise(self):
        rng = np.random.default_rng(1)
        xs = rng.standard_normal((4, 2))
        ys = rng.standard_normal((5, 2))
        g = kernel(xs, ys, single(1.5))
        for i in range(4):
            for j in range(5):
                assert g[i, j] == pytest.approx(kernel_oracle(xs[i], ys[j], [1.5]), rel=1e-12)

    def test_two_scale_mixture_closed_form(self):
        # scales (1, 2) on x=0, y=2 with sigma^2=2: (exp(-1) + exp(-0.5)) / 2
        g = kernel([0.0], [2.0], KernelSpec(sigma_squared=2.0, mixture_scales=(1.0, 2.0)))
        expected = (np.exp(-1.0) + np.exp(-0.5)) / 2.0
        assert g[0, 0] == pytest.approx(expected, abs=1e-15)
        assert expected == pytest.approx(0.4872050, abs=5e-7)

    def test_transpose_symmetry(self):
        rng = np.random.default_rng(2)
        xs = rng.standard_normal((5, 4))
        ys = rng.standard_normal((7, 4))
        spec = KernelSpec(sigma_squared=0.7, mixture_scales=(0.5, 1.0, 2.0))
        assert np.allclose(kernel(xs, ys, spec).T, kernel(ys, xs, spec), atol=1e-15)

    def test_self_grams_positive_semidefinite(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = rng.integers(2, 9)
            xs = rng.standard_normal((n, rng.integers(1, 5)))
            g = kernel(xs, xs, KernelSpec())
            eigs = np.linalg.eigvalsh(g)
            assert eigs.min() >= -1e-8

    def test_offdiagonal_monotone_in_bandwidth(self):
        rng = np.random.default_rng(4)
        xs = rng.standard_normal((5, 3))
        prev = None
        for s2 in (0.5, 1.0, 2.0, 4.0):
            g = kernel(xs, xs, single(s2))
            off = g[~np.eye(5, dtype=bool)]
            if prev is not None:
                assert np.all(off > prev)
            prev = off

    def test_scale_collapse_bitwise(self):
        rng = np.random.default_rng(5)
        xs = rng.standard_normal((4, 3))
        ys = rng.standard_normal((6, 3))
        mixture = kernel(xs, ys, single(1.3))
        single_kernel = np.exp(-squared_distances(xs, ys) / (2.0 * 1.3))
        assert np.array_equal(mixture, single_kernel)

    def test_row_col_counts(self):
        g = kernel(np.zeros((3, 2)), np.zeros((5, 2)), KernelSpec(sigma_squared=1.0))
        assert g.shape == (3, 5)

    def test_entries_in_unit_interval(self):
        rng = np.random.default_rng(6)
        xs, ys = rng.standard_normal((8, 3)), rng.standard_normal((9, 3))
        g = kernel(xs, ys, KernelSpec())
        assert np.all(g > 0) and np.all(g <= 1)


def test_mixture_kernel_matrix_uniform_weights():
    d2 = np.array([[0.0, 4.0]])
    out, _ = mixture_kernel_matrix(d2, np.array([2.0, 4.0]))
    assert out[0, 0] == 1.0
    assert out[0, 1] == pytest.approx((np.exp(-1.0) + np.exp(-0.5)) / 2.0, abs=1e-15)


def test_mixture_kernel_matrix_grad_weights_per_block():
    # A = (1/S) sum_s K_s / sigma_s^2 per block, with one bandwidth row per block
    d2 = np.array([[[0.0, 4.0]], [[1.0, 9.0]]])
    bandwidths = np.array([[2.0, 4.0], [1.0, 3.0]])
    k, a = mixture_kernel_matrix(d2, bandwidths)
    for c in range(2):
        for j in range(2):
            ks = [np.exp(-d2[c, 0, j] / (2.0 * s2)) for s2 in bandwidths[c]]
            assert k[c, 0, j] == pytest.approx(np.mean(ks), abs=1e-15)
            assert a[c, 0, j] == pytest.approx(np.mean([v / s2 for v, s2 in zip(ks, bandwidths[c])]), abs=1e-15)


def stacked_mixture(d2, bandwidths):
    """Reference mixture: all scales as one (S, C, N, M) stack, summed by
    ``np.add.reduce`` over the scale axis."""
    s2 = np.moveaxis(np.asarray(bandwidths, dtype=np.float64), -1, 0)[..., None, None]
    per_scale = np.exp((d2 * -0.5) / s2)
    k = np.add.reduce(per_scale, axis=0) / len(s2)
    return k, np.add.reduce(per_scale / s2, axis=0) / len(s2)


@st.composite
def distance_stacks(draw):
    """A (C, N, M) squared-distance stack, some entries at inf (padding),
    and a (C, S) bandwidth table of 1-6 scales."""
    c, n, m, scales = (draw(st.integers(1, hi)) for hi in (3, 5, 5, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d2 = rng.exponential(draw(st.sampled_from([1e-3, 1.0, 1e3])), (c, n, m))
    d2[rng.random(d2.shape) < draw(st.floats(0.0, 0.5))] = np.inf
    return d2, rng.uniform(0.01, 10.0, (c, scales))


def bits(a):
    return a.view(np.int64).tolist()


@given(distance_stacks())
def test_mixture_kernel_matrix_equals_stacked_reduce_bitwise(case):
    d2, bandwidths = case
    k, a = mixture_kernel_matrix(d2, bandwidths)
    want_k, want_a = stacked_mixture(d2, bandwidths)
    assert bits(k) == bits(want_k) and bits(a) == bits(want_a)
    # one (N, M) block with an (S,) bandwidth row takes the same route
    k0, a0 = mixture_kernel_matrix(d2[0], bandwidths[0])
    assert bits(k0) == bits(want_k[0]) and bits(a0) == bits(want_a[0])


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
            assert bases[c] == pytest.approx(median_bandwidth_oracle(xs[c][valid[c]]), abs=1e-12)
        assert resolve_bandwidth(KernelSpec(sigma_squared=2.5), d2).tolist() == [2.5, 2.5, 2.5]

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracle_utils import (
    fd_gradient,
    median_bandwidth_oracle,
    mmd2_oracle,
    random_two_modality_batch,
    rel_error,
)
from xreid import counters, mmd
from xreid.data import FeatureSet, THERMAL, VISIBLE
from xreid.kernels import DEFAULT_MIXTURE_SCALES, KernelSpec
from xreid.losses import HcTriConfig, LossWeights, loss_total
from xreid.mmd import (
    MarginConfig,
    loss_margin_mmd_id,
    loss_mmd_id,
    loss_mmd_marginal,
    mmd2_biased,
    mmd2_unbiased,
)

SINGLE = KernelSpec(sigma_squared=2.0, mixture_scales=(1.0,))


def pk_batch(rng, p, k, dim=3, gap=3.0):
    """P identities, exactly K features per (identity, modality)."""
    feats, ids, mods = [], [], []
    for c in range(p):
        center = 4.0 * rng.standard_normal(dim)
        shift = gap * rng.standard_normal(dim)
        for modality, offset in ((VISIBLE, 0.0), (THERMAL, shift)):
            for _ in range(k):
                feats.append(center + offset + 0.3 * rng.standard_normal(dim))
                ids.append(c)
                mods.append(modality)
    return FeatureSet(np.array(feats), np.array(ids), np.array(mods))


class TestEstimators:
    def test_identical_sets_biased_zero(self):
        rng = np.random.default_rng(0)
        xs = rng.standard_normal((5, 3))
        est = mmd2_biased(xs, xs.copy(), KernelSpec())
        assert abs(est.value) < 1e-12

    def test_two_point_closed_form(self):
        est = mmd2_biased(np.array([[0.0]]), np.array([[2.0]]), SINGLE)
        expected = 1.0 + 1.0 - 2.0 * np.exp(-1.0)
        assert est.value == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(1.264241, abs=5e-7)
        assert est.same_x_term == 1.0 and est.same_y_term == 1.0

    def test_all_identical_points(self):
        est = mmd2_biased(np.zeros((2, 1)), np.zeros((1, 1)), SINGLE)
        assert est.value == 0.0

    def test_terms_reconstruct_value(self):
        rng = np.random.default_rng(1)
        est = mmd2_biased(rng.standard_normal((4, 2)), rng.standard_normal((6, 2)), KernelSpec())
        recon = est.same_x_term + est.same_y_term - 2.0 * est.cross_term
        assert est.value == pytest.approx(recon, abs=1e-12)

    def test_unbiased_duplicate_points_zero(self):
        xs = np.tile([[1.5, -0.5]], (2, 1))
        est = mmd2_unbiased(xs, xs.copy(), SINGLE)
        assert abs(est.value) < 1e-12

    def test_unbiased_hand_case(self):
        # xs={0,1}, ys={3,4}, sigma^2=0.5: value from the double-loop oracle
        xs = np.array([[0.0], [1.0]])
        ys = np.array([[3.0], [4.0]])
        spec = KernelSpec(sigma_squared=0.5, mixture_scales=(1.0,))
        est = mmd2_unbiased(xs, ys, spec)
        expected = mmd2_oracle(xs, ys, [0.5], unbiased=True)
        assert est.value == pytest.approx(expected, abs=1e-12)
        assert est.value == pytest.approx(0.7264776, abs=1e-6)

    def test_unbiased_can_be_negative(self):
        # interleaved samples from one distribution often give a negative estimate
        rng = np.random.default_rng(7)
        found_negative = False
        for _ in range(50):
            z = rng.standard_normal((6, 1))
            est = mmd2_unbiased(z[::2], z[1::2], KernelSpec(sigma_squared=1.0, mixture_scales=(1.0,)))
            if est.value < 0:
                found_negative = True
                break
        assert found_negative

    def test_unbiased_needs_two_per_set(self):
        with pytest.raises(ValueError, match=">= 2"):
            mmd2_unbiased(np.zeros((1, 1)), np.zeros((3, 1)), SINGLE)

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            mmd2_biased(np.zeros((0, 1)), np.zeros((3, 1)), SINGLE)

    @pytest.mark.parametrize("unbiased", [False, True])
    def test_oracle_equivalence_random_batches(self, unbiased):
        rng = np.random.default_rng(42)
        for _ in range(60):
            n = int(rng.integers(2, 11))
            m = int(rng.integers(2, 11))
            dim = int(rng.integers(1, 6))
            xs = 2.0 * rng.standard_normal((n, dim))
            ys = 2.0 * rng.standard_normal((m, dim)) + 1.0
            scales = (0.5, 1.0, 2.0)
            base = 1.7
            spec = KernelSpec(sigma_squared=base, mixture_scales=scales)
            est = (mmd2_unbiased if unbiased else mmd2_biased)(xs, ys, spec)
            expected = mmd2_oracle(xs, ys, [s * base for s in scales], unbiased=unbiased)
            assert est.value == pytest.approx(expected, abs=1e-10)


class TestMarginalLoss:
    def test_identical_modalities_zero_loss_zero_grad(self):
        rng = np.random.default_rng(2)
        feats = rng.standard_normal((4, 3))
        batch = FeatureSet(
            np.vstack([feats, feats]),
            np.zeros(8, dtype=int),
            np.array([VISIBLE] * 4 + [THERMAL] * 4),
        )
        res = loss_mmd_marginal(batch, SINGLE)
        assert abs(res.value) < 1e-12
        assert np.all(res.grad == 0.0)

    def test_two_point_hand_gradient(self):
        batch = FeatureSet(
            np.array([[0.0], [2.0]]), np.array([0, 0]), np.array([VISIBLE, THERMAL])
        )
        res = loss_mmd_marginal(batch, SINGLE)
        assert res.value == pytest.approx(2.0 - 2.0 * np.exp(-1.0), abs=1e-12)
        # d/dx of -2 k(x,y): -2 exp(-1) (2-0)/2 = -2 exp(-1)
        assert res.grad[0, 0] == pytest.approx(-2.0 * np.exp(-1.0), abs=1e-12)
        assert res.grad[1, 0] == pytest.approx(+2.0 * np.exp(-1.0), abs=1e-12)

    def test_missing_modality_named(self):
        batch = FeatureSet(np.zeros((2, 1)), np.zeros(2, dtype=int), np.array([VISIBLE, VISIBLE]))
        with pytest.raises(ValueError, match="thermal"):
            loss_mmd_marginal(batch, SINGLE)

    @pytest.mark.parametrize("estimator", ["biased", "unbiased"])
    def test_finite_difference_gradients(self, estimator):
        # pk_batch has a real modality gap, so the estimates are positive;
        # TestBlockEngine covers negative unbiased estimates
        rng = np.random.default_rng(3)
        for _ in range(8):
            batch = pk_batch(rng, p=2, k=3, gap=2.0)
            spec = KernelSpec(sigma_squared=2.5, mixture_scales=(0.5, 1.0))
            res = loss_mmd_marginal(batch, spec, estimator)
            assert res.value > 0
            fd = fd_gradient(
                lambda: loss_mmd_marginal(batch, spec, estimator).value, batch.features
            )
            assert rel_error(res.grad, fd) < 1e-4


class TestClassConditionalLoss:
    def test_single_identity_reduces_to_marginal(self):
        rng = np.random.default_rng(4)
        batch = random_two_modality_batch(rng, n_classes=1, per_cell=(2, 4))
        spec = KernelSpec(sigma_squared=1.0, mixture_scales=(1.0, 2.0))
        res_id = loss_mmd_id(batch, spec)
        res_marginal = loss_mmd_marginal(batch, spec)
        assert res_id.value == pytest.approx(res_marginal.value, abs=1e-14)
        assert np.allclose(res_id.grad, res_marginal.grad, atol=1e-14)

    def test_aligned_classes_zero(self):
        rng = np.random.default_rng(5)
        feats = rng.standard_normal((6, 2))
        batch = FeatureSet(
            np.vstack([feats, feats]),
            np.tile(np.repeat([0, 1], 3), 2),
            np.array([VISIBLE] * 6 + [THERMAL] * 6),
        )
        res = loss_mmd_id(batch, SINGLE)
        assert abs(res.value) < 1e-12

    def test_two_class_average_matches_oracle(self):
        rng = np.random.default_rng(6)
        batch = pk_batch(rng, p=2, k=3)
        spec = KernelSpec(sigma_squared=3.0, mixture_scales=(1.0,))
        res = loss_mmd_id(batch, spec)
        per_class = []
        for c in (0, 1):
            xs = batch.features[(batch.identities == c) & (batch.modalities == VISIBLE)]
            ys = batch.features[(batch.identities == c) & (batch.modalities == THERMAL)]
            per_class.append(mmd2_oracle(xs, ys, [3.0]))
        assert res.value == pytest.approx(sum(per_class) / 2.0, abs=1e-10)
        assert np.allclose(res.class_mmd2, per_class, atol=1e-10)

    def test_identity_with_one_modality_named(self):
        batch = FeatureSet(
            np.zeros((3, 1)),
            np.array([0, 0, 7]),
            np.array([VISIBLE, THERMAL, VISIBLE]),
        )
        with pytest.raises(ValueError, match="7"):
            loss_mmd_id(batch, SINGLE)

    def test_per_class_median_bandwidth(self):
        # classes with very different scales must get different bandwidths;
        # with one shared bandwidth the per-class values would coincide
        far = FeatureSet(
            np.array([[0.0], [2.0], [0.0], [200.0], [202.0], [200.0]])[:, :],
            np.array([0, 0, 0, 1, 1, 1]),
            np.array([VISIBLE, VISIBLE, THERMAL, VISIBLE, VISIBLE, THERMAL]),
        )
        res = loss_mmd_id(far, KernelSpec(mixture_scales=(1.0,)))
        # identical within-class geometry -> identical per-class MMD^2
        assert res.class_mmd2[0] == pytest.approx(res.class_mmd2[1], abs=1e-12)

    def test_finite_difference_gradients(self):
        rng = np.random.default_rng(8)
        for _ in range(6):
            batch = random_two_modality_batch(rng, n_classes=3, per_cell=(2, 3), dim=2)
            spec = KernelSpec(sigma_squared=2.0, mixture_scales=(0.5, 1.0))
            res = loss_mmd_id(batch, spec)
            fd = fd_gradient(lambda: loss_mmd_id(batch, spec).value, batch.features)
            assert rel_error(res.grad, fd) < 1e-4


class TestMarginLoss:
    def test_rho_zero_matches_mmd_id_bitwise(self):
        rng = np.random.default_rng(9)
        batch = random_two_modality_batch(rng, n_classes=3, per_cell=(1, 4))
        spec = KernelSpec(sigma_squared=1.0, mixture_scales=(0.5, 1.0, 2.0))
        gated = loss_margin_mmd_id(batch, spec, MarginConfig(0.0))
        plain = loss_mmd_id(batch, spec)
        assert gated.value == plain.value
        assert np.array_equal(gated.grad, plain.grad)
        assert gated.active_classes == 3

    def test_rho_zero_matches_mmd_id_bitwise_unbiased(self):
        # one class drawn from a single distribution in both modalities, so
        # its unbiased MMD^2 is negative; rho = 0 must still keep it
        rng = np.random.default_rng(3)
        same = rng.standard_normal((6, 2))
        apart = rng.standard_normal((6, 2)) + np.repeat([[0.0], [3.0]], 3, axis=0)
        batch = FeatureSet(
            np.vstack([same, apart]),
            np.repeat([0, 1], 6),
            np.tile(np.repeat([VISIBLE, THERMAL], 3), 2),
        )
        spec = KernelSpec(sigma_squared=1.0, mixture_scales=(0.5, 1.0, 2.0))
        gated = loss_margin_mmd_id(batch, spec, MarginConfig(0.0), estimator="unbiased")
        plain = loss_mmd_id(batch, spec, estimator="unbiased")
        assert plain.class_mmd2.min() < 0.0 < plain.class_mmd2.max()
        assert gated.value == plain.value
        assert np.array_equal(gated.grad, plain.grad)
        assert gated.active_classes == 2

    def test_two_point_gate_behavior(self):
        batch = FeatureSet(
            np.array([[0.0], [2.0]]), np.array([0, 0]), np.array([VISIBLE, THERMAL])
        )
        value = 2.0 - 2.0 * np.exp(-1.0)  # ~1.2642
        above = loss_margin_mmd_id(batch, SINGLE, MarginConfig(1.4))
        assert above.value == 0.0
        assert np.all(above.grad == 0.0)
        assert above.active_classes == 0
        below = loss_margin_mmd_id(batch, SINGLE, MarginConfig(1.0))
        assert below.value == pytest.approx(value, abs=1e-12)
        assert below.active_classes == 1

    def test_gated_class_grad_exactly_zero(self):
        rng = np.random.default_rng(10)
        # class 0 far apart (big MMD^2), class 1 aligned (zero MMD^2)
        f0v = rng.standard_normal((3, 2))
        f0t = f0v + 10.0
        f1 = rng.standard_normal((3, 2))
        batch = FeatureSet(
            np.vstack([f0v, f0t, f1, f1]),
            np.array([0] * 6 + [1] * 6),
            np.array([VISIBLE] * 3 + [THERMAL] * 3 + [VISIBLE] * 3 + [THERMAL] * 3),
        )
        res = loss_margin_mmd_id(batch, SINGLE, MarginConfig(0.5))
        assert res.active_classes == 1
        assert np.all(res.grad[6:] == 0.0)
        assert np.any(res.grad[:6] != 0.0)
        fd = fd_gradient(
            lambda: loss_margin_mmd_id(batch, SINGLE, MarginConfig(0.5)).value, batch.features
        )
        assert rel_error(res.grad, fd) < 1e-4

    def test_hinge_monotone_in_rho(self):
        rng = np.random.default_rng(11)
        batch = pk_batch(rng, p=3, k=3)
        spec = KernelSpec(sigma_squared=4.0, mixture_scales=(1.0,))
        values = [
            loss_margin_mmd_id(batch, spec, MarginConfig(rho)).value
            for rho in (0.0, 0.3, 0.8, 1.2, 1.6, 2.0)
        ]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_negative_rho_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            MarginConfig(-0.1)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(12)
        batch = pk_batch(rng, p=2, k=4)
        spec = KernelSpec(sigma_squared=2.0, mixture_scales=(0.5, 1.0))
        base = loss_margin_mmd_id(batch, spec, MarginConfig(0.2)).value
        # shuffle within each (identity, modality) cell
        perm = np.arange(len(batch))
        for c in (0, 1):
            for m in (VISIBLE, THERMAL):
                cell = np.where((batch.identities == c) & (batch.modalities == m))[0]
                perm[cell] = rng.permutation(cell)
        shuffled = FeatureSet(
            batch.features[perm], batch.identities[perm], batch.modalities[perm]
        )
        assert loss_margin_mmd_id(shuffled, spec, MarginConfig(0.2)).value == pytest.approx(
            base, abs=1e-12
        )


    @given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.sampled_from(["biased", "unbiased"]),
           st.lists(st.floats(0.0, 3.0), min_size=2, max_size=6))
    def test_active_classes_never_rise_with_rho(self, seed, n_classes, estimator, rhos):
        rng = np.random.default_rng(seed)
        batch = random_two_modality_batch(rng, n_classes=n_classes, per_cell=(2, 4), scale=3.0)
        spec = KernelSpec(mixture_scales=(0.5, 1.0, 2.0))
        active = [
            loss_margin_mmd_id(batch, spec, MarginConfig(rho), estimator).active_classes
            for rho in sorted(rhos)
        ]
        assert all(0 <= b <= a <= n_classes for a, b in zip(active, active[1:]))


class TestPairCounting:
    @pytest.mark.parametrize("p,k", [(4, 4), (2, 3), (8, 2)])
    def test_margin_loss_unbiased_pair_total(self, p, k):
        rng = np.random.default_rng(13)
        batch = pk_batch(rng, p=p, k=k)
        counters.kernel_pairs.reset()
        loss_margin_mmd_id(batch, SINGLE, MarginConfig(0.0), estimator="unbiased")
        assert counters.kernel_pairs.count == p * k * (2 * k - 1)

    def test_counter_resets(self):
        counters.kernel_pairs.reset()
        assert counters.kernel_pairs.count == 0


def shuffled(batch, rng):
    perm = rng.permutation(len(batch))
    return FeatureSet(batch.features[perm], batch.identities[perm], batch.modalities[perm])


def cell(batch, c, modality):
    return batch.features[(batch.identities == c) & (batch.modalities == modality)]


class TestBlockEngine:
    """Shuffled rows, ragged cells of 1-4 rows, both estimators, the median
    heuristic and several mixtures through the one batch engine."""

    MIXTURES = [(1.0,), (0.5, 2.0), DEFAULT_MIXTURE_SCALES]

    @pytest.mark.parametrize("estimator", ["biased", "unbiased"])
    @pytest.mark.parametrize("scales", MIXTURES)
    def test_per_class_values_match_oracle_with_own_median(self, estimator, scales):
        rng = np.random.default_rng(21)
        low = 2 if estimator == "unbiased" else 1
        spec = KernelSpec(mixture_scales=scales)
        for _ in range(4):
            batch = shuffled(random_two_modality_batch(rng, n_classes=4, per_cell=(low, 4)), rng)
            res = loss_mmd_id(batch, spec, estimator)
            assert res.class_ids.tolist() == [0, 1, 2, 3]
            for c, got in zip(res.class_ids, res.class_mmd2):
                xs, ys = cell(batch, c, VISIBLE), cell(batch, c, THERMAL)
                base = median_bandwidth_oracle(np.vstack([xs, ys]))
                want = mmd2_oracle(xs, ys, [s * base for s in scales], estimator == "unbiased")
                assert got == pytest.approx(want, abs=1e-10)
            assert res.value == pytest.approx(np.mean(res.class_mmd2), abs=1e-12)

    @pytest.mark.parametrize("estimator", ["biased", "unbiased"])
    @pytest.mark.parametrize("variant", ["margin_id", "id", "marginal"])
    def test_loss_total_gradient_with_bandwidths_held(self, monkeypatch, estimator, variant):
        # median-heuristic bandwidths are constants to the gradient: record
        # what mmd.resolve_bandwidth returns once, replay it under perturbation
        rng = np.random.default_rng(22)
        low = 2 if estimator == "unbiased" else 1
        original = mmd.resolve_bandwidth
        for trial in range(3):
            batch = shuffled(random_two_modality_batch(rng, n_classes=3, per_cell=(low, 4)), rng)
            logits = rng.standard_normal((len(batch), 3))
            spec = KernelSpec(mixture_scales=self.MIXTURES[trial])
            monkeypatch.setattr(mmd, "resolve_bandwidth", original)
            values = loss_mmd_id(batch, spec, estimator).class_mmd2
            # a margin halfway between two class values: one gate shut, one open
            rho = max(0.0, float(np.mean(np.sort(values)[:2])))
            kwargs = dict(
                kernel_spec=spec, margin=MarginConfig(rho), hctri=HcTriConfig(0.3),
                weights=LossWeights(1.0, 1.0, 0.0), estimator=estimator, mmd_variant=variant,
            )
            recorded = []

            def record(*args, **kw):
                recorded.append(original(*args, **kw))
                return recorded[-1]

            monkeypatch.setattr(mmd, "resolve_bandwidth", record)
            analytic = loss_total(batch, logits, batch.identities, **kwargs).grad_pooled
            assert len(recorded) == 1

            def total():
                replay = iter(recorded)
                monkeypatch.setattr(mmd, "resolve_bandwidth", lambda *a, **kw: next(replay))
                return loss_total(batch, logits, batch.identities, **kwargs).total

            fd = fd_gradient(total, batch.features)
            assert rel_error(analytic, fd) < 1e-4

    @pytest.mark.parametrize("loss", [loss_mmd_marginal, loss_mmd_id])
    def test_negative_unbiased_estimate_value_and_gradient(self, loss):
        # both modalities drawn from one distribution: the U-statistic is
        # often negative, and the loss reports it signed with its gradient
        rng = np.random.default_rng(23)
        spec = KernelSpec(sigma_squared=1.5, mixture_scales=(0.5, 1.0))
        negatives = 0
        for _ in range(20):
            batch = shuffled(random_two_modality_batch(rng, n_classes=2, per_cell=(2, 4), scale=0.0), rng)
            res = loss(batch, spec, "unbiased")
            if res.value >= 0:
                continue
            negatives += 1
            fd = fd_gradient(lambda: loss(batch, spec, "unbiased").value, batch.features)
            assert rel_error(res.grad, fd) < 1e-4
        assert negatives >= 3

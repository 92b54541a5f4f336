import numpy as np
import pytest

from oracle_utils import fd_gradient, rel_error, softmax_ce_oracle
from xreid import counters
from xreid.data import FeatureSet, THERMAL, VISIBLE
from xreid.kernels import KernelSpec
from xreid.losses import (
    HcTriConfig,
    LossWeights,
    hetero_centers,
    loss_hc_tri,
    loss_id,
    loss_total,
)
from xreid.mmd import MarginConfig

SINGLE = KernelSpec(sigma_squared=2.0, mixture_scales=(1.0,))


def make_batch(features, identities, modalities):
    return FeatureSet(np.asarray(features, dtype=float), np.asarray(identities), np.asarray(modalities))


class TestLossId:
    def test_uniform_logits_ln_c(self):
        for c in (2, 5, 17):
            logits = np.zeros((4, c))
            labels = np.arange(4) % c
            value, _ = loss_id(logits, labels)
            assert value == pytest.approx(np.log(c), abs=1e-12)

    def test_confident_logits_near_zero(self):
        logits = np.zeros((3, 4))
        labels = np.array([0, 1, 2])
        logits[np.arange(3), labels] = 50.0
        value, _ = loss_id(logits, labels)
        assert value < 1e-20

    def test_matches_logsumexp_oracle(self):
        rng = np.random.default_rng(0)
        logits = rng.standard_normal((3, 4)) * 3.0
        labels = rng.integers(0, 4, size=3)
        value, _ = loss_id(logits, labels)
        assert value == pytest.approx(softmax_ce_oracle(logits, labels), abs=1e-12)

    def test_gradient_form_and_fd(self):
        rng = np.random.default_rng(1)
        logits = rng.standard_normal((5, 3))
        labels = rng.integers(0, 3, size=5)
        value, grad = loss_id(logits, labels)
        probs = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        onehot = np.eye(3)[labels]
        assert np.allclose(grad, (probs - onehot) / 5.0, atol=1e-12)
        fd = fd_gradient(lambda: loss_id(logits, labels)[0], logits)
        assert rel_error(grad, fd) < 1e-4

    def test_shift_invariance(self):
        rng = np.random.default_rng(2)
        logits = rng.standard_normal((4, 6))
        labels = rng.integers(0, 6, size=4)
        base, _ = loss_id(logits, labels)
        shifted, _ = loss_id(logits + 123.456, labels)
        assert shifted == pytest.approx(base, abs=1e-12)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            loss_id(np.zeros((2, 3)), np.array([0, 3]))


class TestHeteroCenters:
    def test_single_sample_center_is_sample(self):
        batch = make_batch([[1.0, 2.0], [3.0, 4.0]], [0, 0], [VISIBLE, THERMAL])
        _, cv, ct = hetero_centers(batch)
        assert np.array_equal(cv[0], [1.0, 2.0])
        assert np.array_equal(ct[0], [3.0, 4.0])

    def test_midpoint(self):
        batch = make_batch(
            [[0.0, 0.0], [2.0, 2.0], [5.0, 5.0]], [0, 0, 0], [VISIBLE, VISIBLE, THERMAL]
        )
        _, cv, _ = hetero_centers(batch)
        assert np.array_equal(cv[0], [1.0, 1.0])

    def test_matches_mean_oracle(self):
        rng = np.random.default_rng(3)
        feats = rng.standard_normal((12, 4))
        ids = np.repeat([0, 1], 6)
        mods = np.tile(np.repeat([VISIBLE, THERMAL], 3), 2)
        batch = make_batch(feats, ids, mods)
        got_ids, cv, ct = hetero_centers(batch)
        for i, c in enumerate(got_ids):
            expected_v = feats[(ids == c) & (mods == VISIBLE)].mean(axis=0)
            expected_t = feats[(ids == c) & (mods == THERMAL)].mean(axis=0)
            assert np.allclose(cv[i], expected_v, atol=1e-12)
            assert np.allclose(ct[i], expected_t, atol=1e-12)

    def test_missing_modality_rejected(self):
        batch = make_batch([[0.0], [1.0]], [0, 1], [VISIBLE, THERMAL])
        with pytest.raises(ValueError, match="identity"):
            hetero_centers(batch)


def hc_tri_oracle(centers_v, centers_t, rho):
    """Exhaustive enumeration of all 2P hinge terms."""
    p = len(centers_v)
    total = 0.0
    for i in range(p):
        d_pos = np.linalg.norm(centers_v[i] - centers_t[i])
        for anchor in (centers_v[i], centers_t[i]):
            d_neg = min(
                np.linalg.norm(anchor - cand[j])
                for j in range(p)
                if j != i
                for cand in (centers_v, centers_t)
            )
            total += max(0.0, rho + d_pos - d_neg)
    return total


class TestHcTri:
    def two_identity_batch(self, av, at, bv, bt):
        return make_batch(
            [[av], [at], [bv], [bt]], [0, 0, 1, 1], [VISIBLE, THERMAL] * 2
        )

    def test_separated_identities_zero_loss(self):
        batch = self.two_identity_batch(0.0, 1.0, 10.0, 11.0)
        value, grad = loss_hc_tri(batch, HcTriConfig(0.3))
        assert value == 0.0
        assert np.all(grad == 0.0)

    def test_confusable_identities_hand_value(self):
        # centers: A = {v: 0, t: 1}, B = {v: 1.5, t: 1.6}
        # anchor A_v: pos 1.0, neg min(1.5, 1.6) = 1.5 -> [0.3+1.0-1.5]+ = 0
        # anchor A_t: pos 1.0, neg min(0.5, 0.6) = 0.5 -> 0.8
        # anchor B_v: pos 0.1, neg min(1.5, 0.5) = 0.5 -> 0
        # anchor B_t: pos 0.1, neg min(1.6, 0.6) = 0.6 -> 0
        batch = self.two_identity_batch(0.0, 1.0, 1.5, 1.6)
        value, _ = loss_hc_tri(batch, HcTriConfig(0.3))
        assert value == pytest.approx(0.8, abs=1e-12)
        assert value == pytest.approx(
            hc_tri_oracle(np.array([[0.0], [1.5]]), np.array([[1.0], [1.6]]), 0.3), abs=1e-12
        )

    def test_matches_enumeration_oracle_random(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            p = int(rng.integers(2, 6))
            k = int(rng.integers(1, 4))
            feats, ids, mods = [], [], []
            for c in range(p):
                for m in (VISIBLE, THERMAL):
                    for _ in range(k):
                        feats.append(rng.standard_normal(3))
                        ids.append(c)
                        mods.append(m)
            batch = make_batch(feats, ids, mods)
            _, cv, ct = hetero_centers(batch)
            value, _ = loss_hc_tri(batch, HcTriConfig(0.3))
            assert value == pytest.approx(hc_tri_oracle(cv, ct, 0.3), abs=1e-10)

    def test_finite_difference_gradients(self):
        rng = np.random.default_rng(5)
        checked = 0
        for _ in range(20):
            feats, ids, mods = [], [], []
            for c in range(3):
                for m in (VISIBLE, THERMAL):
                    for _ in range(2):
                        feats.append(2.0 * rng.standard_normal(3))
                        ids.append(c)
                        mods.append(m)
            batch = make_batch(feats, ids, mods)
            cfg = HcTriConfig(0.3)
            value, grad = loss_hc_tri(batch, cfg)
            if value == 0.0:
                continue
            # skip configurations near hinge kinks or negative-mining ties,
            # where the loss is not differentiable
            _, cv, ct = hetero_centers(batch)
            terms, gaps = [], []
            for i in range(3):
                d_pos = np.linalg.norm(cv[i] - ct[i])
                for anchor in (cv[i], ct[i]):
                    cands = sorted(
                        np.linalg.norm(anchor - cand[j])
                        for j in range(3)
                        if j != i
                        for cand in (cv, ct)
                    )
                    terms.append(0.3 + d_pos - cands[0])
                    gaps.append(cands[1] - cands[0])
            if min(abs(t) for t in terms) < 1e-3 or min(gaps) < 1e-3:
                continue
            checked += 1
            fd = fd_gradient(lambda: loss_hc_tri(batch, cfg)[0], batch.features)
            assert rel_error(grad, fd) < 1e-4
        assert checked >= 5

    def test_translation_invariance(self):
        rng = np.random.default_rng(6)
        feats = rng.standard_normal((8, 3))
        ids = np.repeat([0, 1], 4)
        mods = np.tile([VISIBLE, VISIBLE, THERMAL, THERMAL], 2)
        batch = make_batch(feats, ids, mods)
        value, _ = loss_hc_tri(batch, HcTriConfig(0.3))
        moved = make_batch(feats + np.array([10.0, -20.0, 5.0]), ids, mods)
        value2, _ = loss_hc_tri(moved, HcTriConfig(0.3))
        assert value2 == pytest.approx(value, abs=1e-10)

    def test_needs_two_identities(self):
        batch = make_batch([[0.0], [1.0]], [0, 0], [VISIBLE, THERMAL])
        with pytest.raises(ValueError, match=">= 2 identities"):
            loss_hc_tri(batch, HcTriConfig(0.3))

    @pytest.mark.parametrize("p,k", [(4, 4), (2, 3), (8, 2)])
    def test_center_distance_count(self, p, k):
        rng = np.random.default_rng(7)
        feats, ids, mods = [], [], []
        for c in range(p):
            for m in (VISIBLE, THERMAL):
                for _ in range(k):
                    feats.append(rng.standard_normal(2))
                    ids.append(c)
                    mods.append(m)
        batch = make_batch(feats, ids, mods)
        counters.center_distances.reset()
        loss_hc_tri(batch, HcTriConfig(0.3))
        assert counters.center_distances.count == p + 2 * p * 2 * (p - 1)


class TestLossTotal:
    def setup_batch(self, rng, gap=3.0):
        feats, ids, mods = [], [], []
        for c in range(3):
            center = 3.0 * rng.standard_normal(4)
            shift = gap * rng.standard_normal(4)
            for m, off in ((VISIBLE, 0.0), (THERMAL, shift)):
                for _ in range(2):
                    feats.append(center + off + 0.3 * rng.standard_normal(4))
                    ids.append(c)
                    mods.append(m)
        batch = make_batch(feats, ids, mods)
        logits = rng.standard_normal((len(batch), 3))
        labels = batch.identities.copy()
        return batch, logits, labels

    def kwargs(self, weights, variant="margin_id"):
        return dict(
            kernel_spec=SINGLE,
            margin=MarginConfig(0.0),
            hctri=HcTriConfig(0.3),
            weights=weights,
            mmd_variant=variant,
        )

    def test_id_only(self):
        rng = np.random.default_rng(8)
        batch, logits, labels = self.setup_batch(rng)
        bundle = loss_total(batch, logits, labels, **self.kwargs(LossWeights(1.0, 0.0, 0.0)))
        assert bundle.total == bundle.id_term == loss_id(logits, labels)[0]
        assert np.all(bundle.grad_pooled == 0.0)

    def test_gated_margin_only_zero(self):
        rng = np.random.default_rng(9)
        batch, logits, labels = self.setup_batch(rng, gap=0.0)
        kw = self.kwargs(LossWeights(0.0, 1.0, 0.0))
        kw["margin"] = MarginConfig(1e6)
        bundle = loss_total(batch, logits, labels, **kw)
        assert bundle.total == 0.0
        assert np.all(bundle.grad_pooled == 0.0)
        assert bundle.active_classes == 0

    def test_default_weights_recombination(self):
        from xreid.mmd import loss_margin_mmd_id

        rng = np.random.default_rng(10)
        batch, logits, labels = self.setup_batch(rng)
        weights = LossWeights()  # (1, 0.25, 2)
        bundle = loss_total(batch, logits, labels, **self.kwargs(weights))
        id_term = loss_id(logits, labels)[0]
        mmd_term = loss_margin_mmd_id(batch, SINGLE, MarginConfig(0.0)).value
        hctri_term = loss_hc_tri(batch, HcTriConfig(0.3))[0]
        expected = 1.0 * id_term + 0.25 * mmd_term + 2.0 * hctri_term
        assert bundle.total == pytest.approx(expected, abs=1e-12)
        assert bundle.total == pytest.approx(
            weights.lambda_id * bundle.id_term
            + weights.lambda_margin_mmd * bundle.margin_mmd_term
            + weights.lambda_hctri * bundle.hctri_term,
            abs=1e-10,
        )

    def test_zero_weights_bitwise_zero_grads_and_no_kernel_calls(self):
        rng = np.random.default_rng(11)
        batch, logits, labels = self.setup_batch(rng)
        counters.kernel_pairs.reset()
        bundle = loss_total(batch, logits, labels, **self.kwargs(LossWeights(1.0, 0.0, 0.0)))
        assert counters.kernel_pairs.count == 0
        assert np.all(bundle.grad_pooled == 0.0)
        assert bundle.margin_mmd_term == 0.0 and bundle.hctri_term == 0.0

    def test_lambda_scaling_scales_only_its_gradient(self):
        rng = np.random.default_rng(12)
        batch, logits, labels = self.setup_batch(rng)
        one = loss_total(batch, logits, labels, **self.kwargs(LossWeights(0.0, 1.0, 0.0)))
        two = loss_total(batch, logits, labels, **self.kwargs(LossWeights(0.0, 2.0, 0.0)))
        assert np.allclose(two.grad_pooled, 2.0 * one.grad_pooled, atol=1e-14)
        ce_one = loss_total(batch, logits, labels, **self.kwargs(LossWeights(1.0, 1.0, 0.0)))
        assert np.allclose(ce_one.grad_pooled, one.grad_pooled, atol=1e-14)

    def test_marginal_variant(self):
        from xreid.mmd import loss_mmd_marginal

        rng = np.random.default_rng(13)
        batch, logits, labels = self.setup_batch(rng)
        bundle = loss_total(
            batch, logits, labels, **self.kwargs(LossWeights(0.0, 1.0, 0.0), variant="marginal")
        )
        assert bundle.margin_mmd_term == loss_mmd_marginal(batch, SINGLE).value
        assert bundle.active_classes is None

    @pytest.mark.parametrize("variant", ["margin_id", "id"])
    def test_one_cell_index_per_call(self, monkeypatch, variant):
        import xreid.losses as losses_module
        import xreid.mmd as mmd_module
        from xreid.mmd import loss_margin_mmd_id, loss_mmd_id

        rng = np.random.default_rng(14)
        batch, logits, labels = self.setup_batch(rng)
        weights = LossWeights()
        if variant == "margin_id":
            mmd = loss_margin_mmd_id(batch, SINGLE, MarginConfig(0.0))
        else:
            mmd = loss_mmd_id(batch, SINGLE)
        _, hc_grad = loss_hc_tri(batch, HcTriConfig(0.3))

        calls = []
        build = losses_module.cell_index
        monkeypatch.setattr(losses_module, "cell_index", lambda *a: calls.append(1) or build(*a))
        monkeypatch.setattr(mmd_module, "cell_index", None)  # the index comes from loss_total
        bundle = loss_total(batch, logits, labels, **self.kwargs(weights, variant=variant))
        assert len(calls) == 1
        expected = np.zeros_like(batch.features)
        expected += weights.lambda_margin_mmd * mmd.grad
        expected += weights.lambda_hctri * hc_grad
        assert np.array_equal(bundle.grad_pooled, expected)
        assert bundle.margin_mmd_term == mmd.value

    def test_weights_validation(self):
        with pytest.raises(ValueError):
            LossWeights(lambda_id=-1.0)
        with pytest.raises(ValueError):
            HcTriConfig(-0.5)

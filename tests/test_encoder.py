import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracle_utils import fd_gradient, gem_pool, rel_error
from xreid.data import FeatureSet, THERMAL, VISIBLE
from xreid.encoder import (
    EncoderParams,
    _pow,
    EncoderShape,
    SgdHyper,
    SgdState,
    backward,
    embed,
    forward,
    init_params,
    load_checkpoint,
    lr_factor,
    save_checkpoint,
    sgd_step,
)
from xreid.kernels import KernelSpec
from xreid.losses import HcTriConfig, LossWeights, loss_id, loss_total
from xreid.mmd import MarginConfig


def small_params(rng, din=3, num_classes=3, specific=(4, 5), shared=(5, 4), **kw):
    shape = EncoderShape(
        descriptor_dim=din, num_classes=num_classes, specific_widths=specific,
        shared_widths=shared, **kw
    )
    params = init_params(shape, rng)
    # random biases keep ReLU pre-activations off their kinks in FD tests
    for stack in (params.specific_visible, params.specific_thermal, params.shared):
        for _, b in stack:
            b += 0.1 * rng.standard_normal(b.shape)
    return params


def small_batch(rng, n=8, h=2, din=3):
    descriptors = rng.standard_normal((n, h, din))
    modalities = np.tile([VISIBLE, THERMAL], n // 2)
    identities = np.repeat(np.arange(n // 4), 4)
    return descriptors, modalities, identities


class TestGemPool:
    def test_p1_is_mean(self):
        assert gem_pool([1.0, 2.0, 6.0], 1.0) == pytest.approx(3.0, abs=1e-12)

    def test_large_p_approaches_max(self):
        value = gem_pool([1.0, 2.0, 4.0], 64.0)
        assert abs(value - 4.0) / 4.0 < 0.05
        assert value == pytest.approx(np.mean(np.array([1.0, 2.0, 4.0]) ** 64) ** (1 / 64), rel=1e-12)

    def test_constant_inputs(self):
        for p in (1.0, 2.5, 7.0):
            assert gem_pool([3.0, 3.0, 3.0], p) == pytest.approx(3.0, rel=1e-12)

    def test_monotone_in_p_and_bounded(self):
        x = [0.5, 1.0, 2.0, 3.5]
        values = [gem_pool(x, p) for p in (1.0, 2.0, 4.0, 8.0, 16.0)]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))
        assert values[0] == pytest.approx(np.mean(x), abs=1e-12)
        assert all(np.mean(x) - 1e-12 <= v <= max(x) + 1e-12 for v in values)

    def test_errors(self):
        with pytest.raises(ValueError, match="nonnegative"):
            gem_pool([1.0, -0.1], 2.0)
        with pytest.raises(ValueError, match=">= 1"):
            gem_pool([1.0, 2.0], 0.5)


@st.composite
def gem_inputs(draw):
    """Nonnegative values of which 0-90 % are exact zeros, as after a ReLU."""
    n = draw(st.integers(1, 60))
    values = np.array(draw(st.lists(st.floats(0.0, 1e300), min_size=n, max_size=n)))
    zeros = int(draw(st.floats(0.0, 0.9)) * n)
    values[draw(st.permutations(range(n)))[:zeros]] = 0.0
    return values


class TestZeroSafePower:
    @given(gem_inputs(), st.floats(1.0, 8.0), st.booleans())
    def test_equals_numpy_power_bitwise(self, x, p, inverse):
        p = 1.0 / p if inverse else p
        with np.errstate(over="ignore"):  # large values go to inf either way
            got, want = _pow(x, p), x**p
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist()

    def test_leaves_its_input_alone(self):
        x = np.array([0.0, 2.0, 0.0, 3.0])
        _pow(x, 3.0)
        assert x.tolist() == [0.0, 2.0, 0.0, 3.0]


class TestForward:
    def test_identity_layer_passes_descriptor_through(self):
        shape = EncoderShape(descriptor_dim=3, num_classes=2, specific_widths=(3,),
                             shared_widths=(), gem_p=1.0)
        params = init_params(shape, np.random.default_rng(0))
        for w, b in (params.specific_visible[0], params.specific_thermal[0]):
            w[...] = np.eye(3)
            b[...] = 0.0
        descriptors = np.abs(np.random.default_rng(1).standard_normal((4, 1, 3)))
        out = forward(params, descriptors, np.array([0, 1, 0, 1]), train=False)
        assert np.allclose(out.pooled, descriptors[:, 0, :], atol=1e-12)

    def test_zero_weights_give_ln_c_id_loss(self):
        rng = np.random.default_rng(2)
        params = small_params(rng, num_classes=5)
        for stack in (params.specific_visible, params.specific_thermal, params.shared):
            for w, b in stack:
                w[...] = 0.0
                b[...] = 0.0
        params.cls_w[...] = 0.0
        descriptors, modalities, identities = small_batch(rng)
        out = forward(params, descriptors, modalities, train=True)
        assert np.all(out.logits == 0.0)
        value = loss_id(out.logits, identities % 5).value
        assert value == pytest.approx(np.log(5), abs=1e-12)

    def test_descriptor_dim_mismatch(self):
        rng = np.random.default_rng(3)
        params = small_params(rng, din=3)
        with pytest.raises(ValueError, match="descriptor dim"):
            forward(params, np.zeros((2, 2, 4)), np.array([0, 1]))

    def test_eval_mode_is_per_sample(self):
        rng = np.random.default_rng(4)
        params = small_params(rng)
        descriptors, modalities, _ = small_batch(rng)
        full = forward(params, descriptors, modalities, train=False)
        one = forward(params, descriptors[2:3], modalities[2:3], train=False)
        assert np.allclose(full.logits[2], one.logits[0], atol=1e-12)
        assert np.allclose(full.bn_features[2], one.bn_features[0], atol=1e-12)

    def test_embed_equals_eval_forward_bitwise(self):
        rng = np.random.default_rng(9)
        params = small_params(rng)
        params.bn_running_mean[...] = rng.standard_normal(params.bn_running_mean.shape)
        params.bn_running_var[...] = rng.uniform(0.5, 2.0, params.bn_running_var.shape)
        descriptors, modalities, _ = small_batch(rng)
        out = forward(params, descriptors, modalities, train=False)
        assert np.array_equal(embed(params, descriptors, modalities), out.pooled)
        assert np.array_equal(embed(params, descriptors, modalities, bn=True), out.bn_features)

    def test_same_modality_permutation_permutes_pooled(self):
        rng = np.random.default_rng(5)
        params = small_params(rng)
        descriptors, modalities, _ = small_batch(rng)
        out = forward(params, descriptors, modalities, train=False)
        # swap two visible samples (indices 0 and 2)
        perm = np.arange(len(modalities))
        perm[[0, 2]] = [2, 0]
        swapped = forward(params, descriptors[perm], modalities[perm], train=False)
        assert np.allclose(swapped.pooled, out.pooled[perm], atol=1e-14)

    def test_running_stats_updated_only_in_train(self):
        rng = np.random.default_rng(6)
        params = small_params(rng)
        descriptors, modalities, _ = small_batch(rng)
        before = params.bn_running_mean.copy()
        forward(params, descriptors, modalities, train=False)
        assert np.array_equal(params.bn_running_mean, before)
        forward(params, descriptors, modalities, train=True)
        assert not np.array_equal(params.bn_running_mean, before)


class TestBackward:
    def total_loss(self, params, descriptors, modalities, identities, train=True):
        out = forward(params, descriptors, modalities, train=train)
        batch = FeatureSet(out.pooled, identities, modalities)
        bundle = loss_total(
            batch,
            out.logits,
            identities,
            kernel_spec=KernelSpec(sigma_squared=2.0, mixture_scales=(0.5, 1.0)),
            margin=MarginConfig(0.0),
            hctri=HcTriConfig(0.3),
            weights=LossWeights(1.0, 0.25, 2.0),
        )
        return bundle, out

    def test_zero_upstream_gives_zero_grads(self):
        rng = np.random.default_rng(7)
        params = small_params(rng)
        descriptors, modalities, _ = small_batch(rng)
        out = forward(params, descriptors, modalities, train=True)
        grads = backward(out.tape, np.zeros_like(out.pooled), np.zeros_like(out.logits))
        assert all(np.all(g == 0.0) for g in grads.values())

    def test_single_dense_layer_outer_product(self):
        # single linear layer (no shared stack), H=1, p=1, loss = sum(pooled * u):
        # dW must equal x^T (u * relu_mask)
        shape = EncoderShape(descriptor_dim=2, num_classes=2, specific_widths=(2,),
                             shared_widths=(), gem_p=1.0)
        params = init_params(shape, np.random.default_rng(8))
        w = np.array([[0.7, -0.3], [0.2, 0.5]])
        params.specific_visible[0][0][...] = w
        params.specific_visible[0][1][...] = 0.0
        x = np.array([[[1.0, 2.0]], [[0.5, -1.0]]])  # (2 samples, H=1, 2)
        out = forward(params, x, np.array([VISIBLE, VISIBLE]), train=False)
        u = np.array([[1.0, -2.0], [0.5, 1.0]])
        grads = backward(out.tape, u, np.zeros_like(out.logits))
        pre = x[:, 0, :] @ w
        d_pre = u * (pre > 0)
        assert np.allclose(grads["specific_visible.0.w"], x[:, 0, :].T @ d_pre, atol=1e-12)

    def test_full_pipeline_finite_differences(self):
        rng = np.random.default_rng(9)
        params = small_params(rng)
        descriptors, modalities, identities = small_batch(rng)
        bundle, out = self.total_loss(params, descriptors, modalities, identities)
        grads = backward(out.tape, bundle.grad_pooled, bundle.grad_logits)
        for name, arr in params.named_arrays():
            if name.startswith("bn.running") or name == "gem_p":
                continue
            fd = fd_gradient(
                lambda: self.total_loss(params, descriptors, modalities, identities)[0].total,
                arr,
            )
            assert rel_error(grads[name], fd) < 1e-4, name

    def test_learnable_gem_p_gradient(self):
        rng = np.random.default_rng(10)
        params = small_params(rng, gem_p=2.5, gem_p_learnable=True)
        descriptors, modalities, identities = small_batch(rng)
        bundle, out = self.total_loss(params, descriptors, modalities, identities)
        grads = backward(out.tape, bundle.grad_pooled, bundle.grad_logits)
        fd = fd_gradient(
            lambda: self.total_loss(params, descriptors, modalities, identities)[0].total,
            params.gem_p,
        )
        assert rel_error(grads["gem_p"], fd) < 1e-4

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(11)
        params = small_params(rng)
        descriptors, modalities, _ = small_batch(rng)
        out = forward(params, descriptors, modalities, train=True)
        with pytest.raises(ValueError, match="grad_pooled"):
            backward(out.tape, np.zeros((2, 2)), np.zeros_like(out.logits))


class TestSgd:
    def test_plain_gradient_step(self):
        rng = np.random.default_rng(12)
        params = small_params(rng)
        w_before = params.shared[0][0].copy()
        grads = params.arrays.zeros_like()
        g = np.ones_like(w_before)
        grads["shared.0.w"] = g
        hyper = SgdHyper(base_lr=0.1, momentum=0.0, weight_decay=0.0, warmup_epochs=0, total_epochs=100)
        sgd_step(params, grads, SgdState(), hyper, epoch=1)
        assert np.allclose(params.shared[0][0], w_before - 0.1 * g, atol=1e-15)

    def test_two_step_momentum_trace(self):
        rng = np.random.default_rng(13)
        params = small_params(rng)
        hyper = SgdHyper(base_lr=1.0, momentum=0.9, weight_decay=0.0, warmup_epochs=0, total_epochs=100)
        state = SgdState()
        w = params.cls_b
        w0 = w.copy()
        g1 = np.full_like(w, 2.0)
        g2 = np.full_like(w, -1.0)
        for g in (g1, g2):
            grads = params.arrays.zeros_like()
            grads["classifier.b"] = g
            sgd_step(params, grads, state, hyper, epoch=1)
        # v1 = g1, v2 = 0.9 g1 + g2; w = w0 - lr (v1 + v2)
        expected = w0 - (g1 + 0.9 * g1 + g2)
        assert np.allclose(w, expected, atol=1e-12)

    def test_weight_decay_skips_bn(self):
        rng = np.random.default_rng(14)
        params = small_params(rng)
        params.bn_gamma[...] = 2.0
        params.cls_b[...] = 2.0
        zero = params.arrays.zeros_like()
        hyper = SgdHyper(base_lr=1.0, momentum=0.0, weight_decay=0.1, warmup_epochs=0, total_epochs=10)
        sgd_step(params, zero, SgdState(), hyper, epoch=1)
        assert np.all(params.bn_gamma == 2.0)
        assert np.allclose(params.cls_b, 2.0 - 0.1 * 2.0, atol=1e-15)

    def test_warmup_and_decay_schedule(self):
        hyper = SgdHyper(base_lr=1.0, warmup_epochs=5, total_epochs=100)
        assert lr_factor(0, hyper) == pytest.approx(0.1)
        assert lr_factor(4, hyper) == pytest.approx(0.1 + 0.9 * 4 / 5)
        assert lr_factor(5, hyper) == 1.0
        assert lr_factor(59, hyper) == 1.0
        assert lr_factor(60, hyper) == pytest.approx(0.1)
        assert lr_factor(89, hyper) == pytest.approx(0.1)
        assert lr_factor(90, hyper) == pytest.approx(0.01)

    def test_nonfinite_gradient_aborts(self):
        rng = np.random.default_rng(15)
        params = small_params(rng)
        grads = params.arrays.zeros_like()
        grads["shared.0.w"] = np.full_like(params.shared[0][0], np.nan)
        with pytest.raises(FloatingPointError, match="shared.0.w"):
            sgd_step(params, grads, SgdState(), SgdHyper(base_lr=0.1), epoch=0)

    def test_determinism_bitwise(self):
        def train_once():
            rng = np.random.default_rng(16)
            params = small_params(np.random.default_rng(99))
            state = SgdState()
            hyper = SgdHyper(base_lr=0.01, warmup_epochs=1, total_epochs=5)
            descriptors, modalities, identities = small_batch(rng)
            for epoch in range(5):
                out = forward(params, descriptors, modalities, train=True)
                batch = FeatureSet(out.pooled, identities, modalities)
                bundle = loss_total(
                    batch, out.logits, identities,
                    kernel_spec=KernelSpec(sigma_squared=1.0, mixture_scales=(1.0,)),
                    margin=MarginConfig(0.1), hctri=HcTriConfig(0.3),
                    weights=LossWeights(),
                )
                grads = backward(out.tape, bundle.grad_pooled, bundle.grad_logits)
                sgd_step(params, grads, state, hyper, epoch)
            return params

        a, b = train_once(), train_once()
        for (name, arr_a), (_, arr_b) in zip(a.named_arrays(), b.named_arrays()):
            assert np.array_equal(arr_a, arr_b), name


class TestCheckpoint:
    def test_round_trip_bytes(self, tmp_path):
        rng = np.random.default_rng(17)
        params = small_params(rng)
        path1 = tmp_path / "a.bin"
        path2 = tmp_path / "b.bin"
        save_checkpoint(params, path1)
        loaded = load_checkpoint(path1)
        save_checkpoint(loaded, path2)
        assert path1.read_bytes() == path2.read_bytes()
        for (name, arr), (_, arr2) in zip(params.named_arrays(), loaded.named_arrays()):
            assert np.array_equal(arr, arr2), name

    def test_expected_shape_mismatch(self, tmp_path):
        rng = np.random.default_rng(18)
        params = small_params(rng)
        path = tmp_path / "c.bin"
        save_checkpoint(params, path)
        other = EncoderShape(descriptor_dim=3, num_classes=3, specific_widths=(4, 6),
                             shared_widths=(5, 4))
        with pytest.raises(ValueError, match="does not match"):
            load_checkpoint(path, expected_shape=other)

    def test_truncated_file_rejected(self, tmp_path):
        rng = np.random.default_rng(19)
        params = small_params(rng)
        path = tmp_path / "d.bin"
        save_checkpoint(params, path)
        data = path.read_bytes()
        path.write_bytes(data[:-16])
        with pytest.raises(ValueError, match="truncated"):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        rng = np.random.default_rng(19)
        params = small_params(rng)
        path = tmp_path / "f.bin"
        save_checkpoint(params, path)
        path.write_bytes(path.read_bytes() + b"\0" * 8)
        with pytest.raises(ValueError, match=r"f\.bin: 8 trailing bytes after the last array blob"):
            load_checkpoint(path)

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "e.bin"
        path.write_bytes(b'{"magic": "something-else"}\n')
        with pytest.raises(ValueError, match="not an encoder checkpoint"):
            load_checkpoint(path)


def test_init_params_streams_start_identical():
    shape = EncoderShape(descriptor_dim=4, num_classes=3)
    params = init_params(shape, np.random.default_rng(20))
    for (wv, bv), (wt, bt) in zip(params.specific_visible, params.specific_thermal):
        assert np.array_equal(wv, wt) and np.array_equal(bv, bt)
        assert wv is not wt  # independent copies, free to diverge

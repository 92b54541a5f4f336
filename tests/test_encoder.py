import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracle_utils import fd_gradient, gem_pool, rel_error
from xreid.data import DescriptorSet, FeatureSet, THERMAL, VISIBLE
from xreid.encoder import (
    EncoderParams,
    _pow,
    EncoderShape,
    SgdHyper,
    backward,
    encode_dataset,
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


def tape_arrays(tape):
    """Every array a tape keeps but its GeM input, a view of ``shared[-1]``."""
    return [tape.vis_rows, tape.th_rows, *tape.specific_visible, *tape.specific_thermal,
            *tape.shared, *([] if tape.gem_pow is None else [tape.gem_pow]), tape.gem_mean,
            tape.pooled, tape.bn_ivar, tape.bn_xhat, tape.bn_features, tape.logits]


class TestShape:
    @pytest.mark.parametrize("widths, message", [
        ({"specific_widths": (0,)}, r"specific_widths must be >= 1, got \(0,\)"),
        ({"shared_widths": (64, -1)}, r"shared_widths must be >= 1, got \(64, -1\)"),
        ({"gem_p": float("nan")}, r"gem_p must be >= 1, got nan"),
    ])
    def test_width_below_one_rejected(self, widths, message):
        with pytest.raises(ValueError, match=message):
            EncoderShape(descriptor_dim=3, num_classes=2, **widths)

    def test_empty_stacks_are_valid(self):
        shape = EncoderShape(descriptor_dim=3, num_classes=2, specific_widths=(), shared_widths=())
        params = init_params(shape, np.random.default_rng(0))
        out = forward(params, np.ones((2, 2, 3)), np.array([VISIBLE, THERMAL]))
        assert shape.embedding_dim == 3 and out.pooled.shape == (2, 3)


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

    @given(gem_inputs(), st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    def test_exponents_below_one_bitwise(self, x, p):
        # GeM's backward raises to p - 1, which is in (0, 1) for 1 < p < 2
        got, want = _pow(x, p), x**p
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist()

    @pytest.mark.parametrize("p", [2.0, 0.5, 1.0])
    def test_numpy_fast_path_exponents_bitwise(self, p):
        x = np.array([0.0, 1e-300, 0.3, 2.0, 0.0, 7.5, 1e150])
        with np.errstate(over="ignore"):
            got, want = _pow(x, p), x**p
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist()

    @given(gem_inputs(), st.one_of(st.sampled_from([1.0, 1.5, 2.9958, 3.0, 4.0]),
                                   st.floats(1.0, 64.0)))
    def test_gem_backward_forms_bitwise(self, x, p):
        # backward's mean ** (1/p - 1) with 0 at a zero mean, and its log
        # with each 0 read as 1, against their np.where forms
        x[::7] = 0.0
        positive = x > 0
        with np.errstate(over="ignore"):  # tiny values go to inf either way
            got = _pow(x, 1.0 / p - 1.0)
            want = np.where(positive, np.where(positive, x, 1.0) ** (1.0 / p - 1.0), 0.0)
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist()
        got, want = np.log(x + (x == 0)), np.log(np.where(positive, x, 1.0))
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
        descriptors, modalities, identities = small_batch(rng)
        batch = DescriptorSet(descriptors, identities, modalities)
        out = forward(params, batch.descriptors, batch.modalities, train=False)
        assert np.array_equal(encode_dataset(params, batch).features, out.pooled)
        assert np.array_equal(encode_dataset(params, batch, features="bn").features, out.bn_features)

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

    @pytest.mark.parametrize("specific, shared", [((4, 5), (5, 4)), ((4,), ()), ((), (3,))])
    def test_tape_records_inputs_and_outputs(self, specific, shared):
        # the shared stack keeps depth + 1 arrays: each layer's input, then
        # its post-ReLU output; a specific stack keeps its layers' inputs,
        # and its output is its rows of the shared stack's input. No
        # pre-activation is kept
        rng = np.random.default_rng(13)
        params = small_params(rng, specific=specific, shared=shared)
        descriptors, modalities, _ = small_batch(rng)
        out = forward(params, descriptors, modalities, train=True)
        flat = descriptors.reshape(-1, descriptors.shape[-1])
        mid = out.shared[0]
        for layers, record, rows in ((params.specific_visible, out.specific_visible, out.vis_rows),
                                     (params.specific_thermal, out.specific_thermal, out.th_rows)):
            assert len(record) == len(layers)
            outputs = [*record[1:], mid[rows]]
            for (w, b), x, y in zip(layers, record, outputs):
                assert np.array_equal(y, np.maximum(x @ w + b, 0.0))
            assert np.array_equal(record[0] if layers else mid[rows], flat[rows])
        assert len(out.shared) == len(params.shared) + 1
        for (w, b), x, y in zip(params.shared, out.shared, out.shared[1:]):
            assert np.array_equal(y, np.maximum(x @ w + b, 0.0))
        assert np.shares_memory(out.shared[-1], out.gem_in)

    @pytest.mark.parametrize("specific, shared, gem_p, learnable", [
        ((4, 5), (5, 4), 3.0, False),
        ((), (5, 4), 3.0, False),
        ((4, 5), (), 3.0, False),
        ((), (), 3.0, True),
        ((4, 5), (5, 4), 1.0, True),
        ((4, 5), (5, 4), 2.0, False),
        ((4, 5), (5, 4), 3.0, True),
    ], ids=["default", "no-specific", "no-shared", "no-stacks", "p1-learnable", "p2", "p3-learnable"])
    @pytest.mark.parametrize("train", [True, False])
    def test_out_tape_is_refilled_bitwise(self, specific, shared, gem_p, learnable, train):
        # a tape refilled by the next batch holds the bits of a fresh tape,
        # in its own buffers, and backward gives the same gradient
        rng = np.random.default_rng(15)
        params = small_params(rng, specific=specific, shared=shared, gem_p=gem_p,
                              gem_p_learnable=learnable)
        first, modalities, _ = small_batch(rng)
        first = np.abs(first)  # GeM's input is >= 0 with no stack before it
        second = np.maximum(rng.standard_normal(first.shape), 0.0)  # exact zeros too
        swapped = modalities[::-1].copy()  # other rows, the same count of each
        twin = params.copy()
        prev = forward(params, first, modalities, train=train)
        forward(twin, first, modalities, train=train)
        buffers = tape_arrays(prev)[2:]  # the row indices are made anew
        fresh = forward(twin, second, swapped, train=train)
        reused = forward(params, second, swapped, train=train, out=prev)
        assert reused is prev and reused.params is params and reused.train == train
        for got, want in zip(tape_arrays(reused), tape_arrays(fresh), strict=True):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert len(buffers) == len(tape_arrays(reused)) - 2
        assert all(a is b for a, b in zip(buffers, tape_arrays(reused)[2:]))
        assert np.shares_memory(reused.gem_in, buffers[len(specific) * 2 + len(shared)])
        assert params.buffer.tobytes() == twin.buffer.tobytes()  # BN running statistics
        grad_pooled = rng.standard_normal(fresh.pooled.shape)
        grad_logits = rng.standard_normal(fresh.logits.shape)
        got = backward(reused, grad_pooled, grad_logits, params.zeros_like())
        want = backward(fresh, grad_pooled, grad_logits, twin.zeros_like())
        assert got.buffer.tobytes() == want.buffer.tobytes()

    @pytest.mark.parametrize("n, modalities, message", [
        (4, [VISIBLE, THERMAL] * 2, r": samples 8 vs 4; visible rows 8 vs 4; thermal rows 8 vs 4$"),
        (8, [VISIBLE] * 6 + [THERMAL] * 2, r": visible rows 8 vs 12; thermal rows 8 vs 4$"),
    ])
    def test_out_tape_of_another_batch_shape_rejected(self, n, modalities, message):
        rng = np.random.default_rng(16)
        params = small_params(rng)
        prev = forward(params, *small_batch(rng)[:2])
        with pytest.raises(ValueError, match=r"^out tape does not fit this batch \(tape vs batch\)" + message):
            forward(params, rng.standard_normal((n, 2, 3)), np.array(modalities), out=prev)
        h3 = rng.standard_normal((8, 3, 3))
        with pytest.raises(ValueError, match=r": descriptors per sample 2 vs 3; visible rows 8 vs 12"):
            forward(params, h3, np.tile([VISIBLE, THERMAL], 4), out=prev)
        wider = small_params(rng, num_classes=4)
        with pytest.raises(ValueError, match=r": encoder shape EncoderShape\(.*\) vs EncoderShape\("):
            forward(wider, *small_batch(rng)[:2], out=prev)

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
        grads = backward(out, np.zeros_like(out.pooled), np.zeros_like(out.logits),
                         params.zeros_like())
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
        grads = backward(out, u, np.zeros_like(out.logits), params.zeros_like())
        pre = x[:, 0, :] @ w
        d_pre = u * (pre > 0)
        assert np.allclose(grads["specific_visible.0.w"], x[:, 0, :].T @ d_pre, atol=1e-12)

    def test_full_pipeline_finite_differences(self):
        rng = np.random.default_rng(9)
        params = small_params(rng)
        descriptors, modalities, identities = small_batch(rng)
        bundle, out = self.total_loss(params, descriptors, modalities, identities)
        grads = backward(out, bundle.grad_pooled, bundle.grad_logits, params.zeros_like())
        for name, arr in params.items():
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
        grads = backward(out, bundle.grad_pooled, bundle.grad_logits, params.zeros_like())
        fd = fd_gradient(
            lambda: self.total_loss(params, descriptors, modalities, identities)[0].total,
            params.gem_p,
        )
        assert rel_error(grads["gem_p"], fd) < 1e-4

    @pytest.mark.parametrize("gem_p, learnable", [(3.0, False), (1.5, True), (1.0, True)])
    def test_leaves_its_tape_unchanged(self, gem_p, learnable):
        # the ReLU masks are multiplied into gradients in place, never into
        # the tape: a second backward on the same tape gives equal buffers
        rng = np.random.default_rng(12)
        params = small_params(rng, gem_p=gem_p, gem_p_learnable=learnable)
        descriptors, modalities, identities = small_batch(rng)
        bundle, out = self.total_loss(params, descriptors, modalities, identities)
        arrays = tape_arrays(out)
        before = [a.copy() for a in arrays]
        first = backward(out, bundle.grad_pooled, bundle.grad_logits, params.zeros_like())
        assert all(np.array_equal(a, b) for a, b in zip(arrays, before))
        second = backward(out, bundle.grad_pooled, bundle.grad_logits, params.zeros_like())
        assert first.buffer.tobytes() == second.buffer.tobytes()
        assert all(np.array_equal(a, b) for a, b in zip(arrays, before))

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(11)
        params = small_params(rng)
        descriptors, modalities, _ = small_batch(rng)
        out = forward(params, descriptors, modalities, train=True)
        with pytest.raises(ValueError, match="grad_pooled"):
            backward(out, np.zeros((2, 2)), np.zeros_like(out.logits), params.zeros_like())
        other = small_params(rng, num_classes=4).zeros_like()
        with pytest.raises(ValueError, match="gradient shape"):
            backward(out, np.zeros_like(out.pooled), np.zeros_like(out.logits), out=other)

    @pytest.mark.parametrize("gem_p, learnable", [(3.0, False), (2.5, True), (1.0, True)])
    @pytest.mark.parametrize("train", [True, False])
    def test_into_a_used_buffer_bitwise(self, gem_p, learnable, train):
        # a gradient buffer full of garbage gets the bytes of a fresh one,
        # and the untrained slots are 0 again
        rng = np.random.default_rng(13)
        params = small_params(rng, gem_p=gem_p, gem_p_learnable=learnable)
        descriptors, modalities, identities = small_batch(rng)
        bundle, out = self.total_loss(params, descriptors, modalities, identities, train=train)
        fresh = backward(out, bundle.grad_pooled, bundle.grad_logits, params.zeros_like())
        used = params.zeros_like()
        used.buffer[:] = rng.standard_normal(used.buffer.shape)
        used.buffer[::7] = np.nan
        assert backward(out, bundle.grad_pooled, bundle.grad_logits, out=used) is used
        assert used.buffer.tobytes() == fresh.buffer.tobytes()
        untrained = set(used) - set(params.trainable_names())
        assert untrained and all(np.all(used[name] == 0.0) for name in untrained)

    @pytest.mark.parametrize("learnable", [False, True])
    def test_tape_keeps_x_to_the_p_only_for_a_learnable_power(self, learnable):
        # the GeM power's gradient reuses forward's x^p: the same bits as
        # raising the tape's GeM input again, and the same gradient
        rng = np.random.default_rng(14)
        params = small_params(rng, gem_p=2.7, gem_p_learnable=learnable)
        descriptors, modalities, identities = small_batch(rng)
        bundle, out = self.total_loss(params, descriptors, modalities, identities)
        if not learnable:
            assert out.gem_pow is None
            return
        recomputed = _pow(out.gem_in, float(params.gem_p))
        assert out.gem_pow.tobytes() == recomputed.tobytes()
        again = replace(out, gem_pow=recomputed)
        got = backward(out, bundle.grad_pooled, bundle.grad_logits, params.zeros_like())
        want = backward(again, bundle.grad_pooled, bundle.grad_logits, params.zeros_like())
        assert got.buffer.tobytes() == want.buffer.tobytes()
        assert got.gem_p != 0.0


class TestSgd:
    def test_plain_gradient_step(self):
        rng = np.random.default_rng(12)
        params = small_params(rng)
        w_before = params.shared[0][0].copy()
        grads = params.zeros_like()
        g = np.ones_like(w_before)
        grads["shared.0.w"] = g
        hyper = SgdHyper(base_lr=0.1, momentum=0.0, weight_decay=0.0, warmup_epochs=0, total_epochs=100)
        sgd_step(params, grads, params.zeros_like(), hyper, epoch=1)
        assert np.allclose(params.shared[0][0], w_before - 0.1 * g, atol=1e-15)

    def test_two_step_momentum_trace(self):
        rng = np.random.default_rng(13)
        params = small_params(rng)
        hyper = SgdHyper(base_lr=1.0, momentum=0.9, weight_decay=0.0, warmup_epochs=0, total_epochs=100)
        velocity = params.zeros_like()
        w = params.cls_b
        w0 = w.copy()
        g1 = np.full_like(w, 2.0)
        g2 = np.full_like(w, -1.0)
        for g in (g1, g2):
            grads = params.zeros_like()
            grads["classifier.b"] = g
            sgd_step(params, grads, velocity, hyper, epoch=1)
        # v1 = g1, v2 = 0.9 g1 + g2; w = w0 - lr (v1 + v2)
        expected = w0 - (g1 + 0.9 * g1 + g2)
        assert np.allclose(w, expected, atol=1e-12)

    def test_weight_decay_skips_bn(self):
        rng = np.random.default_rng(14)
        params = small_params(rng)
        params.bn_gamma[...] = 2.0
        params.cls_b[...] = 2.0
        zero = params.zeros_like()
        hyper = SgdHyper(base_lr=1.0, momentum=0.0, weight_decay=0.1, warmup_epochs=0, total_epochs=10)
        sgd_step(params, zero, params.zeros_like(), hyper, epoch=1)
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
        grads = params.zeros_like()
        grads["shared.0.w"] = np.full_like(params.shared[0][0], np.nan)
        velocity = params.zeros_like()
        velocity.buffer[:] = rng.standard_normal(velocity.buffer.size)
        params_before, velocity_before = params.buffer.copy(), velocity.buffer.copy()
        with pytest.raises(FloatingPointError, match="shared.0.w"):
            sgd_step(params, grads, velocity, SgdHyper(base_lr=0.1), epoch=0)
        assert np.array_equal(params.buffer, params_before)
        assert np.array_equal(velocity.buffer, velocity_before)

    @pytest.mark.parametrize("which", ["gradient", "velocity"])
    def test_buffer_of_another_shape_rejected(self, which):
        params = small_params(np.random.default_rng(17))
        other = small_params(np.random.default_rng(17), num_classes=4).zeros_like()
        buffers = {"gradient": params.zeros_like(), "velocity": params.zeros_like(), which: other}
        before = params.buffer.copy()
        with pytest.raises(ValueError, match=f"{which} layout does not match"):
            sgd_step(params, buffers["gradient"], buffers["velocity"], SgdHyper(base_lr=0.1))
        assert np.array_equal(params.buffer, before)

    def test_determinism_bitwise(self):
        def train_once():
            rng = np.random.default_rng(16)
            params = small_params(np.random.default_rng(99))
            velocity = params.zeros_like()
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
                grads = backward(out, bundle.grad_pooled, bundle.grad_logits, params.zeros_like())
                sgd_step(params, grads, velocity, hyper, epoch)
            return params

        a, b = train_once(), train_once()
        for (name, arr_a), (_, arr_b) in zip(a.items(), b.items()):
            assert np.array_equal(arr_a, arr_b), name


class TestSgdHyper:
    @pytest.mark.parametrize("field, value, message", [
        ("base_lr", -0.0005, "base_lr must be finite and > 0"),
        ("base_lr", 0.0, "base_lr must be finite and > 0"),
        ("base_lr", float("nan"), "base_lr must be finite and > 0"),
        ("base_lr", float("inf"), "base_lr must be finite and > 0"),
        ("momentum", -0.1, r"momentum must be in \[0, 1\)"),
        ("momentum", 1.0, r"momentum must be in \[0, 1\)"),
        ("momentum", float("nan"), r"momentum must be in \[0, 1\)"),
        ("weight_decay", -1e-4, "weight_decay must be finite and >= 0"),
        ("weight_decay", float("nan"), "weight_decay must be finite and >= 0"),
        ("weight_decay", float("inf"), "weight_decay must be finite and >= 0"),
        ("warmup_epochs", -1, "warmup_epochs must be >= 0"),
        ("total_epochs", -3, "total_epochs must be >= 0"),
    ])
    def test_bad_value_rejected(self, field, value, message):
        kwargs = {"base_lr": 0.1, field: value}
        with pytest.raises(ValueError, match=message):
            SgdHyper(**kwargs)

    def test_boundary_values_accepted(self):
        SgdHyper(base_lr=1e-12, momentum=0.0, weight_decay=0.0, warmup_epochs=0, total_epochs=0)


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
        for (name, arr), (_, arr2) in zip(params.items(), loaded.items()):
            assert np.array_equal(arr, arr2), name

    @given(st.data())
    def test_round_trip_property(self, data):
        widths = st.lists(st.integers(1, 4), max_size=3).map(tuple)  # empty stacks too
        shape = EncoderShape(
            descriptor_dim=data.draw(st.integers(1, 4)),
            num_classes=data.draw(st.integers(1, 4)),
            specific_widths=data.draw(widths),
            shared_widths=data.draw(widths),
            gem_p=data.draw(st.floats(1.0, 8.0)),
            gem_p_learnable=data.draw(st.booleans()),
        )
        params = EncoderParams(shape)
        size = len(params.buffer)
        # any float64 bits, NaN payloads, infinities and -0.0 included
        bits = data.draw(st.lists(st.integers(0, 2**64 - 1), min_size=size, max_size=size))
        buf = params.buffer
        buf[:] = np.array(bits, dtype=np.uint64).view(np.float64)
        if data.draw(st.booleans(), label="as training writes"):
            # finite, a running variance >= 0 (-0.0 too) and a GeM power >= 1
            buf[~np.isfinite(buf)] = 0.0
            np.negative(params.bn_running_var, out=params.bn_running_var,
                        where=params.bn_running_var < 0)
            params.gem_p[...] = max(float(params.gem_p), 1.0) if shape.gem_p_learnable else shape.gem_p
        refused = (not np.isfinite(buf).all() or (params.bn_running_var < 0).any() or params.gem_p < 1
                   or (not shape.gem_p_learnable and params.gem_p != shape.gem_p))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "checkpoint.bin"
            save_checkpoint(params, path)
            if refused:
                with pytest.raises(ValueError, match="checkpoint.bin: "):
                    load_checkpoint(path)
                return
            loaded = load_checkpoint(path)
        assert loaded.shape == shape
        assert loaded.buffer.tobytes() == params.buffer.tobytes()

    @pytest.mark.parametrize("name, value, message", [
        ("shared.0.w", np.nan, "non-finite value in 'shared.0.w'"),
        ("bn.running_var", -1.0, "negative value in 'bn.running_var'"),
        ("gem_p", 0.5, "'gem_p' is 0.5, below 1"),
        ("gem_p", 7.5, r"'gem_p' is 7\.5, but the header fixes it at 3\.0"),
    ], ids=["nan-weight", "negative-running-var", "gem-p-below-one", "fixed-gem-p-moved"])
    def test_value_training_never_writes_rejected(self, tmp_path, name, value, message):
        # training keeps every value finite, the running variance >= 0 and
        # the GeM power >= 1 (sgd_step clamps it, EncoderShape refuses less);
        # a fixed power has no gradient and no decay, so it stays the header's
        params = small_params(np.random.default_rng(19))
        params[name].flat[-1] = value
        path = tmp_path / "h.bin"
        save_checkpoint(params, path)
        with pytest.raises(ValueError, match=rf"h\.bin: {message}$"):
            load_checkpoint(path)

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

    @pytest.mark.parametrize("first_line", [b"garbage\n", b"\xff\xfe\x00\n"], ids=["not-json", "not-utf8"])
    def test_non_json_header_rejected(self, tmp_path, first_line):
        path = tmp_path / "g.bin"
        path.write_bytes(first_line)
        with pytest.raises(ValueError, match=r"g\.bin: not an encoder checkpoint"):
            load_checkpoint(path)


def test_init_params_streams_start_identical():
    shape = EncoderShape(descriptor_dim=4, num_classes=3)
    params = init_params(shape, np.random.default_rng(20))
    for (wv, bv), (wt, bt) in zip(params.specific_visible, params.specific_thermal):
        assert np.array_equal(wv, wt) and np.array_equal(bv, bt)
        assert wv is not wt  # independent copies, free to diverge

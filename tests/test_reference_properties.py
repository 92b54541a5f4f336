"""The vectorised sampler, hetero-center triplet loss and SGD step against the
loop references in ``oracle_utils``: same outputs bit for bit, same errors."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracle_utils import (
    hetero_centers_reference,
    loss_hc_tri_reference,
    sample_batch_reference,
    sgd_step_reference,
)
from xreid.data import BatchSampler, BatchSpec, DescriptorSet, FeatureSet, sample_batch
from xreid.encoder import EncoderShape, SgdHyper, SgdState, init_params, lr_factor, sgd_step
from xreid.losses import HcTriConfig, hetero_centers, loss_hc_tri


def bits(x):
    return np.ascontiguousarray(x, dtype=np.float64).view(np.int64)


def outcome(fn):
    """(result, None) or (None, (error type, message))."""
    try:
        return fn(), None
    except (ValueError, FloatingPointError) as exc:
        return None, (type(exc), str(exc))


@st.composite
def ragged_labels(draw, max_ids=6, max_cell=6, allow_empty=True):
    """Shuffled identity/modality labels with per-cell sizes drawn apart;
    with ``allow_empty`` a cell may be empty, never a whole identity."""
    n_ids = draw(st.integers(2, max_ids))
    ids = draw(st.lists(st.integers(0, 60), min_size=n_ids, max_size=n_ids, unique=True))
    low = 0 if allow_empty else 1
    identities, modalities = [], []
    for identity in ids:
        counts = draw(st.tuples(st.integers(low, max_cell), st.integers(low, max_cell))
                      .filter(lambda c: sum(c) > 0))
        for modality, count in enumerate(counts):
            identities += [identity] * count
            modalities += [modality] * count
    perm = draw(st.permutations(range(len(identities))))
    return np.array(identities)[perm], np.array(modalities)[perm]


class TestSamplerMatchesReference:
    @given(ragged_labels(), st.integers(2, 7), st.integers(1, 5), st.integers(0, 2**32 - 1))
    def test_batches_and_errors(self, labels, p, k, seed):
        identities, modalities = labels
        n = len(identities)
        # each row's descriptor is its row number, so equal batches are equal picks
        dataset = DescriptorSet(np.arange(n, dtype=float).reshape(n, 1, 1), identities, modalities)
        spec = BatchSpec(p=p, k=k)
        ref_rng = np.random.default_rng(seed)
        new_rng = np.random.default_rng(seed)
        sampler = BatchSampler(dataset, spec, np.random.default_rng(seed))
        for _ in range(3):
            want, want_err = outcome(lambda: sample_batch_reference(dataset, spec, ref_rng))
            got, got_err = outcome(lambda: sample_batch(dataset, spec, new_rng))
            streamed, streamed_err = outcome(sampler.next_batch)
            assert got_err == want_err and streamed_err == want_err
            if want_err is not None:
                return
            for batch in (got, streamed):
                assert np.array_equal(batch.descriptors, want.descriptors)
                assert np.array_equal(batch.identities, want.identities)
                assert np.array_equal(batch.modalities, want.modalities)
        assert new_rng.bit_generator.state == ref_rng.bit_generator.state
        assert sampler.rng.bit_generator.state == ref_rng.bit_generator.state

    def test_missing_modality_error_text(self):
        dataset = DescriptorSet(np.zeros((3, 1, 1)), np.array([4, 4, 9]), np.array([0, 1, 0]))
        with pytest.raises(ValueError, match="identity 9 has no samples of modality 1"):
            sample_batch(dataset, BatchSpec(p=2, k=1), np.random.default_rng(0))


@st.composite
def center_batches(draw):
    """Ragged, shuffled batches on a coarse grid, so that centers coincide and
    hardest-negative distances tie often."""
    identities, modalities = draw(ragged_labels(max_ids=5, max_cell=4, allow_empty=False))
    dim = draw(st.integers(2, 4))
    grid = draw(st.lists(st.integers(-2, 2), min_size=len(identities) * dim,
                         max_size=len(identities) * dim))
    features = 0.5 * np.array(grid, dtype=float).reshape(len(identities), dim)
    if draw(st.booleans()):
        # one identity's thermal rows all sit on its visible center
        first = identities[0]
        visible = (identities == first) & (modalities == 0)
        thermal = (identities == first) & (modalities == 1)
        features[thermal] = features[visible].mean(axis=0)
        features[visible] = features[visible].mean(axis=0)
    return FeatureSet(features, identities, modalities)


class TestHcTriMatchesReference:
    @given(center_batches(), st.sampled_from([0.0, 0.3, 1.0, 5.0]))
    def test_loss_and_gradient_bitwise(self, batch, margin):
        want_loss, want_grad = loss_hc_tri_reference(batch, margin)
        got = loss_hc_tri(batch, HcTriConfig(margin))
        assert bits(got.value) == bits(want_loss)
        assert np.array_equal(bits(got.grad), bits(want_grad))

    @given(center_batches())
    def test_centers_bitwise(self, batch):
        for got, want in zip(hetero_centers(batch), hetero_centers_reference(batch)):
            assert np.array_equal(got, want) and got.dtype.kind == want.dtype.kind
            if got.dtype.kind == "f":
                assert np.array_equal(bits(got), bits(want))

    @given(ragged_labels(max_ids=4, max_cell=12, allow_empty=False), st.integers(2, 4),
           st.integers(0, 2**32 - 1))
    def test_centers_bitwise_on_rounded_sums(self, labels, dim, seed):
        # unlike the half-integer grid above, these sums round, so any other
        # summation order than the reference's changes the last bits
        identities, modalities = labels
        features = np.random.default_rng(seed).standard_normal((len(identities), dim))
        batch = FeatureSet(features, identities, modalities)
        for got, want in zip(hetero_centers(batch)[1:], hetero_centers_reference(batch)[1:]):
            assert np.array_equal(bits(got), bits(want))

    def test_coincident_centers_give_zero_subgradient(self):
        # identity 0's centers coincide; its positive term has no direction
        feats = np.array([[1.0, 0.0], [1.0, 0.0], [5.0, 0.0], [6.0, 0.0]])
        batch = FeatureSet(feats, np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1]))
        got = loss_hc_tri(batch, HcTriConfig(10.0))
        want_loss, want_grad = loss_hc_tri_reference(batch, 10.0)
        assert got.value == want_loss and np.array_equal(bits(got.grad), bits(want_grad))

    @given(ragged_labels(max_ids=4, max_cell=3))
    def test_missing_modality_same_error(self, labels):
        identities, modalities = labels
        batch = FeatureSet(np.ones((len(identities), 2)), identities, modalities)
        assert outcome(lambda: hetero_centers(batch))[1] == outcome(
            lambda: hetero_centers_reference(batch))[1]


@st.composite
def sgd_setups(draw):
    shape = EncoderShape(
        descriptor_dim=draw(st.integers(1, 3)),
        num_classes=draw(st.integers(2, 4)),
        specific_widths=tuple(draw(st.lists(st.integers(1, 4), max_size=2))),
        shared_widths=tuple(draw(st.lists(st.integers(1, 4), max_size=2))),
        gem_p=draw(st.sampled_from([1.0, 1.05, 3.0])),
        gem_p_learnable=draw(st.booleans()),
    )
    hyper = SgdHyper(
        base_lr=draw(st.sampled_from([0.01, 0.1, 1.0])),
        momentum=draw(st.sampled_from([0.0, 0.9])),
        weight_decay=draw(st.sampled_from([0.0, 5e-4, 0.1])),
        warmup_epochs=draw(st.integers(0, 2)),
        total_epochs=5,
    )
    return shape, hyper, draw(st.integers(0, 2**32 - 1))


def random_grads(params, rng):
    grads = params.arrays.zeros_like()
    for name in params.trainable_names():
        grads[name] = rng.standard_normal(grads[name].shape)
    return grads


class TestSgdMatchesReference:
    @given(sgd_setups())
    def test_several_steps_bitwise(self, setup):
        shape, hyper, seed = setup
        rng = np.random.default_rng(seed)
        params = init_params(shape, rng)
        arrays = {name: arr.copy() for name, arr in params.named_arrays()}
        velocity = {}
        state = SgdState()
        for epoch in range(4):
            grads = random_grads(params, rng)
            sgd_step(params, grads, state, hyper, epoch)
            sgd_step_reference(arrays, params.trainable_names(), grads, velocity, hyper,
                               hyper.base_lr * lr_factor(epoch, hyper), shape.gem_p_learnable)
            for name, arr in params.named_arrays():
                assert np.array_equal(bits(arr), bits(arrays[name])), (epoch, name)

    @given(sgd_setups(), st.data())
    def test_nonfinite_gradient_names_the_array(self, setup, data):
        shape, hyper, seed = setup
        rng = np.random.default_rng(seed)
        params = init_params(shape, rng)
        grads = random_grads(params, rng)
        name = data.draw(st.sampled_from(params.trainable_names()))
        flat = grads[name].reshape(-1)
        flat[data.draw(st.integers(0, flat.size - 1))] = data.draw(
            st.sampled_from([np.nan, np.inf, -np.inf]))
        before = params.buffer.copy()
        arrays = {n: arr.copy() for n, arr in params.named_arrays()}
        got = outcome(lambda: sgd_step(params, grads, SgdState(), hyper, 0))[1]
        want = outcome(lambda: sgd_step_reference(
            arrays, params.trainable_names(), grads, {}, hyper, hyper.base_lr,
            shape.gem_p_learnable))[1]
        assert got == want and got[0] is FloatingPointError and repr(name) in got[1]
        assert np.array_equal(bits(params.buffer), bits(before))  # the step did not start

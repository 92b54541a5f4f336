import re
import time
import tracemalloc
from dataclasses import astuple

import numpy as np
import pytest

from xreid import encoder, seeds, training
from xreid.config import ExperimentConfig
from xreid.data import THERMAL, BatchSampler, DescriptorSet, SyntheticSpec, generate
from xreid.encoder import EncoderShape, encode_dataset, forward, init_params
from xreid.evaluation import evaluate, similarity_stats
from xreid.training import (
    LOG_COLUMNS,
    TrainingDiverged,
    class_index,
    run_training,
    write_log,
)


def small_config(**overrides):
    cfg = ExperimentConfig.defaults()
    cfg.values.update(
        {
            "data.num_identities": 10,
            "data.samples_per_identity": 4,
            "batch.p": 3,
            "batch.k": 2,
            "train.epochs": 3,
            "optim.warmup_epochs": 1,
            "optim.base_lr": 0.0005,
            "encoder.specific_widths": (8, 12),
            "encoder.shared_widths": (12, 12),
        }
    )
    cfg.values.update(overrides)
    return cfg


def test_class_index_contiguous():
    mapping = class_index(np.array([7, 3, 7, 11, 3]))
    assert mapping == {3: 0, 7: 1, 11: 2}


@pytest.mark.slow
def test_run_training_stats_and_log(tmp_path):
    cfg = small_config()
    train, _ = generate(cfg.synthetic_spec(), seeds.stream(cfg.seed, "data"))
    params, stats = run_training(cfg, train)
    assert len(stats) == 3
    assert all(np.isfinite(s.loss_total) for s in stats)
    assert all(0 <= s.active_classes <= cfg.batch_spec().p for s in stats)
    path = tmp_path / "log.csv"
    write_log(path, stats)
    lines = path.read_text().splitlines()
    assert lines[0].split(",") == list(LOG_COLUMNS)
    assert len(lines) == 4


@pytest.mark.slow
def test_ce_only_logs_nan_mmd_columns(tmp_path):
    cfg = small_config(**{"loss.lambda_margin_mmd": 0.0, "loss.lambda_hctri": 0.0})
    train, _ = generate(cfg.synthetic_spec(), seeds.stream(cfg.seed, "data"))
    _, stats = run_training(cfg, train)
    assert all(np.isnan(s.active_classes) and np.isnan(s.mean_class_mmd2) for s in stats)
    path = tmp_path / "log.csv"
    write_log(path, stats)
    assert ",nan,nan," in path.read_text().splitlines()[1]


@pytest.mark.slow
def test_divergence_carries_last_good_params():
    cfg = small_config(**{"optim.base_lr": 1e6, "train.epochs": 5})
    train, _ = generate(cfg.synthetic_spec(), seeds.stream(cfg.seed, "data"))
    with pytest.raises(TrainingDiverged) as info, np.errstate(all="ignore"):
        run_training(cfg, train)
    assert info.value.last_good is not None
    for _, arr in info.value.last_good.items():
        assert np.all(np.isfinite(arr))


def test_empty_cell_refused_before_the_first_batch(monkeypatch):
    # the sampler fails only once it draws the identity missing a modality,
    # some steps in and with no checkpoint; the split is refused up front
    cfg = small_config(**{"batch.p": 2})
    train, _ = generate(cfg.synthetic_spec(), seeds.stream(cfg.seed, "data"))
    last = int(train.identities.max())
    train = train.select(~((train.identities == last) & (train.modalities == THERMAL)))
    next_batch, calls = BatchSampler.next_batch, []
    monkeypatch.setattr(BatchSampler, "next_batch", lambda self: calls.append(1) or next_batch(self))
    with pytest.raises(ValueError, match=f"^train split: identity {last} has no thermal samples$"):
        run_training(cfg, train)
    assert calls == []


#: what a NaN put into each stage's output in epoch 1 is reported as
DIVERGENCE = {
    "forward": "non-finite pooled features at epoch 1",
    "backward": "non-finite gradient in 'specific_visible.0.w': 1 of 64 entries at epoch 1",
}


def diverge_in_epoch_1(monkeypatch, cfg, train, stage="forward") -> TrainingDiverged:
    """Run training with a NaN put into the first entry of every step's
    pooled features (``stage="forward"``) or gradient (``"backward"``)
    after the first epoch; returns the divergence it raises."""
    batches = -(-len(train) // cfg.batch_spec().batch_size)
    run_stage, steps = getattr(training, stage), []

    def nan_in_epoch_1(*args, **kwargs):
        out = run_stage(*args, **kwargs)
        steps.append(1)
        if len(steps) > batches:
            (out.pooled if stage == "forward" else out.buffer).flat[0] = np.nan
        return out

    monkeypatch.setattr(training, stage, nan_in_epoch_1)
    with pytest.raises(TrainingDiverged, match=f"^{re.escape(DIVERGENCE[stage])}$") as info:
        run_training(cfg, train)
    return info.value


def test_non_finite_features_diverge_before_the_loss(monkeypatch):
    # a NaN in the pooled features is a divergence, not a bad FeatureSet
    cfg = small_config(**{"train.epochs": 2})
    train, _ = generate(cfg.synthetic_spec(), seeds.stream(cfg.seed, "data"))
    exc = diverge_in_epoch_1(monkeypatch, cfg, train)
    assert exc.epoch == 1
    assert np.all(np.isfinite(exc.last_good.buffer))


def test_last_good_is_the_last_full_epoch_bitwise(monkeypatch):
    # a divergence in epoch 1 carries the parameters that a one-epoch run
    # returns (epoch 0's warmup rate does not depend on train.epochs)
    cfg = small_config(**{"train.epochs": 2})
    train, _ = generate(cfg.synthetic_spec(), seeds.stream(cfg.seed, "data"))
    one_epoch, _ = run_training(small_config(**{"train.epochs": 1}), train)
    exc = diverge_in_epoch_1(monkeypatch, cfg, train)
    assert np.array_equal(exc.last_good.buffer, one_epoch.buffer)


def test_non_finite_gradient_diverges_with_the_last_full_epoch(monkeypatch):
    # sgd_step refuses a non-finite gradient before any entry changes; the
    # loop reports that as a divergence, as it does a non-finite feature
    cfg = small_config(**{"train.epochs": 2})
    train, _ = generate(cfg.synthetic_spec(), seeds.stream(cfg.seed, "data"))
    one_epoch, _ = run_training(small_config(**{"train.epochs": 1}), train)
    exc = diverge_in_epoch_1(monkeypatch, cfg, train, "backward")
    assert exc.epoch == 1
    assert np.array_equal(exc.last_good.buffer, one_epoch.buffer)


@pytest.mark.parametrize("overrides", [
    {"mmd.variant": "margin_id"},
    {"mmd.variant": "marginal"},
    {"loss.lambda_margin_mmd": 0.0},
], ids=["margin_id", "marginal", "no_mmd"])
def test_epoch_stats_are_the_sequential_step_means(monkeypatch, overrides):
    # each EpochStats float equals, bit for bit, the mean of the epoch's
    # loss_total bundles summed one step at a time, and a diagnostic the
    # bundles never carry is NaN
    cfg = small_config(**{"train.epochs": 2, **overrides})
    train, _ = generate(cfg.synthetic_spec(), seeds.stream(cfg.seed, "data"))
    batches = -(-len(train) // cfg.batch_spec().batch_size)
    loss_total, bundles = training.loss_total, []

    def record(*args, **kwargs):
        bundles.append(loss_total(*args, **kwargs))
        return bundles[-1]

    monkeypatch.setattr(training, "loss_total", record)
    _, stats = run_training(cfg, train)
    assert len(bundles) == 2 * batches
    for epoch, got in enumerate(stats):
        steps = bundles[epoch * batches:(epoch + 1) * batches]
        sums = np.zeros(4)
        active_sum, active_n, mmd2_sum, mmd2_n = 0.0, 0, 0.0, 0
        for b in steps:
            sums += (b.total, b.id_term, b.margin_mmd_term, b.hctri_term)
            if b.active_classes is not None:
                active_sum, active_n = active_sum + b.active_classes, active_n + 1
            if b.class_mmd2 is not None:
                mmd2_sum, mmd2_n = mmd2_sum + float(b.class_mmd2.mean()), mmd2_n + 1
        want = [*sums / batches,
                active_sum / active_n if active_n else np.nan,
                mmd2_sum / mmd2_n if mmd2_n else np.nan]
        have = [got.loss_total, got.loss_id, got.loss_mmd, got.loss_hctri,
                got.active_classes, got.mean_class_mmd2]
        assert got.epoch == epoch
        assert np.array(have).tobytes() == np.array(want).tobytes()
    gated = overrides == {"mmd.variant": "margin_id"}
    assert all(np.isnan(s.active_classes) != gated for s in stats)
    assert all(np.isnan(s.mean_class_mmd2) != gated for s in stats)


def _run_outputs(cfg, train, test):
    """A run's outputs as bytes: the parameters and the log but for its
    seconds, the test split's features, each trial's CMC and mAP, and the
    centroid similarity stats."""
    params, stats = run_training(cfg, train)
    feats = encode_dataset(params, test, features=cfg["eval.features"])
    query = feats.select(feats.modalities == THERMAL)
    report = evaluate(query, feats.select(feats.modalities != THERMAL),
                      rng=seeds.stream(cfg.seed, "gallery-trials"), trials=cfg["eval.trials"])
    return {
        "params": params.buffer.tobytes(),
        "log": [np.array(astuple(s)[:-1]).tobytes() for s in stats],
        "features": feats.features.tobytes(),
        "per_trial_cmc": report.per_trial_cmc.tobytes(),
        "per_trial_map": report.per_trial_map.tobytes(),
        "similarity": np.array(astuple(similarity_stats(feats))).tobytes(),
    }


@pytest.mark.parametrize("relabel", [
    lambda ids: 7 * ids + 1000,
    lambda ids: np.cumsum(np.random.default_rng(5).integers(1, 50, 100))[ids] - 10**6,
], ids=["affine", "random-gaps"])
def test_increasing_relabelling_changes_nothing(relabel):
    # classes are the sorted identities, and the sampler and the gallery
    # draws index into them, so a run reads each label's order, never its value
    cfg = small_config(**{"data.num_identities": 20, "train.epochs": 2})
    train, test = generate(cfg.synthetic_spec(), seeds.stream(cfg.seed, "data"))
    assert np.all(np.diff(relabel(np.arange(100))) > 0)
    mapped = [DescriptorSet(s.descriptors, relabel(s.identities), s.modalities) for s in (train, test)]
    assert _run_outputs(cfg, *mapped) == _run_outputs(cfg, train, test)


def _traced_peak(fn):
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_consecutive_pk16_steps_hold_one_tape(monkeypatch):
    # P=16, K=8 with the default widths: the second step's forward refills
    # the first step's tape, so it keeps no second tape alive and adds only
    # its temporaries
    cfg = small_config(**{
        "data.num_identities": 20, "data.samples_per_identity": 16, "batch.p": 16, "batch.k": 8,
        "mmd.variant": "marginal", "train.epochs": 1,
        "encoder.specific_widths": (32, 64), "encoder.shared_widths": (64, 64),
    })
    train, _ = generate(cfg.synthetic_spec(), seeds.stream(cfg.seed, "data"))
    forward, calls = training.forward, []

    def traced_forward(*args, **kwargs):
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        tape = forward(*args, **kwargs)
        current, peak = tracemalloc.get_traced_memory()
        calls.append((tape, current - before, peak - before))
        return tape

    monkeypatch.setattr(training, "forward", traced_forward)
    _traced_peak(lambda: run_training(cfg, train))
    (first, grew_first, _), (second, grew, peak) = calls
    assert len(first.pooled) == 256 and second is first
    tape_bytes = sum(a.nbytes for a in (*first.specific_visible, *first.specific_thermal,
                                        *first.shared, first.gem_mean, first.pooled,
                                        first.bn_xhat, first.bn_features, first.logits))
    assert tape_bytes > 2_000_000 and grew_first >= tape_bytes
    assert grew < 0.01 * tape_bytes and peak < 0.5 * tape_bytes


def test_encode_dataset_keeps_one_chunk_alive(monkeypatch):
    # the output array plus one chunk's features pass; holding a chunk's
    # activations while the next one runs would add a second chunk
    _, test = generate(SyntheticSpec(num_identities=20, samples_per_identity=60),
                       np.random.default_rng(4))
    params = init_params(EncoderShape(descriptor_dim=8, num_classes=800), np.random.default_rng(0))
    chunk = 200
    monkeypatch.setattr(encoder, "CHUNK_ROWS", chunk * test.descriptors.shape[1])
    head = test.select(np.arange(chunk))
    head_feats, one_chunk = _traced_peak(lambda: encode_dataset(params, head))
    one_chunk -= head_feats.features.nbytes
    feats, peak = _traced_peak(lambda: encode_dataset(params, test))
    assert len(test) == 4 * 2 * 60
    assert peak <= feats.features.nbytes + 1.1 * one_chunk


def _default_split_and_params():
    # the default config's 400-sample test split and untrained encoder
    cfg = ExperimentConfig.defaults()
    train, test = generate(cfg.synthetic_spec(), seeds.stream(cfg.seed, "data"))
    shape = cfg.encoder_shape(len(np.unique(train.identities)))
    return test, init_params(shape, np.random.default_rng(0))


def test_encode_dataset_default_chunk_stays_small():
    # a chunk is 256 descriptor rows (64 samples at H = 4), so one 64-wide
    # layer's activations take 128 KB; the whole split's 1,600 rows in one
    # chunk would hold about 23 such layers at once
    test, params = _default_split_and_params()
    assert test.descriptors.shape[:2] == (400, 4)
    one_layer = 256 * max(params.shape.specific_widths + params.shape.shared_widths) * 8
    for features in ("pooled", "bn"):
        feats, peak = _traced_peak(lambda: encode_dataset(params, test, features=features))
        assert peak < feats.features.nbytes + 6 * one_layer


def test_encode_dataset_bitwise_for_any_chunk(monkeypatch):
    # embeddings.csv's bytes rest on every chunking giving the same bits
    test, params = _default_split_and_params()
    h = test.descriptors.shape[1]
    for features in ("pooled", "bn"):
        tape = forward(params, test.descriptors, test.modalities, train=False)
        want = tape.bn_features if features == "bn" else tape.pooled
        # 1 sample (1 and 7 rows), 7 samples, the default and the whole split
        for rows in (1, 7, 7 * h, 256, len(test) * h):
            monkeypatch.setattr(encoder, "CHUNK_ROWS", rows)
            got = encode_dataset(params, test, features=features)
            assert np.array_equal(got.features, want), (features, rows)


@pytest.mark.slow
def test_encode_dataset_matches_forward_chunking(monkeypatch):
    cfg = small_config()
    train, test = generate(cfg.synthetic_spec(), seeds.stream(cfg.seed, "data"))
    params, _ = run_training(cfg, train)
    monkeypatch.setattr(encoder, "CHUNK_ROWS", 10_000)
    whole = encode_dataset(params, test)
    monkeypatch.setattr(encoder, "CHUNK_ROWS", 7)
    chunked = encode_dataset(params, test)
    assert np.array_equal(whole.features, chunked.features)
    bn = encode_dataset(params, test, features="bn")
    assert bn.features.shape == whole.features.shape
    assert not np.allclose(bn.features, whole.features)
    with pytest.raises(ValueError, match="features"):
        encode_dataset(params, test, features="raw")


@pytest.mark.slow
def test_full_loss_wallclock_overhead_is_moderate():
    # mirrors the training-time comparison on the default synthetic config:
    # the full objective should not blow up step time relative to
    # cross-entropy alone. The reference ratio band (<= 1.15x, measured on a
    # GPU-scale backbone where loss overhead is negligible) is informational
    # at desk scale; assert a loose sanity bound and report the number.
    ce = ExperimentConfig.defaults()
    ce.values.update({"train.epochs": 3, "loss.lambda_margin_mmd": 0.0,
                      "loss.lambda_hctri": 0.0})
    full = ExperimentConfig.defaults()
    full.values.update({"train.epochs": 3})
    train, _ = generate(ce.synthetic_spec(), seeds.stream(ce.seed, "data"))
    run_training(ce, train)  # warm caches
    t0 = time.perf_counter()
    run_training(ce, train)
    t_ce = time.perf_counter() - t0
    t0 = time.perf_counter()
    run_training(full, train)
    t_full = time.perf_counter() - t0
    ratio = t_full / t_ce
    print(f"\nfull-loss / CE-only wall-clock ratio: {ratio:.2f} (reference band 1.15)")
    assert ratio < 3.0

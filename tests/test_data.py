import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from xreid.data import (
    BatchSampler,
    BatchSpec,
    DescriptorSet,
    FeatureSet,
    SyntheticSpec,
    THERMAL,
    VISIBLE,
    cell_index,
    dump,
    generate,
    load,
    sample_batch,
)
from xreid.evaluation import evaluate


class TestFeatureSet:
    def test_parallel_array_validation(self):
        with pytest.raises(ValueError, match="parallel"):
            FeatureSet(np.zeros((3, 2)), np.zeros(2, dtype=int), np.zeros(3, dtype=int))

    @pytest.mark.parametrize("make", [
        lambda ids, mods: FeatureSet(np.zeros((4, 2)), ids, mods),
        lambda ids, mods: DescriptorSet(np.zeros((4, 1, 2)), ids, mods),
    ], ids=["features", "descriptors"])
    def test_labels_checked(self, make):
        ids, mods = np.array([0, 0, 1, 1]), np.array([VISIBLE, THERMAL, VISIBLE, THERMAL])
        with pytest.raises(ValueError, match=r"identities and modalities must be 1-D, got shapes \(2, 2\)"):
            make(ids.reshape(2, 2), mods)
        with pytest.raises(ValueError, match=r"must be 1-D, got shapes \(4,\) and \(4, 1\)"):
            make(ids, mods.reshape(4, 1))
        # a modality of 2 would count as visible in ``cells`` but not as visible anywhere else
        with pytest.raises(ValueError, match=r"^row 2: modality 2 is not VISIBLE \(0\) or THERMAL \(1\)$"):
            make(ids, np.array([VISIBLE, THERMAL, 2, THERMAL]))
        with pytest.raises(ValueError, match="modality -1"):
            make(ids, np.array([VISIBLE, -1, VISIBLE, THERMAL]))
        assert make(ids, mods).cells.counts.tolist() == [1, 1, 1, 1]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_rejected(self, bad):
        ids, mods = np.array([0, 1]), np.array([VISIBLE, THERMAL])
        features = np.zeros((2, 3))
        features[1, 2] = bad
        with pytest.raises(ValueError, match=r"^features hold non-finite values \(NaN or inf\)$"):
            FeatureSet(features, ids, mods)
        with pytest.raises(ValueError, match=r"^descriptors hold non-finite values"):
            DescriptorSet(features.reshape(2, 3, 1), ids, mods)

    def test_modality_slice(self):
        fs = FeatureSet(
            np.arange(6).reshape(3, 2), np.array([0, 1, 2]), np.array([VISIBLE, THERMAL, VISIBLE])
        )
        assert fs.modality_slice(VISIBLE).shape == (2, 2)


class TestGenerate:
    def test_split_sizes_and_disjoint(self):
        spec = SyntheticSpec(num_identities=50, samples_per_identity=5)
        train, test = generate(spec, np.random.default_rng(3))
        assert len(np.unique(train.identities)) == 40
        assert len(np.unique(test.identities)) == 10
        assert not set(train.identities.tolist()) & set(test.identities.tolist())
        assert len(train) == 40 * 2 * 5
        assert train.descriptors.shape[1:] == (spec.descriptor_count, spec.descriptor_dim)

    def test_disjoint_split_across_seeds(self):
        for seed in range(20):
            spec = SyntheticSpec(num_identities=15, samples_per_identity=1)
            train, test = generate(spec, np.random.default_rng(seed))
            assert not set(train.identities.tolist()) & set(test.identities.tolist())
            assert len(np.unique(test.identities)) >= 1

    def test_deterministic_from_seed(self):
        spec = SyntheticSpec(num_identities=8, samples_per_identity=3)
        a_train, a_test = generate(spec, np.random.default_rng(11))
        b_train, b_test = generate(spec, np.random.default_rng(11))
        assert np.array_equal(a_train.descriptors, b_train.descriptors)
        assert np.array_equal(a_test.descriptors, b_test.descriptors)
        other = generate(spec, np.random.default_rng(12))
        assert not np.array_equal(a_train.descriptors, other[0].descriptors)

    def test_degenerate_alignment(self):
        spec = SyntheticSpec(
            num_identities=5,
            samples_per_identity=2,
            within_noise=1e-12,
            modality_shift=0.0,
        )
        train, _ = generate(spec, np.random.default_rng(0))
        for c in np.unique(train.identities):
            rows = train.descriptors[train.identities == c]
            assert np.allclose(rows, rows[0], atol=1e-9)

    def test_huge_shift_gives_chance_level_retrieval(self):
        spec = SyntheticSpec(
            num_identities=50,
            samples_per_identity=20,
            identity_spread=1.0,
            within_noise=0.05,
            modality_shift=50.0,
        )
        _, test = generate(spec, np.random.default_rng(1))
        feats = FeatureSet(test.descriptors.mean(axis=1), test.identities, test.modalities)
        query = feats.select(feats.modalities == THERMAL)
        gallery = feats.select(feats.modalities == VISIBLE)
        report = evaluate(query, gallery, trials=10, rng=np.random.default_rng(0))
        g = len(np.unique(gallery.identities))
        assert abs(report.rank(1) - 1.0 / g) <= 0.1

    def test_too_few_identities(self):
        with pytest.raises(ValueError, match="at least 4"):
            generate(SyntheticSpec(num_identities=3), np.random.default_rng(0))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SyntheticSpec(num_identities=0)
        with pytest.raises(ValueError):
            SyntheticSpec(identity_spread=0.0)
        with pytest.raises(ValueError):
            SyntheticSpec(modality_shift=-1.0)

    @pytest.mark.parametrize("field", [
        "num_identities", "samples_per_identity", "descriptor_count",
        "descriptor_dim", "identity_spread", "within_noise", "thermal_noise_scale",
        "modality_shift",
    ])
    def test_spec_rejects_nan(self, field):
        # a direct caller's NaN fails the check as a bad config value does
        with pytest.raises(ValueError, match=">"):
            SyntheticSpec(**{field: float("nan")})


class TestSampleBatch:
    @pytest.fixture()
    def train(self):
        spec = SyntheticSpec(num_identities=20, samples_per_identity=6)
        return generate(spec, np.random.default_rng(5))[0]

    def test_structure(self, train):
        rng = np.random.default_rng(0)
        spec = BatchSpec(p=2, k=1)
        batch = sample_batch(train, spec, rng)
        assert len(batch) == 4
        assert len(np.unique(batch.identities)) == 2
        for c in np.unique(batch.identities):
            assert (batch.modalities[batch.identities == c] == [VISIBLE, THERMAL]).all()

    def test_batch_shape_invariants(self, train):
        rng = np.random.default_rng(1)
        spec = BatchSpec(p=4, k=4)
        for _ in range(50):
            batch = sample_batch(train, spec, rng)
            assert len(batch) == 2 * 4 * 4
            ids = np.unique(batch.identities)
            assert len(ids) == 4
            for c in ids:
                for m in (VISIBLE, THERMAL):
                    assert ((batch.identities == c) & (batch.modalities == m)).sum() == 4

    def test_grouped_layout(self, train):
        rng = np.random.default_rng(2)
        batch = sample_batch(train, BatchSpec(p=3, k=2), rng)
        # identities grouped; per identity the visible block precedes thermal
        for i in range(3):
            rows = slice(4 * i, 4 * (i + 1))
            assert len(np.unique(batch.identities[rows])) == 1
            assert batch.modalities[rows].tolist() == [VISIBLE, VISIBLE, THERMAL, THERMAL]

    def test_replacement_when_cell_small(self):
        spec = SyntheticSpec(num_identities=6, samples_per_identity=2)
        train, _ = generate(spec, np.random.default_rng(7))
        rng = np.random.default_rng(3)
        batch = sample_batch(train, BatchSpec(p=2, k=5), rng)
        assert len(batch) == 2 * 2 * 5

    def test_identity_frequency_uniform(self, train):
        # chi^2-style 3-sigma band on per-identity selection counts
        rng = np.random.default_rng(4)
        spec = BatchSpec(p=4, k=1)
        ids = np.unique(train.identities)
        counts = {int(c): 0 for c in ids}
        n_batches = 10_000
        for _ in range(n_batches):
            for c in np.unique(sample_batch(train, spec, rng).identities):
                counts[int(c)] += 1
        n_ids = len(ids)
        p_pick = spec.p / n_ids
        expected = n_batches * p_pick
        sigma = np.sqrt(n_batches * p_pick * (1 - p_pick))
        for c, count in counts.items():
            assert abs(count - expected) <= 3 * sigma, (c, count, expected)
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        dof = n_ids - 1
        assert abs(chi2 - dof) <= 3 * np.sqrt(2 * dof)

    def test_too_few_identities_for_p(self, train):
        with pytest.raises(ValueError, match="identities"):
            sample_batch(train, BatchSpec(p=25, k=1), np.random.default_rng(0))

    def test_batch_spec_validation(self):
        with pytest.raises(ValueError):
            BatchSpec(p=1, k=1)
        with pytest.raises(ValueError):
            BatchSpec(p=2, k=0)

    def test_one_cell_index_per_dataset(self, train, monkeypatch):
        import xreid.data as data_module

        calls = []
        build = data_module.cell_index
        monkeypatch.setattr(data_module, "cell_index", lambda *a: calls.append(1) or build(*a))
        rng = np.random.default_rng(6)
        for _ in range(50):
            sample_batch(train, BatchSpec(p=4, k=4), rng)
        assert len(calls) == 1

    def test_selected_set_builds_its_own_index(self, train):
        features = FeatureSet(train.descriptors[:, 0], train.identities, train.modalities)
        for labelled in (train, features):
            whole = labelled.cells
            part = labelled.select(labelled.identities != labelled.identities[0])
            assert part.cells is not whole and part.cells is part.cells
            assert np.array_equal(part.cells.ids, np.unique(part.identities))
            assert np.array_equal(part.cells.cell, cell_index(part.identities, part.modalities).cell)

    def test_select_stores_what_the_constructor_would(self, train):
        # select skips the checks; its arrays equal the validating
        # constructor's, for masks and integer indices alike
        features = FeatureSet(train.descriptors[:, 0], train.identities, train.modalities)
        mask = train.identities % 3 != 0
        for labelled, name in ((train, "descriptors"), (features, "features")):
            for index in (mask, np.flatnonzero(mask)[::-1], [5, 2, 2], np.array([], dtype=int)):
                got = labelled.select(index)
                values = getattr(labelled, name)[index]
                want = type(labelled)(values, labelled.identities[index], labelled.modalities[index])
                assert type(got) is type(want)
                for field in (name, "identities", "modalities"):
                    a, b = getattr(got, field), getattr(want, field)
                    assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
                assert np.array_equal(got.cells.order, want.cells.order)
            for index in (3, np.zeros((2, 2), dtype=int)):
                with pytest.raises(ValueError, match="1-D row index or mask"):
                    labelled.select(index)

    def test_sampler_stream_and_epoch_size(self, train):
        sampler = BatchSampler(train, BatchSpec(p=4, k=4), np.random.default_rng(5))
        assert sampler.batches_per_epoch() == -(-len(train) // 32)
        a = sampler.next_batch()
        b = sampler.next_batch()
        assert not np.array_equal(a.descriptors, b.descriptors)


class TestDumpLoad:
    def test_round_trip_lossless(self, tmp_path):
        spec = SyntheticSpec(num_identities=5, samples_per_identity=2)
        train, _ = generate(spec, np.random.default_rng(9))
        path = tmp_path / "train.csv"
        dump(train, path)
        loaded = load(path)
        assert np.array_equal(loaded.descriptors, train.descriptors)
        assert np.array_equal(loaded.identities, train.identities)
        assert np.array_equal(loaded.modalities, train.modalities)

    def test_header_declares_shape_and_version(self, tmp_path):
        spec = SyntheticSpec(num_identities=4, samples_per_identity=1,
                             descriptor_count=3, descriptor_dim=5)
        train, _ = generate(spec, np.random.default_rng(0))
        path = tmp_path / "d.csv"
        dump(train, path)
        header = path.read_text().splitlines()[0]
        assert header == "#version=1,H=3,D_in=5"

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,v,0.0\n")
        with pytest.raises(ValueError, match="header"):
            load(path)

    def test_short_row_rejected(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("#version=1,H=2,D_in=2\n0,v,1.0,2.0\n")
        with pytest.raises(ValueError, match="fields"):
            load(path)

    @pytest.mark.parametrize("body, line", [
        pytest.param("0,v,1.0,abc\n", 2, id="bad-value-first-row"),
        pytest.param("0,v,1.0\n", 2, id="short-row-first-row"),
        pytest.param("0,v,1.0,2.0\n\n\n0,t,1.0,abc\n", 5, id="bad-value-after-blank-lines"),
        pytest.param("0,v,1.0,2.0\n\n\n0,t,1.0\n", 5, id="short-row-after-blank-lines"),
    ])
    def test_parse_error_names_the_file_line(self, tmp_path, body, line):
        path = tmp_path / "rows.csv"
        path.write_text("#version=1,H=1,D_in=2\n" + body)
        with pytest.raises(ValueError, match=rf"rows.csv: line {line}: .*; a row is .*: 4 fields") as info:
            load(path)
        assert " at row " not in str(info.value)

    def test_round_trip_bit_exact_on_edge_floats(self, tmp_path):
        edge = [5e-324, -0.0, 1e16, 1e-05, np.finfo(np.float64).max, -2.2250738585072014e-308]
        descriptors = np.array(edge + [0.1, -1.5]).reshape(2, 2, 2)
        dataset = DescriptorSet(descriptors, np.array([3, 3]), np.array([VISIBLE, THERMAL]))
        path = tmp_path / "edge.csv"
        dump(dataset, path)
        loaded = load(path)
        assert loaded.descriptors.tobytes() == descriptors.tobytes()  # -0.0 keeps its sign
        assert loaded.identities.tolist() == [3, 3]
        assert loaded.modalities.tolist() == [VISIBLE, THERMAL]

    @given(st.integers(0, 5), st.integers(1, 3), st.integers(1, 3), st.data())
    def test_round_trip_bit_exact_property(self, n, h, d, data):
        # -0.0, subnormals and the extremes besides whatever floats hypothesis draws
        edge = st.sampled_from([-0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308])
        value = st.one_of(edge, st.floats(allow_nan=False, allow_infinity=False))
        values = data.draw(st.lists(value, min_size=n * h * d, max_size=n * h * d))
        identities = data.draw(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=n, max_size=n))
        modalities = data.draw(st.lists(st.sampled_from([VISIBLE, THERMAL]), min_size=n, max_size=n))
        dataset = DescriptorSet(np.array(values, dtype=float).reshape(n, h, d), identities, modalities)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "split.csv"
            dump(dataset, path)
            loaded = load(path)
        assert loaded.descriptors.shape == (n, h, d)
        assert loaded.descriptors.tobytes() == dataset.descriptors.tobytes()
        assert loaded.identities.tolist() == identities
        assert loaded.modalities.tolist() == modalities

    @pytest.mark.parametrize("header", ["#H=2,D_in=2", "#version=1,D_in=2", "#version=1,H=2",
                                        "#version=1,H=two,D_in=2"])
    def test_header_without_integer_field_names_path(self, tmp_path, header):
        path = tmp_path / "header.csv"
        path.write_text(header + "\n0,v,1.0,2.0,3.0,4.0\n")
        with pytest.raises(ValueError, match="header.csv: dataset header .* needs integer"):
            load(path)

    @pytest.mark.parametrize("header, row", [
        ("#version=1,H=0,D_in=2", "0,v"),  # would load as an (N, 0, 2) set
        ("#version=1,H=2,D_in=0", "0,v"),
        ("#version=1,H=-1,D_in=2", "0,v,1.0,2.0"),  # numpy would refuse the row dtype
    ])
    def test_header_shape_below_one_names_path(self, tmp_path, header, row):
        path = tmp_path / "shape.csv"
        path.write_text(f"{header}\n{row}\n")
        message = f"shape.csv: dataset header '{header}' needs H >= 1 and D_in >= 1$"
        with pytest.raises(ValueError, match=message):
            load(path)

    def test_unknown_modality_token_names_path(self, tmp_path):
        path = tmp_path / "token.csv"
        path.write_text("#version=1,H=1,D_in=2\n0,v,1.0,2.0\n0,x,1.0,2.0\n")
        with pytest.raises(ValueError, match="token.csv: line 3: modality token 'x' is not v or t$"):
            load(path)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_value_rejected(self, tmp_path, bad):
        path = tmp_path / "nonfinite.csv"
        path.write_text(f"#version=1,H=1,D_in=2\n0,v,1.0,2.0\n0,t,{bad},2.0\n")
        with pytest.raises(ValueError, match="nonfinite.csv: line 3: non-finite descriptor value$"):
            load(path)

    @pytest.mark.parametrize("row, message", [
        pytest.param("0,x,1.0,2.0", "modality token 'x' is not v or t", id="token"),
        pytest.param("0,t,nan,2.0", "non-finite descriptor value", id="non-finite"),
    ])
    def test_bad_row_after_blank_lines_names_the_file_line(self, tmp_path, row, message):
        # the bad row is sample 1 but file line 5
        path = tmp_path / "rows.csv"
        path.write_text(f"#version=1,H=1,D_in=2\n0,v,1.0,2.0\n\n\n{row}\n")
        with pytest.raises(ValueError, match=f"rows.csv: line 5: {message}$"):
            load(path)

    def test_header_only_split_is_empty_without_warning(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("#version=1,H=3,D_in=2\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loaded = load(path)
        assert loaded.descriptors.shape == (0, 3, 2)
        assert len(loaded.identities) == len(loaded.modalities) == 0

    def test_load_peak_memory_bounded(self, tmp_path):
        # one structured parse plus one copy of the descriptors: no Python
        # float per value (a per-value parse peaks above 5x the arrays)
        spec = SyntheticSpec(num_identities=50, samples_per_identity=20)
        path = tmp_path / "train.csv"
        dump(generate(spec, np.random.default_rng(2))[0], path)
        tracemalloc.start()
        try:
            loaded = load(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        array_bytes = sum(a.nbytes for a in (loaded.descriptors, loaded.identities, loaded.modalities))
        assert peak <= 2 * array_bytes + 64 * 1024

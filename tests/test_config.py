from dataclasses import MISSING, fields, replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from xreid.config import ConfigError, ExperimentConfig, SCHEMA
from xreid.data import BatchSpec, SyntheticSpec
from xreid.encoder import EncoderShape, SgdHyper
from xreid.kernels import KernelSpec
from xreid.losses import MMD_VARIANTS, HcTriConfig, LossWeights
from xreid.mmd import MarginConfig

CHOICES = {
    "mmd.estimator": ("biased", "unbiased"),
    "mmd.variant": MMD_VARIANTS,
    "eval.query_modality": ("thermal", "visible"),
    "eval.ranking": ("cosine", "euclidean"),
    "eval.features": ("pooled", "bn"),
}
FINITE = st.floats(allow_nan=False, allow_infinity=False)


def value_of(key, default):
    """Any value a config text line can hold for ``key``."""
    if key in CHOICES:
        return st.sampled_from(CHOICES[key])
    if key == "output.dir":  # one line, no comment; the parser strips it
        return st.text(st.characters(min_codepoint=32, max_codepoint=126, exclude_characters="#")).map(str.strip)
    if key == "kernel.sigma_squared":
        return st.none() | FINITE
    if isinstance(default, tuple):
        return st.lists(FINITE if isinstance(default[0], float) else st.integers(), max_size=4).map(tuple)
    if isinstance(default, bool):
        return st.booleans()
    return st.integers() if isinstance(default, int) else FINITE


CONFIGS = st.fixed_dictionaries({key: value_of(key, default) for key, (_, default) in SCHEMA.items()})


class TestParsing:
    def test_defaults_cover_schema(self):
        cfg = ExperimentConfig.defaults()
        assert set(cfg.values) == set(SCHEMA)

    def test_round_trip_exact(self):
        cfg = ExperimentConfig.defaults()
        cfg.values["optim.base_lr"] = 0.0012300000000000001
        cfg.values["kernel.mixture_scales"] = (0.1, 0.30000000000000004)
        text = cfg.to_text()
        again = ExperimentConfig.from_text(text)
        assert again.values == cfg.values
        assert again.to_text() == text

    @given(CONFIGS)
    def test_round_trip_property(self, values):
        cfg = ExperimentConfig(values)
        text = cfg.to_text()
        again = ExperimentConfig.from_text(text)
        assert again.values == cfg.values
        assert again.to_text() == text  # -0.0 keeps its sign

    def test_unknown_key_is_hard_error(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            ExperimentConfig.from_text("data.num_identitties = 50\n")

    def test_bad_value_reports_location(self):
        with pytest.raises(ConfigError, match="<config>:2"):
            ExperimentConfig.from_text("seed = 1\ntrain.epochs = many\n")

    def test_comments_and_blanks_ignored(self):
        cfg = ExperimentConfig.from_text(
            "# a comment\n\nseed = 7  # trailing comment\n"
        )
        assert cfg.seed == 7

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="key = value"):
            ExperimentConfig.from_text("seed 7\n")

    def test_bandwidth_median_or_float(self):
        cfg = ExperimentConfig.from_text("kernel.sigma_squared = median\n")
        assert cfg.values["kernel.sigma_squared"] is None
        cfg = ExperimentConfig.from_text("kernel.sigma_squared = 2.5\n")
        assert cfg.values["kernel.sigma_squared"] == 2.5
        for bad in ("nan", "inf"):
            with pytest.raises(ConfigError, match="bad value for 'kernel.sigma_squared'"):
                ExperimentConfig.from_text(f"kernel.sigma_squared = {bad}\n")

    def test_choice_keys_validated(self):
        with pytest.raises(ConfigError, match="mmd.estimator"):
            ExperimentConfig.from_text("mmd.estimator = vstat\n")
        with pytest.raises(ConfigError, match="eval.ranking"):
            ExperimentConfig.from_text("eval.ranking = cityblock\n")

    def test_bool_strict(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_text("encoder.gem_p_learnable = yes\n")

    @pytest.mark.parametrize("value", ["runs/a#b", "runs/a\nb", "runs/a\r\nb", "runs/a\n", "#"])
    def test_value_text_cannot_carry_is_refused(self, value):
        # written back, '#' would start a comment and a line break a new line
        cfg = ExperimentConfig.defaults()
        with pytest.raises(ConfigError, match="--set: value for 'output.dir' holds a '#' or a line break"):
            cfg.set("output.dir", value, where="--set")
        assert cfg.output_dir == "runs/default"

    @pytest.mark.parametrize("key, value, want", [
        ("output.dir", " runs/a ", "runs/a"),
        ("output.dir", "\truns/b", "runs/b"),
        ("mmd.variant", " marginal", "marginal"),
        ("seed", " 7 ", 7),
    ])
    def test_set_value_survives_the_resolved_config(self, key, value, want):
        # set strips a value as from_text does, so a set value reads back
        # from the text it writes
        cfg = ExperimentConfig.defaults()
        cfg.set(key, value)
        assert cfg[key] == want
        assert ExperimentConfig.from_text(cfg.to_text()).values == cfg.values


class TestTypedViews:
    def test_module_objects_from_defaults(self):
        cfg = ExperimentConfig.defaults()
        assert cfg.batch_spec().batch_size == 32
        assert cfg.margin().rho == 1.4
        assert cfg.hctri().margin_rho1 == 0.3
        weights = cfg.loss_weights()
        assert (weights.lambda_id, weights.lambda_margin_mmd, weights.lambda_hctri) == (1.0, 0.25, 2.0)
        hyper = cfg.sgd_hyper()
        assert hyper.momentum == 0.9
        assert hyper.weight_decay == 0.0005
        shape = cfg.encoder_shape(num_classes=12)
        assert shape.num_classes == 12
        assert shape.descriptor_dim == cfg.values["data.descriptor_dim"]

    def test_set_override(self):
        cfg = ExperimentConfig.defaults()
        cfg.set("batch.p", "8")
        assert cfg.batch_spec().p == 8
        with pytest.raises(ConfigError, match="unknown"):
            cfg.set("batch.q", "8")


def encoder_view(cfg):
    return cfg.encoder_shape(num_classes=3)


SECTIONS = {
    "data": (SyntheticSpec, ExperimentConfig.synthetic_spec),
    "batch": (BatchSpec, ExperimentConfig.batch_spec),
    "kernel": (KernelSpec, ExperimentConfig.kernel_spec),
    "hctri": (HcTriConfig, ExperimentConfig.hctri),
    "loss": (LossWeights, ExperimentConfig.loss_weights),
    "encoder": (EncoderShape, encoder_view),
    "optim": (SgdHyper, ExperimentConfig.sgd_hyper),
}
# (key, settings class, field, view): every section key, then the fields a
# view takes from outside its section
FIELDS = [
    pytest.param(key, cls, key.split(".", 1)[1], view, id=f"{key}->{cls.__name__}")
    for key in SCHEMA
    for section, (cls, view) in SECTIONS.items()
    if key.startswith(section + ".")
] + [
    pytest.param(key, cls, field, view, id=f"{key}->{cls.__name__}")
    for key, cls, field, view in (
        ("data.descriptor_dim", EncoderShape, "descriptor_dim", encoder_view),
        ("train.epochs", SgdHyper, "total_epochs", ExperimentConfig.sgd_hyper),
        ("mmd.margin_rho", MarginConfig, "rho", ExperimentConfig.margin),
    )
]


def other_value(default):
    """A valid value of ``default``'s type that differs from it."""
    if isinstance(default, bool):
        return not default
    if default is None:
        return 2.0
    if isinstance(default, tuple):
        return tuple(v * 2 for v in default)
    return default + 1 if isinstance(default, int) else default / 2


def field_default(cls, name):
    """The default of field ``name`` of ``cls``; None when there is no such field."""
    return {f.name: f.default for f in fields(cls)}.get(name)


class TestSections:
    @pytest.mark.parametrize("key, cls, field, view", FIELDS)
    def test_key_reaches_its_field(self, key, cls, field, view):
        cfg = ExperimentConfig.defaults()
        value = other_value(SCHEMA[key][1])
        cfg.values[key] = value
        built = view(cfg)
        assert isinstance(built, cls)
        assert built == replace(view(ExperimentConfig.defaults()), **{field: value})

    @pytest.mark.parametrize("key, cls, field", [
        pytest.param(*p.values[:3], id=p.id) for p in FIELDS if field_default(*p.values[1:3]) is not MISSING
    ])
    def test_field_default_is_schema_default(self, key, cls, field):
        assert field_default(cls, field) == SCHEMA[key][1]

"""Plain-text experiment configuration: ``section.key = value`` lines.

One flat schema covers every module knob; unknown keys are hard errors so a
typo can never silently fall back to a default. A config object serializes
back to the same format with every key resolved, and parsing that resolved
text reproduces the object exactly, which is what makes re-runs bit-for-bit
reproducible. A value that text cannot carry, one holding a ``#`` or a line
break, is refused when it is set.

A key ``<section>.<field>`` sets that field of its section's settings object
(``data`` -> :class:`SyntheticSpec`, ``optim`` -> :class:`SgdHyper`, ...).
The fields a section does not hold are given by the view that builds it:
``descriptor_dim`` and ``num_classes`` of the encoder, ``total_epochs`` of
the schedule (``train.epochs``) and the margin's ``rho`` (``mmd.margin_rho``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .data import BatchSpec, SyntheticSpec
from .encoder import EncoderShape, SgdHyper
from .kernels import KernelSpec
from .losses import MMD_VARIANTS, HcTriConfig, LossWeights
from .mmd import MarginConfig


def _parse_bool(s: str) -> bool:
    if s == "true":
        return True
    if s == "false":
        return False
    raise ValueError(f"expected 'true' or 'false', got {s!r}")


def _parse_float(s: str) -> float:
    value = float(s)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {s!r}")
    return value


def _parse_float_list(s: str) -> tuple[float, ...]:
    return tuple(_parse_float(v) for v in s.split(",") if v.strip())


def _parse_int_list(s: str) -> tuple[int, ...]:
    return tuple(int(v) for v in s.split(",") if v.strip())


def _parse_bandwidth(s: str):
    if s == "median":
        return None
    return _parse_float(s)


def _parse_choice(*choices):
    def parse(s: str) -> str:
        if s not in choices:
            raise ValueError(f"expected one of {choices}, got {s!r}")
        return s

    return parse


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "median"
    if isinstance(value, tuple):
        return ",".join(_fmt(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


# key -> (parser, default). Order defines the canonical resolved layout.
# The experiment-level kernel mixture is deliberately narrower than the
# library default: with median-heuristic bandwidths, wide scales cap the
# per-class MMD^2 well below the default margin rho and the gate would never
# open (see the margin loss docs).
SCHEMA: dict[str, tuple] = {
    "seed": (int, 0),
    "output.dir": (str, "runs/default"),
    "data.num_identities": (int, 50),
    "data.samples_per_identity": (int, 20),
    "data.descriptor_count": (int, 4),
    "data.descriptor_dim": (int, 8),
    "data.identity_spread": (_parse_float, 1.0),
    "data.within_noise": (_parse_float, 0.08),
    "data.thermal_noise_scale": (_parse_float, 2.0),
    "data.modality_shift": (_parse_float, 4.0),
    "data.per_identity_shift_rotation": (_parse_bool, True),
    "batch.p": (int, 4),
    "batch.k": (int, 4),
    "kernel.sigma_squared": (_parse_bandwidth, None),
    "kernel.mixture_scales": (_parse_float_list, (0.0625, 0.125, 0.25, 0.5)),
    "mmd.estimator": (_parse_choice("biased", "unbiased"), "biased"),
    "mmd.variant": (_parse_choice(*MMD_VARIANTS), "margin_id"),
    "mmd.margin_rho": (_parse_float, 1.4),
    "hctri.margin_rho1": (_parse_float, 0.3),
    "loss.lambda_id": (_parse_float, 1.0),
    "loss.lambda_margin_mmd": (_parse_float, 0.25),
    "loss.lambda_hctri": (_parse_float, 2.0),
    "encoder.specific_widths": (_parse_int_list, (32, 64)),
    "encoder.shared_widths": (_parse_int_list, (64, 64)),
    "encoder.gem_p": (_parse_float, 3.0),
    "encoder.gem_p_learnable": (_parse_bool, False),
    "optim.base_lr": (_parse_float, 0.0005),
    "optim.momentum": (_parse_float, 0.9),
    "optim.weight_decay": (_parse_float, 0.0005),
    "optim.warmup_epochs": (int, 3),
    "train.epochs": (int, 60),
    "eval.trials": (int, 10),
    "eval.query_modality": (_parse_choice("thermal", "visible"), "thermal"),
    "eval.ranking": (_parse_choice("cosine", "euclidean"), "cosine"),
    "eval.features": (_parse_choice("pooled", "bn"), "pooled"),
}


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    values: dict

    @classmethod
    def defaults(cls) -> "ExperimentConfig":
        return cls({key: default for key, (_, default) in SCHEMA.items()})

    @classmethod
    def from_text(cls, text: str, source: str = "<config>") -> "ExperimentConfig":
        cfg = cls.defaults()
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            cfg.set(key, value, where=f"{source}:{lineno}")
        return cfg

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_text(fh.read(), source=str(path))

    def set(self, key: str, value: str, where: str = "override") -> None:
        if key not in SCHEMA:
            raise ConfigError(f"{where}: unknown config key {key!r}")
        if "#" in value or value.splitlines() not in ([], [value]):
            # to_text could not write it back: '#' starts a comment, a line break a new line
            raise ConfigError(f"{where}: value for {key!r} holds a '#' or a line break: {value!r}")
        parser, _ = SCHEMA[key]
        try:
            # stripped, as config text and --set values are: to_text writes no
            # edge blanks that from_text would keep
            self.values[key] = parser(value.strip())
        except ValueError as exc:
            raise ConfigError(f"{where}: bad value for {key!r}: {exc}") from exc

    def __getitem__(self, key: str):
        return self.values[key]

    def to_text(self) -> str:
        lines = [f"{key} = {_fmt(self.values[key])}" for key in SCHEMA]
        return "\n".join(lines) + "\n"

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_text())

    # --- typed views onto the module configs ---

    @property
    def seed(self) -> int:
        return self.values["seed"]

    @property
    def output_dir(self) -> str:
        return self.values["output.dir"]

    def _section(self, cls, section: str, **given):
        """``cls`` built from every ``<section>.<field>`` key, plus ``given``."""
        prefix = section + "."
        fields = {key[len(prefix):]: self.values[key] for key in SCHEMA if key.startswith(prefix)}
        return cls(**fields, **given)

    def synthetic_spec(self) -> SyntheticSpec:
        return self._section(SyntheticSpec, "data")

    def batch_spec(self) -> BatchSpec:
        return self._section(BatchSpec, "batch")

    def kernel_spec(self) -> KernelSpec:
        return self._section(KernelSpec, "kernel")

    def margin(self) -> MarginConfig:
        # mmd.* also holds the estimator and the variant, which are not margin fields
        return MarginConfig(rho=self.values["mmd.margin_rho"])

    def hctri(self) -> HcTriConfig:
        return self._section(HcTriConfig, "hctri")

    def loss_weights(self) -> LossWeights:
        return self._section(LossWeights, "loss")

    def encoder_shape(self, num_classes: int) -> EncoderShape:
        return self._section(
            EncoderShape, "encoder",
            descriptor_dim=self.values["data.descriptor_dim"], num_classes=num_classes,
        )

    def sgd_hyper(self) -> SgdHyper:
        return self._section(SgdHyper, "optim", total_epochs=self.values["train.epochs"])


__all__ = ["SCHEMA", "ConfigError", "ExperimentConfig"]

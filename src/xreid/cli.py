"""Experiment command line: ``generate``, ``train``, ``eval``, ``sweep-margin``.

Every subcommand takes ``--config <path>`` (plain ``key = value`` text) plus
repeatable ``--set key=value`` overrides, writes its fully resolved config
next to its outputs, and exits 0 on success or nonzero after printing a
single ``error: ...`` line to stderr. Outputs are reproducible bit-for-bit
from the resolved config, except the wall-clock column of the training log.

Directory layout under ``output.dir``:

* ``dataset/``: ``train.csv``, ``test.csv``, ``manifest.json`` (checksums;
  ``train`` and ``eval`` check them all, then parse only their own split)
* ``train/``: ``checkpoint.bin``, ``log.csv``, ``config.resolved``
* ``eval/``: ``report.csv``, ``embeddings.csv``, ``config.resolved``
* ``sweep/``: one run directory per rho plus ``sweep.csv``
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

from . import data, seeds
from .config import ConfigError, ExperimentConfig, _parse_float_list
from .data import DescriptorSet
from .encoder import load_checkpoint, save_checkpoint
from .evaluation import EvalReport, evaluate, similarity_stats, write_report
from .mmd import MarginConfig
from .training import TrainingDiverged, encode_dataset, run_training, write_log

MANIFEST_VERSION = 1


class CliError(RuntimeError):
    pass


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _load_config(path: str | None, overrides: list[str]) -> ExperimentConfig:
    config = ExperimentConfig.from_file(path) if path else ExperimentConfig.defaults()
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        config.set(key.strip(), value.strip(), where="--set")
    return config


def cmd_generate(config: ExperimentConfig) -> Path:
    """Write the synthetic dataset plus a checksum manifest."""
    out = Path(config.output_dir) / "dataset"
    out.mkdir(parents=True, exist_ok=True)
    spec = config.synthetic_spec()
    train, test = data.generate(spec, seeds.stream(config.seed, "data"))
    data.dump(train, out / "train.csv")
    data.dump(test, out / "test.csv")
    manifest = {
        "version": MANIFEST_VERSION,
        "seed": config.seed,
        "spec": {k: config.values[k] for k in config.values if k.startswith("data.")},
        "files": {name: _sha256(out / name) for name in ("train.csv", "test.csv")},
    }
    with open(out / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2, default=list)
        fh.write("\n")
    config.write(out / "config.resolved")
    return out


def _manifest_path(dataset_dir: Path) -> Path:
    path = dataset_dir / "manifest.json"
    if not path.exists():
        raise CliError(f"no dataset manifest at {path}; run generate first")
    return path


def _manifest_files(path: Path) -> dict[str, str]:
    """The ``files`` table (file name -> SHA-256 hex digest) of the manifest
    at ``path``, or a :class:`CliError` naming what is malformed: text that
    is not a JSON object, an unsupported version, a missing ``files``
    object, a name that is not a plain file name in the dataset directory,
    or a checksum that is not a string."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            manifest = json.load(fh)
        except ValueError as exc:
            raise CliError(f"{path}: not a JSON manifest: {exc}") from None
    if not isinstance(manifest, dict):
        raise CliError(f"{path}: manifest is not a JSON object")
    if manifest.get("version") != MANIFEST_VERSION:
        raise CliError(f"unsupported manifest version {manifest.get('version')}")
    files = manifest.get("files")
    if not isinstance(files, dict):
        raise CliError(f"{path}: manifest has no 'files' object of file name: checksum")
    for name, checksum in files.items():
        if name in ("", ".", "..") or Path(name).name != name:
            raise CliError(f"{path}: manifest file {name!r} is not a plain file name")
        if not isinstance(checksum, str):
            raise CliError(f"{path}: manifest checksum of {name!r} is not a string: {checksum!r}")
    return files


def load_dataset(dataset_dir, split: str) -> DescriptorSet:
    """Load one split (``"train"`` or ``"test"``) of a generated dataset,
    refusing on a malformed manifest, one that lists no file for the split,
    and a checksum mismatch in any manifest file, unparsed ones too."""
    dataset_dir = Path(dataset_dir)
    manifest = _manifest_path(dataset_dir)
    files = _manifest_files(manifest)
    if f"{split}.csv" not in files:
        raise CliError(f"{manifest}: manifest has no {split}.csv entry to check the split against")
    for name, expected in files.items():
        actual = _sha256(dataset_dir / name)
        if actual != expected:
            raise CliError(
                f"dataset checksum mismatch for {name}: manifest {expected[:12]}..., "
                f"file {actual[:12]}..."
            )
    return data.load(dataset_dir / f"{split}.csv")


def cmd_train(config: ExperimentConfig, data_dir=None) -> Path:
    """Train from a generated dataset; writes checkpoint, log, resolved config."""
    data_dir = Path(data_dir) if data_dir else Path(config.output_dir) / "dataset"
    train_set = load_dataset(data_dir, "train")
    out = Path(config.output_dir) / "train"
    out.mkdir(parents=True, exist_ok=True)
    try:
        params, stats = run_training(config, train_set)
    except TrainingDiverged as exc:
        save_checkpoint(exc.last_good, out / "checkpoint.bin")
        raise CliError(f"{exc}; last-good checkpoint written to {out / 'checkpoint.bin'}") from exc
    save_checkpoint(params, out / "checkpoint.bin")
    write_log(out / "log.csv", stats)
    config.write(out / "config.resolved")
    return out


def _dump_embeddings(path, feats) -> None:
    dim = feats.features.shape[1]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("identity,modality," + ",".join(f"e_{i}" for i in range(dim)) + "\n")
        data.write_rows(fh, feats.identities, feats.modalities, feats.features)


def cmd_eval(config: ExperimentConfig, data_dir=None, checkpoint=None) -> EvalReport:
    """Evaluate a checkpoint on the test split; writes report and embeddings."""
    data_dir = Path(data_dir) if data_dir else Path(config.output_dir) / "dataset"
    checkpoint = Path(checkpoint) if checkpoint else Path(config.output_dir) / "train" / "checkpoint.bin"
    if not checkpoint.exists():
        raise CliError(f"no checkpoint at {checkpoint}; run train first")
    test_set = load_dataset(data_dir, "test")
    params = load_checkpoint(checkpoint)
    expected = config.encoder_shape(num_classes=params.shape.num_classes)
    if params.shape != expected:
        raise CliError(
            f"checkpoint architecture {params.shape} does not match config {expected}"
        )

    feats = encode_dataset(params, test_set, features=config["eval.features"])
    query_modality = data.THERMAL if config["eval.query_modality"] == "thermal" else data.VISIBLE
    query = feats.select(feats.modalities == query_modality)
    gallery = feats.select(feats.modalities != query_modality)
    report = evaluate(
        query,
        gallery,
        rng=seeds.stream(config.seed, "gallery-trials"),
        trials=config["eval.trials"],
        ranking=config["eval.ranking"],
    )
    stats = similarity_stats(feats)

    out = Path(config.output_dir) / "eval"
    out.mkdir(parents=True, exist_ok=True)
    write_report(out / "report.csv", report, stats)
    _dump_embeddings(out / "embeddings.csv", feats)
    config.write(out / "config.resolved")
    return report


def cmd_sweep_margin(config: ExperimentConfig, rho_values, data_dir=None) -> list[tuple]:
    """Train + eval once per margin value against one shared dataset.

    Without ``data_dir`` the dataset is ``<output.dir>/dataset``, generated
    there if missing; a given ``data_dir`` must already hold a dataset. Each
    rho's run directory and ``sweep.csv`` label is ``%g`` of it, so two rhos
    that print alike (``1.4,1.4`` or ``1.0000001,1.0000002``) are refused.
    """
    rhos = list(rho_values)
    if len(rhos) < 2:
        raise CliError(f"sweep needs at least 2 margin values, got {len(rhos)}")
    runs = {}  # run directory name -> rho, both checked before anything is written
    for rho in map(float, rhos):
        MarginConfig(rho)
        name = f"rho_{rho:g}"
        if name in runs:
            raise CliError(
                f"margin values {runs[name]!r} and {rho!r} both print as {rho:g}: "
                f"they would share the run directory sweep/{name} and one sweep.csv row label"
            )
        runs[name] = rho
    root = Path(config.output_dir)
    if data_dir:
        data_dir = Path(data_dir)
        _manifest_path(data_dir)
    else:
        data_dir = root / "dataset"
        if not (data_dir / "manifest.json").exists():
            cmd_generate(config)

    rows = []
    for name, rho in runs.items():
        sub = ExperimentConfig(dict(config.values))
        sub.set("mmd.margin_rho", repr(rho))
        sub.set("output.dir", str(root / "sweep" / name))
        cmd_train(sub, data_dir=data_dir)
        report = cmd_eval(sub, data_dir=data_dir)
        rows.append((rho, report.rank(1), report.map))

    sweep_dir = root / "sweep"
    sweep_dir.mkdir(parents=True, exist_ok=True)
    with open(sweep_dir / "sweep.csv", "w", encoding="utf-8") as fh:
        fh.write("rho,rank1,mAP\n")
        for rho, rank1, map_value in rows:
            fh.write(f"{rho:g},{rank1:.6f},{map_value:.6f}\n")
    config.write(sweep_dir / "config.resolved")
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="xreid", description="cross-modal identity experiments on synthetic data"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (
        ("generate", "write the synthetic dataset"),
        ("train", "train an encoder on a generated dataset"),
        ("eval", "evaluate a checkpoint (CMC/mAP + similarity stats)"),
        ("sweep-margin", "train + eval across margin values"),
    ):
        p = sub.add_parser(name, help=doc)
        p.add_argument("--config", help="key = value config file (defaults if omitted)")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override one config key")
        if name != "generate":
            p.add_argument("--data", help="dataset directory (default <output.dir>/dataset)")
        if name == "eval":
            p.add_argument("--checkpoint", help="checkpoint path (default <output.dir>/train/checkpoint.bin)")
        if name == "sweep-margin":
            p.add_argument("--rhos", required=True, help="comma-separated margin values (>= 2)")
    args = parser.parse_args(argv)

    try:
        config = _load_config(args.config, args.set)
        if args.command == "generate":
            cmd_generate(config)
        elif args.command == "train":
            cmd_train(config, data_dir=args.data)
        elif args.command == "eval":
            cmd_eval(config, data_dir=args.data, checkpoint=args.checkpoint)
        else:
            cmd_sweep_margin(config, _parse_float_list(args.rhos), data_dir=args.data)
    except (CliError, ConfigError, ValueError, FloatingPointError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

import json
from pathlib import Path

import numpy as np
import pytest

from xreid import counters
from xreid.cli import (
    _sha256,
    cmd_eval,
    cmd_generate,
    cmd_sweep_margin,
    cmd_train,
    load_dataset,
    main,
)
from xreid.config import ExperimentConfig


def tiny_config(out_dir, **overrides):
    cfg = ExperimentConfig.defaults()
    cfg.values.update(
        {
            "output.dir": str(out_dir),
            "data.num_identities": 10,
            "data.samples_per_identity": 4,
            "batch.p": 3,
            "batch.k": 2,
            "train.epochs": 2,
            "optim.warmup_epochs": 1,
            "optim.base_lr": 0.0005,
            "eval.trials": 3,
            "encoder.specific_widths": (8, 12),
            "encoder.shared_widths": (12, 12),
        }
    )
    cfg.values.update(overrides)
    return cfg


def read_log_without_seconds(path):
    lines = Path(path).read_text().splitlines()
    return [",".join(line.split(",")[:-1]) for line in lines]


class TestGenerate:
    def test_writes_dataset_and_manifest(self, tmp_path):
        cfg = tiny_config(tmp_path)
        out = cmd_generate(cfg)
        assert (out / "train.csv").exists()
        assert (out / "test.csv").exists()
        assert (out / "config.resolved").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["files"]) == {"train.csv", "test.csv"}
        assert manifest["seed"] == cfg.seed

    def test_same_seed_identical_bytes(self, tmp_path):
        a = cmd_generate(tiny_config(tmp_path / "a"))
        b = cmd_generate(tiny_config(tmp_path / "b"))
        for name in ("train.csv", "test.csv", "manifest.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_below_split_minimum_fails(self, tmp_path, capsys):
        code = main(
            ["generate", "--set", f"output.dir={tmp_path}", "--set", "data.num_identities=3"]
        )
        assert code != 0
        assert capsys.readouterr().err.startswith("error:")

    def test_checksum_mismatch_refuses(self, tmp_path):
        cfg = tiny_config(tmp_path)
        out = cmd_generate(cfg)
        (out / "train.csv").write_text((out / "train.csv").read_text().replace("0", "1", 1))
        with pytest.raises(Exception, match="checksum"):
            load_dataset(out, "test")

    @pytest.mark.parametrize("command,corrupt", [("eval", "train.csv"), ("train", "test.csv")])
    def test_unparsed_split_still_checksummed(self, tmp_path, capsys, command, corrupt):
        out = cmd_generate(tiny_config(tmp_path))
        (out / corrupt).write_text((out / corrupt).read_text().replace("0", "1", 1))
        # eval looks for a checkpoint first; the dataset check must refuse
        # before the (empty) file is read
        (tmp_path / "train").mkdir()
        (tmp_path / "train" / "checkpoint.bin").write_bytes(b"")
        code = main([command, "--set", f"output.dir={tmp_path}"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: dataset checksum mismatch for " + corrupt)
        assert err.count("\n") == 1

    @pytest.mark.parametrize("field,value,message", [
        (0, "bad-header", "needs integer version, H and D_in"),
        (1, "x", "modality token 'x'"),
        (2, "nan", "non-finite descriptor value"),
    ])
    def test_bad_split_named_in_one_error_line(self, tmp_path, capsys, field, value, message):
        # a malformed train.csv with a matching checksum fails at load
        out = cmd_generate(tiny_config(tmp_path))
        lines = (out / "train.csv").read_text().splitlines(keepends=True)
        if field == 0:
            lines[0] = lines[0].replace("version=1,", "")
        else:
            parts = lines[1].split(",")
            parts[field] = value
            lines[1] = ",".join(parts)
        (out / "train.csv").write_text("".join(lines))
        manifest = json.loads((out / "manifest.json").read_text())
        manifest["files"]["train.csv"] = _sha256(out / "train.csv")
        (out / "manifest.json").write_text(json.dumps(manifest))
        assert main(["train", "--set", f"output.dir={tmp_path}"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {out / 'train.csv'}: ") and message in err
        if field:  # a bad row is named by its file line; the first row is line 2
            assert err.startswith(f"error: {out / 'train.csv'}: line 2: {message}")
        assert err.count("\n") == 1


@pytest.mark.slow
class TestTrainEval:
    @pytest.fixture()
    def workspace(self, tmp_path):
        cfg = tiny_config(tmp_path)
        cmd_generate(cfg)
        return cfg

    def test_train_outputs(self, workspace):
        out = cmd_train(workspace)
        assert (out / "checkpoint.bin").exists()
        log = (out / "log.csv").read_text().splitlines()
        assert log[0] == "epoch,loss_total,loss_id,loss_mmd,loss_hctri,active_classes,mean_class_mmd2,seconds"
        assert len(log) == 1 + workspace.values["train.epochs"]

    def test_train_determinism_bitwise(self, tmp_path):
        cfg_a = tiny_config(tmp_path / "a")
        cmd_generate(cfg_a)
        out_a = cmd_train(cfg_a)
        cfg_b = ExperimentConfig.from_file(out_a / "config.resolved")
        cfg_b.values["output.dir"] = str(tmp_path / "b")
        cmd_generate(cfg_b)
        out_b = cmd_train(cfg_b)
        assert (out_a / "checkpoint.bin").read_bytes() == (out_b / "checkpoint.bin").read_bytes()
        assert read_log_without_seconds(out_a / "log.csv") == read_log_without_seconds(out_b / "log.csv")

    def test_eval_outputs(self, workspace):
        cmd_train(workspace)
        report = cmd_eval(workspace)
        out = Path(workspace.output_dir) / "eval"
        lines = (out / "report.csv").read_text().splitlines()
        assert lines[0] == "trial,rank1,rank5,rank10,rank20,mAP"
        assert lines[workspace.values["eval.trials"] + 1].startswith("mean,")
        assert lines[-2] == "intra_mean,intra_std,inter_mean,inter_std"
        emb = (out / "embeddings.csv").read_text().splitlines()
        test_rows = sum(1 for _ in open(Path(workspace.output_dir) / "dataset" / "test.csv")) - 1
        assert len(emb) == 1 + test_rows
        assert 0.0 <= report.map <= 1.0

    def test_eval_determinism(self, workspace):
        cmd_train(workspace)
        cmd_eval(workspace)
        out = Path(workspace.output_dir) / "eval"
        first = (out / "report.csv").read_bytes(), (out / "embeddings.csv").read_bytes()
        cmd_eval(workspace)
        second = (out / "report.csv").read_bytes(), (out / "embeddings.csv").read_bytes()
        assert first == second

    def test_checkpoint_shape_mismatch(self, workspace, tmp_path):
        cmd_train(workspace)
        other = tiny_config(tmp_path / "other", **{"encoder.shared_widths": (12, 10)})
        other.values["output.dir"] = workspace.output_dir
        with pytest.raises(Exception, match="does not match"):
            cmd_eval(other)

    def test_zero_mmd_weight_never_touches_kernels(self, workspace):
        workspace.values["loss.lambda_margin_mmd"] = 0.0
        counters.kernel_pairs.reset()
        cmd_train(workspace)
        assert counters.kernel_pairs.count == 0

    def test_missing_dataset_reported(self, tmp_path, capsys):
        code = main(["train", "--set", f"output.dir={tmp_path / 'nowhere'}"])
        assert code != 0
        assert "error:" in capsys.readouterr().err

    def test_one_test_identity_fails_eval(self, tmp_path, capsys):
        # 5 identities split 80/20 leave one test identity: no inter-identity stats
        sets = []
        for item in (f"output.dir={tmp_path}", "data.num_identities=5", "data.samples_per_identity=2",
                     "batch.p=2", "batch.k=2", "train.epochs=0"):
            sets += ["--set", item]
        assert main(["generate", *sets]) == 0
        assert main(["train", *sets]) == 0
        capsys.readouterr()
        assert main(["eval", *sets]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and ">= 2 identities" in err
        assert err.count("\n") == 1

    def test_untrained_checkpoint_scores_near_chance(self, tmp_path):
        # high modality shift, zero training epochs: retrieval ~ 1/G
        cfg = tiny_config(
            tmp_path,
            **{
                "data.num_identities": 25,
                "data.samples_per_identity": 8,
                "data.modality_shift": 60.0,
                "train.epochs": 0,
            },
        )
        cmd_generate(cfg)
        cmd_train(cfg)
        report = cmd_eval(cfg)
        g = len(report.cmc)
        assert g == 5
        assert abs(report.rank(1) - 1.0 / g) <= 0.2


class TestSweep:
    def test_single_value_rejected(self, tmp_path, capsys):
        code = main(
            ["sweep-margin", "--rhos", "1.4", "--set", f"output.dir={tmp_path}"]
        )
        assert code != 0
        assert "at least 2" in capsys.readouterr().err

    def test_missing_data_dir_fails_before_writing(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(
            ["sweep-margin", "--rhos", "1.0,1.4", "--data", str(tmp_path / "none"),
             "--set", f"output.dir={out}", "--set", "train.epochs=1"]
        )
        assert code == 1
        assert "no dataset manifest at" in capsys.readouterr().err
        assert not (out / "dataset").exists()

    def test_negative_rho_fails_before_writing(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["sweep-margin", "--rhos=1,-1", "--set", f"output.dir={out}"])
        err = capsys.readouterr().err
        assert code == 1
        assert err == "error: margin rho must be >= 0, got -1.0\n"
        assert not out.exists()

    @pytest.mark.slow
    def test_sweep_table(self, tmp_path):
        cfg = tiny_config(tmp_path, **{"train.epochs": 1, "eval.trials": 2})
        rows = cmd_sweep_margin(cfg, [1.0, 1.4])
        assert len(rows) == 2
        table = (Path(cfg.output_dir) / "sweep" / "sweep.csv").read_text().splitlines()
        assert table[0] == "rho,rank1,mAP"
        assert len(table) == 3
        assert table[1].startswith("1,") or table[1].startswith("1.0,")


class TestMainEntry:
    def test_generate_via_argv(self, tmp_path):
        code = main(
            [
                "generate",
                "--set", f"output.dir={tmp_path}",
                "--set", "data.num_identities=10",
                "--set", "data.samples_per_identity=2",
            ]
        )
        assert code == 0
        assert (tmp_path / "dataset" / "manifest.json").exists()

    def test_unknown_set_key(self, tmp_path, capsys):
        code = main(["generate", "--set", "nope=1", "--set", f"output.dir={tmp_path}"])
        assert code != 0
        assert "unknown config key" in capsys.readouterr().err

    def test_bad_set_format(self, tmp_path, capsys):
        code = main(["generate", "--set", "justakey"])
        assert code != 0
        assert "key=value" in capsys.readouterr().err

    def test_config_file_loading(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(
            f"output.dir = {tmp_path / 'run'}\n"
            "data.num_identities = 10\n"
            "data.samples_per_identity = 2\n"
        )
        assert main(["generate", "--config", str(cfg_path)]) == 0
        resolved = (tmp_path / "run" / "dataset" / "config.resolved").read_text()
        assert "data.num_identities = 10" in resolved

import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fpnet
from fpnet.cli import main


def _write_config(path, **overrides):
    cfg = {
        "seed": 0,
        "data": {"kind": "synthetic", "n": 240, "test_n": 120, "dim": 12,
                 "classes": 3, "separation": 3.0, "data_seed": 0},
        "architecture": [
            {"kind": "dense", "out_channels": 16},
            {"kind": "output"},
        ],
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return path


def _write_idx_pair(tmp_path, n=42, side=5, classes=3, seed=8, stem="train"):
    rng = np.random.default_rng(seed)
    images = rng.integers(0, 256, size=(n, side, side), dtype=np.uint8)
    labels = (np.arange(n) % classes).astype(np.uint8)
    img = tmp_path / f"{stem}-images-idx3-ubyte"
    lab = tmp_path / f"{stem}-labels-idx1-ubyte"
    img.write_bytes(struct.pack(">iiii", 0x00000803, n, side, side)
                    + images.tobytes())
    lab.write_bytes(struct.pack(">ii", 0x00000801, n) + labels.tobytes())
    return img, lab


class TestTrain:
    def test_writes_artifacts(self, tmp_path, capsys):
        cfg = _write_config(tmp_path / "cfg.json")
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        for name in ("resolved_config.json", "model.fpk", "metrics.csv",
                     "costs.csv", "report.txt"):
            assert (out / name).exists(), name
        lines = (out / "metrics.csv").read_text().splitlines()
        assert lines[0] == "split,n,seed,accuracy,auc_macro,aupr_macro"
        assert lines[1].startswith("train,240,0,")
        assert lines[2].startswith("test,120,0,")
        costs = dict(l.split(",") for l in
                     (out / "costs.csv").read_text().splitlines()[1:])
        assert int(costs["macs_gram"]) > 0
        assert int(costs["peak_matrix_bytes"]) > 0
        assert "trained" in capsys.readouterr().out

    def test_replay_from_resolved_config(self, tmp_path):
        cfg = _write_config(tmp_path / "cfg.json")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["train", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["train", "--config", str(out1 / "resolved_config.json"),
                     "--out", str(out2)]) == 0
        assert ((out1 / "model.fpk").read_bytes()
                == (out2 / "model.fpk").read_bytes())
        assert ((out1 / "metrics.csv").read_text()
                == (out2 / "metrics.csv").read_text())

    def test_seed_flag_overrides_and_is_materialised(self, tmp_path):
        cfg = _write_config(tmp_path / "cfg.json", seed=3)
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out),
                     "--seed", "7"]) == 0
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert resolved["seed"] == 7
        assert resolved["architecture"][0]["q_seed"] == 7 * 1009
        assert resolved["architecture"][0]["u_seed"] == 7 * 1009 + 1

    def test_iterative_mode_flag(self, tmp_path):
        cfg = _write_config(tmp_path / "cfg.json",
                            mode={"name": "iterative", "eta": 0.01,
                                  "epochs": 3, "batch": 64})
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert resolved["mode"] == {"name": "iterative", "eta": 0.01,
                                    "epochs": 3, "batch": 64}

    def test_baseline_method_flag(self, tmp_path):
        cfg = _write_config(tmp_path / "cfg.json")
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out),
                     "--method", "label_projection"]) == 0
        assert (out / "model.fpk").exists()


class TestErrorPaths:
    def test_unknown_config_key_names_it(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        _write_config(cfg)
        body = json.loads(cfg.read_text())
        body["archictecture"] = body.pop("architecture")
        cfg.write_text(json.dumps(body))
        assert main(["train", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2
        assert "archictecture" in capsys.readouterr().err

    def test_unknown_layer_key_names_it(self, tmp_path, capsys):
        cfg = _write_config(
            tmp_path / "cfg.json",
            architecture=[{"kind": "dense", "out_channels": 8, "widht": 3},
                          {"kind": "output"}])
        assert main(["train", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2
        assert "widht" in capsys.readouterr().err

    def test_missing_config_is_usage_error(self, tmp_path):
        assert main(["train", "--out", str(tmp_path / "o")]) == 2

    def test_unknown_flag_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--bogus"])
        assert exc.value.code == 2

    def test_bad_idx_magic_is_data_error(self, tmp_path):
        img = tmp_path / "img"
        img.write_bytes(struct.pack(">iiii", 0x00000802, 1, 2, 2) + b"\0" * 4)
        lab = tmp_path / "lab"
        lab.write_bytes(struct.pack(">ii", 0x00000801, 1) + b"\0")
        cfg = _write_config(tmp_path / "cfg.json",
                            data={"kind": "idx", "train_images": str(img),
                                  "train_labels": str(lab)})
        assert main(["train", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 3

    def test_singular_solve_is_numeric_error(self, tmp_path):
        # 4 samples cannot support a 33-dim unregularised output solve
        cfg = _write_config(
            tmp_path / "cfg.json",
            data={"kind": "synthetic", "n": 4, "test_n": 0, "dim": 32,
                  "classes": 4, "separation": 3.0, "data_seed": 0},
            architecture=[{"kind": "output"}],
            lambda_output=0.0)
        assert main(["train", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 4


class TestEval:
    def test_scores_checkpoint(self, tmp_path, capsys):
        cfg = _write_config(tmp_path / "cfg.json")
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        evaldir = tmp_path / "eval"
        assert main(["eval", "--config", str(cfg),
                     "--checkpoint", str(out / "model.fpk"),
                     "--out", str(evaldir)]) == 0
        lines = (evaldir / "metrics.csv").read_text().splitlines()
        assert len(lines) == 2 and lines[1].startswith("test,120,")
        assert "accuracy=" in capsys.readouterr().out

    def test_checkpoint_without_layers_is_data_error(self, tmp_path, capsys):
        cfg = _write_config(tmp_path / "cfg.json")
        blob = json.dumps({"label_dim": 3, "class_names": ["0", "1", "2"],
                           "layers": []}).encode("utf-8")
        ckpt = tmp_path / "empty.fpk"
        ckpt.write_bytes(b"FPCK" + struct.pack("<II", 1, len(blob)) + blob)
        assert main(["eval", "--config", str(cfg), "--checkpoint", str(ckpt),
                     "--out", str(tmp_path / "eval")]) == 3
        assert "data error" in capsys.readouterr().err


class TestExplain:
    def _train_conv(self, tmp_path):
        img, lab = _write_idx_pair(tmp_path)
        cfg = _write_config(
            tmp_path / "cfg.json",
            data={"kind": "idx", "train_images": str(img),
                  "train_labels": str(lab)},
            architecture=[
                {"kind": "conv2d", "out_channels": 6, "kernel": [2, 2]},
                {"kind": "global_avg_pool"},
                {"kind": "output"},
            ])
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        return out, img

    def test_writes_all_class_maps(self, tmp_path):
        out, img = self._train_conv(tmp_path)
        maps = tmp_path / "maps"
        assert main(["explain", "--checkpoint", str(out / "model.fpk"),
                     "--input", str(img), "--layer", "0", "--sample", "2",
                     "--out", str(maps)]) == 0
        for c in range(3):
            csv = maps / f"map_layer0_class{c}.csv"
            pgm = maps / f"map_layer0_class{c}.pgm"
            assert csv.exists() and pgm.exists()
            lines = csv.read_text().splitlines()
            assert lines[0] == "row,col,score"
            assert len(lines) == 1 + 5 * 5  # upsampled to input resolution
            assert pgm.read_bytes().startswith(b"P5\n5 5\n255\n")

    def test_dense_layer_map(self, tmp_path):
        img, lab = _write_idx_pair(tmp_path)
        cfg = _write_config(
            tmp_path / "cfg.json",
            data={"kind": "idx", "train_images": str(img),
                  "train_labels": str(lab)})
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        maps = tmp_path / "maps"
        assert main(["explain", "--checkpoint", str(out / "model.fpk"),
                     "--input", str(img), "--layer", "0",
                     "--out", str(maps)]) == 0
        assert (maps / "map_layer0_class0.csv").exists()

    def test_pool_layer_rejected(self, tmp_path):
        out, img = self._train_conv(tmp_path)
        assert main(["explain", "--checkpoint", str(out / "model.fpk"),
                     "--input", str(img), "--layer", "1",
                     "--out", str(tmp_path / "m")]) == 2

    def test_sample_out_of_range(self, tmp_path):
        out, img = self._train_conv(tmp_path)
        assert main(["explain", "--checkpoint", str(out / "model.fpk"),
                     "--input", str(img), "--layer", "0", "--sample", "999",
                     "--out", str(tmp_path / "m")]) == 2


class TestSweeps:
    def test_bench_suite_bottleneck_row_count(self, tmp_path):
        cfg = _write_config(tmp_path / "cfg.json")
        out = tmp_path / "run"
        assert main(["bench", "--config", str(cfg), "--out", str(out),
                     "--suite", "bottleneck", "--base-widths", "16"]) == 0
        lines = (out / "bottleneck.csv").read_text().splitlines()
        assert len(lines) == 1 + 4 * 4  # 4 methods x 4 default widths
        assert lines[0].startswith("method,width,")

    def test_bottleneck_sweep_subcommand(self, tmp_path):
        cfg = _write_config(tmp_path / "cfg.json")
        out = tmp_path / "run"
        assert main(["bottleneck-sweep", "--config", str(cfg),
                     "--out", str(out), "--widths", "8,16",
                     "--base-widths", "12"]) == 0
        lines = (out / "bottleneck.csv").read_text().splitlines()
        assert len(lines) == 1 + 4 * 2

    def test_fewshot_sweep_subcommand(self, tmp_path):
        cfg = _write_config(tmp_path / "cfg.json")
        out = tmp_path / "run"
        assert main(["fewshot-sweep", "--config", str(cfg), "--out", str(out),
                     "--shots", "5,10", "--seeds", "0,1",
                     "--hidden", "8"]) == 0
        lines = (out / "fewshot.csv").read_text().splitlines()
        assert len(lines) == 1 + 4
        assert lines[0].startswith("method,shots,seed,")

    def test_plain_bench_single_run(self, tmp_path, capsys):
        cfg = _write_config(tmp_path / "cfg.json")
        out = tmp_path / "run"
        assert main(["bench", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "metrics.csv").exists()
        assert (out / "costs.csv").exists()
        assert "macs=" in capsys.readouterr().out


class TestPackaging:
    def test_console_script_runs(self, tmp_path):
        # Check the `fpnet` console script that pyproject.toml declares, run
        # from this checkout the way setuptools' generated wrapper runs it, so
        # that neither an install nor whatever `fpnet` is on PATH is involved.
        if sys.version_info >= (3, 11):
            import tomllib
        else:
            tomllib = pytest.importorskip("tomli")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with pyproject.open("rb") as f:
            target = tomllib.load(f)["project"]["scripts"]["fpnet"]
        module, _, function = target.partition(":")
        init = Path(fpnet.__file__).resolve()
        env = {**os.environ, "PYTHONPATH": str(init.parents[1])}

        where = subprocess.run(
            [sys.executable, "-c", "import fpnet; print(fpnet.__file__)"],
            capture_output=True, text=True, env=env, cwd=tmp_path)
        assert where.stdout.strip() == str(init)

        proc = subprocess.run(
            [sys.executable, "-c",
             f"import sys; from {module} import {function}; "
             f"sys.exit({function}())", "--help"],
            capture_output=True, text=True, env=env, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("usage: fpnet")
        assert "train" in proc.stdout and "explain" in proc.stdout

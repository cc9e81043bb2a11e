import inspect
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

    def test_fewshot_replay_from_resolved_config(self, tmp_path, monkeypatch):
        # 40 rows under 64 inputs and 80 units: every layer solves the dual
        import fpnet.core as core
        dual_calls = []
        solve = core._dual_solve
        monkeypatch.setattr(core, "_dual_solve",
                            lambda *a: dual_calls.append(1) or solve(*a))
        cfg = _write_config(
            tmp_path / "cfg.json",
            data={"kind": "synthetic", "n": 40, "test_n": 30, "dim": 64,
                  "classes": 4, "separation": 3.0, "data_seed": 2},
            architecture=[{"kind": "dense", "out_channels": 80},
                          {"kind": "dense", "out_channels": 80},
                          {"kind": "output"}])
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["train", "--config", str(cfg), "--out", str(out1)]) == 0
        assert len(dual_calls) == 3
        assert main(["train", "--config", str(out1 / "resolved_config.json"),
                     "--out", str(out2)]) == 0
        assert ((out1 / "model.fpk").read_bytes()
                == (out2 / "model.fpk").read_bytes())

    def test_replay_from_resolved_config_without_tau(self, tmp_path):
        # resolved configs once left tau out unless a layer set it
        cfg = _write_config(
            tmp_path / "cfg.json",
            architecture=[{"kind": "dense", "out_channels": 16, "tau": 0.5},
                          {"kind": "dense", "out_channels": 8},
                          {"kind": "output"}])
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["train", "--config", str(cfg), "--out", str(out1)]) == 0
        resolved = json.loads((out1 / "resolved_config.json").read_text())
        assert [e["tau"] for e in resolved["architecture"]] == [0.5, 1.0, 1.0]
        for entry in resolved["architecture"][1:]:
            del entry["tau"]
        stripped = tmp_path / "stripped.json"
        stripped.write_text(json.dumps(resolved))
        assert main(["train", "--config", str(stripped),
                     "--out", str(out2)]) == 0
        assert ((out1 / "model.fpk").read_bytes()
                == (out2 / "model.fpk").read_bytes())

    def test_replay_from_resolved_config_with_dense_kernel(self, tmp_path):
        # resolved configs once wrote kernel [1] and stride 1 into every
        # dense entry; they are no longer written but still replay
        cfg = _write_config(
            tmp_path / "cfg.json",
            architecture=[{"kind": "dense", "out_channels": 16},
                          {"kind": "dense", "out_channels": 8},
                          {"kind": "output"}])
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["train", "--config", str(cfg), "--out", str(out1)]) == 0
        resolved = json.loads((out1 / "resolved_config.json").read_text())
        for entry in resolved["architecture"][:2]:
            assert "kernel" not in entry and "stride" not in entry
            entry.update(kernel=[1], stride=1)
        older = tmp_path / "older.json"
        older.write_text(json.dumps(resolved))
        assert main(["train", "--config", str(older),
                     "--out", str(out2)]) == 0
        assert ((out1 / "model.fpk").read_bytes()
                == (out2 / "model.fpk").read_bytes())

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


    def test_iterative_divergence_is_numeric_error(self, tmp_path, capsys):
        # unnormalised random features overshoot at eta 1e-3 and batch 64
        cfg = _write_config(
            tmp_path / "cfg.json", seed=5,
            data={"kind": "synthetic", "n": 700, "test_n": 0, "dim": 20,
                  "classes": 4, "separation": 2.0, "data_seed": 11},
            architecture=[{"kind": "dense", "out_channels": 32},
                          {"kind": "dense", "out_channels": 16},
                          {"kind": "output"}],
            mode={"name": "iterative", "eta": 1e-3, "epochs": 2,
                  "batch": 64})
        assert main(["train", "--config", str(cfg), "--out",
                     str(tmp_path / "rf"), "--method", "random_features"]) == 4
        assert "batch loss" in capsys.readouterr().err
        assert main(["train", "--config", str(cfg), "--out",
                     str(tmp_path / "fp")]) == 0


# JSON text for a number past float range; json.loads reads it as inf
_HUGE = "1e400"

_BAD_VALUES = [
    (("batch_size",), None), (("batch_size",), [256]), (("batch_size",), {}),
    (("batch_size",), _HUGE), (("batch_size",), -3), (("batch_size",), 0),
    (("batch_size",), 2.5), (("batch_size",), True),
    (("seed",), None), (("seed",), [0]), (("seed",), _HUGE),
    (("alpha",), None), (("alpha",), [0.5]), (("alpha",), {}),
    (("alpha",), _HUGE),
    (("lambda_hidden",), None), (("lambda_hidden",), {}),
    (("lambda_hidden",), "10"), (("lambda_output",), _HUGE),
    (("mode", "epochs"), None), (("mode", "epochs"), [2]),
    (("mode", "eta"), _HUGE),
    (("data", "n"), None), (("data", "n"), _HUGE),
    (("data", "classes"), []), (("data", "separation"), _HUGE),
    (("data", "test_n"), -1), (("data", "classes"), 1),
    (("data", "separation"), {}),
    (("architecture", 0, "out_channels"), None),
    (("architecture", 0, "out_channels"), _HUGE),
    (("architecture", 0, "q_seed"), [1]),
    (("architecture", 0, "q_seed"), _HUGE),
    (("architecture", 0, "lam"), None), (("architecture", 0, "lam"), {}),
    (("architecture", 0, "tau"), "x"), (("architecture", 1, "tau"), None),
    (("architecture", 0, "stride"), None),
    (("architecture", 0, "kernel"), None),
    (("architecture", 0, "kernel"), [None]),
    (("architecture", 0, "kernel"), 3),
    (("mode",), 5), (("mode",), {"eta": 1e-3}), (("data",), [1]),
    (("data",), {"kind": "idx", "train_images": 0, "train_labels": "l"}),
    (("data",), {"kind": "idx", "train_images": "i", "train_labels": "l",
                 "test_images": None, "test_labels": "t"}),
    # values the spec dataclasses reject, checked before anything is written
    (("architecture", 0, "activation"), "bogus"),
    (("architecture", 0), {"kind": "conv2d", "out_channels": 4, "kernel": [2]}),
    (("architecture", 0, "lam"), -1), (("architecture", 1, "tau"), 0),
    (("architecture", 0, "stride"), 0), (("architecture", 0, "out_channels"), 0),
    (("architecture", 0, "g"), "relu"),
    (("mode", "eta"), -1), (("mode", "eta"), 0), (("mode", "batch"), 0),
    # negative seeds
    (("seed",), -3), (("data", "data_seed"), -1),
    (("architecture", 0, "q_seed"), -1), (("architecture", 0, "u_seed"), -1),
    # keys the layer kind does not read
    (("architecture", 1, "activation"), "tanh"), (("architecture", 1, "g"), "sign"),
    (("architecture", 1, "out_channels"), 3),
    (("architecture", 0, "kernel"), [7, 7, 7]), (("architecture", 0, "stride"), 5),
    (("architecture", 0), {"kind": "global_avg_pool", "lam": 1.0}),
    (("data",), {"kind": "idx", "train_images": "i", "train_labels": "l",
                 "test_images": "t"}),
]


class TestConfigValues:
    @pytest.mark.parametrize("path, value", _BAD_VALUES,
                             ids=[".".join(map(str, p)) + f"={v!r}"
                                  for p, v in _BAD_VALUES])
    def test_wrong_type_is_config_error(self, tmp_path, capsys, path, value):
        cfg_path = _write_config(
            tmp_path / "cfg.json",
            mode={"name": "iterative", "eta": 1e-3, "epochs": 1, "batch": 64})
        cfg = json.loads(cfg_path.read_text())
        node = cfg
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = "@@" if value is _HUGE else value
        cfg_path.write_text(json.dumps(cfg).replace('"@@"', _HUGE))
        out = tmp_path / "o"
        assert main(["train", "--config", str(cfg_path),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("error: ")
        assert not (out / "resolved_config.json").exists()

    def test_error_names_layer_and_key(self, tmp_path, capsys):
        cfg = _write_config(
            tmp_path / "cfg.json",
            architecture=[{"kind": "dense", "out_channels": 8},
                          {"kind": "output", "activation": "tanh"}])
        assert main(["train", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2
        assert ("unknown key 'activation' in architecture[1]"
                in capsys.readouterr().err)
        cfg = _write_config(tmp_path / "cfg.json", mode={"name": "iterative",
                                                         "eta": 0})
        assert main(["train", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2
        assert "mode: eta must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["train", "--seed", "-3"], ["bench", "--seed", "-1"],
        ["fewshot-sweep", "--seeds", "0,-1", "--shots", "5", "--hidden", "4"],
        ["bottleneck-sweep", "--widths", "4,0"]])
    def test_bad_flag_value_writes_nothing(self, tmp_path, capsys, argv):
        cfg = _write_config(tmp_path / "cfg.json")
        out = tmp_path / "o"
        assert main([*argv, "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_out_must_be_a_path(self, tmp_path, capsys):
        cfg = _write_config(tmp_path / "cfg.json", out=[1])
        assert main(["train", "--config", str(cfg)]) == 2
        assert "out must be a directory path" in capsys.readouterr().err

    def test_batch_size_default_is_fit_networks(self, tmp_path):
        cfg = _write_config(tmp_path / "cfg.json")
        out = tmp_path / "o"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        resolved = json.loads((out / "resolved_config.json").read_text())
        default = inspect.signature(fpnet.layers.fit_network).parameters[
            "batch_size"].default
        assert resolved["batch_size"] == default

    def test_integral_numbers_kept(self, tmp_path):
        cfg = _write_config(
            tmp_path / "cfg.json", batch_size=64.0, lambda_hidden=10,
            architecture=[{"kind": "dense", "out_channels": 4, "q_seed": 7.0},
                          {"kind": "output", "tau": 1}],
            data={"kind": "synthetic", "n": 60, "test_n": 0, "dim": 8,
                  "classes": 2, "separation": 3, "data_seed": 0})
        out = tmp_path / "o"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert resolved["batch_size"] == 64
        assert isinstance(resolved["batch_size"], int)
        assert resolved["architecture"][0]["q_seed"] == 7
        assert resolved["architecture"][1]["tau"] == 1.0
        assert resolved["data"]["separation"] == 3.0


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


class TestIdxTestClasses:
    """An IDX test split's labels are one-hot over the training split's
    classes, or the checkpoint's for eval."""

    def _config(self, tmp_path, train_classes, test_classes):
        train = _write_idx_pair(tmp_path, classes=train_classes)
        test = _write_idx_pair(tmp_path, n=30, classes=test_classes, seed=9,
                               stem="test")
        return _write_config(
            tmp_path / "cfg.json",
            data={"kind": "idx", "train_images": str(train[0]),
                  "train_labels": str(train[1]), "test_images": str(test[0]),
                  "test_labels": str(test[1])},
            architecture=[{"kind": "dense", "out_channels": 8},
                          {"kind": "output"}])

    def test_split_without_the_highest_class(self, tmp_path):
        # labels 0-2 in training, 0-1 in the test split
        cfg = self._config(tmp_path, 3, 2)
        run, bench = tmp_path / "run", tmp_path / "bench"
        assert main(["train", "--config", str(cfg), "--out", str(run)]) == 0
        assert main(["bench", "--config", str(cfg), "--out", str(bench)]) == 0
        assert main(["eval", "--config", str(cfg), "--checkpoint",
                     str(run / "model.fpk"),
                     "--out", str(tmp_path / "eval")]) == 0
        for path in (run, bench, tmp_path / "eval"):
            rows = (path / "metrics.csv").read_text().splitlines()
            assert rows[-1].startswith("test,30,")

    def test_label_outside_the_classes_is_data_error(self, tmp_path, capsys):
        # labels 0-1 in training, 0-2 in the test split
        cfg = self._config(tmp_path, 2, 3)
        for command in ("train", "bench"):
            out = tmp_path / command
            assert main([command, "--config", str(cfg),
                         "--out", str(out)]) == 3
            assert "label 2" in capsys.readouterr().err
            assert not out.exists()
        # a checkpoint of two classes does not score the test split either
        train_only = _write_config(
            tmp_path / "train.json",
            data={k: v for k, v in json.loads(cfg.read_text())["data"].items()
                  if not k.startswith("test")},
            architecture=[{"kind": "dense", "out_channels": 8},
                          {"kind": "output"}])
        run = tmp_path / "run"
        assert main(["train", "--config", str(train_only),
                     "--out", str(run)]) == 0
        out = tmp_path / "eval"
        assert main(["eval", "--config", str(cfg), "--checkpoint",
                     str(run / "model.fpk"), "--out", str(out)]) == 3
        assert "label 2" in capsys.readouterr().err
        assert not out.exists()


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

    @pytest.mark.parametrize("key, value", [
        (("layers", 0, "stride"), 2.0),
        (("layers", 0, "kernel"), [1.5, 2]),
        (("label_dim",), 3.0),
    ], ids=["float stride", "fractional kernel entry", "float label_dim"])
    def test_non_integer_header_field_is_data_error(self, tmp_path, capsys,
                                                   key, value):
        # rejected when the checkpoint loads, not later inside eval or explain
        out, img = self._train_conv(tmp_path)
        blob = (out / "model.fpk").read_bytes()
        (hlen,) = struct.unpack_from("<I", blob, 8)
        header = json.loads(blob[12:12 + hlen])
        *outer, last = key
        entry = header
        for k in outer:
            entry = entry[k]
        entry[last] = value
        head = json.dumps(header).encode("utf-8")
        ckpt = tmp_path / "bad.fpk"
        ckpt.write_bytes(blob[:8] + struct.pack("<I", len(head)) + head
                         + blob[12 + hlen:])
        cfg = tmp_path / "cfg.json"
        assert main(["eval", "--config", str(cfg), "--checkpoint", str(ckpt),
                     "--out", str(tmp_path / "eval")]) == 3
        assert main(["explain", "--checkpoint", str(ckpt), "--input", str(img),
                     "--layer", "0", "--out", str(tmp_path / "maps")]) == 3
        assert capsys.readouterr().err.count("data error") == 2


class TestSweeps:
    def test_bottleneck_sweep_default_widths_row_count(self, tmp_path):
        cfg = _write_config(tmp_path / "cfg.json")
        out = tmp_path / "run"
        assert main(["bottleneck-sweep", "--config", str(cfg),
                     "--out", str(out), "--base-widths", "16"]) == 0
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

    def test_config_without_architecture(self, tmp_path):
        # eval and the sweeps read no architecture, mode or ridge strengths
        cfg = _write_config(tmp_path / "cfg.json")
        run = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(run)]) == 0
        body = json.loads(cfg.read_text())
        del body["architecture"]
        body.update(mode="bogus", lambda_hidden=None)
        cfg.write_text(json.dumps(body))
        for argv, written in (
                (["eval", "--checkpoint", str(run / "model.fpk")],
                 "metrics.csv"),
                (["bottleneck-sweep", "--widths", "4", "--base-widths", "6"],
                 "bottleneck.csv"),
                (["fewshot-sweep", "--shots", "5", "--seeds", "0",
                  "--hidden", "4"], "fewshot.csv")):
            out = tmp_path / argv[0]
            assert main([*argv, "--config", str(cfg), "--out", str(out)]) == 0
            assert (out / written).exists()
            assert not (out / "resolved_config.json").exists()

    def test_plain_bench_single_run(self, tmp_path, capsys):
        cfg = _write_config(tmp_path / "cfg.json")
        out = tmp_path / "run"
        assert main(["bench", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "metrics.csv").exists()
        assert (out / "costs.csv").exists()
        assert "macs=" in capsys.readouterr().out


# Flags a subcommand does not take although a sibling does: the sweep
# options and --suite on bench, the config flags on explain, which reads no
# config, each sweep's options on the other sweep, and the fitting flags on
# eval and the sweeps, which fit no configured architecture
DROPPED_FLAGS = [
    *[("bench", f) for f in ("--suite", "--widths", "--base-widths",
                             "--shots", "--seeds", "--hidden", "--activation")],
    *[("explain", f) for f in ("--config", "--seed", "--lambda-hidden",
                               "--lambda-output", "--mode")],
    *[("bottleneck-sweep", f) for f in ("--shots", "--seeds", "--hidden",
                                        "--method")],
    *[("fewshot-sweep", f) for f in ("--widths", "--base-widths")],
    *[(command, f) for command in ("eval", "bottleneck-sweep", "fewshot-sweep")
      for f in ("--lambda-hidden", "--lambda-output", "--mode")],
]


@pytest.mark.parametrize("command, flag", DROPPED_FLAGS)
def test_dropped_flag_is_a_usage_error(capsys, command, flag):
    required = {"explain": ["--checkpoint", "m.fpk", "--input", "x.idx",
                            "--layer", "0"],
                "eval": ["--checkpoint", "m.fpk"]}.get(command, [])
    with pytest.raises(SystemExit) as exc:
        main([command, *required, flag, "1"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err


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

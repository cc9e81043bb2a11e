"""Command-line interface.

Subcommands: train, eval, explain, bench, fewshot-sweep, bottleneck-sweep.
Runs are driven by a JSON config; a handful of flags override config
fields. Every random choice is pinned by seeds materialised into
resolved_config.json, so rerunning a config reproduces the checkpoint
byte for byte.

Exit codes: 0 success, 2 config or usage error, 3 data format error,
4 numeric failure (a singular system, or iterative training diverging).
"""

import argparse
import inspect
import json
import math
import os
import sys

import numpy as np

from . import accounting
from .accounting import CostLedger, PHASES
from .bench import (METHODS, bottleneck_sweep, derive_layer_seeds,
                    fewshot_sweep, fit_method, rows_to_csv, run_benchmark)
from .checkpoint import load_network, save_network
from .core import (HIDDEN_LAMBDA, OUTPUT_LAMBDA, RidgeConfig, TargetGenSpec,
                   TARGET_NONLINEARITIES)
from .data import (Dataset, load_idx, read_idx_images, synthetic_gaussian_task,
                   PIXEL_SCALE)
from .errors import (CheckpointFormatError, ConfigError, DataConsistencyError,
                     DivergenceError, FpnetError, IdxFormatError,
                     NotPositiveDefiniteError, RankDeficientError,
                     UndefinedMetricError, UnsupportedNonlinearityError)
from .explain import explain_layer, input_origin, render_map, write_map_csv, write_map_pgm
from .layers import (ACTIVATIONS, IterativeConfig, LayerSpec, Network,
                     fit_network, network_forward, potentials, predict)
from .linalg import SeededRng
from .metrics import MetricReport, metric_report

TOP_KEYS = {"seed", "data", "architecture", "target_g", "alpha",
            "lambda_hidden", "lambda_output", "mode", "batch_size", "out"}
DATA_KEYS = {"kind", "train_images", "train_labels", "test_images",
             "test_labels", "n", "test_n", "dim", "classes", "separation",
             "data_seed"}
LAYER_KEYS = {"kind", "out_channels", "kernel", "stride", "activation",
              "g", "alpha", "q_seed", "u_seed", "lam", "tau"}
MODE_KEYS = {"name", "eta", "epochs", "batch"}
LAYER_NUMBERS = {"out_channels": int, "stride": int, "q_seed": int,
                 "u_seed": int, "alpha": float, "lam": float, "tau": float}
BATCH_SIZE = inspect.signature(fit_network).parameters["batch_size"].default


def _check_keys(d, allowed, where):
    for key in d:
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r} in {where}")


def _number(value, kind, where, minimum=None):
    """``value`` as a finite ``kind`` (int or float), at least ``minimum``.

    JSON numbers only: null, booleans, strings, lists, objects, a fraction
    where an integer belongs, and values that overflowed to infinity raise
    ConfigError.
    """
    number = None
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = kind(value)
        except (OverflowError, ValueError):  # int() of inf or nan
            pass
    if (number is None or number != value
            or (kind is float and not math.isfinite(number))):
        name = "an integer" if kind is int else "a finite number"
        raise ConfigError(f"{where} must be {name}, got {value!r}")
    if minimum is not None and number < minimum:
        raise ConfigError(f"{where} must be >= {minimum}, got {number!r}")
    return number


def _load_config(path):
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"config {path} is not valid JSON: {e}") from e
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    return cfg


def resolve_config(cfg, args):
    """Defaults filled, flags applied, every seed made explicit."""
    _check_keys(cfg, TOP_KEYS, "config")
    out = dict(cfg)
    out["seed"] = _number(args.seed if args.seed is not None
                          else out.get("seed", 0), int, "seed")
    out["target_g"] = out.get("target_g", TargetGenSpec.g)
    if out["target_g"] not in TARGET_NONLINEARITIES:
        raise ConfigError(f"target_g must be one of {TARGET_NONLINEARITIES}")
    out["alpha"] = _number(out.get("alpha", TargetGenSpec.alpha), float,
                           "alpha")
    for key, flag, default in (
            ("lambda_hidden", args.lambda_hidden, HIDDEN_LAMBDA),
            ("lambda_output", args.lambda_output, OUTPUT_LAMBDA)):
        out[key] = _number(flag if flag is not None else out.get(key, default),
                           float, key)
    out["batch_size"] = _number(out.get("batch_size", BATCH_SIZE), int,
                                "batch_size", minimum=1)
    out["out"] = args.out if args.out is not None else out.get("out", "fp_run")
    if not isinstance(out["out"], str):
        raise ConfigError(f"out must be a directory path, got {out['out']!r}")

    mode = out.get("mode", "closed_form")
    if isinstance(mode, str):
        mode = {"name": mode}
    if not isinstance(mode, dict):
        raise ConfigError(f"mode must be a name or an object, got {mode!r}")
    _check_keys(mode, MODE_KEYS, "mode")
    if args.mode is not None:
        mode["name"] = args.mode
    if mode.get("name") not in ("closed_form", "iterative"):
        raise ConfigError(f"unknown mode {mode.get('name')!r}")
    if mode["name"] == "iterative":
        mode = {"name": "iterative",
                "eta": _number(mode.get("eta", IterativeConfig.eta), float,
                               "mode.eta"),
                "epochs": _number(mode.get("epochs", IterativeConfig.epochs),
                                  int, "mode.epochs"),
                "batch": _number(mode.get("batch", IterativeConfig.batch),
                                 int, "mode.batch")}
    out["mode"] = mode

    data = out.get("data", {})
    if not isinstance(data, dict):
        raise ConfigError(f"data must be an object, got {data!r}")
    data = dict(data)
    _check_keys(data, DATA_KEYS, "data")
    kind = data.get("kind")
    if kind == "idx":
        for key in ("train_images", "train_labels"):
            if key not in data:
                raise ConfigError(f"idx data needs {key!r}")
        for key in ("train_images", "train_labels", "test_images",
                    "test_labels"):
            # open() would take an integer for a file descriptor
            if key in data and not isinstance(data[key], str):
                raise ConfigError(f"data.{key} must be a file path, "
                                  f"got {data[key]!r}")
    elif kind == "synthetic":
        defaults = {"n": (2000, int), "test_n": (500, int), "dim": (32, int),
                    "classes": (4, int), "separation": (3.0, float),
                    "data_seed": (0, int)}
        data = {"kind": "synthetic", **{
            key: _number(data.get(key, default), number, f"data.{key}")
            for key, (default, number) in defaults.items()}}
    else:
        raise ConfigError("data.kind must be 'idx' or 'synthetic'")
    out["data"] = data

    arch = out.get("architecture")
    if not isinstance(arch, list) or not arch:
        raise ConfigError("architecture must be a non-empty list of layers")
    resolved_arch = []
    for idx, entry in enumerate(arch):
        if not isinstance(entry, dict) or "kind" not in entry:
            raise ConfigError(f"architecture[{idx}] needs a 'kind'")
        where = f"architecture[{idx}]"
        _check_keys(entry, LAYER_KEYS, where)
        entry = dict(entry)
        kind = entry["kind"]
        for key, number in LAYER_NUMBERS.items():
            if key in entry:
                entry[key] = _number(entry[key], number, f"{where}.{key}")
        if "kernel" in entry:
            if not isinstance(entry["kernel"], list):
                raise ConfigError(f"{where}.kernel must be a list of integers")
            entry["kernel"] = [_number(k, int, f"{where}.kernel")
                               for k in entry["kernel"]]
        if kind in ("dense", "conv1d", "conv2d"):
            q_seed, u_seed = derive_layer_seeds(out["seed"], idx)
            entry.setdefault("g", out["target_g"])
            entry.setdefault("alpha", out["alpha"])
            entry.setdefault("q_seed", q_seed)
            entry.setdefault("u_seed", u_seed)
            entry.setdefault("lam", out["lambda_hidden"])
            entry.setdefault("stride", 1)
            entry.setdefault("activation", "relu")
            entry.setdefault("kernel", [1] if kind != "conv2d" else [1, 1])
        elif kind == "output":
            entry.setdefault("lam", out["lambda_output"])
        elif kind != "global_avg_pool":
            raise ConfigError(f"{where} has unknown kind {kind!r}")
        resolved_arch.append(entry)
    kinds = [e["kind"] for e in resolved_arch]
    if kinds.count("output") != 1 or kinds[-1] != "output":
        raise ConfigError("architecture needs exactly one output layer, last")
    out["architecture"] = resolved_arch
    return out


def specs_from_config(resolved):
    specs = []
    for entry in resolved["architecture"]:
        kind = entry["kind"]
        try:
            if kind in ("dense", "conv1d", "conv2d"):
                kernel = entry.get("kernel", [1])
                target = TargetGenSpec(g=entry["g"], alpha=entry["alpha"],
                                       q_seed=entry["q_seed"],
                                       u_seed=entry["u_seed"])
                specs.append(LayerSpec(kind, out_channels=entry["out_channels"],
                                       kernel=tuple(kernel),
                                       stride=entry["stride"],
                                       activation=entry["activation"],
                                       target=target,
                                       ridge=RidgeConfig(lam=entry["lam"],
                                                         tau=entry.get("tau", 1.0))))
            elif kind == "global_avg_pool":
                specs.append(LayerSpec("global_avg_pool"))
            else:
                specs.append(LayerSpec("output",
                                       ridge=RidgeConfig(lam=entry["lam"],
                                                         tau=entry.get("tau", 1.0))))
        except (KeyError, ValueError) as e:
            raise ConfigError(f"bad layer entry {entry}: {e}") from e
    return specs


def build_datasets(data_cfg):
    if data_cfg["kind"] == "idx":
        train = load_idx(data_cfg["train_images"], data_cfg["train_labels"])
        test = None
        if "test_images" in data_cfg:
            if "test_labels" not in data_cfg:
                raise ConfigError("test_images given without test_labels")
            test = load_idx(data_cfg["test_images"], data_cfg["test_labels"])
        return train, test
    rng = SeededRng(data_cfg["data_seed"])
    train = synthetic_gaussian_task(data_cfg["n"], data_cfg["dim"],
                                    data_cfg["classes"],
                                    data_cfg["separation"], rng)
    test = None
    if data_cfg["test_n"] > 0:
        test = synthetic_gaussian_task(data_cfg["test_n"], data_cfg["dim"],
                                       data_cfg["classes"],
                                       data_cfg["separation"], rng)
    return train, test


def _mode_object(mode_cfg):
    if mode_cfg["name"] == "closed_form":
        return "closed_form"
    return IterativeConfig(eta=mode_cfg["eta"], epochs=mode_cfg["epochs"],
                           batch=mode_cfg["batch"])


def _write_resolved(resolved, out_dir):
    path = os.path.join(out_dir, "resolved_config.json")
    with open(path, "w") as fh:
        json.dump(resolved, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_metrics(rows, out_dir):
    path = os.path.join(out_dir, "metrics.csv")
    with open(path, "w") as fh:
        fh.write("split," + MetricReport.csv_header() + "\n")
        for split, rep in rows:
            fh.write(f"{split},{rep.csv_row()}\n")
    return path


def _write_costs(ledger, out_dir):
    path = os.path.join(out_dir, "costs.csv")
    with open(path, "w") as fh:
        fh.write("metric,value\n")
        for phase in PHASES:
            fh.write(f"macs_{phase},{ledger.macs[phase]}\n")
        fh.write(f"macs_total,{ledger.total_macs}\n")
        fh.write(f"peak_matrix_bytes,{ledger.peak_matrix_bytes}\n")
    return path


def _require_config(args):
    if args.config is None:
        raise ConfigError("this subcommand needs --config")
    return resolve_config(_load_config(args.config), args)


def cmd_train(args):
    resolved = _require_config(args)
    out_dir = resolved["out"]
    os.makedirs(out_dir, exist_ok=True)
    _write_resolved(resolved, out_dir)
    train, test = build_datasets(resolved["data"])
    specs = specs_from_config(resolved)
    ledger = CostLedger()
    with accounting.track(ledger):
        net = fit_method(args.method, specs, train,
                         mode=_mode_object(resolved["mode"]),
                         batch_size=resolved["batch_size"],
                         seed=resolved["seed"])
    save_network(net, os.path.join(out_dir, "model.fpk"))
    rows = []
    scores, _ = predict(net, train.x)
    rows.append(("train", metric_report(scores, train.y, seed=resolved["seed"])))
    if test is not None:
        scores, _ = predict(net, test.x)
        rows.append(("test", metric_report(scores, test.y, seed=resolved["seed"])))
    _write_metrics(rows, out_dir)
    _write_costs(ledger, out_dir)
    with open(os.path.join(out_dir, "report.txt"), "w") as fh:
        for split, rep in rows:
            fh.write(f"[{split}]\n")
            fh.write("\n".join(rep.to_lines()) + "\n")
    print(f"trained {len(net.layers)} layers; artifacts in {out_dir}")
    return 0


def cmd_eval(args):
    resolved = _require_config(args)
    out_dir = resolved["out"]
    os.makedirs(out_dir, exist_ok=True)
    net = load_network(args.checkpoint)
    train, test = build_datasets(resolved["data"])
    ds = test if test is not None else train
    scores, _ = predict(net, ds.x)
    rep = metric_report(scores, ds.y, seed=resolved["seed"])
    path = _write_metrics([("test" if test is not None else "train", rep)],
                          out_dir)
    print(f"accuracy={rep.accuracy:.4f} auc_macro={rep.auc_macro:.4f} ({path})")
    return 0


def cmd_explain(args):
    net = load_network(args.checkpoint)
    out_dir = args.out if args.out is not None else "fp_run"
    os.makedirs(out_dir, exist_ok=True)
    imgs = read_idx_images(args.input)
    if not (0 <= args.sample < imgs.shape[0]):
        raise ConfigError(f"--sample {args.sample} out of range")
    x = (imgs[args.sample:args.sample + 1].astype(np.float64)[:, None, :, :]
         * PIXEL_SCALE)
    k = args.layer
    if not (0 <= k < len(net.layers)):
        raise ConfigError(f"--layer {k} out of range")
    layer = net.layers[k]
    if layer.spec.kind not in ("dense", "conv1d", "conv2d"):
        raise ConfigError(f"layer {k} is {layer.spec.kind}; nothing to explain")
    a_prev = network_forward(net, x, upto=k)
    z = potentials(layer, a_prev)
    origin = input_origin(net.layers[:k], x.ndim - 2)
    emap = explain_layer(layer, a_prev, z, origin=origin, layer_index=k)
    upsample_to = x.shape[2:]
    for c in range(net.label_dim):
        grid = render_map(emap, c, upsample_to)
        base = os.path.join(out_dir, f"map_layer{k}_class{c}")
        write_map_csv(grid, base + ".csv")
        write_map_pgm(grid, base + ".pgm")
    print(f"wrote {net.label_dim} class maps for layer {k} to {out_dir}")
    return 0


def cmd_bench(args):
    resolved = _require_config(args)
    out_dir = resolved["out"]
    os.makedirs(out_dir, exist_ok=True)
    _write_resolved(resolved, out_dir)
    train, test = build_datasets(resolved["data"])
    if test is None:
        raise ConfigError("bench needs a test split")
    rep, ledger = run_benchmark(specs_from_config(resolved), train, test,
                                mode=_mode_object(resolved["mode"]),
                                batch_size=resolved["batch_size"],
                                seed=resolved["seed"], method=args.method)
    _write_metrics([("test", rep)], out_dir)
    _write_costs(ledger, out_dir)
    print(f"method={args.method} accuracy={rep.accuracy:.4f} "
          f"auc_macro={rep.auc_macro:.4f} macs={ledger.total_macs}")
    return 0


def _int_list(text):
    try:
        return [int(v) for v in text.split(",") if v]
    except ValueError as e:
        raise ConfigError(f"expected a comma-separated integer list: {text!r}") from e


def cmd_bottleneck_sweep(args):
    resolved = _require_config(args)
    out_dir = resolved["out"]
    os.makedirs(out_dir, exist_ok=True)
    train, test = build_datasets(resolved["data"])
    if test is None:
        raise ConfigError("bottleneck-sweep needs a test split")
    rows = bottleneck_sweep(train, test, widths=tuple(_int_list(args.widths)),
                            base_widths=tuple(_int_list(args.base_widths)),
                            activation=args.activation,
                            g=resolved["target_g"], seed=resolved["seed"],
                            batch_size=resolved["batch_size"])
    path = os.path.join(out_dir, "bottleneck.csv")
    rows_to_csv(rows, path)
    print(f"wrote {len(rows)} rows to {path}")
    return 0


def cmd_fewshot_sweep(args):
    resolved = _require_config(args)
    out_dir = resolved["out"]
    os.makedirs(out_dir, exist_ok=True)
    train, test = build_datasets(resolved["data"])
    if test is None:
        raise ConfigError("fewshot-sweep needs a test split")
    rows = fewshot_sweep(train, test, shots=tuple(_int_list(args.shots)),
                         seeds=tuple(_int_list(args.seeds)),
                         hidden=tuple(_int_list(args.hidden)),
                         activation=args.activation, g=resolved["target_g"],
                         batch_size=resolved["batch_size"],
                         method=args.method)
    path = os.path.join(out_dir, "fewshot.csv")
    rows_to_csv(rows, path)
    print(f"wrote {len(rows)} rows to {path}")
    return 0


# Flags beyond the common ones, by the subcommands that take them
FLAGS = {
    "--method": {"choices": METHODS, "default": "fp"},
    "--checkpoint": {"required": True},
    "--input": {"required": True, "help": "IDX image file"},
    "--layer": {"type": int, "required": True},
    "--sample": {"type": int, "default": 0},
    "--widths": {"default": "100,200,400,800"},
    "--base-widths": {"default": "1000,1000"},
    "--shots": {"default": "5,10,15,20,30,40,50"},
    "--seeds": {"default": "0,1,2,3,4"},
    "--hidden": {"default": "1000,1000,1000"},
    "--activation": {"choices": ACTIVATIONS, "default": "relu"},
    "--out": {"default": None, "help": "output directory"},
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fpnet",
        description="Feedback-free network training and explanation")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON run configuration")
    common.add_argument("--seed", type=int, default=None)
    common.add_argument("--lambda-hidden", type=float, default=None)
    common.add_argument("--lambda-output", type=float, default=None)
    common.add_argument("--mode", choices=("closed_form", "iterative"),
                        default=None)
    common.add_argument("--out", **FLAGS["--out"])

    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, parents, flags, help_ in (
            ("train", cmd_train, [common], ["--method"],
             "fit a network and write model.fpk"),
            ("eval", cmd_eval, [common], ["--checkpoint"],
             "score a checkpoint on the configured data"),
            ("explain", cmd_explain, [],
             ["--checkpoint", "--input", "--layer", "--sample", "--out"],
             "write per-class evidence maps for one layer"),
            ("bench", cmd_bench, [common], ["--method"],
             "one benchmark run"),
            ("bottleneck-sweep", cmd_bottleneck_sweep, [common],
             ["--widths", "--base-widths", "--activation"],
             "all methods across bottleneck widths"),
            ("fewshot-sweep", cmd_fewshot_sweep, [common],
             ["--shots", "--seeds", "--hidden", "--activation", "--method"],
             "accuracy versus samples per class")):
        p = sub.add_parser(name, parents=parents, help=help_)
        for flag in flags:
            p.add_argument(flag, **FLAGS[flag])
        p.set_defaults(func=func)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, UnsupportedNonlinearityError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (IdxFormatError, DataConsistencyError, CheckpointFormatError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return 3
    except (NotPositiveDefiniteError, RankDeficientError,
            UndefinedMetricError, DivergenceError) as e:
        print(f"numeric error: {e}", file=sys.stderr)
        return 4
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

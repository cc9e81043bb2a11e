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
import json
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
                     network_forward, potentials, predict)
from .linalg import SeededRng
from .metrics import metric_report

TOP_KEYS = {"seed", "data", "architecture", "target_g", "alpha",
            "lambda_hidden", "lambda_output", "mode", "batch_size", "out"}
DATA_KEYS = {"kind", "train_images", "train_labels", "test_images",
             "test_labels", "n", "test_n", "dim", "classes", "separation",
             "data_seed"}
LAYER_KEYS = {"kind", "out_channels", "kernel", "stride", "activation",
              "g", "alpha", "q_seed", "u_seed", "lam", "tau"}
MODE_KEYS = {"name", "eta", "epochs", "batch"}


def _check_keys(d, allowed, where):
    for key in d:
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r} in {where}")


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
    out["seed"] = int(args.seed if args.seed is not None
                      else out.get("seed", 0))
    out["target_g"] = out.get("target_g", TargetGenSpec.g)
    if out["target_g"] not in TARGET_NONLINEARITIES:
        raise ConfigError(f"target_g must be one of {TARGET_NONLINEARITIES}")
    out["alpha"] = float(out.get("alpha", TargetGenSpec.alpha))
    out["lambda_hidden"] = float(args.lambda_hidden
                                 if args.lambda_hidden is not None
                                 else out.get("lambda_hidden", HIDDEN_LAMBDA))
    out["lambda_output"] = float(args.lambda_output
                                 if args.lambda_output is not None
                                 else out.get("lambda_output", OUTPUT_LAMBDA))
    out["batch_size"] = int(out.get("batch_size", 256))
    out["out"] = args.out if args.out is not None else out.get("out", "fp_run")

    mode = out.get("mode", "closed_form")
    if isinstance(mode, str):
        mode = {"name": mode}
    _check_keys(mode, MODE_KEYS, "mode")
    if args.mode is not None:
        mode["name"] = args.mode
    if mode["name"] not in ("closed_form", "iterative"):
        raise ConfigError(f"unknown mode {mode['name']!r}")
    if mode["name"] == "iterative":
        mode = {"name": "iterative",
                "eta": float(mode.get("eta", IterativeConfig.eta)),
                "epochs": int(mode.get("epochs", IterativeConfig.epochs)),
                "batch": int(mode.get("batch", IterativeConfig.batch))}
    out["mode"] = mode

    data = dict(out.get("data", {}))
    _check_keys(data, DATA_KEYS, "data")
    kind = data.get("kind")
    if kind == "idx":
        for key in ("train_images", "train_labels"):
            if key not in data:
                raise ConfigError(f"idx data needs {key!r}")
    elif kind == "synthetic":
        data = {"kind": "synthetic", "n": int(data.get("n", 2000)),
                "test_n": int(data.get("test_n", 500)),
                "dim": int(data.get("dim", 32)),
                "classes": int(data.get("classes", 4)),
                "separation": float(data.get("separation", 3.0)),
                "data_seed": int(data.get("data_seed", 0))}
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
        _check_keys(entry, LAYER_KEYS, f"architecture[{idx}]")
        entry = dict(entry)
        kind = entry["kind"]
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
            raise ConfigError(f"architecture[{idx}] has unknown kind {kind!r}")
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
        fh.write("split,n,seed,accuracy,auc_macro,aupr_macro\n")
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
    if args.suite == "bottleneck":
        return cmd_bottleneck_sweep(args)
    if args.suite == "fewshot":
        return cmd_fewshot_sweep(args)
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


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fpnet",
        description="Feedback-free network training and explanation")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON run configuration")
    common.add_argument("--seed", type=int, default=None)
    common.add_argument("--lambda-hidden", dest="lambda_hidden", type=float,
                        default=None)
    common.add_argument("--lambda-output", dest="lambda_output", type=float,
                        default=None)
    common.add_argument("--mode", choices=("closed_form", "iterative"),
                        default=None)
    common.add_argument("--out", default=None, help="output directory")

    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("train", parents=[common],
                       help="fit a network and write model.fpk")
    p.add_argument("--method", choices=METHODS, default="fp")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", parents=[common],
                       help="score a checkpoint on the configured data")
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("explain", parents=[common],
                       help="write per-class evidence maps for one layer")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True, help="IDX image file")
    p.add_argument("--layer", type=int, required=True)
    p.add_argument("--sample", type=int, default=0)
    p.set_defaults(func=cmd_explain)

    sweep = argparse.ArgumentParser(add_help=False)
    sweep.add_argument("--widths", default="100,200,400,800")
    sweep.add_argument("--base-widths", dest="base_widths", default="1000,1000")
    sweep.add_argument("--shots", default="5,10,15,20,30,40,50")
    sweep.add_argument("--seeds", default="0,1,2,3,4")
    sweep.add_argument("--hidden", default="1000,1000,1000")
    sweep.add_argument("--activation", choices=ACTIVATIONS, default="relu")
    sweep.add_argument("--method", choices=METHODS, default="fp")

    p = sub.add_parser("bench", parents=[common, sweep],
                       help="one benchmark run, or a named sweep suite")
    p.add_argument("--suite", choices=("bottleneck", "fewshot"), default=None)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("bottleneck-sweep", parents=[common, sweep],
                       help="all methods across bottleneck widths")
    p.set_defaults(func=cmd_bottleneck_sweep)

    p = sub.add_parser("fewshot-sweep", parents=[common, sweep],
                       help="accuracy versus samples per class")
    p.set_defaults(func=cmd_fewshot_sweep)
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

"""Command-line interface.

train and bench fit the configured architecture and read every config
key; they take --config, --seed, --out, --lambda-hidden, --lambda-output,
--mode and --method. eval reads only the config's seed, data and out; the
sweeps also read target_g and batch_size and take their own flags; explain
reads no config. A config resolves in one pass into the layer specs and
fitting mode the run uses, and any config error is raised before anything
is written. Every seed is materialised into resolved_config.json, so
rerunning that file reproduces the checkpoint byte for byte.

Exit codes: 0 success, 2 config or usage error, 3 data format error,
4 numeric failure (a singular system, or iterative training diverging).
"""

import argparse
import dataclasses
import inspect
import json
import math
import os
import sys

from . import accounting
from .accounting import CostLedger, PHASES
from .bench import (METHODS, bottleneck_sweep, derive_layer_seeds,
                    fewshot_sweep, fit_method, rows_to_csv, run_benchmark)
from .checkpoint import load_network, save_network
from .core import (HIDDEN_LAMBDA, OUTPUT_LAMBDA, RidgeConfig, TargetGenSpec,
                   TARGET_NONLINEARITIES)
from .data import Pixels, load_idx, read_idx_images, synthetic_gaussian_task
from .errors import (CheckpointFormatError, ConfigError, DataConsistencyError,
                     DivergenceError, IdxFormatError,
                     NotPositiveDefiniteError, RankDeficientError,
                     UndefinedMetricError, UnsupportedNonlinearityError)
from .explain import explain_layer, input_origin, render_map, write_map_csv, write_map_pgm
from .layers import (ACTIVATIONS, CONV_DIMS, KIND_FIELDS, LAYER_KINDS,
                     IterativeConfig, LayerSpec, fit_network, network_forward,
                     potentials, predict)
from .linalg import SeededRng
from .metrics import MetricReport, metric_report

# Top-level config keys, in the order they resolve: eval reads the first
# three, the sweeps the first five, train and bench all of them.
TOP_KEYS = ("seed", "data", "out", "target_g", "batch_size", "alpha",
            "lambda_hidden", "lambda_output", "mode", "architecture")
EVAL_READS, SWEEP_READS = TOP_KEYS[:3], TOP_KEYS[:5]
DATA_KEYS = {"kind", "train_images", "train_labels", "test_images",
             "test_labels", "n", "test_n", "dim", "classes", "separation",
             "data_seed"}
# LayerSpec fields that a layer entry spells out as their dataclass's fields
LAYER_PARTS = {"target": TargetGenSpec, "ridge": RidgeConfig}
# Keys that older resolved configs wrote into every dense entry, at their
# defaults: still read, so that those configs replay, but no longer written
LEGACY_DENSE_KEYS = ("kernel", "stride")
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


def _field_value(value, field, where):
    """``value`` as dataclass ``field``'s type: a number, a tuple of integers
    for a list, or a string left for the dataclass to check."""
    if field.type is tuple:
        if not isinstance(value, list):
            raise ConfigError(f"{where} must be a list of integers")
        return tuple(_number(v, int, where) for v in value)
    return value if field.type is str else _number(value, field.type, where)


def _build(cls, values, where):
    """``cls`` from the entries of ``values`` that name its fields."""
    try:
        return cls(**{f.name: values[f.name] for f in dataclasses.fields(cls)
                      if f.name in values})
    except ValueError as e:
        raise ConfigError(f"{where}: {e}") from e


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


def _resolve_data(data):
    if not isinstance(data, dict):
        raise ConfigError(f"data must be an object, got {data!r}")
    _check_keys(data, DATA_KEYS, "data")
    kind = data.get("kind")
    if kind == "idx":
        for key in ("train_images", "train_labels"):
            if key not in data:
                raise ConfigError(f"idx data needs {key!r}")
        if ("test_images" in data) != ("test_labels" in data):
            raise ConfigError("idx data takes test_images and test_labels "
                              "together")
        for key in ("train_images", "train_labels", "test_images",
                    "test_labels"):
            # open() would take an integer for a file descriptor
            if key in data and not isinstance(data[key], str):
                raise ConfigError(f"data.{key} must be a file path, "
                                  f"got {data[key]!r}")
        return dict(data)
    if kind == "synthetic":
        # (default, type, minimum); metrics need two classes
        fields = {"n": (2000, int, None), "test_n": (500, int, 0),
                  "dim": (32, int, None), "classes": (4, int, 2),
                  "separation": (3.0, float, None), "data_seed": (0, int, 0)}
        return {"kind": "synthetic", **{
            key: _number(data.get(key, default), number, f"data.{key}",
                         minimum=minimum)
            for key, (default, number, minimum) in fields.items()}}
    raise ConfigError("data.kind must be 'idx' or 'synthetic'")


def _resolve_mode(mode, flag):
    """The fitting mode, "closed_form" or an IterativeConfig, and its
    resolved entry."""
    if isinstance(mode, str):
        mode = {"name": mode}
    if not isinstance(mode, dict):
        raise ConfigError(f"mode must be a name or an object, got {mode!r}")
    fields = dataclasses.fields(IterativeConfig)
    _check_keys(mode, {"name", *(f.name for f in fields)}, "mode")
    name = flag if flag is not None else mode.get("name")
    if name == "closed_form":
        return name, {"name": name}
    if name != "iterative":
        raise ConfigError(f"unknown mode {name!r}")
    values = {f.name: _field_value(mode.get(f.name, f.default), f,
                                   f"mode.{f.name}") for f in fields}
    return _build(IterativeConfig, values, "mode"), {"name": name, **values}


def _resolve_layer(entry, idx, top):
    """A layer's spec and its resolved entry, every field it takes filled:
    per-layer values, then the top-level ones, then the dataclass defaults."""
    where = f"architecture[{idx}]"
    if not isinstance(entry, dict) or "kind" not in entry:
        raise ConfigError(f"{where} needs a 'kind'")
    kind = entry["kind"]
    if kind not in LAYER_KINDS:
        raise ConfigError(f"{where} has unknown kind {kind!r}")
    spec_fields = LayerSpec.__dataclass_fields__
    # the fields the kind reads (conv kinds read every one), as config keys
    reads = KIND_FIELDS.get(kind, [name for name in spec_fields
                                   if name != "kind"])
    fields = {}
    for name in reads:
        part = LAYER_PARTS.get(name)
        fields.update({f.name: f for f in dataclasses.fields(part)} if part
                      else {name: spec_fields[name]})
    legacy = LEGACY_DENSE_KEYS if kind == "dense" else ()
    _check_keys(entry, {"kind", *fields, *legacy}, where)
    values = {name: f.default for name, f in fields.items()}
    if kind == "output":
        values["lam"] = top["lambda_output"]
    elif kind != "global_avg_pool":
        values["q_seed"], values["u_seed"] = derive_layer_seeds(top["seed"], idx)
        values.update(activation="relu", g=top["target_g"], alpha=top["alpha"],
                      lam=top["lambda_hidden"])
        if kind in CONV_DIMS:
            values["kernel"] = (1,) * CONV_DIMS[kind]
    values.update({key: _field_value(value, fields.get(key) or spec_fields[key],
                                     f"{where}.{key}")
                   for key, value in entry.items() if key != "kind"})
    parts = {name: _build(LAYER_PARTS[name], values, where)
             for name in reads if name in LAYER_PARTS}
    spec = _build(LayerSpec, {"kind": kind, **values, **parts}, where)
    return spec, {"kind": kind, **{name: values[name] for name in fields}}


def resolve_config(cfg, args, reads=TOP_KEYS):
    """(resolved, specs, mode) from config ``cfg`` and the flags in ``args``.

    ``resolved``, what resolved_config.json holds, has the ``reads`` keys
    with defaults filled, flags applied and every seed made explicit.
    ``specs`` and ``mode`` are None unless ``reads`` takes in the
    architecture. Any bad value raises ConfigError.
    """
    _check_keys(cfg, TOP_KEYS, "config")
    out = {"seed": _number(args.seed if args.seed is not None
                           else cfg.get("seed", 0), int, "seed", minimum=0),
           "data": _resolve_data(cfg.get("data", {})),
           "out": args.out if args.out is not None else cfg.get("out", "fp_run")}
    if not isinstance(out["out"], str):
        raise ConfigError(f"out must be a directory path, got {out['out']!r}")
    if "target_g" in reads:
        out["target_g"] = cfg.get("target_g", TargetGenSpec.g)
        if out["target_g"] not in TARGET_NONLINEARITIES:
            raise ConfigError(f"target_g must be one of {TARGET_NONLINEARITIES}")
        out["batch_size"] = _number(cfg.get("batch_size", BATCH_SIZE), int,
                                    "batch_size", minimum=1)
    if "architecture" not in reads:
        return out, None, None
    out["alpha"] = _number(cfg.get("alpha", TargetGenSpec.alpha), float,
                           "alpha")
    for key, flag, default in (
            ("lambda_hidden", args.lambda_hidden, HIDDEN_LAMBDA),
            ("lambda_output", args.lambda_output, OUTPUT_LAMBDA)):
        out[key] = _number(flag if flag is not None else cfg.get(key, default),
                           float, key)
    mode, out["mode"] = _resolve_mode(cfg.get("mode", "closed_form"), args.mode)
    arch = cfg.get("architecture")
    if not isinstance(arch, list) or not arch:
        raise ConfigError("architecture must be a non-empty list of layers")
    specs, entries = zip(*(_resolve_layer(entry, idx, out)
                           for idx, entry in enumerate(arch)))
    kinds = [spec.kind for spec in specs]
    if kinds.count("output") != 1 or kinds[-1] != "output":
        raise ConfigError("architecture needs exactly one output layer, last")
    out["architecture"] = list(entries)
    return out, list(specs), mode


def build_datasets(data_cfg, n_classes=None):
    """(train, test) of ``data_cfg``, test None without a test split.

    IDX labels are one-hot over ``n_classes`` classes, by default the
    training split's max_label + 1 for both splits; a label outside them
    raises DataConsistencyError.
    """
    if data_cfg["kind"] == "idx":
        train = load_idx(data_cfg["train_images"], data_cfg["train_labels"],
                         n_classes)
        test = None
        if "test_images" in data_cfg:
            test = load_idx(data_cfg["test_images"], data_cfg["test_labels"],
                            train.label_dim)
        return train, test
    task = (data_cfg["dim"], data_cfg["classes"], data_cfg["separation"],
            SeededRng(data_cfg["data_seed"]))
    train = synthetic_gaussian_task(data_cfg["n"], *task)
    test = None
    if data_cfg["test_n"] > 0:
        test = synthetic_gaussian_task(data_cfg["test_n"], *task)
    return train, test


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


def _require_config(args, reads=TOP_KEYS):
    if args.config is None:
        raise ConfigError("this subcommand needs --config")
    return resolve_config(_load_config(args.config), args, reads)


def _open_run(resolved, needs_test=None, n_classes=None):
    """(train, test, out_dir): the configured splits, then the output
    directory made, so a failure to load data writes nothing.
    ``needs_test`` names a subcommand that needs a test split;
    ``n_classes`` is as in ``build_datasets``."""
    train, test = build_datasets(resolved["data"], n_classes)
    if needs_test and test is None:
        raise ConfigError(f"{needs_test} needs a test split")
    os.makedirs(resolved["out"], exist_ok=True)
    return train, test, resolved["out"]


def cmd_train(args):
    resolved, specs, mode = _require_config(args)
    train, test, out_dir = _open_run(resolved)
    _write_resolved(resolved, out_dir)
    ledger = CostLedger()
    with accounting.track(ledger):
        net = fit_method(args.method, specs, train, mode=mode,
                         batch_size=resolved["batch_size"],
                         seed=resolved["seed"])
    save_network(net, os.path.join(out_dir, "model.fpk"))
    rows = [(split, metric_report(predict(net, ds.x)[0], ds.y,
                                  seed=resolved["seed"]))
            for split, ds in (("train", train), ("test", test)) if ds is not None]
    _write_metrics(rows, out_dir)
    _write_costs(ledger, out_dir)
    with open(os.path.join(out_dir, "report.txt"), "w") as fh:
        for split, rep in rows:
            fh.write(f"[{split}]\n")
            fh.write("\n".join(rep.to_lines()) + "\n")
    print(f"trained {len(net.layers)} layers; artifacts in {out_dir}")
    return 0


def cmd_eval(args):
    resolved, _, _ = _require_config(args, EVAL_READS)
    net = load_network(args.checkpoint)
    train, test, out_dir = _open_run(resolved, n_classes=net.label_dim)
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
    imgs = Pixels(read_idx_images(args.input))
    if not (0 <= args.sample < len(imgs)):
        raise ConfigError(f"--sample {args.sample} out of range")
    x = imgs[args.sample:args.sample + 1]
    k = args.layer
    if not (0 <= k < len(net.layers)):
        raise ConfigError(f"--layer {k} out of range")
    layer = net.layers[k]
    if layer.spec.kind in ("global_avg_pool", "output"):
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
    resolved, specs, mode = _require_config(args)
    train, test, out_dir = _open_run(resolved, needs_test="bench")
    _write_resolved(resolved, out_dir)
    rep, ledger = run_benchmark(specs, train, test, mode=mode,
                                batch_size=resolved["batch_size"],
                                seed=resolved["seed"], method=args.method)
    _write_metrics([("test", rep)], out_dir)
    _write_costs(ledger, out_dir)
    print(f"method={args.method} accuracy={rep.accuracy:.4f} "
          f"auc_macro={rep.auc_macro:.4f} macs={ledger.total_macs}")
    return 0


def _int_list(text, flag, minimum=1):
    """The integers of ``flag``'s comma-separated ``text``, each at least
    ``minimum``."""
    try:
        values = [int(v) for v in text.split(",") if v]
    except ValueError as e:
        raise ConfigError(f"{flag} expects a comma-separated integer list, "
                          f"got {text!r}") from e
    return tuple(_number(v, int, f"{flag} entries", minimum) for v in values)


def cmd_bottleneck_sweep(args):
    resolved, _, _ = _require_config(args, SWEEP_READS)
    widths = _int_list(args.widths, "--widths")
    base_widths = _int_list(args.base_widths, "--base-widths")
    train, test, out_dir = _open_run(resolved, needs_test="bottleneck-sweep")
    rows = bottleneck_sweep(train, test, widths=widths, base_widths=base_widths,
                            activation=args.activation,
                            g=resolved["target_g"], seed=resolved["seed"],
                            batch_size=resolved["batch_size"])
    path = os.path.join(out_dir, "bottleneck.csv")
    rows_to_csv(rows, path)
    print(f"wrote {len(rows)} rows to {path}")
    return 0


def cmd_fewshot_sweep(args):
    resolved, _, _ = _require_config(args, SWEEP_READS)
    shots = _int_list(args.shots, "--shots")
    seeds = _int_list(args.seeds, "--seeds", minimum=0)
    hidden = _int_list(args.hidden, "--hidden")
    train, test, out_dir = _open_run(resolved, needs_test="fewshot-sweep")
    rows = fewshot_sweep(train, test, shots=shots, seeds=seeds, hidden=hidden,
                         activation=args.activation, g=resolved["target_g"],
                         batch_size=resolved["batch_size"],
                         method=args.method)
    path = os.path.join(out_dir, "fewshot.csv")
    rows_to_csv(rows, path)
    print(f"wrote {len(rows)} rows to {path}")
    return 0


# Flags beyond the common ones, by the subcommands that take them
FLAGS = {
    "--lambda-hidden": {"type": float, "default": None},
    "--lambda-output": {"type": float, "default": None},
    "--mode": {"choices": ("closed_form", "iterative"), "default": None},
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
    common.add_argument("--out", **FLAGS["--out"])
    fit = ["--lambda-hidden", "--lambda-output", "--mode", "--method"]

    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, parents, flags, help_ in (
            ("train", cmd_train, [common], fit,
             "fit a network and write model.fpk"),
            ("eval", cmd_eval, [common], ["--checkpoint"],
             "score a checkpoint on the configured data"),
            ("explain", cmd_explain, [],
             ["--checkpoint", "--input", "--layer", "--sample", "--out"],
             "write per-class evidence maps for one layer"),
            ("bench", cmd_bench, [common], fit,
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
    except (ConfigError, UnsupportedNonlinearityError, ValueError,
            OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (IdxFormatError, DataConsistencyError, CheckpointFormatError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return 3
    except (NotPositiveDefiniteError, RankDeficientError,
            UndefinedMetricError, DivergenceError) as e:
        print(f"numeric error: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())

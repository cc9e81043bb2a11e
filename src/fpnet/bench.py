"""Benchmark runs and the standard sweeps.

A benchmark fits a network on a training split while a cost ledger is
active, scores the test split, and reports metrics plus logical costs.
Sweeps repeat that over bottleneck widths or few-shot sample counts for
the main method and each baseline.
"""

import numpy as np

from . import accounting
from .accounting import CostLedger
from .baselines import BaselineKind, fit_baseline_network
from .core import RidgeConfig, TargetGenSpec
from .layers import LayerSpec, draw_projections, fit_network, predict
from .linalg import SeededRng
from .metrics import metric_report
from .data import few_shot_subsample

METHODS = ("fp", "random_features", "label_projection", "noisy_label_projection")


def derive_layer_seeds(master_seed, layer_index):
    """Distinct, reproducible (q_seed, u_seed) per layer of one run."""
    base = int(master_seed) * 1009 + 2 * int(layer_index)
    return base, base + 1


def derive_noise_seed(master_seed):
    return int(master_seed) * 1009 + 997


def mlp_specs(hidden_widths, activation="relu", g="sign", alpha=0.0,
              lam_hidden=None, lam_output=None, seed=0):
    """Dense hidden layers of the given widths plus an output layer."""
    specs = []
    for l, width in enumerate(hidden_widths):
        q_seed, u_seed = derive_layer_seeds(seed, l)
        ridge = None if lam_hidden is None else RidgeConfig(lam=lam_hidden)
        specs.append(LayerSpec("dense", out_channels=int(width),
                               activation=activation,
                               target=TargetGenSpec(g=g, alpha=alpha,
                                                    q_seed=q_seed,
                                                    u_seed=u_seed),
                               ridge=ridge))
    out_ridge = None if lam_output is None else RidgeConfig(lam=lam_output)
    specs.append(LayerSpec("output", ridge=out_ridge))
    return specs


def fit_method(method, specs, train, mode="closed_form", batch_size=256,
               seed=0, projections=None):
    """Fit ``specs`` with the main method ("fp") or a named baseline.

    projections : shared (q, u) pairs, as ``layers.draw_projections`` gives
        them; by default each layer draws its own.
    """
    if method == "fp":
        return fit_network(specs, train, mode=mode, batch_size=batch_size,
                           projections=projections)
    kind = BaselineKind(method)
    return fit_baseline_network(kind, specs, train, batch_size=batch_size,
                                noise_seed=derive_noise_seed(seed), mode=mode,
                                projections=projections)


def run_benchmark(specs, train, test, mode="closed_form", batch_size=256,
                  seed=0, method="fp", projections=None):
    """Fit, score the test split, and return (MetricReport, CostLedger)."""
    ledger = CostLedger()
    with accounting.track(ledger):
        net = fit_method(method, specs, train, mode=mode,
                         batch_size=batch_size, seed=seed,
                         projections=projections)
        scores, _ = predict(net, test.x)
    return metric_report(scores, test.y, seed=seed), ledger


def bottleneck_sweep(train, test, widths=(100, 200, 400, 800),
                     base_widths=(1000, 1000), activation="relu", g="sign",
                     seed=0, batch_size=256, methods=METHODS):
    """All methods across final-hidden-layer widths; one result row each,
    method by method. Every method at a width shares one draw of q and u."""
    rows = {}
    for width in widths:
        specs = mlp_specs([*base_widths, width], activation=activation,
                          g=g, seed=seed)
        projections = draw_projections(specs, train.x.shape[1:],
                                       train.y.shape[1])
        for method in methods:
            report, ledger = run_benchmark(specs, train, test,
                                           batch_size=batch_size, seed=seed,
                                           method=method,
                                           projections=projections)
            rows[method, width] = {
                "method": method, "width": int(width),
                "accuracy": report.accuracy, "auc_macro": report.auc_macro,
                "aupr_macro": report.aupr_macro, "n": report.n, "seed": seed,
                "total_macs": ledger.total_macs}
    return [rows[method, width] for method in methods for width in widths]


def fewshot_sweep(train, test, shots=(5, 10, 15, 20, 30, 40, 50),
                  seeds=(0, 1, 2, 3, 4), hidden=(1000, 1000, 1000),
                  activation="relu", g="sign", batch_size=256, method="fp"):
    """Accuracy versus training samples per class, repeated over seeds.

    Each cell subsamples the training split with its own seed, fits from
    scratch, and scores the full test split. All cells of a seed share one
    draw of q and u. Rows come shot by shot, seed by seed within a shot.
    """
    rows = {}
    for seed in seeds:
        specs = mlp_specs(hidden, activation=activation, g=g, seed=seed)
        projections = draw_projections(specs, train.x.shape[1:],
                                       train.y.shape[1])
        for n_shot in shots:
            subset = few_shot_subsample(train, n_shot, SeededRng(seed))
            report, _ = run_benchmark(specs, subset, test,
                                      batch_size=batch_size, seed=seed,
                                      method=method, projections=projections)
            rows[n_shot, seed] = {
                "method": method, "shots": int(n_shot), "seed": int(seed),
                "accuracy": report.accuracy, "auc_macro": report.auc_macro,
                "aupr_macro": report.aupr_macro, "n": report.n}
    return [rows[n_shot, seed] for n_shot in shots for seed in seeds]


def rows_to_csv(rows, path):
    """Write sweep rows with the first row's keys as the header."""
    if not rows:
        raise ValueError("no rows to write")
    keys = list(rows[0].keys())
    with open(path, "w") as fh:
        fh.write(",".join(keys) + "\n")
        for row in rows:
            fields = []
            for k in keys:
                v = row[k]
                fields.append(f"{v:.6f}" if isinstance(v, float) else str(v))
            fh.write(",".join(fields) + "\n")

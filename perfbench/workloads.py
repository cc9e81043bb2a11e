"""The four benchmark workloads.

Every workload is a closed loop: one process, one caller, numpy/OpenBLAS at
its default thread count. ``setup(seed, workdir)`` builds every input from
the seed and returns the state a repetition needs; ``run(state, tracer)``
performs one timed repetition and returns a ``Rep``; ``verify(state, rep)``
makes the expensive output checks once per benchmark run, on the last
repetition.

All calls into fpnet go through module attributes (``layers.fit_network``,
not a name imported once), so the tracer's wrappers see them.
"""

import os
import time
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from fpnet import (accounting, bench, checkpoint, data, explain, layers,
                   linalg, metrics)
from fpnet.core import TargetGenSpec
from fpnet.layers import LayerSpec

from tracing import NET_FITS, Tracer

# Every task has 10 balanced classes, so chance accuracy is 0.1; each
# workload states an accuracy floor well above it.
CLASSES = 10

# Streaming equivalence tolerance of the tests: layer-0 weights recomputed in
# plain numpy must agree with the fitted ones to this relative error.
WEIGHT_RTOL = 1e-8

# Exact logical MACs of fitting mlp-fit (784 -> 1000 x 3 -> 10, n = 12000).
# They depend on shapes only, so they repeat on every seed; any change to
# them must be explained by the change that makes it.
MLP_FIT_MACS = {"forward": 64_224_000_000, "target_gen": 33_768_000_000,
                "gram": 76_928_004_000, "solve": 3_205_491_558}
MLP_REPLAY_RATIO = 2.0


@dataclass
class Rep:
    """What one timed repetition measured."""

    wall_s: float
    predict_s: float
    predict_rows: int
    accuracy: float
    auc_macro: float
    checks: dict = field(default_factory=dict)
    fit_s: float | None = None
    explain_s: float | None = None
    explain_maps: int = 0
    keep: object = None  # outputs that verify() checks


def _accuracy_checks(report, floor):
    return {f"accuracy {report.accuracy:.4f} above floor {floor}":
            report.accuracy > floor,
            "auc_macro finite": bool(np.isfinite(report.auc_macro))}


def _relative_error(w, ref):
    return float(np.linalg.norm(w - ref) / np.linalg.norm(ref))


def _g(name, v):
    return {"sign": np.sign, "identity": lambda a: a, "tanh": np.tanh}[name](v)


def _reference_weights(chunks, layer):
    """Ridge weights of a hidden layer from (rows, label rows) chunks, in numpy.

    w = inv(A'A + lam I) A'Z with Z = g(A q) + g(Y u) + alpha.
    """
    t = layer.spec.target
    ridge = layer.spec.effective_ridge()
    ata = atz = None
    for a, y in chunks:
        z = _g(t.g, a @ layer.q) + _g(t.g, y @ layer.u) + t.alpha
        ata = a.T @ a if ata is None else ata + a.T @ a
        atz = a.T @ z if atz is None else atz + a.T @ z
    return np.linalg.solve(ata + ridge.lam * np.eye(ata.shape[0]), atz)


# --- mlp-fit -----------------------------------------------------------------

MLP_TRAIN, MLP_TEST, MLP_DIM, MLP_WIDTHS = 12000, 2000, 784, (1000, 1000, 1000)
MLP_FLOOR = 0.6
# Rows are drawn in balanced, shuffled chunks straight into one array, so
# set-up never holds a second copy of the data and its peak RSS stays well
# below that of the fit.
MLP_CHUNK = 1000


def mlp_setup(seed, workdir):
    rng = linalg.SeededRng(seed)
    n = MLP_TRAIN + MLP_TEST
    x, y = np.empty((n, MLP_DIM)), np.empty((n, CLASSES))
    for i in range(0, n, MLP_CHUNK):
        part = data.synthetic_gaussian_task(MLP_CHUNK, MLP_DIM, CLASSES, 3.0,
                                            rng)
        x[i:i + MLP_CHUNK], y[i:i + MLP_CHUNK] = part.x, part.y
    names = part.class_names
    return SimpleNamespace(
        seed=seed,
        train=data.Dataset(x[:MLP_TRAIN], y[:MLP_TRAIN], names),
        test=data.Dataset(x[MLP_TRAIN:], y[MLP_TRAIN:], names),
        specs=bench.mlp_specs(MLP_WIDTHS, seed=seed))


def mlp_run(s, tracer):
    ledger = accounting.CostLedger()
    t0 = time.perf_counter()
    with accounting.track(ledger):
        net = layers.fit_network(s.specs, s.train, batch_size=256)
    t1 = time.perf_counter()
    scores, _ = layers.predict(net, s.test.x)
    t2 = time.perf_counter()
    report = metrics.metric_report(scores, s.test.y, seed=s.seed)
    t3 = time.perf_counter()
    checks = _accuracy_checks(report, MLP_FLOOR)
    checks["fit MACs equal the pinned counts"] = ledger.macs == MLP_FIT_MACS
    return Rep(wall_s=t3 - t0, fit_s=t1 - t0, predict_s=t2 - t1,
               predict_rows=len(s.test.x), accuracy=report.accuracy,
               auc_macro=report.auc_macro, checks=checks, keep=net)


def mlp_verify(s, rep, chunk=2000):
    chunks = ((s.train.x[i:i + chunk], s.train.y[i:i + chunk])
              for i in range(0, s.train.n, chunk))
    ref = _reference_weights(chunks, rep.keep.layers[0])
    err = _relative_error(rep.keep.layers[0].w, ref)
    return {f"layer-0 weights match numpy (rel err {err:.2e})":
            err <= WEIGHT_RTOL}


# --- synthetic images for the conv workloads ----------------------------------

def stripe_images(n, rng, noise):
    """Class-patterned 28x28 images: stripes whose angle and period encode
    the class, at a random phase per image, plus Gaussian pixel noise.

    Classes are balanced and shuffled; pixels are quantised to k / 255 so the
    images survive an IDX round trip unchanged.
    """
    labels = rng.permutation(np.arange(n) % CLASSES)
    rows, cols = np.mgrid[0:28, 0:28]
    angle = (labels * np.pi / CLASSES)[:, None, None]
    period = (4.0 + labels % 3)[:, None, None]
    phase = rng.uniform(0.0, 2 * np.pi, n)[:, None, None]
    wave = np.sin(2 * np.pi * (np.cos(angle) * cols + np.sin(angle) * rows)
                  / period + phase)
    img = 0.5 + 0.25 * wave + noise * rng.standard_normal((n, 28, 28))
    img = np.clip(np.rint(img * 255.0), 0, 255) / 255.0
    one_hot = np.eye(CLASSES)[labels]
    return data.Dataset(img[:, None], one_hot, [str(c) for c in range(CLASSES)])


def conv_specs(seed):
    """conv2d(32, 5x5) -> conv2d(64, 3x3, stride 2) -> global_avg_pool -> output."""
    def target(l):
        q_seed, u_seed = bench.derive_layer_seeds(seed, l)
        return TargetGenSpec(q_seed=q_seed, u_seed=u_seed)
    return [LayerSpec("conv2d", 32, (5, 5), 1, "relu", target(0)),
            LayerSpec("conv2d", 64, (3, 3), 2, "relu", target(1)),
            LayerSpec("global_avg_pool"),
            LayerSpec("output")]


def _conv_rows(x, kernel):
    """Window rows of a (N, C, H, W) batch built by plain slicing (stride 1)."""
    n, c, h, w = x.shape
    k1, k2 = kernel
    p1, p2 = h - k1 + 1, w - k2 + 1
    cols = [x[:, ch, i:i + p1, j:j + p2]
            for ch in range(c) for i in range(k1) for j in range(k2)]
    return np.stack(cols, axis=-1).reshape(n * p1 * p2, c * k1 * k2)


def _conv_reference_weights(ds, layer, chunk=500):
    positions = (28 - layer.spec.kernel[0] + 1) * (28 - layer.spec.kernel[1] + 1)
    chunks = ((_conv_rows(ds.x[i:i + chunk], layer.spec.kernel),
               np.repeat(ds.y[i:i + chunk], positions, axis=0))
              for i in range(0, ds.n, chunk))
    return _reference_weights(chunks, layer)


def _write_split(ds, workdir, name):
    paths = (os.path.join(workdir, f"{name}-images-idx3-ubyte"),
             os.path.join(workdir, f"{name}-labels-idx1-ubyte"))
    data.write_idx(ds, *paths)
    return paths


# --- conv-fit ------------------------------------------------------------------

CONV_TRAIN, CONV_TEST, CONV_NOISE = 1500, 1000, 0.4
CONV_FLOOR = 0.5


def conv_setup(seed, workdir):
    rng = np.random.Generator(np.random.PCG64(seed))
    return SimpleNamespace(
        seed=seed, specs=conv_specs(seed),
        train=_write_split(stripe_images(CONV_TRAIN, rng, CONV_NOISE),
                           workdir, "train"),
        test=_write_split(stripe_images(CONV_TEST, rng, CONV_NOISE),
                          workdir, "test"))


def conv_run(s, tracer):
    t0 = time.perf_counter()
    train = data.load_idx(*s.train)
    test = data.load_idx(*s.test)
    t1 = time.perf_counter()
    net = layers.fit_network(s.specs, train, batch_size=256)
    t2 = time.perf_counter()
    scores, _ = layers.predict(net, test.x)
    t3 = time.perf_counter()
    report = metrics.metric_report(scores, test.y, seed=s.seed)
    t4 = time.perf_counter()
    return Rep(wall_s=t4 - t0, fit_s=t2 - t1, predict_s=t3 - t2,
               predict_rows=test.n, accuracy=report.accuracy,
               auc_macro=report.auc_macro,
               checks=_accuracy_checks(report, CONV_FLOOR),
               keep=(net, train))


def conv_verify(s, rep):
    net, train = rep.keep
    ref = _conv_reference_weights(train, net.layers[0])
    err = _relative_error(net.layers[0].w, ref)
    return {f"layer-0 weights match numpy (rel err {err:.2e})":
            err <= WEIGHT_RTOL}


# --- fewshot -------------------------------------------------------------------

# Separation 4.0 rather than mlp-fit's 3.0, and 25 rather than 10 shots at
# the low end, keep few-shot accuracy (about 0.6) far enough from chance
# that it varies little between seeds; n stays far below the width.
FEWSHOT_POOL, FEWSHOT_TEST, FEWSHOT_SEPARATION = 1000, 2000, 4.0
FEWSHOT_SHOTS, FEWSHOT_METHODS = (25, 50), ("fp", "label_projection")
FEWSHOT_FLOOR = 0.3
# Timers that stay on in untraced runs: fit and predict happen inside
# bench.fewshot_sweep, so only a wrapper can time them (two spans per cell,
# no cost counting).
FEWSHOT_TIMERS = tuple(NET_FITS) + ("layers.predict",)


def fewshot_setup(seed, workdir):
    rng = linalg.SeededRng(seed)
    return SimpleNamespace(
        seed=seed,
        pool=data.synthetic_gaussian_task(FEWSHOT_POOL, MLP_DIM, CLASSES,
                                          FEWSHOT_SEPARATION, rng),
        test=data.synthetic_gaussian_task(FEWSHOT_TEST, MLP_DIM, CLASSES,
                                          FEWSHOT_SEPARATION, rng))


def fewshot_run(s, tracer):
    timers = tracer or Tracer(FEWSHOT_TIMERS, costs=False)
    if tracer is None:
        timers.install()
    try:
        t0 = time.perf_counter()
        rows = []
        for method in FEWSHOT_METHODS:
            rows += bench.fewshot_sweep(s.pool, s.test, shots=FEWSHOT_SHOTS,
                                        seeds=(s.seed,), method=method)
        t1 = time.perf_counter()
    finally:
        if tracer is None:
            timers.uninstall()
    spans = timers.spans
    fit_s = sum(sp.end - sp.start for sp in spans if sp.name in NET_FITS)
    predicts = [sp for sp in spans if sp.name == "layers.predict"]
    fp = [r for r in rows if r["method"] == "fp"]
    checks = {f"{r['method']} {r['shots']}-shot accuracy {r['accuracy']:.4f} "
              f"above floor {FEWSHOT_FLOOR}": r["accuracy"] > FEWSHOT_FLOOR
              for r in rows}
    checks["one row per cell"] = (
        len(rows) == len(FEWSHOT_METHODS) * len(FEWSHOT_SHOTS))
    return Rep(wall_s=t1 - t0, fit_s=fit_s,
               predict_s=sum(sp.end - sp.start for sp in predicts),
               predict_rows=sum(sp.info for sp in predicts),
               accuracy=float(np.mean([r["accuracy"] for r in fp])),
               auc_macro=float(np.mean([r["auc_macro"] for r in fp])),
               checks=checks)


def fewshot_verify(s, rep):
    return {}


# --- serve ---------------------------------------------------------------------

# A repetition takes about 0.5 s, so a run's medians are taken over forty
# or more repetitions, not the handful that a 4 s repetition (2000 test
# images, 64 samples) allowed; and few map files are written, because their
# pure-Python formatting and file creation slow and speed with the machine
# more than anything else the benchmark runs.
SERVE_TRAIN, SERVE_TEST, SERVE_NOISE = 1000, 1000, 0.4
SERVE_SAMPLES, SERVE_REFERENCE_ROWS = 4, 256
SERVE_FLOOR = 0.4


def serve_setup(seed, workdir):
    rng = np.random.Generator(np.random.PCG64(seed))
    train = stripe_images(SERVE_TRAIN, rng, SERVE_NOISE)
    test = stripe_images(SERVE_TEST, rng, SERVE_NOISE)
    net = layers.fit_network(conv_specs(seed), train, batch_size=256)
    ckpt = os.path.join(workdir, "model.fpk")
    checkpoint.save_network(net, ckpt)
    maps = os.path.join(workdir, "maps")
    os.makedirs(maps, exist_ok=True)
    return SimpleNamespace(
        seed=seed, checkpoint=ckpt, network=net,
        test=_write_split(test, workdir, "test"), maps=maps,
        reference_x=test.x[:SERVE_REFERENCE_ROWS],
        reference_scores=layers.predict(net, test.x[:SERVE_REFERENCE_ROWS])[0])


def _explain_sample(net, x, k, out_dir, sample):
    """The ``fpnet explain`` path for one sample and one layer."""
    layer = net.layers[k]
    a_prev = layers.network_forward(net, x, upto=k)
    z = layers.potentials(layer, a_prev)
    origin = explain.input_origin(net.layers[:k], x.ndim - 2)
    emap = explain.explain_layer(layer, a_prev, z, origin=origin, layer_index=k)
    grids = []
    for c in range(net.label_dim):
        grid = explain.render_map(emap, c, x.shape[2:])
        base = os.path.join(out_dir, f"map_sample{sample}_layer{k}_class{c}")
        explain.write_map_csv(grid, base + ".csv")
        explain.write_map_pgm(grid, base + ".pgm")
        grids.append(grid)
    return emap, grids


def _map_shape(net, k):
    """(1, *grid, classes) for an explanation of conv layer k of one 28x28 image."""
    side = 28
    for tl in net.layers[:k + 1]:
        side = (side - tl.spec.kernel[0]) // tl.spec.stride + 1
    return (1, side, side, net.label_dim)


def serve_run(s, tracer):
    # Maps go to new files each time: rewriting the last repetition's files
    # in place makes ext4 flush them to disk, which times the disk. The
    # directory stays, so that new files reuse the inodes just freed.
    for name in os.listdir(s.maps):
        os.remove(os.path.join(s.maps, name))
    t0 = time.perf_counter()
    net = checkpoint.load_network(s.checkpoint)
    test = data.load_idx(*s.test)
    t1 = time.perf_counter()
    scores, labels = layers.predict(net, test.x)
    t2 = time.perf_counter()
    report = metrics.metric_report(scores, test.y, seed=s.seed)
    t3 = time.perf_counter()
    conv = [k for k, tl in enumerate(net.layers)
            if tl.spec.kind in ("conv1d", "conv2d")]
    shapes_ok = finite = True
    for i in range(SERVE_SAMPLES):
        for k in conv:
            emap, grids = _explain_sample(net, test.x[i:i + 1], k, s.maps, i)
            finite &= bool(np.isfinite(emap.values).all())
            shapes_ok &= emap.values.shape == _map_shape(net, k)
            for grid in grids:
                finite &= bool(np.isfinite(grid).all())
                shapes_ok &= grid.shape == test.x.shape[2:]
    x = test.x[:SERVE_SAMPLES]
    first = net.layers[conv[0]]
    recon = explain.reconstruct_input(
        first, layers.potentials(first, x),
        np.eye(net.label_dim)[labels[:SERVE_SAMPLES]])
    t4 = time.perf_counter()
    checks = _accuracy_checks(report, SERVE_FLOOR)
    checks["explanation maps finite"] = finite
    checks["explanation maps shaped (1, *grid, classes), rendered 28x28"] = (
        shapes_ok)
    checks["reconstruction finite and shaped like the input"] = (
        recon.shape == x.shape and bool(np.isfinite(recon).all()))
    maps = SERVE_SAMPLES * len(conv) * net.label_dim
    return Rep(wall_s=t4 - t0, predict_s=t2 - t1, predict_rows=test.n,
               accuracy=report.accuracy, auc_macro=report.auc_macro,
               explain_s=t4 - t3, explain_maps=maps, checks=checks,
               keep=(net, maps))


def _pgm_ok(path, rows, cols):
    header = f"P5\n{cols} {rows}\n255\n".encode("ascii")
    with open(path, "rb") as fh:
        blob = fh.read()
    return blob.startswith(header) and len(blob) == len(header) + rows * cols


def _same_network(a, b):
    """Same specs, and every matrix equal bit for bit (layout aside)."""
    def bits(m):
        return None if m is None else np.ascontiguousarray(m).tobytes()
    return len(a.layers) == len(b.layers) and all(
        x.spec == y.spec and all(bits(getattr(x, f)) == bits(getattr(y, f))
                                 for f in ("w", "q", "u"))
        for x, y in zip(a.layers, b.layers))


def serve_verify(s, rep):
    net, maps = rep.keep
    scores = layers.predict(net, s.reference_x)[0]
    # Fitting leaves weights in Fortran order and loading gives C order, so
    # BLAS may round the same products differently in the last bit; the
    # scores are held to float64 rounding and the bitwise result is shown.
    gap = float(np.max(np.abs(scores - s.reference_scores)))
    scale = float(np.max(np.abs(s.reference_scores)))
    pgms = [os.path.join(s.maps, f) for f in os.listdir(s.maps)
            if f.endswith(".pgm")]
    return {"loaded checkpoint holds the saved network bit for bit":
            _same_network(net, s.network),
            f"loaded checkpoint scores equal the saved network's to float64 "
            f"rounding (max |diff| {gap:.1e}, bitwise "
            f"{'equal' if gap == 0 else 'unequal'})": gap <= 1e-12 * scale,
            f"{maps} PGM maps written": len(pgms) == maps,
            "PGM headers and sizes valid": all(_pgm_ok(p, 28, 28) for p in pgms)}


WORKLOADS = {
    "mlp-fit": (mlp_setup, mlp_run, mlp_verify),
    "conv-fit": (conv_setup, conv_run, conv_verify),
    "fewshot": (fewshot_setup, fewshot_run, fewshot_verify),
    "serve": (serve_setup, serve_run, serve_verify),
}

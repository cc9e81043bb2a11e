"""Layer specs, the forward pass, and single-pass network fitting.

Tensor conventions
------------------
dense input   : any array with leading sample axis; flattened to (N, d) in
                C order before use.
conv1d input  : (N, C, T)
conv2d input  : (N, C, H, W)
conv output   : (N, out_channels, *spatial'), "valid" windows only, no padding.

Window matrices produced by ``extract_windows`` have one row per
(sample, position) pair, sample-major then raster position order, and
columns ordered channel-major: all kernel offsets of channel 0, then
channel 1, and so on. Conv weights, their q projections, checkpoints and
``explain`` all use this channel-major order.

Internally, ``_rows`` builds every weighted layer's design rows; conv
layers gather windows there channels-last (``extract_windows(...,
channels_last=True)``: the channels of kernel offset 0, then of offset 1,
and so on). A conv layer's output lies in memory as (N, *spatial', C), so
each run of that gather is k2 * C contiguous floats rather than k2 floats
C apart. The small matrices follow the large one: ``potentials`` takes
w's rows in channels-last order; a conv fit takes q's rows in that order,
fits in it and maps w back to channel-major rows; and ``explain`` gathers
the same rows and reorders q's rows to match them.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import accounting
from .core import (HIDDEN_LAMBDA, OUTPUT_LAMBDA, GramAccumulator, RidgeConfig,
                   TargetGenSpec, fit_weights, generate_targets,
                   iterative_update)
from .linalg import SeededRng, as_matrix, gaussian_matrix, sign_in_place

LAYER_KINDS = ("dense", "conv1d", "conv2d", "global_avg_pool", "output")
ACTIVATIONS = ("relu", "sign", "tanh", "identity", "mod2", "square")

# Working set of every inference and closed-form fit batch: rows per batch
# are at most this divided by the bytes per sample of the widest
# intermediate (``_budget_rows``). Fits grow small batches up to the bytes of
# their largest Gram matrix, never past this bound. On the 28x28 conv
# benchmark net a batch is 60 images, for predict (no slower than one full
# batch) and for fitting alike; dense splits of 2000 rows of width 1000 stay
# a single batch; and a 784 -> 1000 x 3 fit streams 1001 rows a batch, whose
# Gram and target products run faster than 256-row ones.
INFERENCE_BUDGET_BYTES = 16 * 2**20


def activate(kind, z, in_place=False):
    """Element-wise activation. sign maps 0 to exactly 0; mod2 wraps into [0, 2).

    ``z`` is left unchanged unless ``in_place``, which overwrites a float
    array with its activation.
    """
    out = z if in_place else None
    if kind == "relu":
        return np.maximum(z, 0.0, out=out)
    if kind == "sign":
        return sign_in_place(z) if in_place else np.sign(z)
    if kind == "tanh":
        return np.tanh(z, out=out)
    if kind == "identity":
        return z
    if kind == "mod2":
        return np.mod(z, 2.0, out=out)
    if kind == "square":
        return np.square(z, out=out)
    raise ValueError(f"unknown activation {kind!r}")


@dataclass(frozen=True)
class LayerSpec:
    """Static description of one layer.

    Trainable kinds (dense, conv1d, conv2d) need ``target`` to be fitted;
    pooling and output layers must not carry one. The output layer fits a
    ridge from activations to one-hot labels with an unpenalised intercept
    and emits raw scores.
    """

    kind: str
    out_channels: int = 0
    kernel: tuple = (1,)
    stride: int = 1
    activation: str = "identity"
    target: TargetGenSpec | None = None
    ridge: RidgeConfig | None = None

    def __post_init__(self):
        if self.kind not in LAYER_KINDS:
            raise ValueError(f"kind must be one of {LAYER_KINDS}, got {self.kind!r}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        kernel = self.kernel
        if isinstance(kernel, int):
            kernel = (kernel,)
        kernel = tuple(int(k) for k in kernel)
        object.__setattr__(self, "kernel", kernel)
        if any(k < 1 for k in kernel):
            raise ValueError(f"kernel entries must be >= 1, got {kernel}")
        if self.stride < 1:
            raise ValueError(f"stride must be >= 1, got {self.stride}")
        if self.kind == "conv1d" and len(kernel) != 1:
            raise ValueError("conv1d takes a single kernel length")
        if self.kind == "conv2d" and len(kernel) != 2:
            raise ValueError("conv2d takes a (k1, k2) kernel")
        if self.kind in ("global_avg_pool", "output"):
            if self.target is not None:
                raise ValueError(f"{self.kind} layers do not take target specs")
            if self.activation != "identity":
                raise ValueError(f"{self.kind} layers apply no activation")
        elif self.out_channels < 1:
            raise ValueError(f"{self.kind} layer needs out_channels >= 1")

    def effective_ridge(self):
        if self.ridge is not None:
            return self.ridge
        lam = OUTPUT_LAMBDA if self.kind == "output" else HIDDEN_LAMBDA
        return RidgeConfig(lam=lam)


@dataclass
class TrainedLayer:
    """A spec plus whatever matrices fitting produced.

    w is (in_dim, out_channels) for hidden layers ((C * prod(kernel),
    out_channels) for conv) and (d + 1, label_dim) for the output layer,
    whose final row is the intercept. q and u are the frozen projections
    used to generate this layer's targets; pooling layers hold none of it.
    """

    spec: LayerSpec
    w: np.ndarray | None = None
    q: np.ndarray | None = None
    u: np.ndarray | None = None


@dataclass
class Network:
    layers: list
    label_dim: int
    class_names: list

    def __post_init__(self):
        if not self.layers:
            raise ValueError("network has no layers")
        kinds = [tl.spec.kind for tl in self.layers]
        if kinds.count("output") != 1 or kinds[-1] != "output":
            raise ValueError("network needs exactly one output layer, last")
        if len(self.class_names) != self.label_dim:
            raise ValueError("class_names length must equal label_dim")


def conv_output_shape(spatial, kernel, stride):
    """Valid-window output grid for given input spatial dims."""
    out = []
    for s, k in zip(spatial, kernel):
        if k > s:
            raise ValueError(f"kernel {k} exceeds input extent {s}")
        out.append((s - k) // stride + 1)
    return tuple(out)


def extract_windows(x, kernel, stride=1, *, channels_last=False):
    """Flatten all valid convolution windows into a matrix.

    x : (N, C, T) or (N, C, H, W).
    Returns (N * P, C * prod(kernel)) where P is the number of window
    positions; see the module docstring for row and column ordering.
    channels_last : order each row's columns kernel offset first and
        channel last, (k, C) or (k1, k2, C), instead of channel-major.
    """
    x = np.asarray(x, dtype=np.float64)
    if isinstance(kernel, int):
        kernel = (kernel,)
    kernel = tuple(int(k) for k in kernel)
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    if x.ndim == 3:
        if len(kernel) != 1:
            raise ValueError("1-D input takes a single kernel length")
        (k,) = kernel
        conv_output_shape(x.shape[2:], kernel, stride)
        v = np.lib.stride_tricks.sliding_window_view(x, k, axis=2)
        v = v[:, :, ::stride]                    # (N, C, P, k)
        # (N, P, k, C) channels last, else (N, P, C, k)
        v = v.transpose((0, 2, 3, 1) if channels_last else (0, 2, 1, 3))
        n, p = v.shape[0], v.shape[1]
        return v.reshape(n * p, x.shape[1] * k).astype(np.float64, copy=False)
    if x.ndim == 4:
        if len(kernel) != 2:
            raise ValueError("2-D input takes a (k1, k2) kernel")
        k1, k2 = kernel
        conv_output_shape(x.shape[2:], kernel, stride)
        v = np.lib.stride_tricks.sliding_window_view(x, (k1, k2), axis=(2, 3))
        v = v[:, :, ::stride, ::stride]          # (N, C, P1, P2, k1, k2)
        # (N, P1, P2, k1, k2, C) channels last, else (N, P1, P2, C, k1, k2)
        v = v.transpose((0, 2, 3, 4, 5, 1) if channels_last
                        else (0, 2, 3, 1, 4, 5))
        n, p1, p2 = v.shape[0], v.shape[1], v.shape[2]
        return v.reshape(n * p1 * p2, x.shape[1] * k1 * k2).astype(
            np.float64, copy=False)
    raise ValueError(f"expected 3-D or 4-D input, got ndim={x.ndim}")


def _flatten(x):
    x = np.asarray(x, dtype=np.float64)
    if x.ndim < 2:
        raise ValueError("input needs a leading sample axis")
    if x.shape[0] == 0:
        raise ValueError("input has no samples")
    return x.reshape(x.shape[0], -1)


def _rows(spec, x, w_rows=None):
    """Design rows of a weighted layer for the batch ``x``, and their grid.

    Dense and output layers: the flattened samples, grid ``()``; an output
    layer's rows end in an intercept column unless its weights have
    ``w_rows == width`` rows. Conv layers: the channels-last windows, one
    row per (sample, position), on the output grid.
    """
    if spec.kind in ("conv1d", "conv2d"):
        x = np.asarray(x, dtype=np.float64)
        rows = extract_windows(x, spec.kernel, spec.stride, channels_last=True)
        return rows, conv_output_shape(x.shape[2:], spec.kernel, spec.stride)
    a = _flatten(x)
    if spec.kind == "output" and w_rows != a.shape[1]:
        a = np.hstack([a, np.ones((a.shape[0], 1))])
    return a, ()


def _window_rows_order(spec, m, channels_last):
    """Rows of ``m``, one per window column of a conv layer, reordered from
    channel-major to channels-last (or back when not ``channels_last``).

    Rows of other layers, and of a single-channel conv layer, keep their
    order.
    """
    if spec.kind not in ("conv1d", "conv2d"):
        return m
    k = math.prod(spec.kernel)
    groups = (m.shape[0] // k, k) if channels_last else (k, m.shape[0] // k)
    return m.reshape(*groups, m.shape[1]).swapaxes(0, 1).reshape(m.shape)


def potentials(layer, x):
    """Pre-activation potentials of a trained weighted layer.

    dense, output : (N, out_channels) matrix; an output layer's are its
        scores.
    conv : (N, out_channels, *spatial') tensor.
    """
    spec = layer.spec
    w = layer.w
    if w is None:
        raise ValueError(f"{spec.kind} layer has no weights")
    rows, grid = _rows(spec, x, w.shape[0])
    if rows.shape[1] != w.shape[0]:
        raise ValueError(
            f"rows of width {rows.shape[1]} do not match weights {w.shape[0]}")
    accounting.add_macs("forward", accounting.matmul_macs(
        rows.shape[0], rows.shape[1], w.shape[1]))
    z = rows @ _window_rows_order(spec, w, channels_last=True)
    if not grid:
        return z
    return np.moveaxis(z.reshape(-1, *grid, w.shape[1]), -1, 1)


def forward(layer, x):
    """Apply one trained layer to a batch."""
    spec = layer.spec
    if spec.kind == "global_avg_pool":
        x = np.asarray(x, dtype=np.float64)
        if x.ndim < 3:
            raise ValueError("pooling expects (N, C, *spatial) input")
        return x.mean(axis=tuple(range(2, x.ndim)))
    # potentials are fresh, so no caller sees them overwritten
    return activate(spec.activation, potentials(layer, x), in_place=True)


def _stream_factory(stream):
    """Accept either a zero-argument callable or a re-iterable of batches."""
    if callable(stream):
        return stream
    batches = stream if isinstance(stream, (list, tuple)) else list(stream)
    return lambda: iter(batches)


def _layer_rows(spec, x_batch, y_batch):
    """``_rows`` of one batch and its labels, a sample's label row repeated
    for each of the sample's window positions."""
    y = as_matrix(y_batch, "y_batch")
    rows, grid = _rows(spec, x_batch)
    return rows, np.repeat(y, math.prod(grid), axis=0) if grid else y


def _draw_projections(spec, in_dim, label_dim):
    tgt = spec.target
    if tgt is None:
        raise ValueError(f"{spec.kind} layer has no target generation spec")
    q = gaussian_matrix(in_dim, spec.out_channels, SeededRng(tgt.q_seed))
    u = gaussian_matrix(label_dim, spec.out_channels, SeededRng(tgt.u_seed))
    return q, u


@dataclass(frozen=True)
class IterativeConfig:
    """Mini-batch gradient training of the same per-layer objectives.

    Layers are still fitted strictly one at a time, in order; only the
    per-layer solver changes from closed form to gradient steps.
    """

    eta: float = 1e-3
    epochs: int = 5
    batch: int = 128

    def __post_init__(self):
        if self.eta <= 0 or not np.isfinite(self.eta):
            raise ValueError("eta must be positive")
        if self.epochs < 1 or self.batch < 1:
            raise ValueError("epochs and batch must be >= 1")


def _is_iterative(mode):
    if isinstance(mode, IterativeConfig):
        return True
    if mode != "closed_form":
        raise ValueError(f"unknown mode {mode!r}")
    return False


def fit_layer(spec, stream, q=None, u=None, mode="closed_form", targets=None):
    """Fit one hidden or output layer over a batch stream.

    stream : zero-argument callable producing an iterator of
        (activations, labels) batch pairs, or a re-iterable of them.
    q, u : explicit projections of a hidden layer; by default both are
        drawn from the layer's target seeds on the first batch.
    mode : "closed_form" accumulates Gram sums in one pass and solves the
        ridge once at the end; an IterativeConfig takes one gradient step on
        the same objective per batch, over ``epochs`` passes.
    targets : a hidden layer's target source, called on every batch as
        ``targets(rows, y_rows, q, u, spec.target)``. It returns the batch's
        target potentials, or None when the weights are q itself and no
        pass is needed. Defaults to ``generate_targets``.

    The output layer's targets are the labels. Its rows gain an intercept
    column whose weight row is left out of the ridge penalty, so shifting
    all activations by a constant moves only the intercept.

    A conv layer's window rows are channels-last, so ``targets`` gets q's
    rows in that order and the weights are fitted in it; the returned w and
    q are channel-major (see the module docstring).
    """
    if spec.kind not in ("dense", "conv1d", "conv2d", "output"):
        raise ValueError(f"fit_layer handles trainable and output layers, "
                         f"not {spec.kind}")
    iterative = _is_iterative(mode)
    output = spec.kind == "output"
    source = generate_targets if targets is None else targets
    factory = _stream_factory(stream)
    ridge = spec.effective_ridge()
    acc = w = penalty = q_rows = None
    for _ in range(mode.epochs if iterative else 1):
        for x_batch, y_batch in factory():
            rows, y_rows = _layer_rows(spec, x_batch, y_batch)
            del x_batch  # the rows hold all this step needs of it
            if output:  # fit the labels; leave the intercept unpenalised
                z, width = y_rows, y_rows.shape[1]
                penalty = np.append(np.ones(rows.shape[1] - 1), 0.0)
            else:
                if q_rows is None:
                    if q is None or u is None:
                        q, u = _draw_projections(spec, rows.shape[1],
                                                 y_rows.shape[1])
                    q_rows = _window_rows_order(spec, q, channels_last=True)
                z = source(rows, y_rows, q_rows, u, spec.target)
                if z is None:
                    return TrainedLayer(spec, w=q, q=q, u=u)
                width = spec.out_channels
            if iterative:
                if w is None:
                    w = np.zeros((rows.shape[1], width))
                w = iterative_update(w, rows, z, mode.eta, ridge.lam, penalty)
                accounting.note_matrices(w, q, u, rows, z)
            else:
                if acc is None:
                    acc = GramAccumulator(rows.shape[1], width)
                acc.update(rows, z)
                # kept batches already count this batch's rows and targets
                accounting.note_matrices(acc, q, u,
                                         *(() if acc.kept else (rows, z)))
            # let this batch go before the stream builds the next one
            del y_batch, rows, y_rows, z
    if acc is None and w is None:
        raise ValueError("stream produced no batches")
    if not iterative:
        w = fit_weights(acc, ridge, penalty)
    w = _window_rows_order(spec, w, channels_last=False)
    return TrainedLayer(spec, w=w, q=q, u=u)


def _dataset_xy(dataset):
    if hasattr(dataset, "x") and hasattr(dataset, "y"):
        names = list(getattr(dataset, "class_names", []))
        return np.asarray(dataset.x, dtype=np.float64), as_matrix(dataset.y, "y"), names
    x, y = dataset
    return np.asarray(x, dtype=np.float64), as_matrix(y, "y"), []


def make_batches(x, y, batch_size):
    """Factory over contiguous (x, y) slices in stored order."""
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    n = x.shape[0]
    if y.shape[0] != n:
        raise ValueError("x and y disagree on sample count")

    def factory():
        for start in range(0, n, batch_size):
            stop = min(start + batch_size, n)
            yield x[start:stop], y[start:stop]

    return factory


def fit_network(specs, dataset, mode="closed_form", batch_size=256,
                targets=None):
    """Fit a whole network layer by layer, front to back.

    Each trainable layer consumes exactly one pass over the data in
    closed-form mode (``IterativeConfig.epochs`` passes in iterative mode),
    with earlier layers already frozen and applied on the fly. No error
    signal ever flows backward.

    dataset : anything with .x / .y / .class_names, or an (x, y) pair.
    mode : "closed_form" or an IterativeConfig, whose batch size then
        replaces ``batch_size``.
    batch_size : rows a closed-form fit streams per batch, within two
        bounds. Batches of narrow rows grow until their widest intermediate
        (as ``inference_batch_rows`` sizes it) holds as many floats as the
        largest Gram matrix the fit accumulates; and no batch's widest
        intermediate exceeds INFERENCE_BUDGET_BYTES, which caps
        ``batch_size`` too (60 images on the 28x28 conv benchmark net, 1001
        rows on a 784 -> 1000 x 3 MLP). The Gram sums, and so the weights up
        to rounding, do not depend on where batches end.
    targets : the hidden layers' target source, as in ``fit_layer``;
        Forward Projection's ``generate_targets`` by default.
    """
    specs = list(specs)
    kinds = [s.kind for s in specs]
    if kinds.count("output") != 1 or kinds[-1] != "output":
        raise ValueError("specs must contain exactly one output layer, last")
    iterative = _is_iterative(mode)
    x, y, class_names = _dataset_xy(dataset)
    if iterative:
        batch_size = mode.batch
    else:
        widths = _sample_widths(
            ((s, None, y.shape[1] if s.kind == "output" else s.out_channels)
             for s in specs), x.shape[1:])
        if widths is not None:
            widest, gram = widths
            # grown no larger than the Gram sums, which do not grow with n,
            # and never past the working-set budget
            batch_size = min(max(batch_size, gram * gram // widest),
                             _budget_rows(widest))
    raw = make_batches(x, y, batch_size)
    if not class_names:
        class_names = [str(i) for i in range(y.shape[1])]

    trained = []
    for spec in specs:
        prefix = list(trained)

        def stream(prefix=prefix):
            for xb, yb in raw():
                # handed over out of a list, so that this generator holds
                # no reference to the batch while fit_layer uses it
                ab = [xb]
                for tl in prefix:
                    ab[0] = forward(tl, ab[0])
                yield ab.pop(), yb

        trained.append(TrainedLayer(spec) if spec.kind == "global_avg_pool"
                       else fit_layer(spec, stream, mode=mode, targets=targets))
    return Network(trained, label_dim=y.shape[1], class_names=class_names)


def _sample_widths(steps, sample_shape):
    """Widths that ``steps`` reach from one sample shaped ``sample_shape``.

    steps : (spec, in_width, out_width) per layer, the widths those of the
        layer's weight matrix; an in_width of None is taken from the shape
        that reaches the layer. Pooling layers ignore both widths.

    Returns (widest, gram): the floats of the widest intermediate built, a
    conv layer's window matrix or output or the activations of a dense or
    output layer, and the largest in_width, the side of the largest Gram
    matrix a fit accumulates. None when the shapes do not chain or no layer
    has weights.
    """
    shape, widest, gram = tuple(sample_shape), 0, 0
    for spec, w_in, w_out in steps:
        kind = spec.kind
        if kind == "global_avg_pool":
            if len(shape) < 2:
                return None
            shape = shape[:1]
            continue
        if kind in ("conv1d", "conv2d"):
            kernel = spec.kernel
            if (len(shape) != len(kernel) + 1
                    or any(k > s for k, s in zip(kernel, shape[1:]))):
                return None
            width = shape[0] * math.prod(kernel)
            spatial = conv_output_shape(shape[1:], kernel, spec.stride)
            positions = math.prod(spatial)
            built = positions * max(width, w_out)
            shape = (w_out, *spatial)
        else:
            # the output layer appends its intercept column itself, unless
            # its input already carries one
            width = math.prod(shape)
            if kind == "output" and w_in != width:
                width += 1
            built = max(width, w_out)
            shape = (w_out,)
        if w_in not in (None, width):
            return None
        widest, gram = max(widest, built), max(gram, width)
    return (widest, gram) if widest else None


def _budget_rows(widest):
    """Rows whose ``widest`` floats per row fit INFERENCE_BUDGET_BYTES, at
    least 1."""
    return max(1, INFERENCE_BUDGET_BYTES // (8 * widest))


def inference_batch_rows(layers, sample_shape):
    """Rows per batch that keep inference through ``layers`` within
    INFERENCE_BUDGET_BYTES, at least 1.

    A sample's footprint is that of the widest intermediate the layers build
    from one sample shaped ``sample_shape``: the window matrix or output of a
    conv layer, the activations of a dense or output layer. None when a
    layer cannot be sized (no weights, or shapes that do not chain).
    """
    steps = []
    for tl in layers:
        if tl.spec.kind == "global_avg_pool":
            steps.append((tl.spec, None, None))
        elif isinstance(tl.w, np.ndarray) and tl.w.ndim == 2:
            steps.append((tl.spec, *tl.w.shape))
        else:
            return None
    widths = _sample_widths(steps, sample_shape)
    return None if widths is None else _budget_rows(widths[0])


def _forward_all(layers, x):
    a = np.asarray(x, dtype=np.float64)
    for tl in layers:
        a = forward(tl, a)
    return a


def network_forward(net, x, upto=None):
    """Activations after the first ``upto`` layers (all layers if None).

    Inputs larger than one batch of ``inference_batch_rows`` rows run batch
    by batch, each batch written straight into the output, which keeps the
    first batch's memory layout; so memory beyond the output stays bounded
    by the layers' working set rather than growing with the number of rows.
    """
    layers = net.layers if upto is None else net.layers[:upto]
    x = np.asarray(x)
    rows = inference_batch_rows(layers, x.shape[1:]) if x.ndim >= 2 else None
    if rows is None or x.shape[0] <= rows:
        return _forward_all(layers, x)
    first = _forward_all(layers, x[:rows])
    out = np.empty_like(first, shape=(x.shape[0], *first.shape[1:]))
    out[:rows] = first
    del first
    for start in range(rows, x.shape[0], rows):
        out[start:start + rows] = _forward_all(layers, x[start:start + rows])
    return out


def predict(net, x):
    """Raw output scores and argmax labels (ties resolve to the lowest index)."""
    scores = network_forward(net, x)
    return scores, np.argmax(scores, axis=1)

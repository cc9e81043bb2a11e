"""Layer specs, the forward pass, and single-pass network fitting.

Tensor conventions
------------------
dense input   : any array with leading sample axis; flattened to (N, d) in
                C order before use.
conv1d input  : (N, C, T)
conv2d input  : (N, C, H, W)
conv output   : (N, out_channels, *spatial'), "valid" windows only, no padding.

``CONV_DIMS`` gives each conv kind's number of spatial axes and kernel
lengths; no other code tells conv1d from conv2d.

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
import operator
from dataclasses import dataclass

import numpy as np

from . import accounting
from .core import (HIDDEN_LAMBDA, OUTPUT_LAMBDA, GramAccumulator, RidgeConfig,
                   TargetGenSpec, fit_weights, generate_targets,
                   iterative_update)
from .data import Pixels, as_samples
from .linalg import SeededRng, activate, as_matrix, gaussian_matrix

LAYER_KINDS = ("dense", "conv1d", "conv2d", "global_avg_pool", "output")
ACTIVATIONS = ("relu", "sign", "tanh", "identity", "mod2", "square")
CONV_DIMS = {"conv1d": 1, "conv2d": 2}
# The fields besides ``kind`` that each non-conv kind reads; conv kinds read all
KIND_FIELDS = {"dense": ("out_channels", "activation", "target", "ridge"),
               "global_avg_pool": (), "output": ("ridge",)}

# Working set of every inference and closed-form fit batch: rows per batch
# are at most this divided by the bytes one sample holds at once in the
# layer step that holds the most, its input, what the step builds from it
# and its output (``_shape_walk``, ``_budget_rows``). Fits grow small batches
# until their design rows take the bytes of their largest Gram matrix, never
# past this bound. On the 28x28 conv benchmark net a batch is 34 images, for
# predict (no slower than one full batch) and for fitting alike; a 784 ->
# 1000 x 3 fit streams 1001 rows a batch, whose Gram and target products run
# faster than 256-row ones; and with 10 classes its predict on 2000 rows
# runs as two batches of at most 1042.
INFERENCE_BUDGET_BYTES = 16 * 2**20


def _integer(value, name):
    """``value`` as an int; a float, even an integral one, is a ValueError."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class LayerSpec:
    """Static description of one layer.

    Trainable kinds (dense, conv1d, conv2d) need ``target`` to be fitted.
    A field the kind does not read (see ``KIND_FIELDS``) must keep its
    default. The output layer fits a ridge from activations to one-hot
    labels with an unpenalised intercept and emits raw scores.
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
        kernel = tuple(_integer(k, "kernel entry")
                       for k in np.atleast_1d(self.kernel))
        object.__setattr__(self, "kernel", kernel)
        for name in ("stride", "out_channels"):
            _integer(getattr(self, name), name)
        if any(k < 1 for k in kernel):
            raise ValueError(f"kernel entries must be >= 1, got {kernel}")
        if self.stride < 1:
            raise ValueError(f"stride must be >= 1, got {self.stride}")
        if self.kind in CONV_DIMS and len(kernel) != CONV_DIMS[self.kind]:
            raise ValueError(f"{self.kind} takes {CONV_DIMS[self.kind]} "
                             f"kernel lengths, got {kernel}")
        reads = ("kind", *KIND_FIELDS.get(self.kind, self.__dataclass_fields__))
        for name, field in self.__dataclass_fields__.items():
            if name not in reads and getattr(self, name) != field.default:
                raise ValueError(f"{self.kind} layers do not take {name}")
        if "out_channels" in reads and self.out_channels < 1:
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
        _integer(self.label_dim, "label_dim")
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

    x : (N, C, *spatial), one kernel length per spatial axis: (N, C, T) for
        conv1d, (N, C, H, W) for conv2d.
    Returns (N * P, C * prod(kernel)) where P is the number of window
    positions; see the module docstring for row and column ordering.
    channels_last : order each row's columns kernel offset first and
        channel last, (*kernel, C), instead of channel-major.
    """
    x = np.asarray(x, dtype=np.float64)
    kernel = tuple(int(k) for k in np.atleast_1d(kernel))
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    d = x.ndim - 2  # spatial axes
    if d < 1 or len(kernel) != d:
        raise ValueError(f"input shaped {x.shape} is not (N, C, *spatial) "
                         f"with one spatial axis per kernel length {kernel}")
    conv_output_shape(x.shape[2:], kernel, stride)
    v = np.lib.stride_tricks.sliding_window_view(x, kernel,
                                                 axis=tuple(range(2, x.ndim)))
    v = v[(slice(None), slice(None)) + (slice(None, None, stride),) * d]
    # (N, C, *P, *k) to (N, *P, *k, C) channels last, else (N, *P, C, *k)
    grid, offsets = range(2, 2 + d), range(2 + d, 2 + 2 * d)
    v = v.transpose((0, *grid, *offsets, 1) if channels_last
                    else (0, *grid, 1, *offsets))
    return v.reshape(math.prod(v.shape[:1 + d]),
                     x.shape[1] * math.prod(kernel))


def _rows(spec, x, w_rows=None):
    """Design rows of a weighted layer for the batch ``x``, and their grid.

    Dense and output layers: the flattened samples, grid ``()``; an output
    layer's rows end in an intercept column unless its weights have
    ``w_rows == width`` rows. Conv layers: the channels-last windows, one
    row per (sample, position), on the output grid.
    """
    x = np.asarray(x, dtype=np.float64)
    if spec.kind in CONV_DIMS:
        rows = extract_windows(x, spec.kernel, spec.stride, channels_last=True)
        return rows, conv_output_shape(x.shape[2:], spec.kernel, spec.stride)
    if x.ndim < 2:
        raise ValueError("input needs a leading sample axis")
    if x.shape[0] == 0:
        raise ValueError("input has no samples")
    n, width = x.shape[0], math.prod(x.shape[1:])
    if spec.kind != "output" or w_rows == width:
        return x.reshape(n, width), ()
    # x is written straight into the rows beside their intercept column, so
    # a conv output, which does not flatten in place, is copied only once
    rows = np.ones((n, width + 1))
    rows[:, :width].reshape(x.shape)[...] = x
    return rows, ()


def _window_rows_order(spec, m, channels_last):
    """Rows of ``m``, one per window column of a conv layer, reordered from
    channel-major to channels-last (or back when not ``channels_last``).

    Rows of other layers, and of a single-channel conv layer, keep their
    order.
    """
    if spec.kind not in CONV_DIMS:
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
        ``targets(rows, y, q, u, spec.target)``, with the batch's design rows
        and its labels, one row per sample; a conv layer's rows hold each
        sample's window positions in turn. It returns one row of target
        potentials per design row, or None when the weights are q itself and
        no pass is needed. Defaults to ``generate_targets``.

    The output layer's targets are the labels. Its rows gain a last,
    constant intercept column, and the solvers get ``intercept=True``,
    which leaves that column's weight row out of the ridge penalty, so
    shifting all activations by a constant moves only the intercept.

    A conv layer's window rows are channels-last, so ``targets`` gets q's
    rows in that order and the weights are fitted in it; the returned w and
    q are channel-major (see the module docstring).
    """
    if spec.kind == "global_avg_pool":
        raise ValueError(f"fit_layer handles trainable and output layers, "
                         f"not {spec.kind}")
    iterative = _is_iterative(mode)
    output = spec.kind == "output"
    source = generate_targets if targets is None else targets
    factory = _stream_factory(stream)
    ridge = spec.effective_ridge()
    acc = w = q_rows = None
    for _ in range(mode.epochs if iterative else 1):
        for x_batch, y_batch in factory():
            y = as_matrix(y_batch, "y_batch")
            if y.shape[0] != len(x_batch):
                raise ValueError(f"batch has {len(x_batch)} samples but "
                                 f"{y.shape[0]} label rows")
            rows, _ = _rows(spec, x_batch)
            del x_batch  # the rows hold all this step needs of it
            if output:  # fit the labels
                z, width = y, y.shape[1]
            else:
                if q_rows is None:
                    if q is None or u is None:
                        q, u = _draw_projections(spec, rows.shape[1],
                                                 y.shape[1])
                    q_rows = _window_rows_order(spec, q, channels_last=True)
                z = source(rows, y, q_rows, u, spec.target)
                if z is None:
                    return TrainedLayer(spec, w=q, q=q, u=u)
                width = spec.out_channels
            if iterative:
                if w is None:
                    w = np.zeros((rows.shape[1], width))
                w = iterative_update(w, rows, z, mode.eta, ridge.lam, output)
                accounting.note_matrices(w, q, u, rows, z)
            else:
                if acc is None:
                    acc = GramAccumulator(rows.shape[1], width)
                acc.update(rows, z)
                # kept batches already count this batch's rows and targets
                accounting.note_matrices(acc, q, u,
                                         *(() if acc.kept else (rows, z)))
            # let this batch go before the stream builds the next one
            del y_batch, rows, y, z
    if acc is None and w is None:
        raise ValueError("stream produced no batches")
    if not iterative:
        w = fit_weights(acc, ridge, output)
    w = _window_rows_order(spec, w, channels_last=False)
    return TrainedLayer(spec, w=w, q=q, u=u)


def _dataset_xy(dataset):
    if hasattr(dataset, "x") and hasattr(dataset, "y"):
        names = list(getattr(dataset, "class_names", []))
        return as_samples(dataset.x), as_matrix(dataset.y, "y"), names
    x, y = dataset
    return as_samples(x), as_matrix(y, "y"), []


def make_batches(x, y, batch_size):
    """Factory over contiguous (x, y) slices in stored order; ``Pixels``
    become float64 one slice at a time."""
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    n = x.shape[0]
    if y.shape[0] != n:
        raise ValueError("x and y disagree on sample count")

    def factory():
        for start in range(0, n, batch_size):
            yield x[start:start + batch_size], y[start:start + batch_size]

    return factory


def fit_network(specs, dataset, mode="closed_form", batch_size=256,
                targets=None, projections=None):
    """Fit a whole network layer by layer, front to back.

    Each trainable layer consumes exactly one pass over its input in
    closed-form mode (``IterativeConfig.epochs`` passes in iterative mode),
    with earlier layers already frozen. No error signal ever flows backward.
    Right after a layer is fitted, its output is computed once and kept for
    the layers after it, if the whole of it fits INFERENCE_BUDGET_BYTES (as
    the shapes size it); a larger one is recomputed from the last kept input
    for each layer that reads it. The batches are the same either way, and
    so are the weights, bit for bit.

    dataset : anything with .x / .y / .class_names, or an (x, y) pair.
    mode : "closed_form" or an IterativeConfig, whose batch size then
        replaces ``batch_size``.
    batch_size : rows a closed-form fit streams per batch, within two
        bounds. Batches of narrow rows grow until their widest design rows
        or output hold as many floats as the largest Gram matrix the fit
        accumulates; and no batch holds more than INFERENCE_BUDGET_BYTES in
        any layer step, its input, what the step builds and its output
        together (as ``inference_batch_rows`` sizes it), which caps
        ``batch_size`` too (34 images on the 28x28 conv benchmark net; a
        784 -> 1000 x 3 MLP grows to 1001 rows, under its cap of 1042). The
        Gram sums, and so the weights up to rounding, do not depend on where
        batches end.
    targets : the hidden layers' target source, as in ``fit_layer``;
        Forward Projection's ``generate_targets`` by default.
    projections : one (q, u) pair per spec (None for pooling and output
        layers), as ``draw_projections`` gives them; by default each layer
        draws its own from its target seeds as it is fitted.
    """
    specs = list(specs)
    kinds = [s.kind for s in specs]
    if kinds.count("output") != 1 or kinds[-1] != "output":
        raise ValueError("specs must contain exactly one output layer, last")
    if projections is None:
        projections = [None] * len(specs)
    elif len(projections) != len(specs):
        raise ValueError(f"{len(projections)} projections for "
                         f"{len(specs)} layers")
    iterative = _is_iterative(mode)
    x, y, class_names = _dataset_xy(dataset)
    walk = _shape_walk(_fit_steps(specs, y.shape[1]), x.shape[1:])
    widths = _sample_widths(walk)
    if iterative:
        batch_size = mode.batch
    elif widths is not None:
        live, widest, gram = widths
        # design rows grown no larger than the Gram sums, which do not grow
        # with n, and never a live set past the working-set budget
        batch_size = min(max(batch_size, gram * gram // widest),
                         _budget_rows(live))
    source, prefix = make_batches(x, y, batch_size), []
    if not class_names:
        class_names = [str(i) for i in range(y.shape[1])]

    trained = []
    for k, (spec, drawn) in enumerate(zip(specs, projections)):
        q, u = drawn or (None, None)
        trained.append(
            TrainedLayer(spec) if spec.kind == "global_avg_pool"
            else fit_layer(spec, _replay(source, prefix), q=q, u=u,
                           mode=mode, targets=targets))
        prefix.append(trained[-1])
        if (k + 1 < len(specs) and walk is not None
                and 8 * len(x) * math.prod(walk[k][2])
                <= INFERENCE_BUDGET_BYTES):
            source, prefix = _kept(_replay(source, prefix)), []
    return Network(trained, label_dim=y.shape[1], class_names=class_names)


def _replay(batches, layers):
    """Factory over the batches of factory ``batches``, each run through
    ``layers``."""
    def stream():
        for xb, yb in batches():
            # handed over out of a list, so that this generator holds no
            # reference to the batch while its consumer uses it
            ab = [xb]
            for tl in layers:
                ab[0] = forward(tl, ab[0])
            yield ab.pop(), yb

    return stream


def _kept(stream):
    """Factory over the batches of ``stream``, each computed here once."""
    batches = list(stream())
    return lambda: iter(batches)


def _fit_steps(specs, label_dim):
    """``_shape_walk`` steps for fitting ``specs``: input widths taken from
    the shapes, output widths from the specs and the labels."""
    return [(s, None, label_dim if s.kind == "output" else s.out_channels)
            for s in specs]


def draw_projections(specs, sample_shape, label_dim):
    """The (q, u) pair of each layer of ``specs``, None for pooling and
    output layers, drawn exactly as ``fit_layer`` draws them for input
    samples shaped ``sample_shape``.

    The arrays are read-only, so that no fit sharing them can change them.
    """
    specs = list(specs)
    walk = _shape_walk(_fit_steps(specs, label_dim), sample_shape)
    if walk is None:
        raise ValueError(f"layers do not chain from samples shaped "
                         f"{tuple(sample_shape)}")
    drawn = [None if spec.kind in ("global_avg_pool", "output")
             else _draw_projections(spec, width, label_dim)
             for spec, (width, _, _) in zip(specs, walk)]
    for m in (m for pair in drawn if pair for m in pair):
        m.setflags(write=False)
    return drawn


def _shape_walk(steps, sample_shape):
    """One sample shaped ``sample_shape`` walked through ``steps``.

    steps : (spec, in_width, out_width) per layer, the widths those of the
        layer's weight matrix; an in_width of None is taken from the shape
        that reaches the layer. Pooling layers ignore both widths.

    Returns one (width, built, shape) per step: the width of the layer's
    design rows, also the side of the Gram matrix its fit accumulates (0 for
    pooling); the floats the sample holds at once while the step runs, that
    is its input, what the step builds from it and its output; and the
    shape of its output. A conv layer builds its window matrix; a dense or
    output layer builds a copy of its rows when it adds an intercept column
    or flattens a conv layer's output, which lies channels-last in memory.
    None when the shapes do not chain.
    """
    shape, walk, from_conv = tuple(sample_shape), [], False
    for spec, w_in, w_out in steps:
        kind, n_in = spec.kind, math.prod(shape)
        if kind == "global_avg_pool":
            if len(shape) < 2:
                return None
            width, built, shape = 0, 0, shape[:1]
        elif kind in CONV_DIMS:
            kernel = spec.kernel
            if (len(shape) != len(kernel) + 1
                    or any(k > s for k, s in zip(kernel, shape[1:]))):
                return None
            width = shape[0] * math.prod(kernel)
            spatial = conv_output_shape(shape[1:], kernel, spec.stride)
            built = math.prod(spatial) * width
            shape = (w_out, *spatial)
        else:
            # the output layer appends its intercept column itself, unless
            # its input already carries one
            width = n_in
            if kind == "output" and w_in != width:
                width += 1
            built = width if width != n_in or from_conv else 0
            shape = (w_out,)
        if w_in not in (None, width):
            return None
        walk.append((width, n_in + built + math.prod(shape), shape))
        from_conv = kind in CONV_DIMS
    return walk


def _sample_widths(walk):
    """(live, widest, gram) of a ``_shape_walk``: the most floats one sample
    holds in any step, the floats of the widest design rows or output of a
    weighted layer, and the side of the largest Gram matrix; None when the
    walk is None or no layer has weights."""
    weighted = [(width, shape) for width, _, shape in walk or () if width]
    if not weighted:
        return None
    return (max(built for _, built, _ in walk),
            max(max(width, shape[0]) * math.prod(shape[1:])
                for width, shape in weighted),
            max(width for width, _ in weighted))


def _budget_rows(live):
    """Rows whose ``live`` floats per row fit INFERENCE_BUDGET_BYTES, at
    least 1."""
    return max(1, INFERENCE_BUDGET_BYTES // (8 * live))


def inference_batch_rows(layers, sample_shape):
    """Rows per batch that keep inference through ``layers`` within
    INFERENCE_BUDGET_BYTES, at least 1.

    A sample's footprint is what one sample shaped ``sample_shape`` holds at
    once in the layer step that holds the most: the step's input, what it
    builds (a conv layer's window matrix, a copy of a dense or output
    layer's rows) and its output, as ``_shape_walk`` counts them. That is 34
    images on the 28x28 conv benchmark net and 1042 rows on a 784 -> 1000 x
    3 MLP of 10 classes. None when a layer cannot be sized (no weights, or shapes that do
    not chain).
    """
    steps = []
    for tl in layers:
        if tl.spec.kind == "global_avg_pool":
            steps.append((tl.spec, None, None))
        elif isinstance(tl.w, np.ndarray) and tl.w.ndim == 2:
            steps.append((tl.spec, *tl.w.shape))
        else:
            return None
    widths = _sample_widths(_shape_walk(steps, sample_shape))
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
    first batch's memory layout; so memory beyond the output stays within
    INFERENCE_BUDGET_BYTES, which bounds each step's input, what it builds
    and its output together, rather than growing with the number of rows:
    2000 rows through a 784 -> 1000 x 3 MLP run as two batches.
    ``Pixels`` input is converted to float64 one batch at a time.
    """
    layers = net.layers if upto is None else net.layers[:upto]
    if not isinstance(x, Pixels):  # Pixels convert a batch at a time
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

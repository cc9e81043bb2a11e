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
w's rows in channels-last order (``explain`` decodes through it, with q as
w); a conv fit takes q's rows in that order, fits in it and maps w back.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import accounting
from .core import (HIDDEN_LAMBDA, OUTPUT_LAMBDA, GramAccumulator, RidgeConfig,
                   TargetGenSpec, _integer, fit_weights, generate_targets,
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
# and its output (``_shape_walk``, ``_budget_rows``; a conv step counted with
# its whole window matrix, an upper bound). Fits grow small batches until
# their design rows take the bytes of their largest Gram matrix, never past
# this bound, and keep a layer's output only where it and a batch's live set
# in every later step fit this together. On the 28x28 conv benchmark net a
# batch is 34 images, for predict and fitting alike; a 784 -> 1000 x 3 fit
# streams 1001 rows a batch, and its predict on 2000 rows runs as two.
INFERENCE_BUDGET_BYTES = 16 * 2**20

# Conv layers build their window rows a block of whole samples at a time,
# at most this many bytes a block (but at least one sample): ``potentials``
# writes each block's product into one output (``explain`` decodes through
# it), and a closed-form fit folds each block into its Gram sums
# (``_blocks``). Iterative fits, whose steps take a whole batch, build them
# whole.
WINDOW_BLOCK_BYTES = 2**20


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


class _SeededQ:
    """The ``q`` field of ``TrainedLayer``, held in the layer's ``__dict__``.

    ``del layer.q`` lets go of a q that the layer drew from its target seed:
    the first read after it draws q again through ``_draw_q`` with
    ``w.shape[0]`` rows, channel-major and bit for bit as ``fit_layer`` drew
    it, and keeps it. Until then ``vars(layer)`` holds no q, so copies and
    pickles of the layer draw theirs the same way.
    """

    def __get__(self, layer, owner=None):
        if layer is None:
            return None  # the field's default
        if "q" not in vars(layer):
            layer.q = _draw_q(layer.spec, layer.w.shape[0])
        return vars(layer)["q"]

    def __set__(self, layer, q):
        vars(layer)["q"] = q

    def __delete__(self, layer):
        vars(layer).pop("q", None)


@dataclass
class TrainedLayer:
    """A spec plus whatever matrices fitting produced.

    w is (in_dim, out_channels) for hidden layers ((C * prod(kernel),
    out_channels) for conv) and (d + 1, label_dim) for the output layer,
    whose final row is the intercept. q and u are the frozen projections
    used to generate this layer's targets; pooling layers hold none of it.
    Inference reads only w: a q let go with ``del layer.q`` is drawn from
    its seed on first read (``_SeededQ``).
    """

    spec: LayerSpec
    w: np.ndarray | None = None
    q: np.ndarray | None = _SeededQ()
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


def _windows(x, kernel, stride, writeable=False):
    """The (N, C, *P, *kernel) view of the valid windows of ``x`` (N, C,
    *spatial) on output grid P: [n, c, *p, *o] is x[n, c, *(p * stride + o)].
    """
    kernel = tuple(int(k) for k in np.atleast_1d(kernel))
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    d = x.ndim - 2  # spatial axes
    if d < 1 or len(kernel) != d:
        raise ValueError(f"input shaped {x.shape} is not (N, C, *spatial) "
                         f"with one spatial axis per kernel length {kernel}")
    # validated extents keep every window inside x
    grid = conv_output_shape(x.shape[2:], kernel, stride)
    steps = x.strides[2:]
    return np.lib.stride_tricks.as_strided(
        x, (*x.shape[:2], *grid, *kernel),
        (*x.strides[:2], *(s * stride for s in steps), *steps),
        writeable=writeable)


def extract_windows(x, kernel, stride=1, *, channels_last=False):
    """Flatten all valid convolution windows into a matrix.

    x : (N, C, *spatial), one kernel length per spatial axis: (N, C, T) for
        conv1d, (N, C, H, W) for conv2d.
    Returns (N * P, C * prod(kernel)) where P is the number of window
    positions; see the module docstring for row and column ordering.
    channels_last : order each row's columns kernel offset first and
        channel last, (*kernel, C), instead of channel-major.
    """
    v = _windows(np.asarray(x, dtype=np.float64), kernel, stride)
    # (N, C, *P, *k) to (N, *P, *k, C) channels last, else (N, *P, C, *k)
    d = v.ndim // 2 - 1
    grid, offsets = range(2, 2 + d), range(2 + d, 2 + 2 * d)
    v = v.transpose((0, *grid, *offsets, 1) if channels_last
                    else (0, *grid, 1, *offsets))
    return v.reshape(math.prod(v.shape[:1 + d]), math.prod(v.shape[1 + d:]))


def average_windows(rows, grid, kernel, stride):
    """Overlap-averaging inverse of ``extract_windows``: its channel-major
    rows on the output ``grid`` back to the (N, C, *spatial) tensor, spatial
    the least extent that gives ``grid``. A cell is the mean of the windows
    over it, added in raster position order, or zero if none covers it.
    """
    spatial = tuple((p - 1) * stride + k for p, k in zip(grid, kernel))
    # (N * P, C * k) to (N, C, *P, *k), the shape of the window view
    per = rows.reshape(-1, *grid, rows.shape[-1] // math.prod(kernel), *kernel)
    per = np.moveaxis(per, 1 + len(grid), 1)
    acc = np.zeros((*per.shape[:2], *spatial))
    cnt = np.zeros((1, 1, *spatial))
    for total, add in ((acc, per), (cnt, 1.0)):
        # add.at is unbuffered, so windows that overlap add up
        np.add.at(_windows(total, kernel, stride, writeable=True), ..., add)
    return np.divide(acc, cnt, out=acc, where=cnt > 0)


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


def _blocks(spec, x):
    """Indices of the blocks of samples of ``x`` whose design rows a step of
    ``spec`` builds at once, in sample order.

    A conv layer's blocks hold at most WINDOW_BLOCK_BYTES of window rows
    each, and at least one sample. Every other layer, and input that
    ``_rows`` will reject, takes all of ``x`` as one block (``...``).
    """
    walk = spec.kind in CONV_DIMS and _shape_walk([spec], x.shape[1:])
    if walk:
        (width, _, shape), = walk  # a sample's rows: one per output position
        sample = 8 * width * math.prod(shape[1:])
        step = max(1, WINDOW_BLOCK_BYTES // max(1, sample))
        if step < len(x):
            return [slice(i, i + step) for i in range(0, len(x), step)]
    return [...]


def potentials(layer, x):
    """Pre-activation potentials of a trained weighted layer.

    dense, output : (N, out_channels) matrix; an output layer's are its
        scores.
    conv : (N, out_channels, *spatial') tensor. The window rows are built
        a block of samples at a time (``_blocks``), each block's product
        written into one output, which is the same bit for bit as building
        them whole.
    """
    spec = layer.spec
    w = layer.w
    if w is None:
        raise ValueError(f"{spec.kind} layer has no weights")
    x = np.asarray(x, dtype=np.float64)
    w_rows = _window_rows_order(spec, w, channels_last=True)
    z, start = None, 0
    for block in _blocks(spec, x):
        rows, grid = _rows(spec, x[block], w.shape[0])
        if rows.shape[1] != w.shape[0]:
            raise ValueError(f"rows of width {rows.shape[1]} do not match "
                             f"weights {w.shape[0]}")
        accounting.add_macs("forward", accounting.matmul_macs(
            rows.shape[0], rows.shape[1], w.shape[1]))
        if z is None:  # one row per sample and output position
            z = np.empty((len(x) * math.prod(grid), w.shape[1]))
        np.matmul(rows, w_rows, out=z[start:start + len(rows)])
        start += len(rows)
        del rows  # before the next block is built
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


def _draw(spec, rows, seed):
    """The (rows, out_channels) projection of a hidden layer drawn from its
    target's ``seed`` field, "q_seed" or "u_seed"."""
    if spec.target is None:
        raise ValueError(f"{spec.kind} layer has no target generation spec")
    return gaussian_matrix(rows, spec.out_channels,
                           SeededRng(getattr(spec.target, seed)))


def _draw_q(spec, in_dim):
    return _draw(spec, in_dim, "q_seed")


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
    q, u : a hidden layer's projections, held by the returned layer. One
        not given is drawn from its target seed; the layer holds a drawn q
        only as random features' w, and draws it again on its first read.
    mode : "closed_form" accumulates Gram sums in one pass and solves the
        ridge once at the end; an IterativeConfig takes one gradient step on
        the same objective per batch, over ``epochs`` passes.
    targets : a hidden layer's target source, called on every batch (or
        block of a batch, below) as ``targets(rows, y, q, u, spec.target)``,
        with its design rows and labels, one row per sample; a conv layer's
        rows hold each sample's window positions in turn. It returns one row
        of target potentials per design row, or None when the weights are q
        itself and no pass is needed. Defaults to ``generate_targets``.

    The output layer's targets are the labels. Its rows gain a last,
    constant intercept column, and the solvers get ``intercept=True``,
    which leaves that column's weight row out of the ridge penalty, so
    shifting all activations by a constant moves only the intercept.

    A conv layer's window rows are channels-last, so ``targets`` gets q's
    rows in that order and the weights are fitted in it; the returned w and
    q are channel-major (see the module docstring).

    In closed form a conv layer builds each batch's rows a block of samples
    at a time (``_blocks``, at most WINDOW_BLOCK_BYTES of rows): ``targets``
    is called on each block, with the block's labels, and the block is
    folded into the Gram sums before the next one is built, so the weights
    differ from those of whole batches by the rounding of the sums only. An
    iterative step takes the gradient of the whole batch, so it builds the
    batch's rows whole.
    """
    if spec.kind == "global_avg_pool":
        raise ValueError(f"fit_layer handles trainable and output layers, "
                         f"not {spec.kind}")
    iterative = _is_iterative(mode)
    output = spec.kind == "output"
    drawn_q = q is None and not output
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
            x_batch = np.asarray(x_batch, dtype=np.float64)
            # a gradient step takes the whole batch; the Gram sums take it a
            # block at a time
            blocks = [...] if iterative else _blocks(spec, x_batch)
            for block in blocks:
                rows, _ = _rows(spec, x_batch[block])
                if block is blocks[-1]:
                    del x_batch  # the rows hold all this step needs of it
                yb = y[block]
                if output:  # fit the labels
                    z, width = yb, yb.shape[1]
                else:
                    if q_rows is None:
                        if q is None:
                            q = _draw_q(spec, rows.shape[1])
                        if u is None:
                            u = _draw(spec, yb.shape[1], "u_seed")
                        q_rows = _window_rows_order(spec, q,
                                                    channels_last=True)
                    z = source(rows, yb, q_rows, u, spec.target)
                    if z is None:
                        return TrainedLayer(spec, w=q, q=q, u=u)
                    width = spec.out_channels
                if iterative:
                    if w is None:
                        w = np.zeros((rows.shape[1], width))
                    w = iterative_update(w, rows, z, mode.eta, ridge.lam,
                                         output)
                    accounting.note_matrices(w, q, u, rows, z)
                else:
                    if acc is None:
                        acc = GramAccumulator(rows.shape[1], width)
                    acc.update(rows, z)
                    # kept batches already count this block's rows and targets
                    accounting.note_matrices(acc, q, u,
                                             *(() if acc.kept else (rows, z)))
                # let this block go before the next one is built
                del rows, yb, z
            # and this batch before the stream builds the next one
            del y_batch, y
    if acc is None and w is None:
        raise ValueError("stream produced no batches")
    if not iterative:
        w = fit_weights(acc, ridge, output)
    w = _window_rows_order(spec, w, channels_last=False)
    layer = TrainedLayer(spec, w=w, q=q, u=u)
    if drawn_q:  # no later step and no prediction reads it
        del layer.q
    return layer


def _dataset_xy(dataset):
    if hasattr(dataset, "x") and hasattr(dataset, "y"):
        names = list(getattr(dataset, "class_names", []))
        return as_samples(dataset.x), as_matrix(dataset.y, "y"), names
    x, y = dataset
    return as_samples(x), as_matrix(y, "y"), []


def make_batches(x, y, batch_size):
    """Factory over contiguous (x, y) slices of ``batch_size`` rows in stored
    order, the batches of fits and of ``network_forward``; ``Pixels`` become
    float64 one slice at a time. Zero rows make one empty batch, which the
    first layer rejects."""
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    n = x.shape[0]
    if y.shape[0] != n:
        raise ValueError("x and y disagree on sample count")

    def factory():
        for start in range(0, max(n, 1), batch_size):
            yield x[start:start + batch_size], y[start:start + batch_size]

    return factory


def fit_network(specs, dataset, mode="closed_form", batch_size=256,
                targets=None, projections=None):
    """Fit a whole network layer by layer, front to back.

    Each trainable layer consumes exactly one pass over its input in
    closed-form mode (``IterativeConfig.epochs`` passes in iterative mode),
    with earlier layers already frozen. No error signal ever flows backward.
    Right after a layer is fitted, its output is computed once and kept for
    the layers after it if it fits INFERENCE_BUDGET_BYTES together with a
    batch's live set in any later step (as the shapes size them); any other
    output is recomputed from the last kept input for each layer that reads
    it. The batches are the same either way, and so are the weights, bit
    for bit.

    dataset : anything with .x / .y / .class_names, or an (x, y) pair, whose
        samples the specs must chain from (ValueError before any batch).
    mode : "closed_form" or an IterativeConfig, whose batch size then
        replaces ``batch_size``.
    batch_size : rows a closed-form fit streams per batch (``make_batches``,
        as ``network_forward`` does), within two bounds. Batches of narrow
        rows grow until their widest design rows or output hold as many
        floats as the largest Gram matrix the fit accumulates, and no batch
        holds more than INFERENCE_BUDGET_BYTES in any layer step (as
        ``inference_batch_rows`` sizes it): 34 images on the 28x28 conv
        benchmark net; a 784 -> 1000 x 3 MLP grows to 1001 rows, under its
        cap of 1042. The Gram sums, and so the weights up to rounding, do
        not depend on where batches end.
    targets : the hidden layers' target source, as in ``fit_layer``;
        Forward Projection's ``generate_targets`` by default.
    projections : one (q, u) pair per spec (None for pooling and output
        layers), as ``draw_projections`` gives them, held by their layers;
        by default each layer draws and holds its own as ``fit_layer`` does.
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
    walk = _fit_walk(specs, x.shape[1:], y.shape[1])
    if iterative:
        batch_size = mode.batch
    else:
        # design rows grown no larger than the Gram sums, which do not grow
        # with n, and never a live set past the working-set budget
        gram = max(width for width, _, _ in walk)
        widest = max(max(width, shape[0]) * math.prod(shape[1:])
                     for width, _, shape in walk if width)
        batch_size = min(max(batch_size, gram * gram // widest),
                         _budget_rows(walk))
    source, prefix = make_batches(x, y, batch_size), []
    if not class_names:
        class_names = [str(i) for i in range(y.shape[1])]

    trained = []
    for k, (spec, drawn) in enumerate(zip(specs, projections)):
        q, u = drawn or (None, None)
        layer = (TrainedLayer(spec) if spec.kind == "global_avg_pool"
                 else fit_layer(spec, _replay(source, prefix), q=q, u=u,
                                mode=mode, targets=targets))
        trained.append(layer)
        prefix.append(layer)
        # kept, the output stays beside every later step's batch live set
        if (k + 1 < len(specs)
                and 8 * (len(x) * math.prod(walk[k][2])
                         + min(batch_size, len(x))
                         * max(live for _, live, _ in walk[k + 1:]))
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
    return _stream_factory(list(stream()))


def draw_projections(specs, sample_shape, label_dim):
    """The (q, u) pair of each layer of ``specs``, None for pooling and
    output layers, drawn exactly as ``fit_layer`` draws them for input
    samples shaped ``sample_shape``.

    The arrays are read-only, so that no fit sharing them can change them.
    """
    specs = list(specs)
    walk = _fit_walk(specs, sample_shape, label_dim)
    drawn = [None if spec.kind in ("global_avg_pool", "output")
             else (_draw_q(spec, width), _draw(spec, label_dim, "u_seed"))
             for spec, (width, _, _) in zip(specs, walk)]
    for m in (m for pair in drawn if pair for m in pair):
        m.setflags(write=False)
    return drawn


def _shape_walk(layers, sample_shape, label_dim=None):
    """One sample shaped ``sample_shape`` walked through ``layers``, the
    specs of a fit or the trained layers of a prediction: the one walk that
    sizes fits, predictions and conv blocks (``_budget_rows``, ``_fit_walk``,
    ``_blocks``).

    A spec's rows are as wide as the shapes make them, and its output has
    ``out_channels`` channels (``label_dim`` for the output layer). A
    trained layer's ``w`` must fit the shapes: its rows are the design
    rows' width (an output layer's take no intercept column if they match
    its input), its columns the output channels.

    Returns one (width, built, shape) per layer: the width of the layer's
    design rows, also the side of the Gram matrix its fit accumulates (0 for
    pooling); the floats the sample holds at once while the step runs, that
    is its input, what the step builds from it and its output; and the
    shape of its output. A conv layer builds its window matrix, counted
    whole though ``_blocks`` builds it a block at a time; a dense or output
    layer builds a copy of its rows when it adds an intercept column or
    flattens a conv layer's output, which lies channels-last in memory.
    None when the shapes do not chain, or a weighted trained layer has no
    2-D ``w``.
    """
    shape, walk, from_conv = tuple(sample_shape), [], False
    for layer in layers:
        spec = getattr(layer, "spec", layer)  # a TrainedLayer, or a spec
        kind, n_in = spec.kind, math.prod(shape)
        w_in, w_out = None, (label_dim if kind == "output"
                             else spec.out_channels)
        if spec is not layer and kind != "global_avg_pool":
            if not (isinstance(layer.w, np.ndarray) and layer.w.ndim == 2):
                return None
            w_in, w_out = layer.w.shape
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


def _fit_walk(specs, sample_shape, label_dim):
    """The ``_shape_walk`` of the specs of a fit; ValueError when they do
    not chain from samples shaped ``sample_shape``."""
    walk = _shape_walk(specs, sample_shape, label_dim)
    if walk is None:
        raise ValueError(f"layers do not chain from samples shaped "
                         f"{tuple(sample_shape)}")
    return walk


def _budget_rows(walk):
    """Rows per batch whose live set in every step of the ``_shape_walk``
    ``walk`` fits INFERENCE_BUDGET_BYTES, at least 1; None when the walk is
    None or no layer has weights."""
    if not any(width for width, _, _ in walk or ()):
        return None
    return max(1, INFERENCE_BUDGET_BYTES
               // (8 * max(built for _, built, _ in walk)))


def inference_batch_rows(layers, sample_shape):
    """Rows per batch that keep inference through ``layers`` within
    INFERENCE_BUDGET_BYTES, at least 1: the budget over what one sample
    shaped ``sample_shape`` holds at once in the step that holds the most
    (``_shape_walk``, ``_budget_rows``). That is 34 images on the 28x28 conv
    benchmark net and 1042 rows on a 784 -> 1000 x 3 MLP of 10 classes. None
    when a layer cannot be sized (no weights, or shapes that do not chain).
    """
    return _budget_rows(_shape_walk(layers, sample_shape))


def network_forward(net, x, upto=None):
    """Activations after the first ``upto`` layers (all layers if None).

    The batches are a fit's: ``make_batches`` slices of
    ``inference_batch_rows`` rows, with no labels, run through the layers by
    ``_replay``. Each is written into the output, allocated after the first
    batch with its memory layout, so memory beyond the output stays within
    INFERENCE_BUDGET_BYTES: 2000 rows through a 784 -> 1000 x 3 MLP run as
    two batches. An input of one batch comes back as the layers give it.
    """
    layers = net.layers if upto is None else net.layers[:upto]
    if not isinstance(x, Pixels):  # Pixels convert a batch at a time
        x = np.asarray(x)
    if x.ndim < 1:
        raise ValueError("input needs a leading sample axis")
    n = len(x)
    rows = inference_batch_rows(layers, x.shape[1:]) if x.ndim >= 2 else None
    rows = rows or max(n, 1)  # layers that cannot be sized take one batch
    batches = _replay(make_batches(x, np.empty((n, 0)), rows), layers)()
    first, _ = next(batches)
    if n <= rows:  # float64 even through no layers
        return np.asarray(first, dtype=np.float64)
    out = np.empty_like(first, shape=(n, *first.shape[1:]))
    out[:rows] = first
    del first
    for start in range(rows, n, rows):
        out[start:start + rows] = next(batches)[0]
    return out


def predict(net, x):
    """Raw output scores and argmax labels (ties resolve to the lowest index)."""
    scores = network_forward(net, x)
    return scores, np.argmax(scores, axis=1)

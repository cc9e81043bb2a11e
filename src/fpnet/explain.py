"""Layer-wise explanations: per-position class evidence and input reconstruction.

A fitted hidden layer's potentials are approximately
g(a_prev @ q) + g(y @ u) + alpha. Subtracting the part driven by the input
and undoing g leaves the label contribution, which the right
pseudo-inverse of u maps back to class space:

    yhat = g_inv(z - g(a_prev @ q) - alpha) @ u_pinv

For g = identity the inverse is exact; for g = sign the smooth surrogate
tanh stands in for the (non-invertible) inverse. Other target
nonlinearities are not supported. Swapping the roles of q and u instead
recovers the input that the potentials encode. Conv windows are built and
averaged back by ``layers``, in the layer's own order and geometry.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import UnsupportedNonlinearityError
from .layers import CONV_DIMS, average_windows, potentials
from .linalg import activate, as_matrix, pseudo_inverse_rows

SUPPORTED_G = ("sign", "identity")


@dataclass(frozen=True)
class SpatialOrigin:
    """Where map positions sit in input coordinates.

    Position p along axis j has its window centre at
    offsets[j] + p * steps[j], measured in input pixels. Composing conv
    layers multiplies steps by the stride and shifts offsets by the
    centre of the kernel.
    """

    offsets: tuple
    steps: tuple

    def centre(self, position):
        return tuple(o + p * s for o, s, p in
                     zip(self.offsets, self.steps, position))


def identity_origin(ndim):
    return SpatialOrigin(offsets=(0.0,) * ndim, steps=(1.0,) * ndim)


def compose_origin(origin, kernel, stride):
    """Origin of a conv layer's output grid given its input grid's origin."""
    offsets = tuple(o + s * (k - 1) / 2.0
                    for o, s, k in zip(origin.offsets, origin.steps, kernel))
    steps = tuple(s * stride for s in origin.steps)
    return SpatialOrigin(offsets=offsets, steps=steps)


def input_origin(prefix_layers, ndim):
    """Origin of the grid produced by a prefix of trained layers.

    Returns None once a non-conv layer breaks the spatial correspondence.
    """
    origin = identity_origin(ndim)
    for tl in prefix_layers:
        if tl.spec.kind in CONV_DIMS:
            origin = compose_origin(origin, tl.spec.kernel, tl.spec.stride)
        else:
            return None
    return origin


@dataclass
class ExplanationMap:
    """Class evidence read out of one layer's potentials.

    values : (N, *spatial, label_dim); spatial is empty for dense layers.
    origin : grid geometry in input coordinates, or None when unknown.
    """

    layer_index: int
    values: np.ndarray
    origin: SpatialOrigin | None = None

    @property
    def spatial(self):
        return self.values.shape[1:-1]

    @property
    def label_dim(self):
        return self.values.shape[-1]


def _inverse_g(layer):
    """g_inv of a layer that can be decoded: one with a supported target g
    and both projections."""
    target = layer.spec.target
    if target is None:
        raise ValueError("layer has no target generation spec")
    if target.g not in SUPPORTED_G:
        raise UnsupportedNonlinearityError(
            f"no inverse rule for target nonlinearity {target.g!r}")
    if layer.q is None or layer.u is None:
        raise ValueError("layer is missing its target projections")
    return np.tanh if target.g == "sign" else (lambda v: v)


def _decode(layer, z, known, pinv):
    """g_inv(z - known - alpha) @ pinv along axis 1 of potentials ``z``,
    (N, m, *spatial'), ``known`` broadcast to them; (N, *spatial', r)."""
    d = np.moveaxis(z - known, 1, -1)
    d -= layer.spec.target.alpha
    d = _inverse_g(layer)(d)
    return (d.reshape(-1, d.shape[-1]) @ pinv).reshape(*d.shape[:-1], -1)


def explain_layer(layer, a_prev, z=None, origin=None, layer_index=0):
    """Map one layer's potentials to per-class evidence.

    a_prev : the layer's input batch (whatever ``forward`` consumed).
    z : the layer's potentials for that batch; (N, m) for dense layers,
        (N, m, *spatial') for conv layers. By default they are computed
        here, from the layer's weights w.
    origin : grid geometry of a_prev in input coordinates (conv stacks);
        defaults to the identity grid.

    g(a_prev @ q) comes from ``layers.potentials`` of the layer with q as
    its weights, so a conv layer's windows are built as ``forward`` builds
    them. Without ``z``, one such call takes w and q side by side, so the
    windows are built once for both. Returns an ExplanationMap whose
    trailing axis indexes classes.
    """
    spec = layer.spec
    _inverse_g(layer)  # an undecodable layer fails before any work
    u_pinv = pseudo_inverse_rows(layer.u)
    if z is None:
        if layer.w is None:
            raise ValueError(f"{spec.kind} layer has no weights")
        both = potentials(replace(layer, w=np.hstack([layer.w, layer.q])),
                          a_prev)
        z, a_q = np.split(both, [layer.w.shape[1]], axis=1)
    else:
        a_q = potentials(replace(layer, w=layer.q), a_prev)
    g_in = activate(spec.target.g, a_q, in_place=True)
    z = np.asarray(z, dtype=np.float64)
    if z.shape != g_in.shape:
        raise ValueError(f"potentials shaped {z.shape}, expected {g_in.shape}")
    values = _decode(layer, z, g_in, u_pinv)
    if spec.kind not in CONV_DIMS:
        return ExplanationMap(layer_index, values, origin=None)
    return ExplanationMap(layer_index, values, origin=compose_origin(
        origin or identity_origin(len(spec.kernel)), spec.kernel, spec.stride))


def reconstruct_input(layer, z, y):
    """Recover the layer input encoded in its potentials.

    ahat = g_inv(z - g(y @ u) - alpha) @ q_pinv, g(y @ u) once per sample
    for all positions of a conv layer's grid. Needs the input dimension
    (per window, for conv layers) to be at most the layer width, otherwise
    q has no right inverse and RankDeficientError is raised.

    Dense layers return an (N, d) matrix of flattened inputs; conv layers
    reconstruct each window and average overlaps back into an
    (N, C, *spatial) tensor (cells no window covers are left at zero).
    """
    spec = layer.spec
    _inverse_g(layer)  # an undecodable layer fails before any work
    q_pinv = pseudo_inverse_rows(layer.q)
    y = as_matrix(y, "y")
    z = np.asarray(z, dtype=np.float64)
    grid = z.shape[2:]
    if (z.shape[:2] != (y.shape[0], layer.u.shape[1])
            or len(grid) != CONV_DIMS.get(spec.kind, 0)):
        raise ValueError(f"potentials shaped {z.shape} do not fit {spec.kind}"
                         f" layer width {layer.u.shape[1]}, {len(y)} labels")
    g_label = activate(spec.target.g, y @ layer.u, in_place=True)
    per_sample = g_label.reshape(*g_label.shape, *(1,) * len(grid))
    rows = _decode(layer, z, per_sample, q_pinv)
    if not grid:
        return rows
    return average_windows(rows, grid, spec.kernel, spec.stride)


def render_map(emap, class_index, upsample_to):
    """Nearest-neighbour upsampling of one class's evidence map.

    Multi-sample maps are averaged over the sample axis first. Dense maps
    (no spatial axes) render as a constant image. ``upsample_to`` is the
    output's spatial shape, a sequence such as ``x.shape[2:]``; the result
    is a float array of that shape.
    """
    if not (0 <= class_index < emap.label_dim):
        raise ValueError(f"class_index {class_index} out of range")
    upsample_to = tuple(int(d) for d in upsample_to)
    if any(d < 1 for d in upsample_to):
        raise ValueError("upsample dimensions must be positive")
    vals = emap.values[..., class_index].mean(axis=0)
    if vals.ndim == 0:
        return np.full(upsample_to, float(vals))
    if vals.ndim != len(upsample_to):
        raise ValueError(
            f"map has {vals.ndim} spatial axes, target has {len(upsample_to)}")
    picks = []
    for axis, n_out in enumerate(upsample_to):
        p = vals.shape[axis]
        coords = np.arange(n_out, dtype=np.float64)
        if emap.origin is not None:
            off = emap.origin.offsets[axis]
            step = emap.origin.steps[axis]
            src = np.rint((coords - off) / step) if step > 0 else np.zeros(n_out)
        else:
            src = np.floor(coords * p / n_out)
        picks.append(np.clip(src, 0, p - 1).astype(int))
    return vals[np.ix_(*picks)]


def write_map_csv(grid, path):
    """Write a rendered map as row,col,score lines (1-D grids get row 0)."""
    grid = np.ascontiguousarray(np.atleast_2d(grid), dtype=np.float64)
    # each distinct value is formatted once; keying on the bit patterns
    # keeps -0.0 apart from 0.0. Python floats format as numpy's do.
    keys, which = np.unique(grid.view(np.uint64), return_inverse=True)
    texts = [f"{v:.10g}\n" for v in keys.view(np.float64).tolist()]
    cols = [f",{c}," for c in range(grid.shape[1])]
    lines = []
    for r, row in enumerate(which.reshape(grid.shape).tolist()):
        head = str(r)
        lines += [head + col + texts[i] for col, i in zip(cols, row)]
    with open(path, "w") as fh:
        fh.write("row,col,score\n" + "".join(lines))


def write_map_pgm(grid, path):
    """Write a rendered map as a binary 8-bit PGM, min-max normalised.

    A constant map writes as all zeros.
    """
    grid = np.atleast_2d(np.asarray(grid, dtype=np.float64))
    lo, hi = float(grid.min()), float(grid.max())
    if hi > lo:
        pixels = np.rint((grid - lo) / (hi - lo) * 255.0).astype(np.uint8)
    else:
        pixels = np.zeros(grid.shape, dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{grid.shape[1]} {grid.shape[0]}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes())

"""Layer-wise explanations: per-position class evidence and input reconstruction.

A fitted hidden layer's potentials are approximately
g(a_prev @ q) + g(y @ u) + alpha. Subtracting the part driven by the input
and undoing g leaves the label contribution, which the right
pseudo-inverse of u maps back to class space:

    yhat = g_inv(z - g(a_prev @ q) - alpha) @ u_pinv

For g = identity the inverse is exact; for g = sign the smooth surrogate
tanh stands in for the (non-invertible) inverse. Other target
nonlinearities are not supported. Swapping the roles of q and u instead
recovers the input that the potentials encode.
"""

from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedNonlinearityError
from .layers import conv_output_shape, extract_windows, _flatten
from .core import apply_g
from .linalg import as_matrix, pseudo_inverse_rows

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
        if tl.spec.kind in ("conv1d", "conv2d"):
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


def _inverse_pair(target):
    if target is None:
        raise ValueError("layer has no target generation spec")
    if target.g not in SUPPORTED_G:
        raise UnsupportedNonlinearityError(
            f"no inverse rule for target nonlinearity {target.g!r}")
    if target.g == "sign":
        return lambda v: np.tanh(v)
    return lambda v: v


def _decode(layer, z, known, proj, pinv):
    """g_inv(z - g(known @ proj) - alpha) @ pinv, a row per row of ``known``:
    per sample, or per window position of a conv layer's (N, m, *spatial') z."""
    target = layer.spec.target
    z_rows = np.moveaxis(z, 1, -1).reshape(known.shape[0], proj.shape[1])
    g_known = apply_g(target.g, known @ proj, in_place=True)
    return _inverse_pair(target)(z_rows - g_known - target.alpha) @ pinv


def explain_layer(layer, a_prev, z, origin=None, layer_index=0):
    """Map one layer's potentials to per-class evidence.

    a_prev : the layer's input batch (whatever ``forward`` consumed).
    z : the layer's potentials for that batch; (N, m) for dense layers,
        (N, m, *spatial') for conv layers.
    origin : grid geometry of a_prev in input coordinates (conv stacks);
        defaults to the identity grid.

    Returns an ExplanationMap whose trailing axis indexes classes.
    """
    spec = layer.spec
    _inverse_pair(spec.target)  # an unsupported g fails before any work
    if layer.q is None or layer.u is None:
        raise ValueError("layer is missing its target projections")
    u_pinv = pseudo_inverse_rows(layer.u)

    if spec.kind == "dense":
        a = _flatten(a_prev)
        z = as_matrix(z, "z")
        if z.shape != (a.shape[0], layer.q.shape[1]):
            raise ValueError(f"potentials shaped {z.shape} do not match layer")
        return ExplanationMap(layer_index, _decode(layer, z, a, layer.q, u_pinv),
                              origin=None)

    if spec.kind in ("conv1d", "conv2d"):
        x = np.asarray(a_prev, dtype=np.float64)
        rows = extract_windows(x, spec.kernel, spec.stride)
        out_spatial = conv_output_shape(x.shape[2:], spec.kernel, spec.stride)
        z = np.asarray(z, dtype=np.float64)
        want = (x.shape[0], layer.q.shape[1], *out_spatial)
        if z.shape != want:
            raise ValueError(f"potentials shaped {z.shape}, expected {want}")
        yhat = _decode(layer, z, rows, layer.q, u_pinv)
        values = yhat.reshape(x.shape[0], *out_spatial, u_pinv.shape[1])
        if origin is None:
            origin = identity_origin(len(out_spatial))
        return ExplanationMap(layer_index, values,
                              origin=compose_origin(origin, spec.kernel,
                                                    spec.stride))
    raise ValueError(f"cannot explain {spec.kind} layers")


def _windows_to_tensor(rows, n, channels, spatial, kernel, stride):
    """Overlap-averaging inverse of extract_windows (zero where uncovered)."""
    out_spatial = conv_output_shape(spatial, kernel, stride)
    acc = np.zeros((n, channels, *spatial))
    cnt = np.zeros(spatial)
    per = rows.reshape(n, *out_spatial, channels, *kernel)
    if len(spatial) == 1:
        (t,), (k,), (p,) = spatial, kernel, out_spatial
        for j in range(p):
            start = j * stride
            acc[:, :, start:start + k] += per[:, j]
            cnt[start:start + k] += 1.0
    else:
        (k1, k2), (p1, p2) = kernel, out_spatial
        for j1 in range(p1):
            for j2 in range(p2):
                r, c = j1 * stride, j2 * stride
                acc[:, :, r:r + k1, c:c + k2] += per[:, j1, j2]
                cnt[r:r + k1, c:c + k2] += 1.0
    covered = cnt > 0
    acc[..., covered] /= cnt[covered]
    return acc


def reconstruct_input(layer, z, y):
    """Recover the layer input encoded in its potentials.

    ahat = g_inv(z - g(y @ u) - alpha) @ q_pinv. Needs the input dimension
    (per window, for conv layers) to be at most the layer width, otherwise
    q has no right inverse and RankDeficientError is raised.

    Dense layers return an (N, d) matrix of flattened inputs; conv layers
    reconstruct each window and average overlaps back into an
    (N, C, *spatial) tensor (cells no window covers are left at zero).
    """
    spec = layer.spec
    _inverse_pair(spec.target)  # an unsupported g fails before any work
    if layer.q is None or layer.u is None:
        raise ValueError("layer is missing its target projections")
    q_pinv = pseudo_inverse_rows(layer.q)
    y = as_matrix(y, "y")

    if spec.kind == "dense":
        z = as_matrix(z, "z")
        if z.shape[0] != y.shape[0]:
            raise ValueError("z and y disagree on sample count")
        return _decode(layer, z, y, layer.u, q_pinv)

    if spec.kind in ("conv1d", "conv2d"):
        z = np.asarray(z, dtype=np.float64)
        n = z.shape[0]
        out_spatial = z.shape[2:]
        positions = int(np.prod(out_spatial)) if out_spatial else 1
        y_rows = np.repeat(y, positions, axis=0)
        rows = _decode(layer, z, y_rows, layer.u, q_pinv)
        channels = layer.q.shape[0] // int(np.prod(spec.kernel))
        spatial = tuple((p - 1) * spec.stride + k
                        for p, k in zip(out_spatial, spec.kernel))
        return _windows_to_tensor(rows, n, channels, spatial, spec.kernel,
                                  spec.stride)
    raise ValueError(f"cannot reconstruct inputs of {spec.kind} layers")


def render_map(emap, class_index, upsample_to):
    """Nearest-neighbour upsampling of one class's evidence map.

    Multi-sample maps are averaged over the sample axis first. Dense maps
    (no spatial axes) render as a constant image. Returns a float array
    shaped ``upsample_to``.
    """
    if not (0 <= class_index < emap.label_dim):
        raise ValueError(f"class_index {class_index} out of range")
    if isinstance(upsample_to, int):
        upsample_to = (upsample_to,)
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
    if vals.ndim == 1:
        return vals[picks[0]]
    return vals[np.ix_(picks[0], picks[1])]


def write_map_csv(grid, path):
    """Write a rendered map as row,col,score lines (1-D grids get row 0)."""
    grid = np.atleast_2d(np.asarray(grid, dtype=np.float64))
    with open(path, "w") as fh:
        fh.write("row,col,score\n")
        for r in range(grid.shape[0]):
            for c in range(grid.shape[1]):
                fh.write(f"{r},{c},{grid[r, c]:.10g}\n")


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

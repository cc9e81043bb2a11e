"""Versioned on-disk container for trained networks.

Layout (all integers and floats little-endian):

    bytes 0..3   magic b"FPCK"
    bytes 4..7   uint32 format version (currently 1)
    bytes 8..11  uint32 header length H
    bytes 12..   H bytes of UTF-8 JSON: label_dim, class_names, and per
                 layer its spec fields plus the names of the matrices
                 that follow
    then, per listed matrix in layer order:
                 uint64 rows, uint64 cols, rows*cols float64, row-major

The random projections q and u are stored in full alongside the weights,
so explanations work on a loaded network without re-deriving anything.
Readers reject files whose version is newer than they understand.
"""

import dataclasses
import json
import math
import struct

import numpy as np

from .core import RidgeConfig, TargetGenSpec
from .errors import CheckpointFormatError
from .layers import CONV_DIMS, LayerSpec, Network, TrainedLayer

MAGIC = b"FPCK"
VERSION = 1

_MATRIX_FIELDS = ("w", "q", "u")


def _layer_header(tl):
    return {**dataclasses.asdict(tl.spec),
            "matrices": [f for f in _MATRIX_FIELDS if getattr(tl, f) is not None]}


def save_network(net, path):
    """Write a network checkpoint. Identical networks produce identical bytes."""
    header = {
        "label_dim": net.label_dim,
        "class_names": list(net.class_names),
        "layers": [_layer_header(tl) for tl in net.layers],
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", VERSION, len(blob)))
        fh.write(blob)
        for tl in net.layers:
            for name in _MATRIX_FIELDS:
                m = getattr(tl, name)
                if m is None:
                    continue
                m = np.ascontiguousarray(m, dtype=np.float64)
                fh.write(struct.pack("<QQ", m.shape[0], m.shape[1]))
                fh.write(m.astype("<f8", copy=False).tobytes())


def _take(buf, offset, count, what):
    if len(buf) < offset + count:
        raise CheckpointFormatError(
            f"checkpoint truncated reading {what} at byte {offset}")
    return buf[offset:offset + count], offset + count


def _fields(cls, entry, where, extra=()):
    """``entry``'s values for the fields of dataclass ``cls``; its keys must
    be exactly those fields plus ``extra``."""
    names = [f.name for f in dataclasses.fields(cls)]
    if not isinstance(entry, dict) or entry.keys() != {*names, *extra}:
        raise CheckpointFormatError(
            f"{where} does not hold exactly the fields of {cls.__name__}")
    return {name: entry[name] for name in names}


def _spec_from_header(entry, i):
    fields = _fields(LayerSpec, entry, f"layer {i}", extra=("matrices",))
    for key, cls in (("target", TargetGenSpec), ("ridge", RidgeConfig)):
        if fields[key] is not None:
            fields[key] = cls(**_fields(cls, fields[key], f"layer {i} {key}"))
    fields["kernel"] = tuple(fields["kernel"])  # a list; a bare int is malformed
    return LayerSpec(**fields)


def _check_shapes(layers, label_dim):
    """Raise CheckpointFormatError unless each layer's w, q and u fit its
    spec, the label width and the layer before it.

    ``width`` is what the previous layer emits: features, or channels when
    ``spatial`` (a conv output, whose extent is not stored). Nothing states
    the network's input width, so the first layer's is taken as it is.
    """
    width, spatial = None, False
    for i, tl in enumerate(layers):
        spec = tl.spec
        if spec.kind == "global_avg_pool":
            ok = (tl.w is None and tl.q is None and tl.u is None
                  and (width is None or spatial))
            spatial = False
        else:
            conv = spec.kind in CONV_DIMS
            out = label_dim if spec.kind == "output" else spec.out_channels
            fan_in, cols = tl.w.shape
            if conv:
                per = math.prod(spec.kernel)
                fits = fan_in % per == 0 and (
                    width is None or (spatial and fan_in == width * per))
            else:  # an output layer's weights may end in an intercept row
                fans = (fan_in, fan_in - 1) if spec.kind == "output" else (fan_in,)
                fits = width is None or any(
                    f > 0 and (f == width or (spatial and f % width == 0))
                    for f in fans)
            if spec.kind == "output":
                projections = tl.q is None and tl.u is None
            else:
                projections = ((tl.q is None or tl.q.shape == tl.w.shape) and
                               (tl.u is None or tl.u.shape == (label_dim, out)))
            ok = fan_in > 0 and cols == out and fits and projections
            width, spatial = out, conv
        if not ok:
            shapes = {f: getattr(tl, f).shape for f in _MATRIX_FIELDS
                      if getattr(tl, f) is not None}
            raise CheckpointFormatError(
                f"layer {i} ({spec.kind}): matrix shapes {shapes} do not fit "
                f"its spec, the label width or the layer before")


def _decode_network(header, buf, off):
    """Network and end offset from a parsed header and the matrices at ``off``."""
    layers = []
    for i, entry in enumerate(header["layers"]):
        spec = _spec_from_header(entry, i)
        names = entry["matrices"]
        if not isinstance(names, list):
            raise CheckpointFormatError(f"layer {i}: matrices must be a list")
        matrices = {}
        for name in names:
            if name not in _MATRIX_FIELDS:
                raise CheckpointFormatError(f"unknown matrix field {name!r}")
            if name in matrices:
                raise CheckpointFormatError(f"layer {i}: {name} listed twice")
            raw, off = _take(buf, off, 16, f"{name} shape")
            rows, cols = struct.unpack("<QQ", raw)
            raw, off = _take(buf, off, rows * cols * 8, f"{name} data")
            matrices[name] = np.frombuffer(raw, dtype="<f8").reshape(rows, cols)
        if spec.kind != "global_avg_pool" and "w" not in matrices:
            raise CheckpointFormatError(f"layer {i} ({spec.kind}) has no weights")
        layers.append(TrainedLayer(spec, **matrices))
    _check_shapes(layers, header["label_dim"])
    return Network(layers, label_dim=header["label_dim"],
                   class_names=header["class_names"]), off


def load_network(path):
    """Read a checkpoint written by save_network.

    Any structural fault in the file raises CheckpointFormatError, as do
    matrix shapes that do not chain from layer to layer.
    """
    with open(path, "rb") as fh:
        buf = fh.read()
    head, off = _take(buf, 0, 4, "magic")
    if head != MAGIC:
        raise CheckpointFormatError(f"not a checkpoint: magic {head!r}")
    raw, off = _take(buf, off, 8, "version fields")
    version, header_len = struct.unpack("<II", raw)
    if version > VERSION:
        raise CheckpointFormatError(
            f"checkpoint version {version} is newer than supported {VERSION}")
    blob, off = _take(buf, off, header_len, "header")
    try:
        header = json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as e:
        raise CheckpointFormatError(f"bad checkpoint header: {e}") from e
    try:
        net, off = _decode_network(header, buf, off)
    except (AttributeError, KeyError, TypeError, ValueError) as e:
        raise CheckpointFormatError(
            f"bad checkpoint structure: {type(e).__name__}: {e}") from e
    if off != len(buf):
        raise CheckpointFormatError(f"trailing bytes after matrices at {off}")
    return net

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

import json
import struct

import numpy as np

from .core import RidgeConfig, TargetGenSpec
from .errors import CheckpointFormatError
from .layers import LayerSpec, Network, TrainedLayer

MAGIC = b"FPCK"
VERSION = 1

_MATRIX_FIELDS = ("w", "q", "u")


def _layer_header(tl):
    spec = tl.spec
    entry = {
        "kind": spec.kind,
        "out_channels": spec.out_channels,
        "kernel": list(spec.kernel),
        "stride": spec.stride,
        "activation": spec.activation,
        "target": None,
        "ridge": None,
        "matrices": [f for f in _MATRIX_FIELDS if getattr(tl, f) is not None],
    }
    if spec.target is not None:
        t = spec.target
        entry["target"] = {"g": t.g, "alpha": t.alpha,
                           "q_seed": t.q_seed, "u_seed": t.u_seed}
    if spec.ridge is not None:
        entry["ridge"] = {"lam": spec.ridge.lam, "tau": spec.ridge.tau}
    return entry


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


def _spec_from_header(entry):
    target = entry.get("target")
    if target is not None:
        target = TargetGenSpec(g=target["g"], alpha=target["alpha"],
                               q_seed=target["q_seed"], u_seed=target["u_seed"])
    ridge = entry.get("ridge")
    if ridge is not None:
        ridge = RidgeConfig(lam=ridge["lam"], tau=ridge["tau"])
    return LayerSpec(kind=entry["kind"], out_channels=entry["out_channels"],
                     kernel=tuple(entry["kernel"]), stride=entry["stride"],
                     activation=entry["activation"], target=target, ridge=ridge)


def _decode_network(header, buf, off):
    """Network and end offset from a parsed header and the matrices at ``off``."""
    layers = []
    for i, entry in enumerate(header["layers"]):
        spec = _spec_from_header(entry)
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
    return Network(layers, label_dim=header["label_dim"],
                   class_names=header["class_names"]), off


def load_network(path):
    """Read a checkpoint written by save_network.

    Any structural fault in the file raises CheckpointFormatError.
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

import json
import struct

import numpy as np
import pytest

from fpnet.checkpoint import MAGIC, VERSION, load_network, save_network
from fpnet.bench import fit_method
from fpnet.core import RidgeConfig, TargetGenSpec
from fpnet.data import Dataset, one_hot, synthetic_gaussian_task
from fpnet.errors import CheckpointFormatError
from fpnet.layers import (LayerSpec, fit_network, network_forward, predict)
from fpnet.linalg import SeededRng


def _net(seed=0):
    rng = SeededRng(900 + seed)
    train = synthetic_gaussian_task(300, 8, 3, 3.0, rng)
    specs = [
        LayerSpec("dense", out_channels=12, activation="relu",
                  target=TargetGenSpec(g="sign", q_seed=2, u_seed=3),
                  ridge=RidgeConfig(lam=10.0)),
        LayerSpec("output", ridge=RidgeConfig(lam=1.0)),
    ]
    return fit_network(specs, train), train


class TestRoundTrip:
    def test_matrices_and_topology_survive(self, tmp_path):
        net, train = _net()
        path = tmp_path / "model.fpk"
        save_network(net, path)
        back = load_network(path)
        assert back.label_dim == net.label_dim
        assert back.class_names == net.class_names
        assert len(back.layers) == len(net.layers)
        for a, b in zip(net.layers, back.layers):
            assert a.spec == b.spec
            for field in ("w", "q", "u"):
                ma, mb = getattr(a, field), getattr(b, field)
                if ma is None:
                    assert mb is None
                else:
                    assert ma.tobytes() == mb.tobytes()
        sa, la = predict(net, train.x)
        sb, lb = predict(back, train.x)
        assert np.array_equal(sa, sb)
        assert np.array_equal(la, lb)

    def test_identical_networks_identical_bytes(self, tmp_path):
        net1, _ = _net()
        net2, _ = _net()
        p1, p2 = tmp_path / "a.fpk", tmp_path / "b.fpk"
        save_network(net1, p1)
        save_network(net2, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_conv_and_pool_layers_survive(self, tmp_path):
        rng = SeededRng(77)
        x = rng.standard_normal((40, 1, 6, 6))
        y = one_hot(np.arange(40) % 2)
        from fpnet.data import Dataset
        ds = Dataset(x, y, ["n", "p"])
        specs = [
            LayerSpec("conv2d", out_channels=5, kernel=(3, 3), stride=1,
                      activation="relu",
                      target=TargetGenSpec(g="sign", q_seed=4, u_seed=5),
                      ridge=RidgeConfig(lam=10.0)),
            LayerSpec("global_avg_pool"),
            LayerSpec("output", ridge=RidgeConfig(lam=1.0)),
        ]
        net = fit_network(specs, ds)
        path = tmp_path / "conv.fpk"
        save_network(net, path)
        back = load_network(path)
        assert back.layers[0].spec.kernel == (3, 3)
        assert back.layers[1].w is None
        assert np.array_equal(network_forward(net, x),
                              network_forward(back, x))

    @pytest.mark.parametrize("method", ["fp", "label_projection"])
    def test_fitted_weights_c_order_reload_scores_equal(self, tmp_path, method):
        # weights in the layout a reload gives, so BLAS rounds both alike
        rng = SeededRng(78)
        x = rng.standard_normal((300, 1, 12, 12))
        ds = Dataset(x, one_hot(np.arange(300) % 3), ["a", "b", "c"])
        specs = [
            LayerSpec("conv2d", out_channels=16, kernel=(3, 3),
                      activation="relu", target=TargetGenSpec(q_seed=6, u_seed=7)),
            LayerSpec("conv2d", out_channels=24, kernel=(3, 3), stride=2,
                      activation="relu", target=TargetGenSpec(q_seed=8, u_seed=9)),
            LayerSpec("global_avg_pool"),
            LayerSpec("dense", out_channels=20, activation="relu",
                      target=TargetGenSpec(q_seed=10, u_seed=11)),
            LayerSpec("output"),
        ]
        net = fit_method(method, specs, ds)
        assert all(tl.w.flags.c_contiguous for tl in net.layers
                   if tl.w is not None)
        path = tmp_path / "model.fpk"
        save_network(net, path)
        assert np.array_equal(predict(load_network(path), x)[0],
                              predict(net, x)[0])


def _parts(path):
    """Parsed header and the matrix bytes that follow it."""
    blob = path.read_bytes()
    _, _, hlen = struct.unpack_from("<4sII", blob, 0)
    return json.loads(blob[12:12 + hlen].decode("utf-8")), blob[12 + hlen:]


def _matrix_bytes(m):
    return 16 + m.size * 8


def _drop_layers(h, p, net):
    h["layers"] = []
    return h, b""


def _dense_without_w(h, p, net):
    h["layers"][0]["matrices"] = ["q", "u"]
    return h, p[_matrix_bytes(net.layers[0].w):]


def _output_without_w(h, p, net):
    h["layers"][1]["matrices"] = []
    return h, p[:len(p) - _matrix_bytes(net.layers[1].w)]


def _set(path, value):
    def mutate(h, p, net):
        *outer, last = path
        d = h
        for key in outer:
            d = d[key]
        d[last] = value
        return h, p
    return mutate


def _delete(key):
    def mutate(h, p, net):
        del h[key]
        return h, p
    return mutate


MALFORMED = {
    "header without layers": _delete("layers"),
    "header without label_dim": _delete("label_dim"),
    "list header": lambda h, p, net: ([h], p),
    "string header": lambda h, p, net: ("layers", p),
    "deeply nested header": lambda h, p, net: (b"[" * 100_000, p),
    "layers not a list": _set(["layers"], 7),
    "layer entry not an object": _set(["layers", 0], "dense"),
    "non-list matrices": _set(["layers", 0, "matrices"], 5),
    "string matrices": _set(["layers", 0, "matrices"], "wqu"),
    "matrix listed twice": _set(["layers", 0, "matrices"], ["w", "w", "u"]),
    "unknown layer kind": _set(["layers", 0, "kind"], "bogus"),
    "non-integer out_channels": _set(["layers", 0, "out_channels"], "12"),
    "target not an object": _set(["layers", 0, "target"], [1, 2]),
    "class_names too short": _set(["class_names"], ["a"]),
    "no layers": _drop_layers,
    "dense layer without w": _dense_without_w,
    "output layer without w": _output_without_w,
}


class TestMalformedStructure:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_rejected_as_format_error(self, tmp_path, case):
        net, _ = _net()
        path = tmp_path / "model.fpk"
        save_network(net, path)
        header, payload = MALFORMED[case](*_parts(path), net)
        blob = (header if isinstance(header, bytes)
                else json.dumps(header).encode("utf-8"))
        path.write_bytes(MAGIC + struct.pack("<II", VERSION, len(blob))
                         + blob + payload)
        with pytest.raises(CheckpointFormatError):
            load_network(path)


class TestFormatGuards:
    def test_magic(self, tmp_path):
        path = tmp_path / "bad.fpk"
        path.write_bytes(b"NOPE" + b"\0" * 64)
        with pytest.raises(CheckpointFormatError):
            load_network(path)

    def test_newer_version_rejected(self, tmp_path):
        net, _ = _net()
        path = tmp_path / "model.fpk"
        save_network(net, path)
        blob = bytearray(path.read_bytes())
        struct.pack_into("<I", blob, len(MAGIC), VERSION + 1)
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointFormatError, match="version"):
            load_network(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        net, _ = _net()
        path = tmp_path / "model.fpk"
        save_network(net, path)
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(CheckpointFormatError):
            load_network(path)

    def test_truncation_rejected(self, tmp_path):
        net, _ = _net()
        path = tmp_path / "model.fpk"
        save_network(net, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) - 9])
        with pytest.raises(CheckpointFormatError):
            load_network(path)

    def test_header_is_sorted_json(self, tmp_path):
        net, _ = _net()
        path = tmp_path / "model.fpk"
        save_network(net, path)
        blob = path.read_bytes()
        _, _, hlen = struct.unpack_from("<4sII", blob, 0)
        header = json.loads(blob[12:12 + hlen].decode("utf-8"))
        assert header["label_dim"] == 3
        kinds = [layer["kind"] for layer in header["layers"]]
        assert kinds == ["dense", "output"]

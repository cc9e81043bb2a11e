import dataclasses
import json
import struct

import numpy as np
import pytest

from fpnet.checkpoint import MAGIC, VERSION, load_network, save_network
from fpnet.bench import fit_method
from fpnet.core import RidgeConfig, TargetGenSpec
from fpnet.data import Dataset, one_hot, synthetic_gaussian_task
from fpnet.errors import CheckpointFormatError, FpnetError
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


def _pool_with_ridge(h, p, net):
    pool = {**dataclasses.asdict(LayerSpec("global_avg_pool")), "matrices": []}
    h["layers"].insert(0, {**pool, "ridge": dataclasses.asdict(RidgeConfig())})
    return h, p


def _set(path, value):
    def mutate(h, p, net):
        *outer, last = path
        d = h
        for key in outer:
            d = d[key]
        d[last] = value
        return h, p
    return mutate


def _delete(*path):
    def mutate(h, p, net):
        *outer, last = path
        d = h
        for key in outer:
            d = d[key]
        del d[last]
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
    "float out_channels": _set(["layers", 0, "out_channels"], 12.0),
    "float stride": _set(["layers", 0, "stride"], 2.0),
    "fractional kernel entry": _set(["layers", 0, "kernel"], [1.5]),
    "float label_dim": _set(["label_dim"], 3.0),
    "fractional q_seed": _set(["layers", 0, "target", "q_seed"], 1.5),
    "fractional u_seed": _set(["layers", 0, "target", "u_seed"], 1.5),
    "target not an object": _set(["layers", 0, "target"], [1, 2]),
    "layer with an extra key": _set(["layers", 0, "padding"], 0),
    "layer without stride": _delete("layers", 0, "stride"),
    "target without alpha": _delete("layers", 0, "target", "alpha"),
    "ridge with an extra key": _set(["layers", 0, "ridge", "mu"], 1.0),
    "class_names too short": _set(["class_names"], ["a"]),
    "no layers": _drop_layers,
    "dense layer without w": _dense_without_w,
    "output layer without w": _output_without_w,
    # fields the layer kind does not read
    "dense with stride 2": _set(["layers", 0, "stride"], 2),
    "pool with a ridge": _pool_with_ridge,
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


def _chain_net(dense_after_conv=False):
    """conv2d -> conv2d -> global_avg_pool -> dense -> output on 1x8x8 images,
    or conv2d -> dense -> output."""
    x = SeededRng(79).standard_normal((30, 1, 8, 8))
    ds = Dataset(x, one_hot(np.arange(30) % 3), ["a", "b", "c"])
    conv0 = LayerSpec("conv2d", out_channels=4, kernel=(3, 3),
                      activation="relu", target=TargetGenSpec(q_seed=1, u_seed=2))
    dense = LayerSpec("dense", out_channels=5, activation="relu",
                      target=TargetGenSpec(q_seed=5, u_seed=6))
    if dense_after_conv:
        specs = [conv0, dense, LayerSpec("output")]
    else:
        specs = [conv0,
                 LayerSpec("conv2d", out_channels=6, kernel=(2, 2), stride=2,
                           activation="relu",
                           target=TargetGenSpec(q_seed=3, u_seed=4)),
                 LayerSpec("global_avg_pool"), dense, LayerSpec("output")]
    return fit_network(specs, ds), x


# layer index -> {matrix: new shape}; shapes as fitted: conv w (9, 4) and
# u (3, 4); conv w (16, 6); pool; dense w (6, 5), u (3, 5); output w (6, 3)
BAD_SHAPES = {
    "conv fan-in not a multiple of the kernel": (0, {"w": (10, 4), "q": (10, 4)}),
    "conv fan-in not the previous channels": (1, {"w": (20, 6), "q": (20, 6)}),
    "w columns not out_channels": (3, {"w": (6, 7), "q": (6, 7)}),
    "q shaped unlike w": (3, {"q": (6, 4)}),
    "u rows not label_dim": (3, {"u": (4, 5)}),
    "u columns not out_channels": (0, {"u": (3, 5)}),
    "dense fan-in not the pooled channels": (3, {"w": (7, 5), "q": (7, 5)}),
    "empty dense weights": (3, {"w": (0, 5), "q": (0, 5)}),
    "output columns not label_dim": (4, {"w": (6, 4)}),
    "output fan-in not the dense width": (4, {"w": (8, 3)}),
    "output with projections": (4, {"q": (6, 3)}),
    "pool with weights": (2, {"w": (6, 6)}),
}


class TestShapeChain:
    @pytest.mark.parametrize("case", sorted(BAD_SHAPES))
    def test_rejected_as_format_error(self, tmp_path, case):
        net, _ = _chain_net()
        k, shapes = BAD_SHAPES[case]
        net.layers[k] = dataclasses.replace(
            net.layers[k], **{f: np.zeros(s) for f, s in shapes.items()})
        path = tmp_path / "model.fpk"
        save_network(net, path)
        with pytest.raises(CheckpointFormatError, match=f"layer {k} "):
            load_network(path)

    @pytest.mark.parametrize("dense_after_conv", [False, True])
    def test_fitted_chains_load(self, tmp_path, dense_after_conv):
        net, x = _chain_net(dense_after_conv)
        path = tmp_path / "model.fpk"
        save_network(net, path)
        assert np.array_equal(predict(load_network(path), x)[0],
                              predict(net, x)[0])

    def test_output_without_intercept_row_loads(self, tmp_path):
        net, x = _chain_net()
        out = net.layers[-1]
        net.layers[-1] = dataclasses.replace(out, w=out.w[:-1].copy())
        path = tmp_path / "model.fpk"
        save_network(net, path)
        assert load_network(path).layers[-1].w.shape == (5, 3)


# Written at every offset of a checkpoint by the fault sweep: zero, one, a
# quote, a comma and a digit (JSON structure and numbers), a high byte and
# the top byte (lengths, UTF-8 and float payload).
SWEEP_BYTES = (0x00, 0x01, ord('"'), ord(","), ord("9"), 0x80, 0xff)


def _sweep_net():
    """conv2d -> global_avg_pool -> dense -> output on 1x3x3 images: every
    layer kind in a checkpoint of about 1 KB."""
    x = SeededRng(81).standard_normal((12, 1, 3, 3))
    ds = Dataset(x, one_hot(np.arange(12) % 2), ["a", "b"])
    specs = [LayerSpec("conv2d", out_channels=2, kernel=(2, 2),
                       activation="relu", target=TargetGenSpec(q_seed=1, u_seed=2)),
             LayerSpec("global_avg_pool"),
             LayerSpec("dense", out_channels=2, activation="relu",
                       target=TargetGenSpec(q_seed=3, u_seed=4)),
             LayerSpec("output")]
    return fit_network(specs, ds)


class TestFaultSweep:
    def test_every_truncation_rejected(self, tmp_path):
        path = tmp_path / "model.fpk"
        save_network(_sweep_net(), path)
        blob = path.read_bytes()
        for cut in range(len(blob)):
            path.write_bytes(blob[:cut])
            with pytest.raises(CheckpointFormatError):
                load_network(path)

    def test_every_byte_edit_loads_or_raises_typed(self, tmp_path):
        # no edit may end in a traceback: a file either loads or raises one
        # of the package's own errors
        path = tmp_path / "model.fpk"
        save_network(_sweep_net(), path)
        blob = path.read_bytes()
        for offset in range(len(blob)):
            for value in SWEEP_BYTES:
                edited = bytearray(blob)
                edited[offset] = value
                path.write_bytes(bytes(edited))
                try:
                    load_network(path)
                except FpnetError:
                    pass


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

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.stats import spearmanr

import fpnet.layers as layers_mod
from fpnet.core import RidgeConfig, TargetGenSpec, generate_targets
from fpnet.data import one_hot, synthetic_gaussian_task
from fpnet.errors import RankDeficientError, UnsupportedNonlinearityError
from fpnet.explain import (ExplanationMap, SpatialOrigin, compose_origin,
                           explain_layer, identity_origin, input_origin,
                           reconstruct_input, render_map, write_map_csv,
                           write_map_pgm)
from fpnet.layers import (LayerSpec, TrainedLayer, average_windows,
                          conv_output_shape, extract_windows, fit_layer,
                          fit_network, network_forward, potentials)
from fpnet.linalg import SeededRng, gaussian_matrix


def _dense_layer(m_prev, m, m_l, g="identity", seed=0, alpha=0.0):
    rng = SeededRng(seed)
    spec = LayerSpec("dense", out_channels=m, activation="identity",
                     target=TargetGenSpec(g=g, alpha=alpha, q_seed=seed,
                                          u_seed=seed + 1))
    q = gaussian_matrix(m_prev, m, rng)
    u = gaussian_matrix(m_l, m, rng)
    return TrainedLayer(spec, w=None, q=q, u=u)


def _position_loop_average(rows, n, channels, spatial, kernel, stride):
    """Overlap average of channel-major window rows, one window position at
    a time in raster order."""
    grid = conv_output_shape(spatial, kernel, stride)
    acc = np.zeros((n, channels, *spatial))
    cnt = np.zeros(spatial)
    per = rows.reshape(n, *grid, channels, *kernel)
    for pos in np.ndindex(*grid):
        cells = tuple(slice(p * stride, p * stride + k)
                      for p, k in zip(pos, kernel))
        acc[(..., *cells)] += per[(slice(None), *pos)]
        cnt[cells] += 1.0
    covered = cnt > 0
    acc[..., covered] /= cnt[covered]
    return acc


class TestExplainLayer:
    def test_identity_targets_round_trip_exactly(self):
        rng = SeededRng(10)
        layer = _dense_layer(12, 32, 4, seed=11)
        a = rng.standard_normal((20, 12))
        y = one_hot(np.arange(20) % 4)
        z = generate_targets(a, y, layer.q, layer.u, layer.spec.target)
        emap = explain_layer(layer, a, z)
        assert_allclose(emap.values, y, atol=1e-8)

    def test_fitted_exact_regime_recovers_labels(self):
        # square full-rank design, lam=0: potentials hit targets exactly
        rng = SeededRng(12)
        a = rng.standard_normal((16, 16))
        y = one_hot(np.arange(16) % 4)
        spec = LayerSpec("dense", out_channels=32, activation="identity",
                         target=TargetGenSpec(g="identity", q_seed=3,
                                              u_seed=4),
                         ridge=RidgeConfig(lam=0.0))
        layer = fit_layer(spec, [(a, y)])
        z = potentials(layer, a)
        emap = explain_layer(layer, a, z)
        assert_allclose(emap.values, y, atol=1e-6)

    def test_sign_surrogate_keeps_argmax(self):
        # tanh stands in for the sign inverse; argmax survives it
        rng = SeededRng(13)
        hits = 0
        draws = 1000
        for i in range(draws):
            layer = _dense_layer(64, 256, 10, g="sign", seed=1000 + i)
            a = rng.standard_normal((1, 64))
            y = np.zeros((1, 10))
            y[0, int(rng.subset_without_replacement(np.arange(10), 1)[0])] = 1.0
            z = generate_targets(a, y, layer.q, layer.u, layer.spec.target)
            emap = explain_layer(layer, a, z)
            hits += int(np.argmax(emap.values[0]) == np.argmax(y[0]))
        assert hits / draws >= 0.95

    def test_conv_positions_each_recover_label(self):
        rng = SeededRng(14)
        x = rng.standard_normal((3, 1, 6))
        y = one_hot(np.array([0, 1, 2]))
        spec = LayerSpec("conv1d", out_channels=16, kernel=3, stride=1,
                         activation="identity",
                         target=TargetGenSpec(g="identity", q_seed=5,
                                              u_seed=6))
        rng2 = SeededRng(5)
        q = gaussian_matrix(3, 16, rng2)
        u = gaussian_matrix(3, 16, SeededRng(6))
        layer = TrainedLayer(spec, w=None, q=q, u=u)
        rows = extract_windows(x, 3, 1)
        y_rows = np.repeat(y, 4, axis=0)
        ztil = generate_targets(rows, y_rows, q, u, spec.target)
        z = np.moveaxis(ztil.reshape(3, 4, 16), -1, 1)
        emap = explain_layer(layer, x, z)
        assert emap.spatial == (4,)
        assert np.all(np.isfinite(emap.values))
        for pos in range(4):
            assert_allclose(emap.values[:, pos, :], y, atol=1e-8)
        assert emap.origin == SpatialOrigin(offsets=(1.0,), steps=(1.0,))

    def _fitted_conv(self):
        """A C = 3, stride-2 conv2d layer fitted on 3-channel images."""
        rng = SeededRng(16)
        x = rng.standard_normal((6, 3, 7, 7))
        y = one_hot(np.arange(6) % 3)
        spec = LayerSpec("conv2d", out_channels=40, kernel=(3, 3), stride=2,
                         activation="relu",
                         target=TargetGenSpec(g="sign", alpha=0.5, q_seed=7,
                                              u_seed=8))
        layer = fit_layer(spec, [(x, y)])
        return layer, x, potentials(layer, x)

    def test_conv_matches_channel_major_reference(self):
        layer, x, z = self._fitted_conv()
        target = layer.spec.target
        z_rows = np.moveaxis(z, 1, -1).reshape(-1, z.shape[1])
        g_in = np.sign(extract_windows(x, (3, 3), 2) @ layer.q)
        ref = np.tanh(z_rows - g_in - target.alpha) @ np.linalg.pinv(layer.u)
        emap = explain_layer(layer, x, z)
        assert emap.values.shape == (6, 3, 3, 3)
        assert_allclose(emap.values.reshape(-1, 3), ref, rtol=1e-12,
                        atol=1e-12)

    def test_conv_gathers_channels_last_through_layers(self, monkeypatch):
        layer, x, z = self._fitted_conv()
        calls = []
        gather = layers_mod.extract_windows

        def counted(*args, **kwargs):
            calls.append(kwargs.get("channels_last", False))
            return gather(*args, **kwargs)

        monkeypatch.setattr(layers_mod, "extract_windows", counted)
        explain_layer(layer, x, z)
        assert calls == [True]

    def test_omitted_potentials_gather_windows_once(self, monkeypatch):
        # z and g(a_prev @ q) from one product of the windows with w and q
        # side by side
        layer, x, z = self._fitted_conv()
        ref = explain_layer(layer, x, z)
        calls = []
        gather = layers_mod.extract_windows

        def counted(*args, **kwargs):
            calls.append(kwargs.get("channels_last", False))
            return gather(*args, **kwargs)

        monkeypatch.setattr(layers_mod, "extract_windows", counted)
        emap = explain_layer(layer, x)
        assert calls == [True]
        assert emap.origin == ref.origin
        assert_allclose(emap.values, ref.values, rtol=1e-12, atol=1e-12)

    def test_omitted_potentials_dense(self):
        task = synthetic_gaussian_task(80, 6, 3, 3.0, SeededRng(19))
        spec = LayerSpec("dense", out_channels=12, activation="relu",
                         target=TargetGenSpec(g="sign", q_seed=3, u_seed=4))
        layer = fit_layer(spec, [(task.x, task.y)])
        ref = explain_layer(layer, task.x, potentials(layer, task.x))
        emap = explain_layer(layer, task.x)
        assert emap.origin is None
        assert_allclose(emap.values, ref.values, rtol=1e-12, atol=1e-12)

    def test_omitted_potentials_need_weights(self):
        layer = _dense_layer(8, 16, 4, g="sign", seed=23)
        with pytest.raises(ValueError):
            explain_layer(layer, np.zeros((2, 8)))

    def test_conv_builds_windows_in_blocks(self, monkeypatch):
        # 40 samples of 32 x 24 x 24 through a 3x3, stride-2 layer: 279 KB
        # of window rows a sample, 11.2 MB for all of them at once
        x = SeededRng(17).standard_normal((40, 32, 24, 24))
        spec = LayerSpec("conv2d", out_channels=16, kernel=(3, 3), stride=2,
                         activation="relu",
                         target=TargetGenSpec(g="sign", q_seed=1, u_seed=2))
        layer = TrainedLayer(spec, w=None,
                             q=gaussian_matrix(288, 16, SeededRng(1)),
                             u=gaussian_matrix(3, 16, SeededRng(2)))
        z = SeededRng(18).standard_normal((40, 16, 11, 11))
        built = []
        extract = layers_mod.extract_windows

        def spied(*args, **kwargs):
            rows = extract(*args, **kwargs)
            built.append(rows.nbytes)
            return rows

        monkeypatch.setattr(layers_mod, "extract_windows", spied)
        emap = explain_layer(layer, x, z)
        assert emap.values.shape == (40, 11, 11, 3)
        assert sum(built) == 40 * 121 * 288 * 8
        assert len(built) > 1
        assert max(built) <= layers_mod.WINDOW_BLOCK_BYTES

    def test_pure_function(self):
        rng = SeededRng(15)
        layer = _dense_layer(8, 16, 4, g="sign", seed=21)
        a = rng.standard_normal((5, 8))
        z = rng.standard_normal((5, 16))
        m1 = explain_layer(layer, a, z)
        m2 = explain_layer(layer, a, z)
        assert m1.values.tobytes() == m2.values.tobytes()

    def test_unsupported_nonlinearity(self):
        layer = _dense_layer(8, 16, 4, g="identity", seed=22)
        bad = TrainedLayer(
            LayerSpec("dense", out_channels=16, activation="identity",
                      target=TargetGenSpec(g="tanh", q_seed=0, u_seed=1)),
            w=None, q=layer.q, u=layer.u)
        a = np.zeros((2, 8))
        z = np.zeros((2, 16))
        with pytest.raises(UnsupportedNonlinearityError):
            explain_layer(bad, a, z)

    def test_missing_target_spec(self):
        layer = TrainedLayer(LayerSpec("output"), w=np.eye(3))
        with pytest.raises(ValueError):
            explain_layer(layer, np.zeros((2, 3)), np.zeros((2, 3)))

    def test_residual_tracks_explanation_quality(self):
        # layers whose potentials sit farther from their targets explain
        # worse; the spread is induced by a per-layer ridge ladder (seed
        # frozen; all of 2024/7/99/123/5555 give rho in {-0.8, -1.0})
        rng = SeededRng(2024)
        train = synthetic_gaussian_task(1200, 16, 4, 2.5, rng)
        test = synthetic_gaussian_task(600, 16, 4, 2.5, rng)
        lams = [1.0, 300.0, 20000.0, 1000000.0]
        specs = []
        for i in range(4):
            specs.append(LayerSpec(
                "dense", out_channels=48, activation="relu",
                target=TargetGenSpec(g="sign", q_seed=100 + 2 * i,
                                     u_seed=101 + 2 * i),
                ridge=RidgeConfig(lam=lams[i])))
        specs.append(LayerSpec("output", ridge=RidgeConfig(lam=1.0)))
        net = fit_network(specs, train)
        residuals, accs = [], []
        for l in range(4):
            layer = net.layers[l]
            a_prev = network_forward(net, test.x, upto=l)
            z = potentials(layer, a_prev)
            ztil = generate_targets(a_prev, test.y, layer.q, layer.u,
                                    layer.spec.target)
            residuals.append(float(np.linalg.norm(z - ztil)
                                   / np.linalg.norm(ztil)))
            emap = explain_layer(layer, a_prev, z)
            pred = np.argmax(emap.values, axis=1)
            accs.append(float(np.mean(pred == test.labels)))
        rho = spearmanr(residuals, accs).statistic
        assert rho < 0


class TestReconstructInput:
    def test_square_invertible_projection_exact(self):
        rng = SeededRng(30)
        layer = _dense_layer(16, 16, 4, seed=31)
        a = rng.standard_normal((6, 16))
        y = one_hot(np.arange(6) % 4)
        z = generate_targets(a, y, layer.q, layer.u, layer.spec.target)
        ahat = reconstruct_input(layer, z, y)
        assert_allclose(ahat, a, atol=1e-6)

    def test_wide_projection_monte_carlo(self):
        # 500 random draws at 8 -> 256: mean relative error well under 0.05
        rng = SeededRng(32)
        errs = []
        for i in range(500):
            layer = _dense_layer(8, 256, 4, seed=4000 + i)
            a = rng.standard_normal((1, 8))
            y = one_hot(np.array([i % 4]), 4)
            z = generate_targets(a, y, layer.q, layer.u, layer.spec.target)
            ahat = reconstruct_input(layer, z, y)
            errs.append(np.linalg.norm(ahat - a) / np.linalg.norm(a))
        assert float(np.mean(errs)) <= 0.05

    def test_sign_reconstruction_correlates(self):
        rng = SeededRng(33)
        corrs = []
        for i in range(500):
            layer = _dense_layer(8, 256, 4, g="sign", seed=5000 + i)
            a = rng.standard_normal((1, 8))
            y = one_hot(np.array([i % 4]), 4)
            z = generate_targets(a, y, layer.q, layer.u, layer.spec.target)
            ahat = reconstruct_input(layer, z, y)
            corrs.append(float(np.corrcoef(ahat[0], a[0])[0, 1]))
        assert float(np.mean(corrs)) > 0.3

    def test_narrow_layer_rejected(self):
        layer = _dense_layer(32, 16, 4, seed=34)
        with pytest.raises(RankDeficientError):
            reconstruct_input(layer, np.zeros((2, 16)), one_hot(np.array([0, 1]), 4))

    @pytest.mark.parametrize("kind, shape, kernel, stride, uncovered", [
        ("conv1d", (2, 1, 5), (2,), 1, []),
        # rows 2 and 4 lie under two windows; columns 1 and 3 under none
        ("conv2d", (2, 3, 7, 5), (3, 1), 2, [1, 3]),
    ], ids=["conv1d", "conv2d"])
    def test_conv_overlap_average_round_trip(self, kind, shape, kernel,
                                             stride, uncovered):
        x = SeededRng(35).standard_normal(shape)
        y = one_hot(np.array([0, 1]))
        width = shape[1] * math.prod(kernel)  # at most 64: q has a right inverse
        spec = LayerSpec(kind, out_channels=64, kernel=kernel, stride=stride,
                         activation="identity",
                         target=TargetGenSpec(g="identity", q_seed=7,
                                              u_seed=8))
        q = gaussian_matrix(width, 64, SeededRng(7))
        u = gaussian_matrix(2, 64, SeededRng(8))
        layer = TrainedLayer(spec, w=None, q=q, u=u)
        rows = extract_windows(x, kernel, stride)
        grid = conv_output_shape(shape[2:], kernel, stride)
        y_rows = np.repeat(y, math.prod(grid), axis=0)
        ztil = generate_targets(rows, y_rows, q, u, spec.target)
        z = np.moveaxis(ztil.reshape(2, *grid, 64), -1, 1)
        xhat = reconstruct_input(layer, z, y)
        assert xhat.shape == x.shape
        covered = np.ones(shape[2:], dtype=bool)
        covered[..., uncovered] = False
        assert_allclose(xhat[..., covered], x[..., covered], atol=1e-6)
        assert np.all(xhat[..., ~covered] == 0.0)

    @pytest.mark.parametrize("shape, kernel, stride", [
        ((2, 1, 5), (2,), 1), ((2, 3, 7, 5), (3, 1), 2),
        ((4, 1, 28, 28), (5, 5), 1), ((2, 5, 8, 9), (2, 3), 3)])
    def test_overlap_average_matches_position_loop(self, shape, kernel,
                                                    stride):
        # the same additions in the same order, so the same bits
        grid = conv_output_shape(shape[2:], kernel, stride)
        rows = SeededRng(36).standard_normal(
            (shape[0] * math.prod(grid), shape[1] * math.prod(kernel)))
        spatial = tuple((p - 1) * stride + k for p, k in zip(grid, kernel))
        got = average_windows(rows, grid, kernel, stride)
        ref = _position_loop_average(rows, shape[0], shape[1], spatial,
                                     kernel, stride)
        assert got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()

    def test_conv_sign_matches_repeated_label_reference(self):
        # C = 3, a 1x3 kernel at stride 2 on 7x9: rows 1, 3 and 5 lie under
        # no window, columns 2, 4 and 6 under two
        x = SeededRng(37).standard_normal((4, 3, 7, 9))
        y = one_hot(np.arange(4) % 3)
        spec = LayerSpec("conv2d", out_channels=24, kernel=(1, 3), stride=2,
                         activation="relu",
                         target=TargetGenSpec(g="sign", alpha=0.3, q_seed=9,
                                              u_seed=10))
        layer = fit_layer(spec, [(x, y)])
        z = potentials(layer, x)
        # labels repeated over the 4 x 4 positions, overlaps averaged by a
        # loop over positions
        z_rows = np.moveaxis(z, 1, -1).reshape(-1, 24)
        g_y = np.sign(np.repeat(y, 16, axis=0) @ layer.u)
        rows = np.tanh(z_rows - g_y - 0.3) @ np.linalg.pinv(layer.q)
        ref = _position_loop_average(rows, 4, 3, (7, 9), (1, 3), 2)
        xhat = reconstruct_input(layer, z, y)
        assert xhat.shape == ref.shape
        assert np.linalg.norm(xhat - ref) <= 1e-12 * np.linalg.norm(ref)
        assert np.all(xhat[:, :, [1, 3, 5]] == 0.0)

    @pytest.mark.parametrize("z_shape, y", [
        ((2, 1, 4, 4), one_hot(np.array([0, 1]), 3)),
        ((3, 24, 4, 4), one_hot(np.array([0, 1]), 3)),
        ((2, 24), one_hot(np.array([0, 1]), 3)),
        ((2, 24, 4, 4, 1), one_hot(np.array([0, 1]), 3)),
        ((2,), one_hot(np.array([0, 1]), 3)),
        ((2, 24, 4, 4), one_hot(np.array([0, 1]), 4)),
        ((2, 24, 4, 4), np.zeros(2))],
        ids=["narrow", "samples", "no-grid", "extra-axis", "1-d",
             "label-width", "1-d-labels"])
    def test_conv_malformed_input_rejected(self, z_shape, y):
        spec = LayerSpec("conv2d", out_channels=24, kernel=(1, 3), stride=2,
                         activation="relu",
                         target=TargetGenSpec(g="sign", q_seed=9, u_seed=10))
        layer = TrainedLayer(spec, w=None,
                             q=gaussian_matrix(9, 24, SeededRng(9)),
                             u=gaussian_matrix(3, 24, SeededRng(10)))
        with pytest.raises(ValueError):
            reconstruct_input(layer, np.zeros(z_shape), y)


class TestOrigins:
    def test_identity(self):
        o = identity_origin(2)
        assert o.offsets == (0.0, 0.0) and o.steps == (1.0, 1.0)

    def test_compose_stride_two_then_one(self):
        o = compose_origin(identity_origin(1), (3,), 2)
        assert o == SpatialOrigin(offsets=(1.0,), steps=(2.0,))
        o = compose_origin(o, (3,), 1)
        assert o == SpatialOrigin(offsets=(3.0,), steps=(2.0,))

    def test_centre(self):
        o = SpatialOrigin(offsets=(1.0, 1.0), steps=(2.0, 2.0))
        assert o.centre((3, 0)) == (7.0, 1.0)

    def test_input_origin_stops_at_dense(self):
        conv = TrainedLayer(LayerSpec("conv2d", out_channels=4, kernel=(3, 3),
                                      stride=2, activation="relu",
                                      target=TargetGenSpec()), w=None)
        dense = TrainedLayer(LayerSpec("dense", out_channels=4,
                                       activation="relu",
                                       target=TargetGenSpec()), w=None)
        assert input_origin([conv], 2) == SpatialOrigin((1.0, 1.0), (2.0, 2.0))
        assert input_origin([conv, dense], 2) is None


class TestRenderMap:
    def test_point_map_constant_image(self):
        emap = ExplanationMap(0, np.array([[[2.5, 0.0]]]).reshape(1, 1, 2),
                              origin=None)
        # spatial (1,): 1-D grid
        img = render_map(emap, 0, (4,))
        assert_allclose(img, np.full(4, 2.5))

    def test_dense_map_renders_constant(self):
        emap = ExplanationMap(0, np.array([[1.0, 3.0], [3.0, 1.0]]))
        img = render_map(emap, 1, (2, 2))
        assert_allclose(img, np.full((2, 2), 2.0))

    def test_block_replication_2x2_to_4x4(self):
        vals = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 2, 2, 1)
        emap = ExplanationMap(0, vals, origin=None)
        img = render_map(emap, 0, (4, 4))
        want = np.array([[1.0, 1.0, 2.0, 2.0],
                         [1.0, 1.0, 2.0, 2.0],
                         [3.0, 3.0, 4.0, 4.0],
                         [3.0, 3.0, 4.0, 4.0]])
        assert_allclose(img, want)

    def test_ramp_stays_monotone(self):
        vals = np.arange(5.0).reshape(1, 1, 5, 1)
        emap = ExplanationMap(0, vals, origin=None)
        img = render_map(emap, 0, (3, 16))
        assert np.all(np.diff(img, axis=1) >= 0)
        assert img[0, 0] == 0.0 and img[0, -1] == 4.0

    def test_origin_aware_placement(self):
        # two positions centred at input pixels 1 and 3
        vals = np.array([5.0, 9.0]).reshape(1, 2, 1)
        emap = ExplanationMap(0, vals,
                              origin=SpatialOrigin((1.0,), (2.0,)))
        img = render_map(emap, 0, (5,))
        # pixels 0..5 map to nearest centre: rint((i-1)/2) clipped
        assert_allclose(img, [5.0, 5.0, 5.0, 9.0, 9.0])

    def test_out_of_range_class(self):
        emap = ExplanationMap(0, np.zeros((1, 2, 2, 3)))
        with pytest.raises(ValueError):
            render_map(emap, 3, (4, 4))

    def test_sample_axis_averaged(self):
        vals = np.stack([np.zeros((2, 1)), np.full((2, 1), 4.0)])
        emap = ExplanationMap(0, vals, origin=None)
        img = render_map(emap, 0, (2,))
        assert_allclose(img, [2.0, 2.0])


class TestWriters:
    def test_csv_layout(self, tmp_path):
        path = tmp_path / "map.csv"
        write_map_csv(np.array([[1.0, 2.0], [3.0, 4.5]]), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "row,col,score"
        assert lines[1] == "0,0,1"
        assert lines[4] == "1,1,4.5"
        assert len(lines) == 5

    @pytest.mark.parametrize("grid", [
        SeededRng(40).standard_normal((28, 28)) * 1e3,
        np.array([[0.0, -0.0, np.nan, np.inf], [-np.inf, 1e-300, 5e-324,
                                                 1.2345678901234e20]]),
        np.array([3.0, -2.5, 1 / 3]),            # 1-D: row 0
        np.arange(6, dtype=np.int64).reshape(2, 3),
        np.asfortranarray(SeededRng(41).standard_normal((3, 5)))])
    def test_csv_bytes_match_per_element_writer(self, tmp_path, grid):
        path = tmp_path / "map.csv"
        write_map_csv(grid, path)
        ref = np.atleast_2d(np.asarray(grid, dtype=np.float64))
        with open(tmp_path / "ref.csv", "w") as fh:
            fh.write("row,col,score\n")
            for r in range(ref.shape[0]):
                for c in range(ref.shape[1]):
                    fh.write(f"{r},{c},{ref[r, c]:.10g}\n")
        assert path.read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_pgm_header_and_scaling(self, tmp_path):
        path = tmp_path / "map.pgm"
        write_map_pgm(np.array([[0.0, 1.0], [0.5, 1.0]]), path)
        blob = path.read_bytes()
        assert blob.startswith(b"P5\n2 2\n255\n")
        pixels = blob[len(b"P5\n2 2\n255\n"):]
        assert list(pixels) == [0, 255, 128, 255]

    def test_pgm_constant_map_is_black(self, tmp_path):
        path = tmp_path / "flat.pgm"
        write_map_pgm(np.full((1, 3), 7.0), path)
        assert path.read_bytes().endswith(b"\x00\x00\x00")


# raises that no other test reaches: (call, exception type, message match)
_EXPLAIN_RAISES = {
    "no projections": (
        lambda: explain_layer(TrainedLayer(_dense_layer(4, 3, 2).spec),
                              np.ones((2, 4)), np.ones((2, 3))),
        ValueError, "missing its target projections"),
    "potentials misshaped": (
        lambda: explain_layer(_dense_layer(4, 3, 2), np.ones((2, 4)),
                              np.ones((2, 5))),
        ValueError, r"potentials shaped \(2, 5\), expected \(2, 3\)"),
    "empty target grid": (
        lambda: render_map(ExplanationMap(0, np.ones((1, 2, 2, 3))), 0,
                           (0, 4)),
        ValueError, "upsample dimensions must be positive"),
    "target grid rank": (
        lambda: render_map(ExplanationMap(0, np.ones((1, 2, 2, 3))), 0, (4,)),
        ValueError, "map has 2 spatial axes, target has 1"),
}


@pytest.mark.parametrize("case", list(_EXPLAIN_RAISES))
def test_bad_arguments_raise(case):
    call, error, match = _EXPLAIN_RAISES[case]
    with pytest.raises(error, match=match):
        call()

import dataclasses
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

import fpnet.baselines as baselines_mod
import fpnet.layers as layers_mod
from fpnet import accounting, linalg
from fpnet.baselines import (BaselineKind, fit_baseline_network,
                             make_baseline_targets)
from fpnet.bench import mlp_specs
from fpnet.checkpoint import load_network, save_network
from fpnet.core import (RidgeConfig, TargetGenSpec, generate_targets,
                        ridge_solve)
from fpnet.data import Dataset, Pixels, one_hot, synthetic_gaussian_task
from fpnet.explain import explain_layer
from fpnet.layers import (INFERENCE_BUDGET_BYTES, IterativeConfig, LayerSpec,
                          Network, TrainedLayer, activate, extract_windows,
                          fit_layer, fit_network, forward,
                          inference_batch_rows, make_batches, network_forward,
                          potentials, predict)
from fpnet.linalg import SeededRng, gaussian_matrix
from fpnet.metrics import accuracy


def _dense_spec(out, activation="identity", g="identity", lam=10.0,
                q_seed=100, u_seed=101, alpha=0.0):
    return LayerSpec("dense", out_channels=out, activation=activation,
                     target=TargetGenSpec(g=g, alpha=alpha, q_seed=q_seed,
                                          u_seed=u_seed),
                     ridge=RidgeConfig(lam=lam))


class TestActivate:
    def test_relu(self):
        assert_allclose(activate("relu", np.array([-1.0, 0.0, 2.0])),
                        [0.0, 0.0, 2.0])

    def test_mod2_wraps_into_unit_interval(self):
        assert_allclose(activate("mod2", np.array([3.5, -0.5])), [1.5, 1.5])

    def test_square(self):
        assert_allclose(activate("square", np.array([-3.0])), [9.0])

    def test_sign_of_zero_is_zero(self):
        assert activate("sign", np.array([0.0]))[0] == 0.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            activate("step", np.zeros(2))


class TestExtractWindows:
    def test_sequence_windows(self):
        x = np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 1, 4)
        assert_allclose(extract_windows(x, 3, 1),
                        [[1.0, 2.0, 3.0], [2.0, 3.0, 4.0]])

    def test_stride_two_single_position(self):
        x = np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 1, 4)
        assert_allclose(extract_windows(x, 3, 2), [[1.0, 2.0, 3.0]])

    def test_two_channel_image_channel_major_row(self):
        # channel 0 block then channel 1 block, each in raster order
        x = np.array([[[[1.0, 2.0], [3.0, 4.0]],
                       [[5.0, 6.0], [7.0, 8.0]]]])
        rows = extract_windows(x, (2, 2), 1)
        assert_allclose(rows, [[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]])

    def test_kernel_too_large_rejected(self):
        with pytest.raises(ValueError):
            extract_windows(np.zeros((1, 1, 3)), 4, 1)

    def test_sample_major_then_position_order(self):
        x = np.arange(8.0).reshape(2, 1, 4)
        rows = extract_windows(x, 2, 1)
        assert_allclose(rows[:3], [[0, 1], [1, 2], [2, 3]])
        assert_allclose(rows[3:], [[4, 5], [5, 6], [6, 7]])

    @pytest.mark.parametrize("shape, kernel", [
        ((3, 2, 17), (4,)), ((2, 1, 6), (6,)),
        ((2, 3, 9, 8), (3, 2)), ((2, 2, 7, 5), (7, 5))],
        ids=["conv1d", "conv1d-whole-extent", "conv2d", "conv2d-whole-extent"])
    @pytest.mark.parametrize("stride", [1, 2, 3])
    @pytest.mark.parametrize("channels_last_memory", [False, True],
                             ids=["contiguous", "channels-last"])
    def test_window_view_matches_sliding_windows(self, shape, kernel, stride,
                                                 channels_last_memory):
        # the reference: every window at unit step, then every stride-th
        x = _images(shape, 37, channels_last_memory)
        axes = tuple(range(2, x.ndim))
        ref = np.lib.stride_tricks.sliding_window_view(x, kernel, axis=axes)[
            (slice(None),) * 2 + (slice(None, None, stride),) * len(kernel)]
        view = layers_mod._windows(x, kernel, stride)
        assert view.shape == ref.shape
        assert np.array_equal(view, ref)
        assert np.shares_memory(view, x) and not view.flags.writeable
        assert layers_mod._windows(x, kernel, stride,
                                   writeable=True).flags.writeable


class TestForward:
    def test_dense_identity_weights_passthrough(self):
        spec = _dense_spec(3)
        layer = TrainedLayer(spec, w=np.eye(3))
        x = np.arange(6.0).reshape(2, 3)
        assert_allclose(forward(layer, x), x)

    def test_global_avg_pool_constants(self):
        spec = LayerSpec("global_avg_pool")
        x = np.stack([np.full((2, 2, 2), 3.0), np.full((2, 2, 2), -1.0)])
        x[:, 1] *= 2.0
        out = forward(TrainedLayer(spec), x)
        assert_allclose(out, [[3.0, 6.0], [-1.0, -2.0]])

    def test_output_without_intercept_is_identity(self):
        spec = LayerSpec("output")
        layer = TrainedLayer(spec, w=np.eye(2))
        net = Network([layer], label_dim=2, class_names=["0", "1"])
        x = np.array([[0.2, 0.9], [4.0, -1.0]])
        scores, labels = predict(net, x)
        assert_allclose(scores, x)
        assert list(labels) == [1, 0]

    def test_tie_breaks_to_lowest_index(self):
        spec = LayerSpec("output")
        net = Network([TrainedLayer(spec, w=np.eye(2))], 2, ["a", "b"])
        _, labels = predict(net, np.array([[0.5, 0.5]]))
        assert labels[0] == 0

    def test_argmax_row_example(self):
        spec = LayerSpec("output")
        net = Network([TrainedLayer(spec, w=np.eye(2))], 2, ["a", "b"])
        _, labels = predict(net, np.array([[0.1, 0.9]]))
        assert labels[0] == 1

    @pytest.mark.parametrize("intercept", [False, True])
    def test_output_potentials_are_its_forward(self, intercept):
        rng = SeededRng(51)
        x = rng.standard_normal((7, 2, 3))
        w = rng.standard_normal((6 + intercept, 4))
        layer = TrainedLayer(LayerSpec("output"), w=w)
        ref = x.reshape(7, 6) @ w[:6] + (w[6] if intercept else 0.0)
        assert np.array_equal(potentials(layer, x), forward(layer, x))
        assert_allclose(forward(layer, x), ref, rtol=0, atol=1e-12)

    def test_conv1d_equals_dense_on_windows(self):
        rng = SeededRng(50)
        x = rng.standard_normal((3, 2, 9))
        spec = LayerSpec("conv1d", out_channels=4, kernel=3, stride=2,
                         activation="relu",
                         target=TargetGenSpec(q_seed=1, u_seed=2))
        w = rng.standard_normal((6, 4))
        layer = TrainedLayer(spec, w=w)
        out = forward(layer, x)
        windows = extract_windows(x, 3, 2)
        # window rows are (sample, position); conv output is channel-first
        ref = np.maximum(windows @ w, 0.0).reshape(3, 4, 4)
        assert_allclose(out, np.moveaxis(ref, -1, 1), atol=1e-12)


class TestFitLayer:
    def test_identity_design_recovers_label_projection(self):
        # zero input projection, lam=0: W must equal Y @ U exactly
        a = np.eye(4)
        y = one_hot(np.array([0, 1, 0, 1]))
        u = np.array([[1.0, -2.0, 0.5], [3.0, 0.0, -1.0]])
        spec = _dense_spec(3, lam=0.0)
        layer = fit_layer(spec, [(a, y)], q=np.zeros((4, 3)), u=u)
        assert_allclose(layer.w, y @ u, atol=1e-10)

    def test_conv1d_fit_equals_dense_fit_on_expanded_windows(self):
        rng = SeededRng(60)
        x = rng.standard_normal((2, 1, 7))
        y = one_hot(np.array([0, 1]))
        conv_spec = LayerSpec("conv1d", out_channels=5, kernel=3, stride=1,
                              activation="relu",
                              target=TargetGenSpec(g="sign", q_seed=7, u_seed=8),
                              ridge=RidgeConfig(lam=10.0))
        conv_layer = fit_layer(conv_spec, [(x, y)])
        windows = extract_windows(x, 3, 1)
        y_rows = np.repeat(y, 5, axis=0)  # 5 positions per sample
        dense_spec = _dense_spec(5, g="sign", lam=10.0, q_seed=7, u_seed=8)
        dense_layer = fit_layer(dense_spec, [(windows, y_rows)])
        assert_allclose(conv_layer.w, dense_layer.w, rtol=1e-9, atol=1e-12)

    def test_conv2d_fit_and_forward_match_dense_path(self):
        rng = SeededRng(61)
        x = rng.standard_normal((2, 2, 5, 5))
        y = one_hot(np.array([1, 0]))
        spec = LayerSpec("conv2d", out_channels=6, kernel=(2, 2), stride=2,
                         activation="relu",
                         target=TargetGenSpec(g="sign", q_seed=3, u_seed=4),
                         ridge=RidgeConfig(lam=10.0))
        conv_layer = fit_layer(spec, [(x, y)])
        windows = extract_windows(x, (2, 2), 2)
        y_rows = np.repeat(y, 4, axis=0)  # 2x2 positions
        dense_spec = _dense_spec(6, g="sign", lam=10.0, q_seed=3, u_seed=4)
        dense_layer = fit_layer(dense_spec, [(windows, y_rows)])
        assert_allclose(conv_layer.w, dense_layer.w, rtol=1e-9, atol=1e-12)
        out = forward(conv_layer, x)
        ref = np.maximum(windows @ dense_layer.w, 0.0).reshape(2, 2, 2, 6)
        assert_allclose(out, np.moveaxis(ref, -1, 1), rtol=1e-9, atol=1e-12)

    def test_few_rows_hidden_matches_primal_ridge(self):
        # 20 rows of width 60 take the dual path
        rng = SeededRng(29)
        x = rng.standard_normal((20, 60))
        y = one_hot(np.arange(20) % 3)
        spec = _dense_spec(40, g="sign", lam=10.0)
        layer = fit_layer(spec, make_batches(x, y, 8))
        z = generate_targets(x, y, layer.q, layer.u, spec.target)
        ref = ridge_solve(x.T @ x, x.T @ z, 10.0)
        assert np.linalg.norm(layer.w - ref) / np.linalg.norm(ref) <= 1e-9

    @pytest.mark.parametrize("spec", [
        _dense_spec(3),
        LayerSpec("conv1d", 3, 2, 1, "relu", TargetGenSpec()),
        LayerSpec("output")], ids=["dense", "conv1d", "output"])
    def test_label_count_must_match_samples(self, spec):
        # 6 conv1d windows per sample: 2 label rows would divide the 12
        # window rows, so the count is checked against the samples
        x = SeededRng(2).standard_normal((2, 1, 7))
        x = x[:, 0] if spec.kind != "conv1d" else x
        with pytest.raises(ValueError, match="2 samples but 1 label rows"):
            fit_layer(spec, [(x, one_hot(np.array([0, 1]))[:1])])

    def test_empty_stream_rejected(self):
        with pytest.raises(ValueError):
            fit_layer(_dense_spec(3), [])

    def test_single_pass_over_stream(self):
        calls = {"n": 0}
        x = np.eye(4)
        y = one_hot(np.array([0, 1, 0, 1]))

        def factory():
            calls["n"] += 1
            return iter([(x, y)])

        fit_layer(_dense_spec(3), factory)
        assert calls["n"] == 1


class TestOutputLayerFit:
    def _task(self, n=900, d=50, k=5, seed=31):
        x = SeededRng(seed).standard_normal((n, d))
        return x, one_hot(np.arange(n) % k)

    def test_closed_form_output_matches_intercept_ridge(self):
        x, y = self._task(n=200, d=6, k=3)
        lam = 2.0
        layer = fit_layer(LayerSpec("output", ridge=RidgeConfig(lam=lam)),
                          make_batches(x, y, 64))
        a1 = np.hstack([x, np.ones((x.shape[0], 1))])
        penalty = np.diag([1.0] * 6 + [0.0])
        ref = np.linalg.solve(a1.T @ a1 + lam * penalty, a1.T @ y)
        assert layer.q is None and layer.u is None
        assert_allclose(layer.w, ref, rtol=1e-10, atol=1e-12)

    def test_few_rows_output_matches_intercept_ridge(self):
        # 30 rows of width 50 take the dual path
        x, y = self._task(n=30, d=50, k=3)
        lam = 2.0
        layer = fit_layer(LayerSpec("output", ridge=RidgeConfig(lam=lam)),
                          make_batches(x + 1.5, y, 8))
        a1 = np.hstack([x + 1.5, np.ones((x.shape[0], 1))])
        penalty = np.diag([1.0] * 50 + [0.0])
        ref = np.linalg.solve(a1.T @ a1 + lam * penalty, a1.T @ y)
        assert np.linalg.norm(layer.w - ref) / np.linalg.norm(ref) <= 1e-9

    def test_scores_of_conv_output_equal_flattened_rows(self):
        # a conv output lies channels-last in memory, so it does not flatten
        # in place; its rows with the intercept column are still the
        # flattened samples beside a column of ones
        x = _images((6, 3, 4, 5), 32, channels_last_memory=True)
        w = SeededRng(33).standard_normal((61, 4))
        scores = potentials(TrainedLayer(LayerSpec("output"), w=w), x)
        a1 = np.hstack([x.reshape(6, 60), np.ones((6, 1))])
        assert np.array_equal(scores, a1 @ w)

    def test_iterative_output_steps_leave_intercept_unpenalised(self):
        x, y = self._task(n=40, d=4, k=2)
        lam, eta = 3.0, 0.05
        spec = LayerSpec("output", ridge=RidgeConfig(lam=lam))
        layer = fit_layer(spec, [(x, y)],
                          mode=IterativeConfig(eta=eta, epochs=3, batch=40))
        a1 = np.hstack([x, np.ones((40, 1))])
        penalty = np.array([1.0] * 4 + [0.0])[:, None]
        w = np.zeros((5, 2))
        for _ in range(3):
            grad = (2.0 / 40) * (a1.T @ (a1 @ w - y) + lam * penalty * w)
            w = w - eta * grad
        assert_allclose(layer.w, w, rtol=1e-12, atol=1e-15)

    def test_iterative_output_reports_gram_macs(self):
        # 2 * B * (d + 1) * k per batch: 9 batches of 100 a pass, 2 passes
        x, y = self._task()
        ledger = accounting.CostLedger()
        with accounting.track(ledger):
            fit_network([LayerSpec("output")], (x, y),
                        mode=IterativeConfig(eta=1e-3, epochs=2, batch=100))
        assert ledger.macs["gram"] == 2 * 100 * 51 * 5 * 9 * 2 == 918_000
        assert ledger.macs["solve"] == 0


class TestFitNetwork:
    def _blob_dataset(self, n=200, separation=6.0, seed=77):
        rng = SeededRng(seed)
        half = n // 2
        x = rng.standard_normal((n, 2))
        x[:half, 0] += separation
        labels = np.array([0] * half + [1] * (n - half))
        return Dataset(x, one_hot(labels), ["0", "1"])

    def test_output_only_net_separates_blobs(self):
        ds = self._blob_dataset()
        means = [ds.x[ds.labels == c].mean(axis=0) for c in (0, 1)]
        d = np.stack([np.linalg.norm(ds.x - m, axis=1) for m in means], axis=1)
        oracle_acc = float(np.mean(np.argmin(d, axis=1) == ds.labels))
        assert oracle_acc >= 0.99  # the task itself is separable
        net = fit_network([LayerSpec("output")], ds)
        scores, _ = predict(net, ds.x)
        assert accuracy(scores, ds.y) >= 0.99

    def test_xor_with_sign_features(self):
        # 4 XOR points replicated x100; random sign features separate them
        # (seed 0 verified to work; rerun policy per flaky-seed note)
        base = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        labels = np.array([0, 1, 1, 0])
        x = np.tile(base, (100, 1))
        y = one_hot(np.tile(labels, 100))
        ds = Dataset(x, y, ["0", "1"])
        specs = [
            LayerSpec("dense", out_channels=64, activation="sign",
                      target=TargetGenSpec(g="sign", q_seed=0, u_seed=1),
                      ridge=RidgeConfig(lam=10.0)),
            LayerSpec("output", ridge=RidgeConfig(lam=1.0)),
        ]
        net = fit_network(specs, ds)
        scores, _ = predict(net, ds.x)
        assert accuracy(scores, ds.y) == 1.0

    def test_iterative_output_matches_closed_form(self):
        rng = SeededRng(88)
        x = rng.standard_normal((500, 16))
        y = one_hot((x[:, 0] > 0).astype(int))
        ds = Dataset(x, y, ["0", "1"])
        specs = [LayerSpec("output", ridge=RidgeConfig(lam=1.0))]
        closed = fit_network(specs, ds)
        iterative = fit_network(specs, ds,
                                mode=IterativeConfig(eta=0.02, epochs=3000,
                                                     batch=500))
        diff = np.linalg.norm(closed.layers[0].w - iterative.layers[0].w)
        assert diff <= 1e-3

    def test_deterministic_refit_byte_identical(self, blobs):
        train, _ = blobs
        specs = [_dense_spec(24, activation="relu", g="sign", q_seed=5,
                             u_seed=6),
                 LayerSpec("output")]
        a = fit_network(specs, train)
        b = fit_network(specs, train)
        for la, lb in zip(a.layers, b.layers):
            if la.w is not None:
                assert la.w.tobytes() == lb.w.tobytes()

    def test_row_permutation_leaves_weights(self, blobs):
        train, _ = blobs
        specs = [_dense_spec(24, activation="relu", g="sign", q_seed=5,
                             u_seed=6),
                 LayerSpec("output")]
        a = fit_network(specs, train)
        perm = SeededRng(3).permutation(train.n)
        shuffled = Dataset(train.x[perm], train.y[perm], train.class_names)
        b = fit_network(specs, shuffled)
        for la, lb in zip(a.layers, b.layers):
            if la.w is None:
                continue
            rel = np.linalg.norm(la.w - lb.w) / np.linalg.norm(la.w)
            assert rel <= 1e-8

    def test_stream_rebuilt_once_per_trainable_layer(self, blobs, monkeypatch):
        train, _ = blobs
        counter = {"replays": 0}
        real = layers_mod.make_batches

        def counting(x, y, batch_size):
            factory = real(x, y, batch_size)

            def wrapped():
                counter["replays"] += 1
                return factory()

            return wrapped

        monkeypatch.setattr(layers_mod, "make_batches", counting)
        specs = [_dense_spec(8, g="sign", q_seed=1, u_seed=2),
                 _dense_spec(8, g="sign", q_seed=3, u_seed=4),
                 LayerSpec("output")]
        # within the budget the data is read to fit layer 0 and once more to
        # compute layer 0's output, which later layers read instead
        fit_network(specs, train)
        assert counter["replays"] == 2
        # over it, each trainable layer replays the data once
        counter["replays"] = 0
        monkeypatch.setattr(layers_mod, "INFERENCE_BUDGET_BYTES", 0)
        fit_network(specs, train)
        assert counter["replays"] == 3

    def test_output_intercept_absorbs_constant_shift(self, blobs):
        train, _ = blobs
        specs = [LayerSpec("output")]
        a = fit_network(specs, train)
        shifted = Dataset(train.x + 0.3, train.y, train.class_names)
        b = fit_network(specs, shifted)
        wa, wb = a.layers[0].w, b.layers[0].w
        assert_allclose(wa[:-1], wb[:-1], atol=1e-8)  # weight rows unchanged
        assert not np.allclose(wa[-1], wb[-1], atol=1e-8)
        sa, _ = predict(a, train.x)
        sb, _ = predict(b, shifted.x)
        assert np.max(np.abs(sa - sb)) <= 1e-8

    def test_specs_must_end_with_single_output(self, blobs):
        train, _ = blobs
        with pytest.raises(ValueError):
            fit_network([_dense_spec(4)], train)
        with pytest.raises(ValueError):
            fit_network([LayerSpec("output"), _dense_spec(4)], train)


def _redraw_case(case):
    """(specs, dataset, fit) of one fit that draws its own projections:
    ``fit`` takes the projections to share, or None."""
    task = synthetic_gaussian_task(300, 12, 3, 3.0, SeededRng(9))
    dense = [_dense_spec(20, activation="relu", g="sign", q_seed=3, u_seed=4),
             _dense_spec(16, activation="relu", g="sign", q_seed=5, u_seed=6),
             LayerSpec("output")]
    if case == "conv":
        # two input channels, so channel-major and channels-last q differ
        x = SeededRng(10).standard_normal((40, 2, 9, 9))
        task = Dataset(x, one_hot(np.arange(40) % 3), ["a", "b", "c"])
        target = TargetGenSpec(g="sign", q_seed=7, u_seed=8)
        specs = [LayerSpec("conv2d", 6, (3, 3), 1, "relu", target),
                 LayerSpec("conv2d", 4, (3, 3), 2, "relu",
                           TargetGenSpec(g="sign", q_seed=11, u_seed=12)),
                 LayerSpec("global_avg_pool"), LayerSpec("output")]
        return specs, task, lambda p: fit_network(specs, task, projections=p)
    if case == "iterative":
        mode = IterativeConfig(eta=1e-3, epochs=1, batch=50)
        return dense, task, lambda p: fit_network(dense, task, mode=mode,
                                                  projections=p)
    if case in ("label_projection", "random_features"):
        kind = BaselineKind(case)
        return dense, task, lambda p: fit_baseline_network(kind, dense, task,
                                                           projections=p)
    return dense, task, lambda p: fit_network(dense, task, projections=p)


REDRAW_CASES = ["dense", "conv", "iterative", "label_projection",
                "random_features"]


class TestDrawnProjectionsLetGo:
    """A fit holds only the q of the layer it is fitting; the q of every
    other layer that drew its own is let go, and the returned layer draws
    it again from its seed on its first read."""

    @pytest.mark.parametrize("case", REDRAW_CASES)
    def test_returned_q_is_the_drawn_one(self, case):
        specs, task, fit = _redraw_case(case)
        net = fit(None)
        drawn = layers_mod.draw_projections(specs, task.x.shape[1:],
                                            task.y.shape[1])
        for tl, pair in zip(net.layers, drawn):
            if pair is None:
                assert tl.q is None
                continue
            assert np.array_equal(tl.q, pair[0])
            assert tl.q.flags.writeable  # as fit_layer draws it
            assert (tl.w is tl.q) == (case == "random_features")

    @pytest.mark.parametrize("case", REDRAW_CASES)
    def test_later_layers_fit_without_earlier_drawn_q(self, monkeypatch,
                                                      case):
        specs, task, fit = _redraw_case(case)
        fitted, held = [], []
        fit_layer_ = layers_mod.fit_layer

        def spied(*args, **kwargs):
            # the stored value: reading tl.q would draw a let-go q
            held.append([vars(tl).get("q") is not None for tl in fitted])
            fitted.append(fit_layer_(*args, **kwargs))
            return fitted[-1]

        monkeypatch.setattr(layers_mod, "fit_layer", spied)
        fit(None)
        # random features' q is their w, which later layers read
        keeps = case == "random_features"
        assert held == [[keeps] * k for k in range(len(held))]
        # projections passed in stay with their layers
        held.clear(), fitted.clear()
        fit(layers_mod.draw_projections(specs, task.x.shape[1:],
                                        task.y.shape[1]))
        assert held == [[True] * k for k in range(len(held))]

    def test_fit_peak_holds_one_drawn_q(self):
        # 200 -> 400 x 3: each q of the two later layers is 1.28 MB. With
        # the projections drawn before tracing, no q counts in the peak;
        # drawn by the fit, only the one of the layer being fitted may
        task = synthetic_gaussian_task(4000, 200, 10, 3.0, SeededRng(5))
        specs = mlp_specs((400, 400, 400), seed=7)
        _, own = _traced_peak(lambda: fit_network(specs, task))
        drawn = layers_mod.draw_projections(specs, (200,), 10)
        _, shared = _traced_peak(
            lambda: fit_network(specs, task, projections=drawn))
        assert own - shared <= 400 * 400 * 8


SEEDED_CASES = [case for case in REDRAW_CASES if case != "random_features"]


@pytest.fixture
def draws(monkeypatch):
    """The q seed of every ``layers._draw_q`` call, in order."""
    calls, draw_q = [], layers_mod._draw_q

    def spied(spec, in_dim):
        calls.append(spec.target.q_seed)
        return draw_q(spec, in_dim)

    monkeypatch.setattr(layers_mod, "_draw_q", spied)
    return calls


class TestSeededQ:
    """A layer that let go of the q it drew from its seed draws it on the
    first read, bit for bit what the fit drew; predicting never reads it."""

    @pytest.mark.parametrize("case", SEEDED_CASES)
    def test_draw_counts(self, draws, case):
        specs, task, fit = _redraw_case(case)
        seeds = [spec.target.q_seed for spec in specs if spec.target]
        net = fit(None)
        # once each as its layer is fitted, and none when the net returns
        assert draws == seeds
        predict(net, task.x)
        network_forward(net, task.x, upto=2)
        assert draws == seeds
        drawn = layers_mod.draw_projections(specs, task.x.shape[1:],
                                            task.y.shape[1])
        draws.clear()
        for tl, pair in zip(net.layers, drawn):
            if pair is not None:
                assert "q" not in vars(tl)
                assert np.array_equal(tl.q, pair[0])
        assert draws == seeds  # a first read draws once
        for tl in net.layers:
            tl.q
        assert draws == seeds  # a second draws nothing

    @pytest.mark.parametrize("case", SEEDED_CASES)
    def test_checkpoint_same_whether_q_read_or_not(self, tmp_path, case):
        specs, task, fit = _redraw_case(case)
        read = fit(None)
        for tl in read.layers:
            tl.q
        nets = {"unread": fit(None), "read": read,
                "shared": fit(layers_mod.draw_projections(
                    specs, task.x.shape[1:], task.y.shape[1]))}
        for name, net in nets.items():
            save_network(net, tmp_path / name)
        assert ((tmp_path / "unread").read_bytes()
                == (tmp_path / "read").read_bytes()
                == (tmp_path / "shared").read_bytes())

    @pytest.mark.parametrize("case", ["dense", "conv"])
    def test_explain_maps_match_reloaded_net(self, tmp_path, case):
        _, task, fit = _redraw_case(case)
        fresh = fit(None)
        save_network(fit(None), tmp_path / "model.fpk")
        loaded = load_network(tmp_path / "model.fpk")
        x = task.x[:5]
        for k, tl in enumerate(fresh.layers):
            if tl.u is None:
                continue
            assert "q" not in vars(tl)  # explain_layer draws it
            maps = [explain_layer(net.layers[k],
                                  network_forward(net, x, upto=k),
                                  layer_index=k).values
                    for net in (fresh, loaded)]
            assert maps[0].tobytes() == maps[1].tobytes()

    def test_replace_carries_the_seeded_q(self, draws):
        specs, task, fit = _redraw_case("dense")
        layer = fit(None).layers[1]
        q = layers_mod.draw_projections(specs, task.x.shape[1:],
                                        task.y.shape[1])[1][0]
        draws.clear()
        # w of other rows, so a copy drawing its own q would draw another
        copy = dataclasses.replace(layer, w=layer.w[:1])
        assert copy.q is layer.q
        assert np.array_equal(copy.q, q)
        assert len(draws) == 1

    def test_predict_peak_holds_no_q(self):
        # 200 -> 400 x 3: the fit's three drawn q take 3.2 MB, as the
        # weights do. Predicting 500 rows, one batch, holds the net's w and
        # u and that batch's live set in the step that holds the most
        task = synthetic_gaussian_task(2000, 200, 10, 3.0, SeededRng(5))
        specs = mlp_specs((400, 400, 400), seed=7)
        x = SeededRng(6).standard_normal((500, 200))
        tracemalloc.start()
        try:
            net = fit_network(specs, task)
            tracemalloc.reset_peak()
            predict(net, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = sum(m.nbytes for tl in net.layers for m in (tl.w, tl.u)
                   if m is not None)
        walk = layers_mod._shape_walk(net.layers, x.shape[1:])
        batch = 8 * len(x) * max(live for _, live, _ in walk)
        assert peak < held + batch + 2**16


def _replayed(monkeypatch):
    """Compute no layer's output ahead: every layer's input is then rebuilt
    from the data for each layer that reads it, on the same batches."""
    monkeypatch.setattr(layers_mod, "_kept", lambda stream: stream)


class TestKeptInputs:
    """Layer outputs that fit the budget are computed once and kept; the
    fit must not change for it."""

    CASES = {
        "dense": lambda: (
            [_dense_spec(24, activation="relu", g="sign", q_seed=5, u_seed=6),
             _dense_spec(12, activation="tanh", g="tanh", q_seed=7, u_seed=8),
             LayerSpec("output")],
            SeededRng(41).standard_normal((700, 16)),
            one_hot(np.arange(700) % 4)),
        # 30 rows under every layer's width: each layer solves the dual
        "dual": lambda: (
            [_dense_spec(48, activation="relu", g="sign", q_seed=5, u_seed=6),
             _dense_spec(40, activation="relu", g="sign", q_seed=7, u_seed=8),
             LayerSpec("output")],
            SeededRng(42).standard_normal((30, 64)),
            one_hot(np.arange(30) % 3)),
        "conv2d-pool-output": lambda: (
            [LayerSpec("conv2d", 6, (3, 3), 2, "relu",
                       TargetGenSpec(g="sign", q_seed=1, u_seed=2)),
             LayerSpec("global_avg_pool"), LayerSpec("output")],
            SeededRng(43).standard_normal((90, 2, 9, 9)),
            one_hot(np.arange(90) % 3)),
    }

    @staticmethod
    def _same(a, b):
        for la, lb in zip(a.layers, b.layers):
            for name in ("w", "q", "u"):
                ma, mb = getattr(la, name), getattr(lb, name)
                assert (ma is None) == (mb is None)
                assert ma is None or np.array_equal(ma, mb), name

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("mode", ["closed_form",
                                      IterativeConfig(eta=1e-3, epochs=3,
                                                      batch=64)],
                             ids=["closed_form", "iterative"])
    def test_kept_and_replayed_fits_equal(self, monkeypatch, case, mode):
        specs, x, y = self.CASES[case]()
        kept = fit_network(specs, (x, y), mode=mode)
        _replayed(monkeypatch)
        self._same(kept, fit_network(specs, (x, y), mode=mode))

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_iterative_fit_same_with_zero_budget(self, monkeypatch, case):
        # iterative batches do not depend on the budget, so at 0 only the
        # kept outputs go
        specs, x, y = self.CASES[case]()
        mode = IterativeConfig(eta=1e-3, epochs=2, batch=32)
        kept = fit_network(specs, (x, y), mode=mode)
        monkeypatch.setattr(layers_mod, "INFERENCE_BUDGET_BYTES", 0)
        self._same(kept, fit_network(specs, (x, y), mode=mode))

    def test_forward_runs_each_hidden_layer_once(self, monkeypatch):
        n, d = 300, 16
        x = SeededRng(44).standard_normal((n, d))
        y = one_hot(np.arange(n) % 4)
        specs = [_dense_spec(8, g="sign", q_seed=1, u_seed=2),
                 _dense_spec(6, g="sign", q_seed=3, u_seed=4),
                 LayerSpec("output")]

        def forward_macs():
            ledger = accounting.CostLedger()
            with accounting.track(ledger):
                fit_network(specs, (x, y))
            return ledger.macs["forward"]

        assert forward_macs() == n * d * 8 + n * 8 * 6
        # replayed, layer 0 runs again to fit the output layer
        monkeypatch.setattr(layers_mod, "INFERENCE_BUDGET_BYTES", 0)
        assert forward_macs() == 2 * n * d * 8 + n * 8 * 6

    def test_outputs_over_the_budget_are_replayed(self, monkeypatch):
        # a budget 1 byte under layer 0's whole output, 16 floats a row:
        # layer 0 is replayed, the narrower layers' outputs are kept, and
        # batches stay 256 rows, the budget allowing 266 of layer 0's 8 + 16
        # floats
        n, d = 400, 8
        x = SeededRng(45).standard_normal((n, d))
        y = one_hot(np.arange(n) % 4)
        specs = [_dense_spec(16, g="sign", q_seed=1, u_seed=2),
                 _dense_spec(6, g="sign", q_seed=3, u_seed=4),
                 _dense_spec(5, g="sign", q_seed=5, u_seed=6),
                 LayerSpec("output")]
        kept = fit_network(specs, (x, y))
        monkeypatch.setattr(layers_mod, "INFERENCE_BUDGET_BYTES",
                            8 * n * 16 - 1)
        ledger = accounting.CostLedger()
        with accounting.track(ledger):
            partly = fit_network(specs, (x, y))
        # layer 0 runs to fit layer 1 and again to keep layer 1's output
        assert ledger.macs["forward"] == (2 * n * d * 16 + n * 16 * 6
                                          + n * 6 * 5)
        self._same(kept, partly)

    def test_kept_output_counted_against_the_budget(self):
        # 784 -> 1000 -> output: at n = 2000 layer 0's 16 MB output fits the
        # budget alone but not beside a 1001-row batch of the output layer,
        # so it is replayed as at n = 2200, and the smaller fit holds no more
        peaks = []
        for n in (2000, 2200):
            x = SeededRng(46).standard_normal((n, 784))
            y = one_hot(np.arange(n) % 10)
            peaks.append(_traced_peak(
                lambda: fit_network(_dense_784_specs(), (x, y)))[1])
        assert peaks[0] <= peaks[1] + 2**20


class TestSpecValidation:
    def test_pool_rejects_target(self):
        with pytest.raises(ValueError):
            LayerSpec("global_avg_pool", target=TargetGenSpec())

    def test_output_rejects_activation(self):
        with pytest.raises(ValueError):
            LayerSpec("output", activation="relu")

    def test_bad_stride(self):
        with pytest.raises(ValueError):
            LayerSpec("dense", out_channels=4, stride=0)

    def test_conv2d_needs_two_kernel_dims(self):
        with pytest.raises(ValueError):
            LayerSpec("conv2d", out_channels=4, kernel=(3,))


def _random_net(specs, shapes, seed=0):
    """Network of ``specs`` with Gaussian weights of the given shapes."""
    rng = SeededRng(seed)
    layers = [TrainedLayer(s, w=None if sh is None else
                           0.1 * rng.standard_normal(sh))
              for s, sh in zip(specs, shapes)]
    labels = shapes[-1][1]
    return Network(layers, labels, [str(c) for c in range(labels)])


def _conv_specs():
    """The benchmark's conv stack: conv2d(32, 5x5) -> conv2d(64, 3x3, stride
    2) -> pool -> output on 1x28x28 images; layer 1 holds the most a sample:
    its input, window matrix and output."""
    return [LayerSpec("conv2d", 32, (5, 5), 1, "relu",
                      TargetGenSpec(q_seed=1, u_seed=2)),
            LayerSpec("conv2d", 64, (3, 3), 2, "relu",
                      TargetGenSpec(q_seed=3, u_seed=4)),
            LayerSpec("global_avg_pool"), LayerSpec("output")]


def _conv_net(seed=0):
    return _random_net(_conv_specs(), [(25, 32), (288, 64), None, (65, 10)],
                       seed)


def _dense_net(seed=0):
    specs = [LayerSpec("dense", 40, activation="relu"), LayerSpec("output")]
    return _random_net(specs, [(30, 40), (41, 5)], seed)


def _single_batch(net, x):
    a = np.asarray(x, dtype=np.float64)
    for tl in net.layers:
        a = forward(tl, a)
    return a


def _count_forwards(monkeypatch):
    calls = []

    def counted(layer, x):
        calls.append(len(x))
        return forward(layer, x)

    monkeypatch.setattr(layers_mod, "forward", counted)
    return calls


class TestBatchedInference:
    def test_rows_sized_by_widest_intermediate(self):
        conv = _conv_net().layers
        # layer 1 holds the most: its 32x24x24 input, its 11x11 positions x
        # (32 channels x 3x3 kernel) window matrix and its 11x11x64 output
        assert inference_batch_rows(conv, (1, 28, 28)) == (
            INFERENCE_BUDGET_BYTES // (8 * (32 * 24 * 24
                                            + 11 * 11 * (32 * 9 + 64))))
        # dense: the output layer's 40 inputs, its rows with the intercept
        # and its 5 scores
        assert inference_batch_rows(_dense_net().layers, (30,)) == (
            INFERENCE_BUDGET_BYTES // (8 * (40 + 41 + 5)))

    @pytest.mark.parametrize("specs, sample, rows", [
        (_conv_specs(), (1, 28, 28), 34),
        ([_dense_spec(1000), LayerSpec("output")], (784,), 1042)],
        ids=["conv", "dense"])
    def test_spec_walk_sizes_as_trained_walk(self, specs, sample, rows):
        # a fit sizes its batches from the specs before any layer has
        # weights; predict sizes them from the fitted layers
        x = SeededRng(41).standard_normal((30, *sample))
        y = one_hot(np.arange(30) % 10)
        net = fit_network(specs, (x, y))
        walk = layers_mod._shape_walk(specs, sample, label_dim=10)
        assert layers_mod._shape_walk(net.layers, sample) == walk
        assert inference_batch_rows(net.layers, sample) == rows
        assert layers_mod._budget_rows(walk) == rows

    def test_unsizable_layers_give_none(self):
        conv = _conv_net().layers
        assert inference_batch_rows(conv, (2, 28, 28)) is None  # channels
        assert inference_batch_rows(conv, (1, 4, 4)) is None    # too small
        assert inference_batch_rows(conv, (1, 784)) is None     # no spatial
        assert inference_batch_rows(_dense_net().layers, (31,)) is None
        unfitted = [TrainedLayer(LayerSpec("dense", 4))]
        assert inference_batch_rows(unfitted, (30,)) is None

    def test_batched_predict_matches_single_batch(self, monkeypatch):
        net = _conv_net()
        rows = inference_batch_rows(net.layers, (1, 28, 28))
        x = SeededRng(7).standard_normal((2 * rows + rows // 2, 1, 28, 28))
        ref = _single_batch(net, x)
        calls = _count_forwards(monkeypatch)
        scores, labels = predict(net, x)
        assert calls[::len(net.layers)] == [rows, rows, rows // 2]
        assert np.max(np.abs(scores - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert np.array_equal(labels, np.argmax(ref, axis=1))

    def test_input_within_budget_is_one_bit_identical_batch(self, monkeypatch):
        net = _dense_net()
        x = SeededRng(8).standard_normal((500, 30))
        ref = _single_batch(net, x)
        calls = _count_forwards(monkeypatch)
        assert np.array_equal(predict(net, x)[0], ref)
        assert calls == [500] * len(net.layers)

    def test_batched_upto_and_uint8_input(self):
        net = _conv_net()
        rows = inference_batch_rows(net.layers[:1], (1, 28, 28))
        x = np.random.default_rng(9).integers(
            0, 256, size=(rows + 3, 1, 28, 28), dtype=np.uint8)
        out = network_forward(net, x, upto=1)
        ref = forward(net.layers[0], x.astype(np.float64))
        assert out.shape == ref.shape
        assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("case", ["width", "weights", "empty"])
    def test_errors_same_as_single_batch(self, case):
        # inputs past the batch size whose layers cannot be sized, or that
        # hold no rows, fail in predict exactly as a single-batch forward does
        net = _dense_net()
        x = np.zeros((10**5, 30))
        if case == "width":
            x = np.zeros((10**5, 31))
        elif case == "weights":
            net.layers[0].w = None
        else:
            net, x = _conv_net(), np.zeros((0, 1, 28, 28))
        with pytest.raises(ValueError) as single:
            _single_batch(net, x)
        with pytest.raises(ValueError) as batched:
            predict(net, x)
        assert str(batched.value) == str(single.value)

    @pytest.mark.parametrize("make_net, shape", [
        (_dense_net, (0, 30)), (_conv_net, (0, 1, 28, 28))],
        ids=["dense", "conv"])
    def test_zero_rows_rejected_by_name(self, make_net, shape):
        with pytest.raises(ValueError, match="^input has no samples$"):
            predict(make_net(), np.zeros(shape))

    def test_batched_output_written_once(self, monkeypatch):
        # a small budget keeps each batch far below the output
        monkeypatch.setattr(layers_mod, "INFERENCE_BUDGET_BYTES", 2**20)
        net = _conv_net()
        rows = inference_batch_rows(net.layers[:1], (1, 28, 28))
        x = SeededRng(11).standard_normal((12 * rows + 3, 1, 28, 28))
        ref = np.concatenate([forward(net.layers[0], x[i:i + rows])
                              for i in range(0, len(x), rows)])
        tracemalloc.start()
        try:
            out = network_forward(net, x, upto=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(out, ref)
        assert out.strides == ref.strides
        assert peak < 1.3 * out.nbytes

    def test_predict_memory_independent_of_rows(self):
        net = _conv_net()
        rows = inference_batch_rows(net.layers, (1, 28, 28))
        peaks = []
        for n in (2 * rows, 8 * rows):
            x = SeededRng(10).standard_normal((n, 1, 28, 28))
            tracemalloc.start()
            try:
                predict(net, x)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) / peaks[0] < 0.05


class TestBatchBoundaries:
    """network_forward cuts its input where make_batches cuts it, and each
    batch's rows are those the layers give that slice alone, bit for bit.
    Against one batch of the whole input they agree to rounding only: a
    batch of one row goes through numpy's matrix-vector product."""

    NETS = {"dense": (_dense_net, (5, 6)), "conv": (_conv_net, (28, 28))}
    SIZES = {"rows-1": lambda r: r - 1, "rows": lambda r: r,
             "rows+1": lambda r: r + 1, "2rows+1": lambda r: 2 * r + 1}

    @staticmethod
    def _run(layers, x):
        a = np.asarray(x, dtype=np.float64)
        for tl in layers:
            a = forward(tl, a)
        return a

    @pytest.mark.parametrize("net", sorted(NETS))
    @pytest.mark.parametrize("pixels", [False, True], ids=["array", "pixels"])
    @pytest.mark.parametrize("whole", [True, False], ids=["predict", "upto"])
    @pytest.mark.parametrize("size", list(SIZES))
    def test_batches_match_their_slices(self, monkeypatch, net, pixels,
                                        whole, size):
        make_net, image = self.NETS[net]
        net = make_net()
        layers = net.layers if whole else net.layers[:1]
        rows = inference_batch_rows(layers, (1, *image))
        n = self.SIZES[size](rows)
        if pixels:
            x = Pixels(np.random.default_rng(14).integers(
                0, 256, size=(n, *image), dtype=np.uint8))
        else:
            x = SeededRng(15).standard_normal((n, 1, *image))
        starts = range(0, n, rows)
        sliced = np.concatenate([self._run(layers, x[s:s + rows])
                                 for s in starts])
        one = self._run(layers, x)
        calls = _count_forwards(monkeypatch)
        out = predict(net, x)[0] if whole else network_forward(net, x, upto=1)
        assert calls[::len(layers)] == [min(rows, n - s) for s in starts]
        assert np.array_equal(out, sliced)
        assert out.strides == one.strides
        assert np.max(np.abs(out - one)) <= 1e-12 * np.max(np.abs(one))

    @pytest.mark.parametrize("x", [np.zeros(30), np.float64(1.0)],
                             ids=["1-D", "0-D"])
    def test_no_sample_axis_rejected_by_name(self, x):
        with pytest.raises(ValueError,
                           match="^input needs a leading sample axis$"):
            predict(_dense_net(), x)


class _BatchSeen(Exception):
    pass


def _fit_batch_size(monkeypatch, specs, x, y, **kwargs):
    """Rows per batch that fit_network asks make_batches for; nothing is fit."""

    def record(x, y, batch_size):
        raise _BatchSeen(batch_size)

    monkeypatch.setattr(layers_mod, "make_batches", record)
    with pytest.raises(_BatchSeen) as seen:
        fit_network(specs, (x, y), **kwargs)
    return seen.value.args[0]


class TestFitBatches:
    def _dense(self, n=40, d=30, labels=4):
        rng = SeededRng(21)
        return ([_dense_spec(64, activation="relu"), LayerSpec("output")],
                rng.standard_normal((n, d)), one_hot(np.arange(n) % labels))

    def test_dense_batches_grow_to_the_gram_or_budget(self, monkeypatch):
        # widest design rows: the output layer's 64 inputs plus intercept,
        # which is also the side of the largest Gram matrix
        specs, x, y = self._dense()
        assert _fit_batch_size(monkeypatch, specs, x, y, batch_size=16) == 65
        assert _fit_batch_size(monkeypatch, specs, x, y, batch_size=100) == 100
        # the output layer holds 64 + 65 + 4 floats a row, so a budget of
        # 20 rows of 65 floats takes 9 of its rows
        monkeypatch.setattr(layers_mod, "INFERENCE_BUDGET_BYTES", 8 * 65 * 20)
        assert _fit_batch_size(monkeypatch, specs, x, y, batch_size=16) == 9

    def test_conv_batches_capped_at_budget(self, monkeypatch):
        specs = _conv_specs()
        x, y = np.zeros((4, 1, 28, 28)), one_hot(np.arange(4) % 2)
        # layer 1 holds the most a sample: its 32x24x24 input, its window
        # matrix of 11x11 positions x 32 channels x 3x3 and its 64x11x11
        # output, 61024 floats; 34 images fill the budget
        assert INFERENCE_BUDGET_BYTES // (8 * 61024) == 34
        assert _fit_batch_size(monkeypatch, specs, x, y, batch_size=256) == 34
        assert _fit_batch_size(monkeypatch, specs, x, y, batch_size=8) == 8

    def test_iterative_keeps_mode_batch(self, monkeypatch):
        specs, x, y = self._dense()
        mode = IterativeConfig(batch=7)
        assert _fit_batch_size(monkeypatch, specs, x, y, mode=mode,
                               batch_size=16) == 7

    def test_grown_batches_match_fixed_stream(self):
        rng = SeededRng(22)
        x = rng.standard_normal((1500, 50))
        y = one_hot(np.arange(1500) % 5)
        specs = [_dense_spec(300, activation="relu", g="sign"),
                 LayerSpec("output")]
        net = fit_network(specs, (x, y), batch_size=256)  # 301-row batches
        hidden = fit_layer(specs[0], make_batches(x, y, 256))
        h = forward(hidden, x)
        out = fit_layer(specs[1], make_batches(h, y, 256))
        for got, ref in zip(net.layers, (hidden, out)):
            rel = np.linalg.norm(got.w - ref.w) / np.linalg.norm(ref.w)
            assert rel <= 1e-8

    def test_conv_budget_batches_match_fixed_stream(self, monkeypatch):
        specs = _conv_specs()
        x = SeededRng(23).standard_normal((300, 1, 28, 28))
        y = one_hot(np.arange(300) % 2)
        sizes = []
        batches = layers_mod.make_batches

        def recorded(x, y, batch_size):
            sizes.append(batch_size)
            return batches(x, y, batch_size)

        monkeypatch.setattr(layers_mod, "make_batches", recorded)
        net = fit_network(specs, (x, y), batch_size=256)
        assert sizes == [34]
        refs, a = [], x
        for spec in specs:
            if spec.kind == "global_avg_pool":
                refs.append(TrainedLayer(spec))
            else:
                refs.append(fit_layer(spec, batches(a, y, 256)))
            if spec.kind != "output":
                a = forward(refs[-1], a)
        for got, ref in zip(net.layers, refs):
            if ref.w is not None:
                rel = np.linalg.norm(got.w - ref.w) / np.linalg.norm(ref.w)
                assert rel <= 1e-8

    def test_conv_stack_fit_memory_within_budget(self):
        # at batch_size 256 one batch of layer 1's window matrix alone would
        # take 8 * 11 * 11 * 288 * 256 bytes, over four budgets
        x = SeededRng(24).standard_normal((300, 1, 28, 28))
        y = one_hot(np.arange(300) % 2)
        tracemalloc.start()
        try:
            fit_network(_conv_specs(), (x, y), batch_size=256)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * INFERENCE_BUDGET_BYTES

    def test_conv_fit_holds_one_batch_at_a_time(self):
        # a 64-image batch of 24x24 windows: 25 inputs and 24 targets a row
        b, width, out = 64, 25, 24
        x = SeededRng(12).standard_normal((4 * b, 1, 28, 28))
        y = one_hot(np.arange(4 * b) % 2)
        spec = LayerSpec("conv2d", out, (5, 5), 1, "relu",
                         TargetGenSpec(q_seed=1, u_seed=2))
        tracemalloc.start()
        try:
            fit_layer(spec, make_batches(x, y, b))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        two_batches = 2 * 8 * b * 24 * 24 * (width + out)
        assert peak < two_batches

    def test_stream_hands_each_batch_over(self, monkeypatch):
        # layer 1 of a conv -> conv stack: once its window rows are built,
        # its input batch must go before the targets are generated
        b, side = 64, 16
        specs = [LayerSpec("conv2d", 8, (1, 1), 1, "relu",
                           TargetGenSpec(q_seed=1, u_seed=2)),
                 LayerSpec("conv2d", 3, (1, 2), 1, "relu",
                           TargetGenSpec(q_seed=3, u_seed=4)),
                 LayerSpec("global_avg_pool"), LayerSpec("output")]
        x = SeededRng(13).standard_normal((4 * b, 1, side, side))
        y = one_hot(np.arange(4 * b) % 2)
        peaks = []
        fit = layers_mod.fit_layer

        def measured(spec, stream, **kwargs):
            if spec is not specs[1]:
                return fit(spec, stream, **kwargs)
            tracemalloc.start()
            try:
                return fit(spec, stream, **kwargs)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        monkeypatch.setattr(layers_mod, "fit_layer", measured)
        fit_network(specs, (x, y), batch_size=b)
        positions = side * (side - 1)
        batch = 8 * b * side * side * 8          # layer 1's input
        rows = 8 * b * positions * (8 * 2)       # its window rows
        label_rows = 8 * b * positions * 2
        targets = 8 * b * positions * 3          # g(a @ q), and g(y @ u)
        # gathering holds the input, rows and label rows; generating targets
        # holds the rows, label rows and two target-sized products, and the
        # input too unless the stream and fit_layer have let it go
        assert peaks[0] < batch + rows + label_rows + targets


def _dense_784_specs():
    """784 -> dense 1000 -> output: 1001 design rows a batch, as on the
    benchmark MLP."""
    return [_dense_spec(1000, activation="relu", g="sign", q_seed=1,
                        u_seed=2), LayerSpec("output")]


def _traced_peak(call):
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestLiveSetWithinBudget:
    """A batch's input, what a step builds and its output fit
    INFERENCE_BUDGET_BYTES together, in a fit and in predict alike."""

    CASES = {
        # 300 images at batch_size 256: 34 a batch
        "conv": lambda: (_conv_specs(),
                         SeededRng(26).standard_normal((300, 1, 28, 28)),
                         one_hot(np.arange(300) % 10), 600),
        # 3000 rows asked for in batches of 2000, which the output layer's
        # 1000 inputs, 1001 rows and 10 scores cap at 1042
        "dense": lambda: (_dense_784_specs(),
                          SeededRng(27).standard_normal((3000, 784)),
                          one_hot(np.arange(3000) % 10), 2000),
    }

    @staticmethod
    def _fixed_state(net):
        """Bytes a fit holds besides its batches: every layer's weights and
        projections, and the largest layer's Gram sums."""
        held = sum(m.nbytes for tl in net.layers for m in (tl.w, tl.q, tl.u)
                   if m is not None)
        gram = max(8 * tl.w.shape[0] * sum(tl.w.shape)
                   for tl in net.layers if tl.w is not None)
        return held + gram

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_fit(self, case):
        specs, x, y, _ = self.CASES[case]()
        net, peak = _traced_peak(
            lambda: fit_network(specs, (x, y), batch_size=2000))
        assert peak < 1.15 * INFERENCE_BUDGET_BYTES + self._fixed_state(net)

    def test_dense_step_holds_no_label_product(self):
        # a 1000 -> 1000 hidden layer on 1001-row batches, each made as the
        # stream is read; the budget counts a step's input and targets
        rows, width = 1001, 1000
        spec = _dense_spec(width, activation="relu", g="sign", q_seed=1,
                           u_seed=2)
        rng = SeededRng(29)
        q = rng.standard_normal((width, width))
        u = rng.standard_normal((10, width))

        def stream():
            batches = SeededRng(30)
            for _ in range(3):
                yield (batches.standard_normal((rows, width)),
                       one_hot(np.arange(rows) % 10))

        _, peak = _traced_peak(lambda: fit_layer(spec, stream, q=q, u=u))
        gram = 8 * width * (width + width)
        assert peak - gram <= 1.15 * 8 * rows * (width + width)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_predict(self, case):
        specs, x, y, n = self.CASES[case]()
        net = fit_network(specs, (x[:100], y[:100]))
        x = SeededRng(28).standard_normal((n, *x.shape[1:]))
        (scores, labels), peak = _traced_peak(lambda: predict(net, x))
        assert peak < (1.15 * INFERENCE_BUDGET_BYTES + scores.nbytes
                       + labels.nbytes)


class TestUnboundBlas:
    """With every OpenBLAS binding unbound, as on a numpy without the
    scipy_-prefixed symbols, fits and predictions run on numpy alone and
    agree with the bound run to rounding."""

    BINDINGS = ("_DSYRK", "_DGEMM", "_DTRSM", "_DPOTRF")
    # (specs, data, n x n dual solves in one fit)
    CASES = {
        # 300 rows of 16 inputs: every layer solves the d x d primal system
        "dense primal": lambda: (
            [_dense_spec(24, "relu", "sign"), LayerSpec("output")],
            synthetic_gaussian_task(300, 16, 3, 3.0, SeededRng(40)), 0),
        # 20 rows of 40 inputs, 48 units: every layer solves the n x n dual
        "few-row dual": lambda: (
            [_dense_spec(48, "relu", "sign"), LayerSpec("output")],
            synthetic_gaussian_task(20, 40, 4, 3.0, SeededRng(41)), 2),
        "conv stack": lambda: (
            [LayerSpec("conv2d", 4, (3, 3), 1, "relu",
                       TargetGenSpec(q_seed=1, u_seed=2)),
             LayerSpec("conv2d", 6, (3, 3), 2, "relu",
                       TargetGenSpec(q_seed=3, u_seed=4)),
             LayerSpec("global_avg_pool"), LayerSpec("output")],
            Dataset(SeededRng(42).standard_normal((24, 1, 10, 10)),
                    one_hot(np.arange(24) % 3), ["0", "1", "2"]), 0),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_bound_run(self, monkeypatch, case):
        if all(getattr(linalg, name) is None for name in self.BINDINGS):
            pytest.skip("numpy bundles none of the OpenBLAS bindings")
        import fpnet.core as core
        dual_calls = []
        solve = core._dual_solve
        monkeypatch.setattr(core, "_dual_solve",
                            lambda *a: dual_calls.append(1) or solve(*a))
        specs, data, duals = self.CASES[case]()
        bound = fit_network(specs, data, batch_size=64)
        bound_labels = predict(bound, data.x)[1]
        for name in self.BINDINGS:
            monkeypatch.setattr(linalg, name, None)
        unbound = fit_network(specs, data, batch_size=64)
        assert len(dual_calls) == 2 * duals
        for b, u in zip(bound.layers, unbound.layers):
            if b.w is not None:
                assert (np.linalg.norm(u.w - b.w)
                        <= 1e-10 * np.linalg.norm(b.w))
        assert np.array_equal(predict(unbound, data.x)[1], bound_labels)


def _channel_major_to_last(rows, channels):
    """Columns of channel-major window rows regrouped as (kernel, channel)."""
    n, width = rows.shape
    k = width // channels
    return rows.reshape(n, channels, k).transpose(0, 2, 1).reshape(n, width)


def _images(shape, seed, channels_last_memory):
    """(N, C, *spatial) input, as a contiguous array or as a moveaxis view
    over (N, *spatial, C) memory, the layout conv outputs have."""
    rng = SeededRng(seed)
    if not channels_last_memory:
        return rng.standard_normal(shape)
    raw = rng.standard_normal((shape[0], *shape[2:], shape[1]))
    return np.moveaxis(raw, -1, 1)


def _conv_dense_pair(channels, kernel, stride, out=6, g="sign", lam=10.0):
    kind = "conv1d" if len(kernel) == 1 else "conv2d"
    target = TargetGenSpec(g=g, q_seed=3, u_seed=4)
    conv = LayerSpec(kind, out_channels=out, kernel=kernel, stride=stride,
                     activation="relu", target=target,
                     ridge=RidgeConfig(lam=lam))
    return conv, _dense_spec(out, g=g, lam=lam, q_seed=3, u_seed=4)


class TestChannelsLastWindows:
    @pytest.mark.parametrize("moved", [False, True])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("channels", [1, 3])
    @pytest.mark.parametrize("shape, kernel", [((2, 11), (3,)),
                                               ((2, 7, 6), (3, 2))])
    def test_columns_are_channel_major_reordered(self, shape, kernel,
                                                 channels, stride, moved):
        x = _images((shape[0], channels, *shape[1:]), 70, moved)
        cm = extract_windows(x, kernel, stride)
        cl = extract_windows(x, kernel, stride, channels_last=True)
        assert cl.flags["C_CONTIGUOUS"]
        assert np.array_equal(cl, _channel_major_to_last(cm, channels))

    def test_conv_forward_matches_channel_major_windows(self):
        x = _images((3, 3, 9, 8), 71, channels_last_memory=True)
        spec = LayerSpec("conv2d", out_channels=5, kernel=(3, 3), stride=2,
                         activation="identity")
        w = SeededRng(72).standard_normal((27, 5))
        out = forward(TrainedLayer(spec, w=w), x)
        ref = (extract_windows(x, (3, 3), 2) @ w).reshape(3, 4, 3, 5)
        assert_allclose(out, np.moveaxis(ref, -1, 1), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("shape, kernel, stride", [
        ((40, 3, 12), (3,), 1),         # 400 rows of width 9: primal
        ((30, 3, 9, 8), (3, 2), 2),     # 360 rows of width 18: primal
        ((2, 3, 5, 5), (3, 3), 2)])     # 8 rows of width 27: dual
    def test_closed_form_fit_matches_dense_fit(self, shape, kernel, stride,
                                               monkeypatch):
        import fpnet.core as core
        dual_calls = []
        solve = core._dual_solve
        monkeypatch.setattr(core, "_dual_solve",
                            lambda *a: dual_calls.append(1) or solve(*a))
        x = _images(shape, 73, channels_last_memory=True)
        y = one_hot(np.arange(shape[0]) % 2)
        conv_spec, dense_spec = _conv_dense_pair(3, kernel, stride)
        conv = fit_layer(conv_spec, [(x, y)])
        windows = extract_windows(x, kernel, stride)
        y_rows = np.repeat(y, windows.shape[0] // shape[0], axis=0)
        dense = fit_layer(dense_spec, [(windows, y_rows)])
        assert len(dual_calls) == 2 * (windows.shape[0] < windows.shape[1])
        assert conv.w.flags["C_CONTIGUOUS"]
        assert np.array_equal(conv.q, dense.q)
        assert_allclose(conv.w, dense.w, rtol=1e-9, atol=1e-12)

    def test_iterative_fit_matches_dense_fit(self):
        x = _images((6, 3, 7, 7), 74, channels_last_memory=True)
        y = one_hot(np.arange(6) % 3)
        conv_spec, dense_spec = _conv_dense_pair(3, (3, 3), 2)
        mode = IterativeConfig(eta=1e-3, epochs=3)
        halves = (slice(0, 3), slice(3, 6))
        conv = fit_layer(conv_spec, [(x[h], y[h]) for h in halves], mode=mode)
        stream = [(extract_windows(x[h], (3, 3), 2),
                   np.repeat(y[h], 9, axis=0)) for h in halves]
        dense = fit_layer(dense_spec, stream, mode=mode)
        assert conv.w.flags["C_CONTIGUOUS"]
        assert_allclose(conv.w, dense.w, rtol=1e-9, atol=1e-12)

    def test_label_projection_fit_matches_dense_fit(self):
        x = _images((20, 3, 8, 8), 75, channels_last_memory=True)
        y = one_hot(np.arange(20) % 4)
        conv_spec, dense_spec = _conv_dense_pair(3, (3, 3), 1)
        kind = BaselineKind("label_projection")

        def targets(rows, y, q, u, target_spec):
            return make_baseline_targets(kind, y, u, n_rows=len(rows))

        conv = fit_layer(conv_spec, [(x, y)], targets=targets)
        windows = extract_windows(x, (3, 3), 1)
        dense = fit_layer(dense_spec, [(windows, np.repeat(y, 36, axis=0))],
                          targets=targets)
        assert_allclose(conv.w, dense.w, rtol=1e-9, atol=1e-12)

    def test_random_features_keep_q_itself(self):
        x = _images((4, 3, 6, 6), 76, channels_last_memory=True)
        conv_spec, _ = _conv_dense_pair(3, (3, 3), 1)
        kind = BaselineKind("random_features")
        layer = fit_layer(conv_spec, [(x, one_hot(np.arange(4) % 2))],
                          targets=lambda rows, y_rows, q, u, t:
                          make_baseline_targets(kind, y_rows, u))
        assert layer.w is layer.q

    def test_one_gather_through_the_module(self, monkeypatch):
        calls = []
        gather = layers_mod.extract_windows

        def counted(*args, **kwargs):
            calls.append(kwargs.get("channels_last", False))
            return gather(*args, **kwargs)

        monkeypatch.setattr(layers_mod, "extract_windows", counted)
        x = _images((4, 3, 6, 6), 77, channels_last_memory=True)
        conv_spec, _ = _conv_dense_pair(3, (3, 3), 1)
        layer = fit_layer(conv_spec, [(x, one_hot(np.arange(4) % 2))])
        assert calls == [True]
        potentials(layer, x)
        assert calls == [True, True]


class TestInputsUnchanged:
    @pytest.mark.parametrize("kind", ["relu", "sign", "tanh", "identity",
                                      "mod2", "square"])
    def test_activate(self, kind):
        z = SeededRng(30).standard_normal((5, 4))
        before = z.copy()
        activate(kind, z)
        assert np.array_equal(z, before)

    @pytest.mark.parametrize("kind", ["relu", "sign", "tanh", "identity",
                                      "mod2", "square"])
    def test_forward_activation_values(self, kind):
        rng = SeededRng(33)
        x, w = rng.standard_normal((7, 5)), rng.standard_normal((5, 4))
        before = x.copy()
        out = forward(TrainedLayer(LayerSpec("dense", 4, activation=kind),
                                   w=w), x)
        assert np.array_equal(x, before)
        assert out.tobytes() == activate(kind, x @ w).tobytes()

    @pytest.mark.parametrize("make_net, shape", [
        (_dense_net, (6, 30)), (_conv_net, (3, 1, 28, 28))],
        ids=["dense", "conv"])
    def test_forward(self, make_net, shape):
        x = SeededRng(31).standard_normal(shape)
        before = x.copy()
        a = x
        for tl in make_net().layers:
            a_before = a.copy()
            out = forward(tl, a)
            assert np.array_equal(a, a_before)
            a = out
        assert np.array_equal(x, before)

    @pytest.mark.parametrize("g, alpha", [("sign", 0.0), ("identity", 0.5),
                                          ("tanh", 0.0)])
    def test_generate_targets(self, g, alpha):
        rng = SeededRng(32)
        a, q, u = (rng.standard_normal(s) for s in ((9, 6), (6, 5), (3, 5)))
        y = one_hot(np.arange(9) % 3)
        inputs = (a, y, q, u)
        before = [m.copy() for m in inputs]
        z = generate_targets(*inputs, TargetGenSpec(g=g, alpha=alpha))
        for m, ref in zip(inputs, before):
            assert np.array_equal(m, ref)
        expect = {"sign": np.sign, "identity": lambda v: v, "tanh": np.tanh}[g]
        assert np.array_equal(z, expect(a @ q) + expect(y @ u) + alpha)


def _block_bytes(block, call):
    """``call()`` with conv window rows built in blocks of ``block`` bytes."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(layers_mod, "WINDOW_BLOCK_BYTES", block)
        return call()


WHOLE = 2**40  # block bytes that take any test batch whole


class TestWindowBlocks:
    """Conv layers build their window rows a block of samples at a time."""

    # 13 and 10 samples in blocks of 4 and 3: the last block is partial
    POTENTIALS = {
        "conv2d": lambda: (LayerSpec("conv2d", 5, (3, 2), 2, "relu"),
                           (13, 3, 12, 11), 4 * 8 * 25 * 18),
        "conv1d": lambda: (LayerSpec("conv1d", 7, (5,), 3, "relu"),
                           (10, 4, 50), 3 * 8 * 16 * 20),
    }

    @pytest.mark.parametrize("case", sorted(POTENTIALS))
    def test_blocked_potentials_bit_identical(self, case):
        spec, shape, block = self.POTENTIALS[case]()
        x = SeededRng(31).standard_normal(shape)
        width = shape[1] * int(np.prod(spec.kernel))
        layer = TrainedLayer(spec, w=SeededRng(32).standard_normal(
            (width, spec.out_channels)))
        assert len(_block_bytes(
            block, lambda: layers_mod._blocks(spec, x))) == 4
        blocked = _block_bytes(block, lambda: potentials(layer, x))
        whole = _block_bytes(WHOLE, lambda: potentials(layer, x))
        assert np.array_equal(blocked, whole)
        assert blocked.strides == whole.strides

    def test_closed_form_fits_match_single_block(self):
        # a block of one image on both conv layers, 37 images a batch
        x = SeededRng(33).standard_normal((80, 1, 28, 28))
        y = one_hot(np.arange(80) % 4)
        fits = [_block_bytes(block, lambda: fit_network(
                    _conv_specs(), (x, y), batch_size=37))
                for block in (8, WHOLE)]
        for got, ref in zip(*(net.layers for net in fits)):
            if ref.w is not None:
                rel = np.linalg.norm(got.w - ref.w) / np.linalg.norm(ref.w)
                assert rel <= 1e-12

    def test_noisy_label_projection_draws_same_noise(self, monkeypatch):
        # noise is drawn per design row, so blocks of rows in order draw
        # the same sequence as whole batches
        x = SeededRng(34).standard_normal((30, 1, 28, 28))
        y = one_hot(np.arange(30) % 3)
        kind = BaselineKind("noisy_label_projection")
        make, drawn = baselines_mod.make_baseline_targets, []

        def recorded(*args, **kwargs):
            drawn.append(make(*args, **kwargs))
            return drawn[-1]

        monkeypatch.setattr(baselines_mod, "make_baseline_targets", recorded)
        fits, targets = [], []
        for block in (2**18, WHOLE):
            drawn.clear()
            fits.append(_block_bytes(block, lambda: fit_baseline_network(
                kind, _conv_specs(), (x, y), noise_seed=5)))
            targets.append((len(drawn),
                            np.concatenate([z.ravel() for z in drawn])))
        (blocks, blocked), (batches, whole) = targets
        assert blocks > batches
        assert np.array_equal(blocked, whole)
        for got, ref in zip(*(net.layers for net in fits)):
            if ref.w is not None:
                rel = np.linalg.norm(got.w - ref.w) / np.linalg.norm(ref.w)
                assert rel <= 1e-12

    def test_fit_and_predict_build_one_block_at_a_time(self, monkeypatch):
        built = []
        extract = layers_mod.extract_windows

        def spied(*args, **kwargs):
            rows = extract(*args, **kwargs)
            built.append(rows.nbytes)
            return rows

        x = SeededRng(35).standard_normal((100, 1, 28, 28))
        y = one_hot(np.arange(100) % 10)
        monkeypatch.setattr(layers_mod, "extract_windows", spied)
        net = fit_network(_conv_specs(), (x, y), batch_size=256)
        fitted = len(built)
        predict(net, x)
        assert max(built) <= layers_mod.WINDOW_BLOCK_BYTES
        # 34-image batches, in blocks of 9 and 3 images
        assert fitted > 2 * 3 * 2 and len(built) > fitted

    def test_predict_memory_within_input_output_and_two_blocks(self):
        net = _conv_net()
        x = SeededRng(36).standard_normal((34, 1, 28, 28))
        # each step's input and output, for one 34-image batch
        shapes = [(1, 28, 28), (32, 24, 24), (64, 11, 11), (64,), (10,)]
        step = max(8 * 34 * (np.prod(a) + np.prod(b))
                   for a, b in zip(shapes, shapes[1:]))
        _, peak = _traced_peak(lambda: predict(net, x))
        slack = 2**19
        assert peak < step + 2 * layers_mod.WINDOW_BLOCK_BYTES + slack

@pytest.mark.fmnist
class TestImageBenchmarkLayer:
    def test_first_hidden_layer_local_residual(self, fmnist):
        # fitted potentials stay within the scale of their targets
        train, _ = fmnist
        spec = LayerSpec("dense", out_channels=1000, activation="relu",
                         target=TargetGenSpec(g="sign", q_seed=0, u_seed=1),
                         ridge=RidgeConfig(lam=10.0))
        layer = fit_layer(spec, make_batches(train.x, train.y, 512))
        num = den = 0.0
        for start in range(0, train.n, 2048):
            xb = train.x[start:start + 2048]
            yb = train.y[start:start + 2048]
            rows = xb.reshape(xb.shape[0], -1)
            ztil = generate_targets(rows, yb, layer.q, layer.u, spec.target)
            z = rows @ layer.w
            num += float(np.sum((z - ztil) ** 2))
            den += float(np.sum(ztil ** 2))
        assert np.sqrt(num / den) < 1.0


def _one_batch():
    return [(np.ones((4, 3)), np.eye(2)[[0, 1, 0, 1]])]


# raises that no other test reaches: (call, exception type, message match)
_LAYERS_RAISES = {
    "zero kernel": (lambda: LayerSpec("conv2d", 4, (0, 3)), ValueError,
                    r"kernel entries must be >= 1, got \(0, 3\)"),
    "output not last": (
        lambda: Network([TrainedLayer(LayerSpec("output")),
                         TrainedLayer(_dense_spec(4))], 2, ["a", "b"]),
        ValueError, "exactly one output layer, last"),
    "zero stride": (
        lambda: extract_windows(np.zeros((1, 1, 4, 4)), (2, 2), stride=0),
        ValueError, "stride must be >= 1, got 0"),
    "windows without channels": (
        lambda: extract_windows(np.zeros((1, 4, 4)), (2, 2)),
        ValueError, "one spatial axis per kernel length"),
    "pooling flat input": (
        lambda: forward(TrainedLayer(LayerSpec("global_avg_pool")),
                        np.zeros((2, 3))),
        ValueError, r"pooling expects \(N, C, \*spatial\) input"),
    "no target spec": (
        lambda: fit_layer(LayerSpec("dense", 4), _one_batch()),
        ValueError, "dense layer has no target generation spec"),
    "unknown mode": (
        lambda: fit_layer(_dense_spec(4), _one_batch(), mode="newton"),
        ValueError, "unknown mode 'newton'"),
    "fit pooling": (
        lambda: fit_layer(LayerSpec("global_avg_pool"), _one_batch()),
        ValueError, "fit_layer handles trainable and output layers"),
    "zero batch": (lambda: make_batches(np.ones((3, 2)), np.ones((3, 2)), 0),
                   ValueError, "batch_size must be >= 1"),
    "labels short": (
        lambda: make_batches(np.ones((3, 2)), np.ones((2, 2)), 1),
        ValueError, "x and y disagree on sample count"),
}


@pytest.mark.parametrize("case", list(_LAYERS_RAISES))
def test_bad_arguments_raise(case):
    call, error, match = _LAYERS_RAISES[case]
    with pytest.raises(error, match=match):
        call()


class TestEachProjectionDrawnOnItsOwn:
    """``fit_layer`` draws only the projections it is not given and holds
    none it drew, and a fit checks that the layers chain before anything
    streams."""

    def _fit(self, **given):
        task = synthetic_gaussian_task(60, 12, 3, 3.0, SeededRng(21))
        spec = _dense_spec(8, activation="relu", g="sign", q_seed=5, u_seed=6)
        (q, u), _ = layers_mod.draw_projections([spec, LayerSpec("output")],
                                                (12,), 3)
        return fit_layer(spec, [(task.x, task.y)], **given), q, u

    def test_given_q_kept_and_u_drawn(self):
        own = SeededRng(22).standard_normal((12, 8))
        layer, _, u = self._fit(q=own)
        assert layer.q is own
        assert np.array_equal(layer.u, u)

    def test_given_u_kept_and_q_drawn(self):
        own = SeededRng(23).standard_normal((3, 8))
        layer, q, _ = self._fit(u=own)
        assert layer.u is own
        assert "q" not in vars(layer)
        assert np.array_equal(layer.q, q)

    @pytest.mark.parametrize("case", ["dense", "conv"])
    def test_drawn_q_let_go(self, case):
        specs, task, _ = _redraw_case(case)
        drawn = layers_mod.draw_projections(specs, task.x.shape[1:],
                                            task.y.shape[1])
        layer = fit_layer(specs[0], [(task.x, task.y)])
        assert "q" not in vars(layer)
        assert np.array_equal(layer.q, drawn[0][0])
        assert np.array_equal(layer.u, drawn[0][1])

    @pytest.mark.parametrize("mode", ["closed_form", IterativeConfig()],
                             ids=["closed_form", "iterative"])
    def test_unchained_fit_streams_nothing(self, monkeypatch, mode):
        calls = []
        for name in ("make_batches", "fit_layer"):
            monkeypatch.setattr(layers_mod, name,
                                lambda *a, name=name, **k: calls.append(name))
        task = synthetic_gaussian_task(30, 12, 3, 3.0, SeededRng(24))
        specs = [LayerSpec("conv1d", 4, (3,), target=TargetGenSpec()),
                 LayerSpec("output")]
        with pytest.raises(ValueError, match=r"do not chain .* \(12,\)"):
            fit_network(specs, task, mode=mode)
        assert calls == []

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fpnet import accounting
from fpnet.baselines import (BaselineKind, fit_baseline_network,
                             make_baseline_targets)
from fpnet.core import RidgeConfig, TargetGenSpec
from fpnet.data import Dataset, one_hot
from fpnet.layers import LayerSpec, fit_network, predict
from fpnet.linalg import SeededRng, rank_estimate
from fpnet.metrics import accuracy

LP = BaselineKind("label_projection")
RF = BaselineKind("random_features")


def _hidden_spec(out, lam=10.0, q_seed=0, u_seed=1):
    return LayerSpec("dense", out_channels=out, activation="relu",
                     target=TargetGenSpec(g="sign", q_seed=q_seed,
                                          u_seed=u_seed),
                     ridge=RidgeConfig(lam=lam))


class TestKind:
    def test_names_validated(self):
        with pytest.raises(ValueError):
            BaselineKind("backprop")

    def test_noise_sigma_positive(self):
        with pytest.raises(ValueError):
            BaselineKind("noisy_label_projection", noise_sigma=0.0)
        BaselineKind("noisy_label_projection", noise_sigma=0.5)


class TestTargets:
    def test_label_projection_identity(self):
        y = np.array([[1.0, 0.0]])
        assert_allclose(make_baseline_targets(LP, y, np.eye(2)), [[1.0, 0.0]])

    def test_noise_vanishes_with_sigma(self):
        rng = SeededRng(5)
        y = one_hot(np.arange(12) % 3)
        u = SeededRng(2).standard_normal((3, 8))
        tiny = BaselineKind("noisy_label_projection", noise_sigma=1e-12)
        got = make_baseline_targets(tiny, y, u, rng)
        assert_allclose(got, y @ u, atol=1e-9)

    def test_label_term_repeated_per_design_row(self):
        y = one_hot(np.array([0, 2, 1]))
        u = SeededRng(3).standard_normal((3, 4))
        got = make_baseline_targets(LP, y, u, n_rows=6)
        assert np.array_equal(got, np.repeat(y @ u, 2, axis=0))
        noisy = BaselineKind("noisy_label_projection", noise_sigma=0.5)
        a = make_baseline_targets(noisy, y, u, SeededRng(8), n_rows=6)
        b = make_baseline_targets(noisy, np.repeat(y, 2, axis=0), u,
                                  SeededRng(8))
        assert np.array_equal(a, b)
        with pytest.raises(ValueError, match="not a multiple"):
            make_baseline_targets(LP, y, u, n_rows=7)

    def test_noise_needs_rng(self):
        noisy = BaselineKind("noisy_label_projection")
        with pytest.raises(ValueError):
            make_baseline_targets(noisy, np.eye(2), np.eye(2))

    def test_random_features_fit_nothing(self):
        assert make_baseline_targets(RF, np.eye(2), np.eye(2)) is None

    def test_label_term_counted_as_target_gen(self):
        # y @ u is counted once per sample, as in generate_targets, however
        # many design rows repeat it; random features compute nothing
        y = one_hot(np.array([0, 2, 1]))
        u = SeededRng(3).standard_normal((3, 4))
        noisy = BaselineKind("noisy_label_projection")
        for kind, rng, macs in ((LP, None, 3 * 3 * 4),
                                (noisy, SeededRng(0), 3 * 3 * 4),
                                (RF, None, 0)):
            with accounting.track() as ledger:
                make_baseline_targets(kind, y, u, rng, n_rows=6)
            assert ledger.macs == {**dict.fromkeys(accounting.PHASES, 0),
                                   "target_gen": macs}


class TestFitBaselineNetwork:
    def test_random_features_keep_projection(self, blobs):
        train, _ = blobs
        specs = [_hidden_spec(24), LayerSpec("output")]
        net = fit_baseline_network(RF, specs, train)
        layer = net.layers[0]
        assert np.array_equal(layer.w, layer.q)

    def test_seeds_shared_with_main_method(self, blobs):
        train, _ = blobs
        specs = [_hidden_spec(24, q_seed=40, u_seed=41), LayerSpec("output")]
        fp = fit_network(specs, train)
        lp = fit_baseline_network(LP, specs, train)
        assert fp.layers[0].q.tobytes() == lp.layers[0].q.tobytes()
        assert fp.layers[0].u.tobytes() == lp.layers[0].u.tobytes()

    def test_output_only_network_matches_main_method(self, blobs):
        train, _ = blobs
        specs = [LayerSpec("output")]
        a = fit_network(specs, train)
        b = fit_baseline_network(RF, specs, train)
        assert_allclose(a.layers[0].w, b.layers[0].w, atol=1e-12)

    def test_label_projection_rank_collapse(self):
        # targets y @ u have rank <= label_dim, and ridge preserves that
        rng = SeededRng(64)
        x = rng.standard_normal((200, 64))
        y = one_hot(np.arange(200) % 4)
        ds = Dataset(x, y, [str(i) for i in range(4)])
        specs = [_hidden_spec(64), LayerSpec("output")]
        lp = fit_baseline_network(LP, specs, ds)
        assert rank_estimate(lp.layers[0].w) <= 4
        fp = fit_network(specs, ds)
        assert rank_estimate(fp.layers[0].w) > 4

    def test_noise_seed_controls_noise(self, blobs):
        train, _ = blobs
        noisy = BaselineKind("noisy_label_projection", noise_sigma=1.0)
        specs = [_hidden_spec(16), LayerSpec("output")]
        a = fit_baseline_network(noisy, specs, train, noise_seed=3)
        b = fit_baseline_network(noisy, specs, train, noise_seed=3)
        c = fit_baseline_network(noisy, specs, train, noise_seed=4)
        assert a.layers[0].w.tobytes() == b.layers[0].w.tobytes()
        assert not np.array_equal(a.layers[0].w, c.layers[0].w)

    def test_specs_still_validated(self, blobs):
        train, _ = blobs
        with pytest.raises(ValueError):
            fit_baseline_network(LP, [_hidden_spec(8)], train)

    def test_baselines_remain_predictive_on_easy_task(self, blobs):
        # separable blobs: every scheme should beat chance clearly
        train, test = blobs
        specs = [_hidden_spec(32), LayerSpec("output")]
        for kind in (LP, RF, BaselineKind("noisy_label_projection")):
            net = fit_baseline_network(kind, specs, train)
            scores, _ = predict(net, test.x)
            assert accuracy(scores, test.y) > 0.5

import inspect
import tracemalloc

import numpy as np
import pytest

from fpnet import accounting, baselines, layers
from fpnet.accounting import (PHASES, CostLedger, add_macs,
                              cholesky_solve_macs, matmul_macs, note_matrices,
                              track)
from fpnet.baselines import BASELINES
from fpnet.bench import (METHODS, bottleneck_sweep, derive_layer_seeds,
                         derive_noise_seed, fewshot_sweep, fit_method,
                         mlp_specs, rows_to_csv, run_benchmark)
from fpnet.core import RidgeConfig, TargetGenSpec
from fpnet.data import few_shot_subsample, synthetic_gaussian_task
from fpnet.errors import DivergenceError
from fpnet.layers import IterativeConfig, LayerSpec, fit_network
from fpnet.linalg import SeededRng


class TestLedger:
    def test_phases_and_total(self):
        led = CostLedger()
        led.add_macs("gram", 10)
        led.add_macs("gram", 5)
        led.add_macs("solve", 1)
        assert led.macs["gram"] == 15
        assert led.total_macs == 16

    def test_unknown_phase(self):
        with pytest.raises(ValueError):
            CostLedger().add_macs("backward", 1)

    def test_peak_tracks_maximum(self):
        led = CostLedger()
        led.note_matrices(np.zeros((4, 4)))          # 128 bytes
        led.note_matrices(np.zeros(2), np.zeros(2))  # 32 bytes, not a new peak
        assert led.peak_matrix_bytes == 128

    def test_none_entries_ignored(self):
        led = CostLedger()
        led.note_matrices(None, np.zeros(1))
        assert led.peak_matrix_bytes == 8

    def test_track_installs_and_restores(self):
        outer = CostLedger()
        with track(outer):
            add_macs("forward", 3)
            inner = CostLedger()
            with track(inner):
                add_macs("forward", 5)
            add_macs("forward", 1)
        add_macs("forward", 100)  # no active ledger: dropped
        note_matrices(np.zeros(1000))
        assert outer.macs["forward"] == 4
        assert inner.macs["forward"] == 5
        assert outer.peak_matrix_bytes == 0

    def test_formulas(self):
        assert matmul_macs(3, 4, 5) == 60
        assert cholesky_solve_macs(6, 2) == 36 + 72

    def test_solve_cost_cubic_bound(self):
        for n in (1, 3, 16, 100, 1000):
            for k in (1, 2, n, 3 * n):
                assert cholesky_solve_macs(n, k) <= 2 * max(n, k) ** 3


class TestInstrumentation:
    def _task(self, n=512, seed=31):
        rng = SeededRng(seed)
        return synthetic_gaussian_task(n, 32, 4, 3.0, rng)

    def _specs(self, width=16):
        return [LayerSpec("dense", out_channels=width, activation="relu",
                          target=TargetGenSpec(g="sign", q_seed=0, u_seed=1),
                          ridge=RidgeConfig(lam=10.0)),
                LayerSpec("output", ridge=RidgeConfig(lam=1.0))]

    def test_gram_macs_near_analytic(self):
        train = self._task()
        led = CostLedger()
        with track(led):
            fit_network(self._specs()[:1] + [LayerSpec("output")], train)
        # hidden layer: N*32*32 for the gram plus N*32*16 for the cross term;
        # output layer adds N*17*17 + N*17*4. All within 2x of N*d^2.
        analytic = 512 * 32 * 32
        assert led.macs["gram"] >= analytic
        assert led.macs["gram"] <= 2 * analytic

    def test_solve_macs_within_documented_bound(self):
        train = self._task()
        led = CostLedger()
        with track(led):
            fit_network(self._specs(), train)
        assert 0 < led.macs["solve"] <= 2 * (2 * 32 ** 3)  # two layers

    def test_all_phases_populated(self):
        train = self._task()
        _, led = run_benchmark(self._specs(), train, self._task(128, 32))
        for phase in PHASES:
            assert led.macs[phase] > 0, phase

    def test_peak_bytes_independent_of_n(self):
        small = self._task(n=1000, seed=33)
        large = self._task(n=2000, seed=34)
        peaks = []
        for train in (small, large):
            led = CostLedger()
            with track(led):
                fit_network(self._specs(), train, batch_size=128)
            peaks.append(led.peak_matrix_bytes)
        assert peaks[0] > 0
        assert abs(peaks[0] - peaks[1]) / peaks[0] < 0.01


class TestSeeds:
    def test_layer_seeds_distinct_and_stable(self):
        seen = set()
        for master in range(5):
            for layer in range(6):
                pair = derive_layer_seeds(master, layer)
                assert pair == derive_layer_seeds(master, layer)
                seen.add(pair)
        assert len(seen) == 30

    def test_noise_seed_distinct_from_layer_seeds(self):
        layer_seeds = {s for l in range(8) for s in derive_layer_seeds(3, l)}
        assert derive_noise_seed(3) not in layer_seeds


class TestHarness:
    def _splits(self):
        rng = SeededRng(40)
        train = synthetic_gaussian_task(600, 16, 4, 3.5, rng)
        test = synthetic_gaussian_task(300, 16, 4, 3.5, rng)
        return train, test

    def test_mlp_specs_shape(self):
        specs = mlp_specs([64, 32], lam_hidden=10.0, lam_output=1.0, seed=2)
        assert [s.kind for s in specs] == ["dense", "dense", "output"]
        assert specs[0].target.q_seed != specs[1].target.q_seed
        assert specs[0].effective_ridge().lam == 10.0
        assert specs[2].effective_ridge().lam == 1.0

    def test_run_benchmark_report(self):
        train, test = self._splits()
        report, ledger = run_benchmark(mlp_specs([32], seed=1), train, test,
                                       seed=1)
        assert report.n == 300 and report.seed == 1
        assert report.accuracy > 0.8
        assert ledger.total_macs > 0

    def test_fit_method_baseline_dispatch(self):
        train, _ = self._splits()
        specs = mlp_specs([16], seed=0)
        rf = fit_method("random_features", specs, train)
        assert np.array_equal(rf.layers[0].w, rf.layers[0].q)
        with pytest.raises(ValueError):
            fit_method("gradient_descent", specs, train)

    @pytest.mark.parametrize("method", BASELINES)
    def test_fit_method_baselines_follow_mode(self, method):
        train, _ = self._splits()
        specs = mlp_specs([16, 8], seed=0)
        closed = fit_method(method, specs, train, seed=3)
        iterative = fit_method(method, specs, train, seed=3,
                               mode=IterativeConfig(eta=1e-3, epochs=2,
                                                    batch=64))
        out_c, out_i = closed.layers[-1].w, iterative.layers[-1].w
        assert out_c.shape == out_i.shape
        assert not np.allclose(out_c, out_i)
        for hc, hi in zip(closed.layers[:-1], iterative.layers[:-1]):
            assert hc.q.tobytes() == hi.q.tobytes()
            if method == "random_features":  # hidden layers are not fitted
                assert np.array_equal(hi.w, hi.q)
            else:
                assert hc.w.shape == hi.w.shape
                assert not np.allclose(hc.w, hi.w)

    def test_bottleneck_sweep_rows(self, tmp_path):
        train, test = self._splits()
        rows = bottleneck_sweep(train, test, widths=(8, 16),
                                base_widths=(24,), seed=0, methods=METHODS)
        assert len(rows) == len(METHODS) * 2
        assert {r["method"] for r in rows} == set(METHODS)
        assert all(0.0 <= r["accuracy"] <= 1.0 for r in rows)
        path = tmp_path / "sweep.csv"
        rows_to_csv(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "method,width,accuracy,auc_macro,aupr_macro,n,seed,total_macs"
        assert len(lines) == len(rows) + 1

    def test_fewshot_sweep_rows(self):
        train, test = self._splits()
        rows = fewshot_sweep(train, test, shots=(5, 10), seeds=(0, 1),
                             hidden=(16,))
        assert len(rows) == 4
        assert {(r["shots"], r["seed"]) for r in rows} == {(5, 0), (5, 1),
                                                           (10, 0), (10, 1)}
        for row in rows:
            assert row["n"] == 300

    def test_rows_to_csv_rejects_empty(self, tmp_path):
        with pytest.raises(ValueError):
            rows_to_csv([], tmp_path / "x.csv")


class TestSharedDraws:
    """The sweeps share no draws: each cell's fit draws the projections it
    reads, as a separate run does."""

    def _splits(self):
        rng = SeededRng(46)
        return (synthetic_gaussian_task(200, 12, 3, 3.5, rng),
                synthetic_gaussian_task(90, 12, 3, 3.5, rng))

    @staticmethod
    def _count_draws(monkeypatch):
        calls = []
        draw = layers.gaussian_matrix
        monkeypatch.setattr(layers, "gaussian_matrix",
                            lambda *a: calls.append(a) or draw(*a))
        return calls

    @pytest.mark.parametrize("method", ["fp", "noisy_label_projection"])
    def test_fewshot_rows_equal_separate_runs(self, method):
        train, test = self._splits()
        rows = fewshot_sweep(train, test, shots=(5, 10), seeds=(0, 1),
                             hidden=(16, 8), method=method)
        expected = []
        for shots in (5, 10):
            for seed in (0, 1):
                subset = few_shot_subsample(train, shots, SeededRng(seed))
                report, _ = run_benchmark(mlp_specs((16, 8), seed=seed),
                                          subset, test, seed=seed,
                                          method=method)
                expected.append((shots, seed, report.accuracy,
                                 report.auc_macro, report.aupr_macro))
        assert [(r["shots"], r["seed"], r["accuracy"], r["auc_macro"],
                 r["aupr_macro"]) for r in rows] == expected

    def test_fewshot_draws_once_per_cell(self, monkeypatch):
        train, test = self._splits()
        calls = self._count_draws(monkeypatch)
        fewshot_sweep(train, test, shots=(5, 10), seeds=(0, 1),
                      hidden=(16, 8))
        # a q and a u per hidden layer and cell: 2 shots x 2 seeds
        assert len(calls) == 2 * 2 * 2 * 2

    def test_bottleneck_rows_equal_separate_runs(self, monkeypatch):
        train, test = self._splits()
        calls = self._count_draws(monkeypatch)
        rows = bottleneck_sweep(train, test, widths=(6, 10), base_widths=(16,),
                                seed=2)
        # per width and hidden layer, a q and a u for fp and random
        # features, and a u alone for each label baseline, which reads no q
        assert len(calls) == 2 * 2 * (2 + 2 + 1 + 1)
        expected = []
        for method in METHODS:
            for width in (6, 10):
                report, ledger = run_benchmark(mlp_specs((16, width), seed=2),
                                               train, test, seed=2,
                                               method=method)
                expected.append((method, width, report.accuracy,
                                 report.auc_macro, ledger.total_macs))
        assert [(r["method"], r["width"], r["accuracy"], r["auc_macro"],
                 r["total_macs"]) for r in rows] == expected


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestSweepPeaks:
    """A sweep holds no more than its largest cell does run alone through
    ``run_benchmark``: no cell keeps projections for another."""

    HIDDEN = (400, 400, 400)

    def _splits(self):
        # 200 -> 400 x 3: each q is 0.64 or 1.28 MB
        rng = SeededRng(48)
        return (synthetic_gaussian_task(300, 200, 10, 3.0, rng),
                synthetic_gaussian_task(200, 200, 10, 3.0, rng))

    @pytest.mark.parametrize("method", ["fp", "label_projection"])
    def test_fewshot(self, method):
        train, test = self._splits()
        specs = mlp_specs(self.HIDDEN, seed=0)
        cells = [lambda n=n: run_benchmark(
                     specs, few_shot_subsample(train, n, SeededRng(0)), test,
                     method=method) for n in (5, 10)]
        cells[0]()  # first calls may set up lasting state; not a cell's
        alone = max(_traced_peak(cell) for cell in cells)
        sweep = _traced_peak(lambda: fewshot_sweep(
            train, test, shots=(5, 10), seeds=(0,), hidden=self.HIDDEN,
            method=method))
        assert sweep <= alone + 2**16

    def test_bottleneck(self):
        train, test = self._splits()
        cells = [lambda m=m, w=w: run_benchmark(
                     mlp_specs((400, 400, w), seed=0), train, test,
                     method=m) for m in METHODS for w in (200, 400)]
        cells[0]()
        alone = max(_traced_peak(cell) for cell in cells)
        sweep = _traced_peak(lambda: bottleneck_sweep(
            train, test, widths=(200, 400), base_widths=(400, 400)))
        assert sweep <= alone + 2**16


class TestIterativeDivergence:
    # unnormalised random-feature activations: the batch Hessian's top
    # eigenvalue (about 3855) is above 2 / eta = 2000
    MODE = IterativeConfig(eta=1e-3, epochs=2, batch=64)

    def _task(self):
        return synthetic_gaussian_task(700, 20, 4, 2.0, SeededRng(11))

    def test_random_features_blowup_raises(self):
        with pytest.raises(DivergenceError, match="batch loss"):
            fit_method("random_features", mlp_specs([32, 16], seed=5),
                       self._task(), mode=self.MODE)

    @pytest.mark.parametrize("method", ["fp", "label_projection"])
    def test_stable_methods_fit(self, method):
        net = fit_method(method, mlp_specs([32, 16], seed=5), self._task(),
                         mode=self.MODE)
        assert np.max(np.abs(net.layers[-1].w)) < 1.0


class TestTracedSignatures:
    # the traced benchmark binds these arguments by name and fails with a
    # KeyError if a refactor renames them
    def test_layer_fit_takes_spec(self):
        assert "spec" in inspect.signature(layers.fit_layer).parameters

    @pytest.mark.parametrize("fit", [layers.fit_network,
                                     baselines.fit_baseline_network])
    def test_network_fits_take_specs(self, fit):
        assert "specs" in inspect.signature(fit).parameters

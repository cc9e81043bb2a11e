import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fpnet import accounting, linalg
from fpnet.core import (GramAccumulator, RidgeConfig, TargetGenSpec,
                        fit_weights, generate_targets, iterative_update,
                        ridge_solve)
from fpnet.errors import DivergenceError, NotPositiveDefiniteError
from fpnet.linalg import SeededRng, gaussian_matrix, rank_estimate, spd_solve


def _acc_from(a, z):
    acc = GramAccumulator(a.shape[1], z.shape[1])
    acc.update(a, z)
    return acc


class TestGenerateTargets:
    def test_sign_identity_projections(self):
        # sign(1)+sign(1)=2, sign(-1)+sign(1)=0
        z = generate_targets(np.array([[1.0, -1.0]]), np.array([[1.0]]),
                             np.eye(2), np.array([[1.0, 1.0]]),
                             TargetGenSpec(g="sign"))
        assert_allclose(z, [[2.0, 0.0]])

    def test_identity_is_linear(self):
        rng = SeededRng(0)
        a = rng.standard_normal((5, 3))
        y = rng.standard_normal((5, 2))
        q = rng.standard_normal((3, 4))
        u = rng.standard_normal((2, 4))
        z = generate_targets(a, y, q, u, TargetGenSpec(g="identity"))
        assert_allclose(z, a @ q + y @ u)

    def test_alpha_offset_by_hand(self):
        z = generate_targets(np.array([[0.3]]), np.array([[1.0, 0.0]]),
                             np.array([[2.0]]), np.array([[-1.0], [1.0]]),
                             TargetGenSpec(g="sign", alpha=0.5))
        assert_allclose(z, [[0.5]])

    def test_sign_scale_invariance(self):
        rng = SeededRng(4)
        a = rng.standard_normal((10, 6))
        y = rng.standard_normal((10, 3))
        q = rng.standard_normal((6, 8))
        u = rng.standard_normal((3, 8))
        spec = TargetGenSpec(g="sign")
        base = generate_targets(a, y, q, u, spec)
        for c in (0.5, 3.0, 1e6):
            assert np.array_equal(base, generate_targets(a, y, c * q, c * u, spec))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            generate_targets(np.ones((2, 3)), np.ones((3, 1)), np.ones((3, 4)),
                             np.ones((1, 4)), TargetGenSpec())
        with pytest.raises(ValueError):
            generate_targets(np.ones((2, 3)), np.ones((2, 1)), np.ones((3, 4)),
                             np.ones((1, 5)), TargetGenSpec())

    @pytest.mark.parametrize("g, alpha", [("sign", 0.0), ("tanh", 0.5)])
    def test_per_sample_labels_equal_repeated_rows(self, g, alpha):
        # 4 samples of 6 rows each (window positions): the label term is
        # computed once per sample, and the targets are bit for bit those of
        # one repeated label row per design row
        rng = SeededRng(6)
        a = rng.standard_normal((24, 5))
        y = np.eye(3)[[0, 2, 1, 2]]
        q, u = rng.standard_normal((5, 7)), rng.standard_normal((3, 7))
        spec = TargetGenSpec(g=g, alpha=alpha)
        ledger = accounting.CostLedger()
        with accounting.track(ledger):
            z = generate_targets(a, y, q, u, spec)
        ref = generate_targets(a, np.repeat(y, 6, axis=0), q, u, spec)
        assert z.tobytes() == ref.tobytes()
        assert ledger.macs["target_gen"] == 24 * 5 * 7 + 4 * 3 * 7

    def test_bad_nonlinearity_rejected(self):
        with pytest.raises(ValueError):
            TargetGenSpec(g="step")

    @pytest.mark.parametrize("seeds", [{"q_seed": -1}, {"u_seed": -2}])
    def test_negative_seed_rejected(self, seeds):
        with pytest.raises(ValueError, match="must be >= 0"):
            TargetGenSpec(**seeds)


class TestGramAccumulator:
    def test_single_row_outer_product(self):
        acc = _acc_from(np.array([[1.0, 2.0]]), np.array([[3.0]]))
        assert_allclose(acc.ata, [[1.0, 2.0], [2.0, 4.0]])
        assert_allclose(acc.atz, [[3.0], [6.0]])
        assert acc.n_seen == 1

    def test_two_singles_equal_one_double(self):
        a = np.array([[1.0, -2.0], [0.5, 4.0]])
        z = np.array([[2.0], [-1.0]])
        one = _acc_from(a, z)
        two = GramAccumulator(2, 1)
        two.update(a[:1], z[:1])
        two.update(a[1:], z[1:])
        assert_allclose(two.ata, one.ata, atol=1e-12)
        assert_allclose(two.atz, one.atz, atol=1e-12)
        assert two.n_seen == one.n_seen == 2

    def test_sixty_thousand_rows_vs_one_shot(self):
        rng = SeededRng(8)
        a = rng.standard_normal((60000, 16))
        z = rng.standard_normal((60000, 3))
        acc = GramAccumulator(16, 3)
        for start in range(0, 60000, 128):
            acc.update(a[start:start + 128], z[start:start + 128])
        rel = np.linalg.norm(acc.ata - a.T @ a) / np.linalg.norm(a.T @ a)
        assert rel <= 1e-6
        assert acc.n_seen == 60000

    def test_symmetry_maintained(self):
        rng = SeededRng(2)
        acc = GramAccumulator(8, 2)
        for _ in range(20):
            acc.update(rng.standard_normal((7, 8)), rng.standard_normal((7, 2)))
        assert np.max(np.abs(acc.ata - acc.ata.T)) <= 1e-10

    def test_dimension_mismatch_rejected(self):
        acc = GramAccumulator(3, 2)
        with pytest.raises(ValueError):
            acc.update(np.ones((2, 4)), np.ones((2, 2)))
        with pytest.raises(ValueError):
            acc.update(np.ones((2, 3)), np.ones((2, 1)))


class TestFitWeights:
    def test_identity_design_half(self):
        z = np.array([[2.0, -4.0], [6.0, 0.0]])
        acc = _acc_from(np.eye(2), z)
        assert_allclose(fit_weights(acc, RidgeConfig(lam=1.0)), z / 2.0)

    def test_diagonal_normal_equations(self):
        acc = _acc_from(np.diag([1.0, 2.0]), np.array([[1.0], [2.0]]))
        assert_allclose(acc.ata, np.diag([1.0, 4.0]))
        assert_allclose(acc.atz, [[1.0], [4.0]])
        w = fit_weights(acc, RidgeConfig(lam=0.0))
        assert_allclose(w, [[1.0], [1.0]], atol=1e-12)

    def test_tau_cancels(self):
        rng = SeededRng(5)
        acc = _acc_from(rng.standard_normal((50, 8)), rng.standard_normal((50, 3)))
        w1 = fit_weights(acc, RidgeConfig(lam=10.0, tau=1.0))
        w2 = fit_weights(acc, RidgeConfig(lam=10.0, tau=1e-3))
        assert np.linalg.norm(w1 - w2) / np.linalg.norm(w1) <= 1e-7

    def test_auto_rescale_huge_accumulator(self):
        rng = SeededRng(7)
        a = rng.standard_normal((50, 4))
        z = rng.standard_normal((50, 2))
        small = fit_weights(_acc_from(a, z), RidgeConfig(lam=1.0))
        scale = 1e8  # entries of ata blow past 1e12
        big = _acc_from(a * scale, z)
        w = fit_weights(big, RidgeConfig(lam=1.0 * scale ** 2))
        assert_allclose(w * scale, small, rtol=1e-6)

    def test_empty_accumulator_rejected(self):
        with pytest.raises(ValueError):
            fit_weights(GramAccumulator(2, 1), RidgeConfig())

    def test_rank_deficient_without_ridge(self):
        a = np.array([[1.0, 1.0], [2.0, 2.0]])
        acc = _acc_from(a, np.ones((2, 1)))
        with pytest.raises(NotPositiveDefiniteError):
            fit_weights(acc, RidgeConfig(lam=0.0))

    def test_ridge_optimality_stationarity(self):
        rng = SeededRng(19)
        a = rng.standard_normal((200, 12))
        z = rng.standard_normal((200, 5))
        lam = 10.0
        w = fit_weights(_acc_from(a, z), RidgeConfig(lam=lam))
        grad = a.T @ (a @ w - z) + lam * w
        assert np.linalg.norm(grad) <= 1e-6 * np.linalg.norm(a.T @ z)

    def test_streaming_partition_invariance(self):
        rng = SeededRng(23)
        a = rng.standard_normal((300, 10))
        z = rng.standard_normal((300, 4))
        w_oneshot = fit_weights(_acc_from(a, z), RidgeConfig(lam=10.0))
        for batch in (1, 7, 128):
            acc = GramAccumulator(10, 4)
            for s in range(0, 300, batch):
                acc.update(a[s:s + batch], z[s:s + batch])
            w = fit_weights(acc, RidgeConfig(lam=10.0))
            rel = np.linalg.norm(w - w_oneshot) / np.linalg.norm(w_oneshot)
            assert rel <= 1e-8, f"batch={batch}: {rel}"

    def test_lambda_zero_reproduces_interpolation_residual(self):
        # full-column-rank A, lam=0: residual is the orthogonal complement part
        rng = SeededRng(31)
        a = rng.standard_normal((50, 8))
        z = rng.standard_normal((50, 3))
        w = fit_weights(_acc_from(a, z), RidgeConfig(lam=0.0))
        p = a @ np.linalg.pinv(a)
        assert_allclose(z - a @ w, (np.eye(50) - p) @ z, atol=1e-8)

    def test_rank_property_label_vs_generated_targets(self):
        # label-projection targets collapse rank to m_L; generated targets do not
        rng = SeededRng(37)
        n, m_prev, m_out, m_lab = 200, 64, 64, 4
        a = rng.standard_normal((n, m_prev))
        labels = np.arange(n) % m_lab
        y = np.zeros((n, m_lab))
        y[np.arange(n), labels] = 1.0
        u = gaussian_matrix(m_lab, m_out, SeededRng(101))
        q = gaussian_matrix(m_prev, m_out, SeededRng(102))
        w_lp = fit_weights(_acc_from(a, y @ u), RidgeConfig(lam=10.0))
        assert rank_estimate(w_lp) <= m_lab
        ztil = generate_targets(a, y, q, u, TargetGenSpec(g="identity"))
        w_fp = fit_weights(_acc_from(a, ztil), RidgeConfig(lam=10.0))
        assert rank_estimate(w_fp) > m_lab


class TestDualSolve:
    """Fewer rows than inputs: the weights come from the n x n dual system."""

    def _rows(self, n=30, d=80, k=6, seed=61):
        rng = SeededRng(seed)
        return rng.standard_normal((n, d)), rng.standard_normal((n, k))

    @staticmethod
    def _rel(w, ref):
        return np.linalg.norm(w - ref) / np.linalg.norm(ref)

    def test_hidden_weights_equal_primal(self):
        a, z = self._rows()
        acc = _acc_from(a, z)
        assert acc.kept
        w = fit_weights(acc, RidgeConfig(lam=10.0))
        assert acc.kept  # solved without forming the d x d sums
        assert w.flags.c_contiguous
        assert self._rel(w, ridge_solve(a.T @ a, a.T @ z, 10.0)) <= 1e-9

    def test_intercept_weights_equal_primal(self):
        a, z = self._rows()
        a1 = np.hstack([a + 3.0, np.ones((a.shape[0], 1))])
        w = fit_weights(_acc_from(a1, z), RidgeConfig(lam=3.0),
                        intercept=True)
        ref = ridge_solve(a1.T @ a1, a1.T @ z, 3.0, intercept=True)
        assert w.shape == ref.shape and w.flags.c_contiguous
        assert self._rel(w, ref) <= 1e-9

    def test_intercept_column_not_ones_takes_the_primal(self):
        a, z = self._rows()
        acc = _acc_from(a, z)  # last column is not a constant 1
        w = fit_weights(acc, RidgeConfig(lam=2.0), intercept=True)
        assert not acc.kept
        ref = ridge_solve(a.T @ a, a.T @ z, 2.0, intercept=True)
        assert w.tobytes() == ref.tobytes()

    def test_tau_and_auto_rescale_act_on_the_dual_gram(self):
        a, z = self._rows()
        small = fit_weights(_acc_from(a, z), RidgeConfig(lam=1.0))
        tau = fit_weights(_acc_from(a, z), RidgeConfig(lam=1.0, tau=1e-3))
        assert self._rel(tau, small) <= 1e-9
        scale = 1e8  # entries of a @ a.T blow past 1e12
        big = fit_weights(_acc_from(a * scale, z),
                          RidgeConfig(lam=scale ** 2))
        assert self._rel(big * scale, small) <= 1e-6

    def test_crossing_in_dim_mid_stream_is_the_in_order_sum(self):
        rng = SeededRng(67)
        a = rng.standard_normal((100, 40))
        z = rng.standard_normal((100, 3))
        acc = GramAccumulator(40, 3)
        ata, atz = np.zeros((40, 40)), np.zeros((40, 3))
        with accounting.track() as ledger:
            for s in range(0, 100, 7):  # five batches kept, folded at 42
                acc.update(a[s:s + 7], z[s:s + 7])
                ata += a[s:s + 7].T @ a[s:s + 7]
                atz += a[s:s + 7].T @ z[s:s + 7]
                assert bool(acc.kept) == (acc.n_seen < 40)
        assert ledger.macs["gram"] == 100 * 40 * 40 + 100 * 40 * 3
        assert acc.ata.tobytes() == ata.tobytes()
        assert acc.atz.tobytes() == atz.tobytes()
        w = fit_weights(acc, RidgeConfig(lam=10.0))
        assert w.tobytes() == ridge_solve(ata, atz, 10.0).tobytes()

    def test_reading_the_sums_folds_kept_batches(self):
        a, z = self._rows(n=12, d=20, k=2)
        acc = GramAccumulator(20, 2)
        with accounting.track() as ledger:
            acc.update(a[:5], z[:5])
            acc.update(a[5:], z[5:])
            assert ledger.macs["gram"] == 0
            assert_allclose(acc.ata, a.T @ a, atol=1e-12)
        assert not acc.kept
        assert ledger.macs["gram"] == 12 * 20 * 20 + 12 * 20 * 2
        assert_allclose(acc.atz, a.T @ z, atol=1e-12)

    def test_lambda_zero_with_fewer_rows_raises(self):
        a, z = self._rows()
        acc = _acc_from(a, z)
        with pytest.raises(NotPositiveDefiniteError):
            fit_weights(acc, RidgeConfig(lam=0.0))
        assert not acc.kept

    def test_dual_macs_exact(self):
        n, d, k = 30, 80, 6
        a, z = self._rows(n, d, k)
        with accounting.track() as ledger:
            fit_weights(_acc_from(a, z), RidgeConfig(lam=10.0))
        assert ledger.macs["gram"] == n * d * n
        assert ledger.macs["solve"] == n ** 3 // 6 + n * n * k + d * n * k
        a1 = np.hstack([a, np.ones((n, 1))])
        with accounting.track() as ledger:
            fit_weights(_acc_from(a1, z), RidgeConfig(lam=1.0),
                        intercept=True)
        assert ledger.macs["gram"] == n * d * n
        assert ledger.macs["solve"] == (n ** 3 // 6 + n * n * k + d * n * k
                                        + d * k)

    def test_kept_rows_never_outweigh_the_sums(self):
        rng = SeededRng(71)
        acc = GramAccumulator(64, 8)
        sums = (64 * 64 + 64 * 8) * 8
        for _ in range(12):
            acc.update(rng.standard_normal((7, 64)),
                       rng.standard_normal((7, 8)))
            assert acc.nbytes <= sums
        assert not acc.kept and acc.nbytes == sums


class TestRidgeSolve:
    def test_intercept_row_is_unpenalised(self):
        # the last row, the intercept's, is unregularised
        a = np.hstack([np.eye(4), np.ones((4, 1))])
        z = np.arange(4.0).reshape(4, 1)
        ata, atz = a.T @ a, a.T @ z
        pen = np.append(np.ones(4), 0.0)
        w = ridge_solve(ata, atz, lam=3.0, intercept=True)
        grad = ata @ w - atz + 3.0 * (pen[:, None] * w)
        assert np.max(np.abs(grad)) <= 1e-10


class TestRidgeSolveFactorsItsOwnSystem:
    """ridge_solve writes the Cholesky factor over the system it builds,
    and over nothing it was given."""

    @staticmethod
    def _sums(n=60, k=7, seed=81):
        # symmetric to within spd_solve's tolerance, not exactly: the lower
        # and upper triangles differ, so reading one for the other shows
        rng = SeededRng(seed)
        a = rng.standard_normal((n + 20, n))
        ata = a.T @ a + 1e-12 * np.triu(rng.standard_normal((n, n)), 1)
        return ata, a.T @ rng.standard_normal((n + 20, k))

    def test_pivot_floor_is_taken_from_the_system(self):
        # the factor's diagonal is [100, 3.2e-5]: against its largest entry
        # pivot 1 would pass the floor, against the system's 1e4 it fails
        with pytest.raises(NotPositiveDefiniteError) as err:
            ridge_solve(np.diag([1e4, 1e-9]), np.ones((2, 1)), 0.0)
        assert err.value.pivot_index == 1

    @pytest.mark.parametrize("tau", [1.0, 0.25])
    def test_fortran_ordered_sums_give_the_same_bytes(self, tau):
        ata, atz = self._sums()
        w = ridge_solve(ata, atz, 10.0, tau=tau)
        fortran = ridge_solve(np.asfortranarray(ata), atz, 10.0, tau=tau)
        assert fortran.tobytes() == w.tobytes()

    def test_without_dtrsm_matches_the_bound_solve(self, monkeypatch):
        ata, atz = self._sums()
        bound = ridge_solve(ata, atz, 10.0)
        monkeypatch.setattr(linalg, "_DTRSM", None)
        fallback = ridge_solve(ata, atz, 10.0)
        assert np.linalg.norm(fallback - bound) <= 1e-12 * np.linalg.norm(bound)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_inputs_left_unchanged(self, order):
        ata, atz = (np.array(m, order=order) for m in self._sums())
        before = ata.tobytes(), atz.tobytes()
        ridge_solve(ata, atz, 10.0)
        ridge_solve(ata, atz, 10.0, tau=0.5, intercept=True)
        spd_solve(ata + 10.0 * np.eye(len(ata)), atz)
        g = ata.copy()
        spd_solve(g, atz)
        assert (ata.tobytes(), atz.tobytes()) == before
        assert g.tobytes() == before[0]


def _traced_peak(call):
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestTransients:
    """What a 1000-wide layer's target and solve steps allocate beyond
    their inputs and result."""

    @pytest.mark.parametrize("rows", [1001, 500])
    def test_label_term_is_added_in_chunks(self, rows):
        rng = SeededRng(rows)
        a = rng.standard_normal((rows, 1000))
        y = np.eye(10)[np.arange(rows) % 10]
        q, u = rng.standard_normal((1000, 1000)), rng.standard_normal((10, 1000))
        z, peak = _traced_peak(
            lambda: generate_targets(a, y, q, u, TargetGenSpec()))
        # the result, one label chunk and its sign buffer, then the
        # finiteness mask; no second (rows, 1000) product
        assert peak <= 1.4 * z.nbytes

    def test_solve_holds_its_system_once(self):
        n = 1000
        rng = SeededRng(82)
        a = rng.standard_normal((n + 200, n))
        ata, atz = a.T @ a, rng.standard_normal((n, n))
        del a
        _, peak = _traced_peak(lambda: ridge_solve(ata, atz, 10.0))
        # the system, the right side's copy that becomes w, and the
        # finiteness mask of w; no copy of the system to factor
        assert peak <= 2.5 * 8 * n * n

    def test_scaled_solve_holds_its_right_side_once(self):
        # tau scales the copy of atz that becomes w; a separate tau * atz
        # would add a third n x n array
        n = 1000
        rng = SeededRng(83)
        a = rng.standard_normal((n + 200, n))
        ata, atz = a.T @ a, rng.standard_normal((n, n))
        del a
        _, peak = _traced_peak(lambda: ridge_solve(ata, atz, 10.0, tau=0.5))
        assert peak <= 2.5 * 8 * n * n

    @pytest.mark.parametrize("scale", [1.0, 1e13])
    def test_scaled_solve_gives_the_scaled_system_s_bytes(self, scale):
        # the solve of (tau ata + tau lam I) w = tau atz, its right side
        # scaled whole before the solve: at tau 0.5, and under the
        # auto-rescale when the sums pass RESCALE_THRESHOLD
        ata, atz = (scale * m for m in
                    TestRidgeSolveFactorsItsOwnSystem._sums())
        tau = 0.5 if scale == 1.0 else 1.0 / float(ata.max())
        g = tau * ata
        g[np.diag_indices(len(g))] += tau * 10.0
        w = ridge_solve(ata, atz, 10.0, tau=0.5 if scale == 1.0 else 1.0)
        assert w.tobytes() == spd_solve(g, tau * atz).tobytes()


class TestIterativeUpdate:
    def test_zero_residual_is_fixed_point(self):
        a = np.array([[1.0, 0.0], [0.0, 1.0]])
        w = np.array([[2.0], [3.0]])
        z = a @ w
        w2 = iterative_update(w, a, z, eta=0.5, lam=0.0)
        assert_allclose(w2, w)

    def test_scalar_gradient_by_hand(self):
        # grad = 2 * (1*1 - 0) = 2; step 0.5 lands on zero
        w = iterative_update(np.array([[1.0]]), np.array([[1.0]]),
                             np.array([[0.0]]), eta=0.5, lam=0.0)
        assert_allclose(w, [[0.0]])

    def test_intercept_row_gets_no_lam_term(self):
        # the data term is zero, so the step is -eta * (2/B) * lam * w on
        # every row but the last
        a = np.eye(3)
        w = np.array([[1.0, -2.0], [3.0, 0.5], [4.0, -1.0]])
        z = a @ w
        step = iterative_update(w, a, z, eta=0.1, lam=5.0, intercept=True)
        assert_allclose(step[:-1], w[:-1] * (1.0 - 0.1 * (2.0 / 3) * 5.0))
        assert step[-1].tobytes() == w[-1].tobytes()

    def test_full_batch_descent_reaches_closed_form(self):
        rng = SeededRng(41)
        a = rng.standard_normal((50, 8))
        z = rng.standard_normal((50, 2))
        lam = 2.0
        target = fit_weights(_acc_from(a, z), RidgeConfig(lam=lam))
        w = np.zeros((8, 2))
        for _ in range(4000):
            w = iterative_update(w, a, z, eta=0.05, lam=lam)
        assert np.linalg.norm(w - target) <= 1e-4

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            iterative_update(np.ones((2, 1)), np.ones((3, 3)), np.ones((3, 1)),
                             eta=0.1, lam=0.0)

    def test_loss_blowup_is_divergence(self):
        # a residual 10^4 times the targets: loss 10^8 times zero weights'
        a = np.eye(2)
        z = np.ones((2, 1))
        w = iterative_update(1e2 * z, a, z, eta=0.1, lam=0.0)
        assert np.isfinite(w).all()
        with pytest.raises(DivergenceError, match="batch loss"):
            iterative_update(1e4 * z, a, z, eta=0.1, lam=0.0)

    def test_non_finite_step_is_divergence(self):
        with np.errstate(over="ignore"), \
                pytest.raises(DivergenceError, match="non-finite"):
            iterative_update(np.ones((1, 1)), np.array([[1e200]]),
                             np.array([[0.0]]), eta=1.0, lam=0.0)


class TestGramAccumulatorInPlace:
    """The sums are added to in place: on numpy's OpenBLAS by dsyrk (upper
    triangle) and dgemm, otherwise by numpy; either way they match the
    products of the stacked rows and ``ata`` reads exactly symmetric."""

    @pytest.mark.parametrize("bound", [True, False], ids=["blas", "numpy"])
    def test_uneven_batches_match_stacked_products(self, monkeypatch, bound):
        if bound and (linalg._DSYRK is None or linalg._DGEMM is None):
            pytest.skip("numpy bundles no OpenBLAS with dsyrk and dgemm")
        if not bound:
            monkeypatch.setattr(linalg, "_DSYRK", None)
            monkeypatch.setattr(linalg, "_DGEMM", None)
        rng = SeededRng(90)
        a = rng.standard_normal((700, 150))  # over two mirror blocks
        z = rng.standard_normal((700, 5))
        acc = GramAccumulator(150, 5)
        # the first batches stay under 150 rows (kept, then folded by the
        # read); one batch is Fortran-ordered and one a strided view
        edges = [0, 1, 30, 83, 84, 337, 512, 700]
        for i, (lo, hi) in enumerate(zip(edges, edges[1:])):
            a_b, z_b = a[lo:hi], z[lo:hi]
            if i == 3:
                a_b, z_b = np.asfortranarray(a_b), np.asfortranarray(z_b)
            if i == 5:
                a_b = np.repeat(a_b, 2, axis=1)[:, ::2]
            acc.update(a_b, z_b)
            ata, atz = acc.ata, acc.atz
            assert np.array_equal(ata, ata.T)
            ref_ata, ref_atz = a[:hi].T @ a[:hi], a[:hi].T @ z[:hi]
            assert (np.linalg.norm(ata - ref_ata)
                    <= 1e-13 * np.linalg.norm(ref_ata)), hi
            assert (np.linalg.norm(atz - ref_atz)
                    <= 1e-13 * np.linalg.norm(ref_atz)), hi
        assert acc.n_seen == 700

    @pytest.mark.parametrize("ata, atz", [
        (np.zeros((3, 3)), np.zeros((2, 2))),
        (np.zeros((3, 3), order="F"), np.zeros((3, 2))),
        (np.zeros((3, 3), dtype=np.float32), np.zeros((3, 2))),
    ], ids=["shape", "fortran", "float32"])
    def test_non_conforming_sums_rejected(self, ata, atz):
        with pytest.raises(ValueError, match="do not conform"):
            linalg.add_gram(ata, atz, np.ones((5, 3)), np.ones((5, 2)))


# raises that no other test reaches: (call, exception type, message match)
_CORE_RAISES = {
    "alpha not finite": (lambda: TargetGenSpec(alpha=float("inf")),
                         ValueError, "alpha must be finite"),
    # a fractional seed would draw the projection of its truncation
    "fractional q_seed": (lambda: TargetGenSpec(q_seed=1.5), ValueError,
                          "q_seed must be an integer, got 1.5"),
    "string u_seed": (lambda: TargetGenSpec(u_seed="3"), ValueError,
                      "u_seed must be an integer, got '3'"),
    "q rows": (lambda: generate_targets(np.ones((4, 3)), np.eye(2)[[0, 1] * 2],
                                        np.ones((5, 6)), np.ones((2, 6)),
                                        TargetGenSpec()),
               ValueError, "q expects 5 inputs, a_prev has 3"),
    "u rows": (lambda: generate_targets(np.ones((4, 3)), np.eye(2)[[0, 1] * 2],
                                        np.ones((3, 6)), np.ones((3, 6)),
                                        TargetGenSpec()),
               ValueError, "u expects 3 label dims, y has 2"),
    "empty accumulator": (lambda: GramAccumulator(0, 3), ValueError,
                          "accumulator dimensions must be positive"),
}


@pytest.mark.parametrize("case", list(_CORE_RAISES))
def test_bad_arguments_raise(case):
    call, error, match = _CORE_RAISES[case]
    with pytest.raises(error, match=match):
        call()

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fpnet.errors import NotPositiveDefiniteError, RankDeficientError
from fpnet.linalg import (SIGN_BLOCK_FLOATS, SeededRng, gaussian_matrix,
                          pseudo_inverse_rows, rank_estimate, sign_in_place,
                          spd_solve)


class TestGaussianMatrix:
    def test_same_seed_same_scalar(self):
        a = gaussian_matrix(1, 1, SeededRng(7))
        b = gaussian_matrix(1, 1, SeededRng(7))
        assert a[0, 0] == b[0, 0]

    def test_byte_identical_reproduction(self):
        a = gaussian_matrix(17, 5, SeededRng(42))
        b = gaussian_matrix(17, 5, SeededRng(42))
        assert a.tobytes() == b.tobytes()

    def test_million_draw_moments(self):
        # law of large numbers at n = 1e6 draws
        m = gaussian_matrix(1000, 1000, SeededRng(3))
        assert abs(float(m.mean())) < 0.01
        assert abs(float(m.var()) - 1.0) < 0.02

    def test_discarded_draw_shifts_stream(self):
        rng_a = SeededRng(5)
        rng_b = SeededRng(5)
        rng_b.standard_normal(1)  # consume one draw
        a = gaussian_matrix(2, 3, rng_a)
        b = gaussian_matrix(2, 3, rng_b)
        assert not np.array_equal(a, b)

    def test_zero_dimension_rejected(self):
        with pytest.raises(ValueError):
            gaussian_matrix(0, 3, SeededRng(0))
        with pytest.raises(ValueError):
            gaussian_matrix(3, 0, SeededRng(0))


class TestSpdSolve:
    def test_identity_passthrough(self):
        b = np.arange(6.0).reshape(3, 2)
        assert_allclose(spd_solve(np.eye(3), b), b)

    def test_diagonal_system(self):
        x = spd_solve(np.diag([2.0, 4.0]), np.array([[2.0], [8.0]]))
        assert_allclose(x, [[1.0], [2.0]])

    def test_two_by_two_system(self):
        g = np.array([[2.0, 1.0], [1.0, 2.0]])
        x = spd_solve(g, np.array([[3.0], [3.0]]))
        assert_allclose(x, [[1.0], [1.0]], atol=1e-12)

    def test_residual_on_random_spd(self):
        rng = SeededRng(11)
        a = rng.standard_normal((40, 12))
        g = a.T @ a + np.eye(12)
        b = rng.standard_normal((12, 4))
        x = spd_solve(g, b)
        resid = np.linalg.norm(g @ x - b) / np.linalg.norm(b)
        assert resid <= 1e-8

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            spd_solve(np.ones((2, 3)), np.ones((2, 1)))

    def test_asymmetric_rejected(self):
        g = np.array([[2.0, 1.0], [0.0, 2.0]])
        with pytest.raises(ValueError):
            spd_solve(g, np.ones((2, 1)))

    @pytest.mark.parametrize("i, j", [(150, 3), (3, 150), (199, 198)])
    def test_asymmetry_in_any_row_block_rejected(self, i, j):
        # 200 rows span several blocks of the check; the tolerance scales
        # with the largest entry, 200
        g = 200.0 * np.eye(200)
        g[i, j] = 1e-3
        with pytest.raises(ValueError, match="not symmetric"):
            spd_solve(g, np.ones((200, 1)))
        g[j, i] = 1e-3 + 1e-7
        assert spd_solve(g, np.ones((200, 1))).shape == (200, 1)

    def test_indefinite_reports_pivot(self):
        g = np.diag([1.0, -1.0])
        with pytest.raises(NotPositiveDefiniteError) as err:
            spd_solve(g, np.ones((2, 1)))
        assert err.value.pivot_index == 1

    def test_negative_first_pivot(self):
        with pytest.raises(NotPositiveDefiniteError) as err:
            spd_solve(np.array([[-1.0]]), np.ones((1, 1)))
        assert err.value.pivot_index == 0

    def test_singular_matrix_fails(self):
        g = np.ones((2, 2))
        with pytest.raises(NotPositiveDefiniteError):
            spd_solve(g, np.ones((2, 1)))

    def test_rhs_row_mismatch(self):
        with pytest.raises(ValueError):
            spd_solve(np.eye(2), np.ones((3, 1)))

    def test_first_failing_minor_deep_in_matrix(self):
        # g = L D L.T with unit lower-triangular L: its leading minor of
        # order k is positive definite exactly when d[:k] is positive
        rng = SeededRng(5)
        l = np.tril(rng.standard_normal((64, 64)), -1) + np.eye(64)
        d = np.ones(64)
        d[37:] = -1.0
        g = (l * d) @ l.T
        g = (g + g.T) / 2
        with pytest.raises(NotPositiveDefiniteError) as err:
            spd_solve(g, np.ones((64, 1)))
        assert err.value.pivot_index == 37

    def test_pivot_below_floor(self):
        g = np.diag([1.0, 1e-14])
        with pytest.raises(NotPositiveDefiniteError, match="below floor") as err:
            spd_solve(g, np.ones((2, 1)))
        assert err.value.pivot_index == 1

    def test_solution_c_ordered(self):
        g = np.diag([2.0, 4.0, 8.0])
        b = np.asfortranarray(np.arange(6.0).reshape(3, 2))
        assert spd_solve(g, b).flags.c_contiguous

    def test_fit_does_not_load_scipy_linalg(self, tmp_path):
        # fpnet keeps to numpy's own BLAS and LAPACK; a second BLAS runtime
        # (scipy's) would compete with numpy's threads for the same cores
        code = (
            "import sys\n"
            "import numpy as np\n"
            "from fpnet import (Dataset, fit_network, mlp_specs, predict,\n"
            "                   pseudo_inverse_rows)\n"
            "x = np.random.default_rng(0).standard_normal((40, 6))\n"
            "y = np.eye(3)[np.arange(40) % 3]\n"
            "net = fit_network(mlp_specs([8], lam_hidden=1.0, lam_output=1.0),\n"
            "                  Dataset(x, y, ['a', 'b', 'c']), batch_size=16)\n"
            "predict(net, x)\n"
            "pseudo_inverse_rows(x[:4])\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
            "assert 'scipy.linalg' not in sys.modules\n")
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, cwd=tmp_path,
                              env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.returncode == 0, proc.stdout + proc.stderr


class TestSignInPlace:
    @pytest.mark.parametrize("shape", [
        (7,), (SIGN_BLOCK_FLOATS + 3,), (1001, 300), (5, 3, 4, 4),
        (3, SIGN_BLOCK_FLOATS + 1)])
    def test_bytes_of_np_sign_over_block_edges(self, shape):
        x = SeededRng(40).standard_normal(shape)
        x.flat[:3] = [0.0, -0.0, np.nan]
        ref = np.sign(x)
        assert sign_in_place(x) is x
        assert x.tobytes() == ref.tobytes()

    def test_writes_through_a_strided_view(self):
        base = SeededRng(41).standard_normal((6, 9, 5))
        view = np.moveaxis(base, -1, 1)
        ref = np.sign(view)
        sign_in_place(view)
        assert np.array_equal(view, ref)
        assert np.array_equal(base, np.moveaxis(ref, 1, -1))


class TestPseudoInverseRows:
    def test_identity(self):
        assert_allclose(pseudo_inverse_rows(np.eye(2)), np.eye(2))

    def test_single_row_closed_form(self):
        u = np.array([[2.0, 0.0, 0.0]])
        assert_allclose(pseudo_inverse_rows(u), [[0.5], [0.0], [0.0]])

    def test_random_wide_right_inverse(self):
        u = gaussian_matrix(4, 64, SeededRng(9))
        pinv = pseudo_inverse_rows(u)
        assert pinv.shape == (64, 4)
        assert_allclose(u @ pinv, np.eye(4), atol=1e-8)

    def test_projector_symmetric_idempotent(self):
        u = gaussian_matrix(5, 40, SeededRng(21))
        p = pseudo_inverse_rows(u) @ u
        assert_allclose(p, p.T, atol=1e-6)
        assert_allclose(p @ p, p, atol=1e-6)

    def test_more_rows_than_cols_rejected(self):
        with pytest.raises(RankDeficientError):
            pseudo_inverse_rows(np.ones((3, 2)))

    def test_dependent_rows_rejected(self):
        u = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]])
        with pytest.raises(RankDeficientError):
            pseudo_inverse_rows(u)


class TestRankEstimate:
    def test_identity_full_rank(self):
        assert rank_estimate(np.eye(3), tol=1e-10) == 3

    def test_outer_product_rank_one(self):
        v = np.array([[1.0], [2.0], [3.0]])
        w = np.array([[4.0, 5.0, 6.0]])
        assert rank_estimate(v @ w, tol=1e-10) == 1

    def test_proportional_columns(self):
        m = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])
        assert rank_estimate(m) == 1

    def test_zero_matrix(self):
        assert rank_estimate(np.zeros((4, 2))) == 0

    def test_transpose_agreement(self):
        rng = SeededRng(13)
        for _ in range(5):
            a = rng.standard_normal((6, 3))
            b = rng.standard_normal((3, 9))
            m = a @ b  # rank <= 3 by construction
            assert rank_estimate(m) == rank_estimate(m.T) == 3

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            rank_estimate(np.zeros((0, 3)))

    def test_nonpositive_tol_rejected(self):
        with pytest.raises(ValueError):
            rank_estimate(np.eye(2), tol=0.0)

"""Seeded random matrices and the small set of dense kernels everything else uses.

All matrices are 2-D float64 numpy arrays. Degenerate matrices with a zero
dimension are rejected at every public entry point. Determinism is
per-implementation: the same seed always reproduces the same draws within
this package, but no bit-level agreement with other libraries is promised.
"""

import math

import numpy as np

from .errors import NotPositiveDefiniteError, RankDeficientError

# Relative floor under which a squared Cholesky pivot counts as a failure.
PIVOT_FLOOR = 1e-12

# Rows of g compared per step of spd_solve's symmetry check.
SYMMETRY_BLOCK_ROWS = 64

# Singular values below DEFAULT_RANK_TOL * s_max do not count toward rank.
DEFAULT_RANK_TOL = 1e-9

# Floats per step of sign_in_place (512 KiB of float64).
SIGN_BLOCK_FLOATS = 2**16


def as_matrix(a, name="matrix"):
    """Validate and return ``a`` as a 2-D float64 array.

    Raises ValueError for anything that is not a real 2-D array with at
    least one row and one column.
    """
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got ndim={m.ndim}")
    if m.shape[0] == 0 or m.shape[1] == 0:
        raise ValueError(f"{name} must be non-empty, got shape {m.shape}")
    return m


def ensure_finite(m, name="result"):
    """Raise ValueError if ``m`` contains NaN or Inf; return ``m`` unchanged."""
    if not np.isfinite(m).all():
        raise ValueError(f"{name} contains non-finite entries")
    return m


class SeededRng:
    """Deterministic random source.

    Wraps a PCG64 generator; normal deviates come from numpy's ziggurat
    sampler. Every draw consumes state, so two streams with the same seed
    diverge as soon as their call sequences differ.
    """

    def __init__(self, seed):
        self.seed = int(seed)
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def standard_normal(self, shape):
        return self._gen.standard_normal(shape)

    def normal(self, shape, sigma=1.0):
        if sigma <= 0:
            raise ValueError("sigma must be positive")
        return self._gen.normal(0.0, sigma, size=shape)

    def subset_without_replacement(self, pool, k):
        """Draw ``k`` distinct elements from 1-D ``pool``, in draw order."""
        pool = np.asarray(pool)
        if k > pool.shape[0]:
            raise ValueError(f"cannot draw {k} from pool of {pool.shape[0]}")
        return self._gen.choice(pool, size=int(k), replace=False)

    def permutation(self, n):
        return self._gen.permutation(int(n))


def gaussian_matrix(rows, cols, rng):
    """Matrix with i.i.d. standard normal entries, drawn from ``rng``."""
    rows, cols = int(rows), int(cols)
    if rows < 1 or cols < 1:
        raise ValueError(f"dimensions must be positive, got {rows}x{cols}")
    return rng.standard_normal((rows, cols))


def sign_in_place(x):
    """Overwrite the array ``x`` with np.sign(x) and return it.

    numpy's sign with out=x skips its vector loop and runs about four times
    slower than its sign into another array, so blocks of rows go through a
    small buffer instead.
    """
    step = max(1, SIGN_BLOCK_FLOATS // max(1, math.prod(x.shape[1:])))
    buf = np.empty((min(step, x.shape[0]), *x.shape[1:]), dtype=x.dtype)
    for i in range(0, x.shape[0], step):
        block = x[i:i + step]
        block[...] = np.sign(block, out=buf[:len(block)])
    return x


def spd_solve(g, b):
    """Solve g @ x = b for symmetric positive definite ``g``.

    A Cholesky factorisation checks definiteness and the pivots; an LU
    solve then gives x, C-ordered. Both run on numpy's LAPACK.

    Parameters
    ----------
    g : (n, n) symmetric positive definite matrix.
    b : (n, k) right-hand side.

    Returns
    -------
    x : (n, k) solution.

    Raises
    ------
    ValueError
        If ``g`` is not square, not symmetric, or shapes do not conform.
    NotPositiveDefiniteError
        If the factorisation fails or a squared pivot falls below
        PIVOT_FLOOR relative to the largest diagonal entry. The error
        carries the 0-based index of the failing pivot.
    """
    g = as_matrix(g, "g")
    b = as_matrix(b, "b")
    n = g.shape[0]
    if g.shape[1] != n:
        raise ValueError(f"g must be square, got shape {g.shape}")
    if b.shape[0] != n:
        raise ValueError(f"b has {b.shape[0]} rows, expected {n}")
    tol = 1e-8 * max(1.0, np.max(np.abs(g)))
    # a block of rows at a time: allclose holds several temporaries the size
    # of its inputs, which on a large g set the fit's peak memory
    for i in range(0, n, SYMMETRY_BLOCK_ROWS):
        rows = slice(i, i + SYMMETRY_BLOCK_ROWS)
        if not np.allclose(g[rows], g[:, rows].T, atol=tol, rtol=0.0):
            raise ValueError("g is not symmetric")

    try:
        # keep only the pivots, so the n x n factor is freed before the solve
        diag = np.diagonal(np.linalg.cholesky(g)).copy()
    except np.linalg.LinAlgError:
        raise NotPositiveDefiniteError(_first_failing_pivot(g)) from None
    floor = PIVOT_FLOOR * max(1.0, float(np.max(np.abs(np.diagonal(g)))))
    small = np.nonzero(diag * diag < floor)[0]
    if small.size:
        raise NotPositiveDefiniteError(int(small[0]), message=(
            f"pivot {int(small[0])} below floor: {float(diag[small[0]] ** 2):.3e}"
        ))
    return ensure_finite(np.linalg.solve(g, b), "spd_solve result")


def _first_failing_pivot(g):
    """0-based index of the first pivot at which Cholesky of ``g`` fails.

    A leading principal minor is positive definite only if every smaller
    one is, so bisecting over the order finds the smallest minor that is
    not: the order LAPACK's potrf reports, less one (rounding can move it
    by one where a minor is singular to working precision).
    """
    good, bad = 0, g.shape[0]  # orders known to factor / to fail
    while bad - good > 1:
        mid = (good + bad) // 2
        try:
            np.linalg.cholesky(g[:mid, :mid])
            good = mid
        except np.linalg.LinAlgError:
            bad = mid
    return bad - 1


def pseudo_inverse_rows(u):
    """Right pseudo-inverse of a full-row-rank matrix.

    For u with shape (r, c), r <= c and full row rank, returns
    u+ = u.T @ inv(u @ u.T) of shape (c, r), so u @ u+ = I_r.
    Built from the normal equations of the row space, not an SVD.

    Raises RankDeficientError when r > c or when u @ u.T is not positive
    definite (rows are linearly dependent).
    """
    u = as_matrix(u, "u")
    r, c = u.shape
    if r > c:
        raise RankDeficientError(
            f"need rows <= cols for a right inverse, got {r}x{c}")
    gram = u @ u.T
    try:
        s = spd_solve(gram, u)  # s = inv(u u.T) @ u
    except NotPositiveDefiniteError as e:
        raise RankDeficientError(
            f"rows are linearly dependent (pivot {e.pivot_index})") from e
    return ensure_finite(s.T, "pseudo_inverse_rows result")


def rank_estimate(m, tol=DEFAULT_RANK_TOL):
    """Numerical rank: count of singular values above tol * largest.

    ``tol`` must be positive. An all-zero matrix has rank 0.
    """
    m = as_matrix(m, "m")
    if tol <= 0:
        raise ValueError("tol must be positive")
    s = np.linalg.svd(m, compute_uv=False)
    if s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > tol * s[0]))

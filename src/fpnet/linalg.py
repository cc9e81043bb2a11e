"""Seeded random matrices and the small set of dense kernels everything else uses.

All matrices are 2-D float64 numpy arrays. Degenerate matrices with a zero
dimension are rejected at every public entry point. Determinism is
per-implementation: the same seed always reproduces the same draws within
this package, but no bit-level agreement with other libraries is promised.

Every kernel runs on numpy's own BLAS and LAPACK. numpy has no in-place
rank-k update, no triangular solve and no in-place Cholesky, so
``add_gram`` (``cblas_dsyrk``, ``cblas_dgemm``) and ``spd_solve``
(``dpotrf``, ``cblas_dtrsm``) call them through ctypes from the OpenBLAS
that numpy's wheels bundle and have already loaded. Where numpy is built
on another BLAS, each falls back to plain numpy: ``a.T @ a``,
``np.linalg.cholesky`` and ``np.linalg.solve``.

Gram sums built by ``add_gram`` hold only their upper triangle;
``mirror_upper`` copies it onto the lower one when the sums are read.
"""

import ctypes
import glob
import math
from pathlib import Path

import numpy as np

from .errors import NotPositiveDefiniteError, RankDeficientError

# Relative floor under which a squared Cholesky pivot counts as a failure.
PIVOT_FLOOR = 1e-12

# Rows per step of the blocked passes over a square matrix: spd_solve's
# symmetry check and mirror_upper.
SYMMETRY_BLOCK_ROWS = 64

# Singular values below DEFAULT_RANK_TOL * s_max do not count toward rank.
DEFAULT_RANK_TOL = 1e-9

# Floats per step of sign_in_place (512 KiB of float64).
SIGN_BLOCK_FLOATS = 2**16

# CBLAS enum values: row-major, left side, upper, lower, no-trans, trans,
# non-unit.
_ROW_MAJOR, _LEFT, _UPPER, _LOWER, _NO_TRANS, _TRANS, _NON_UNIT = (
    101, 141, 121, 122, 111, 112, 131)


def _bundled(symbol, *argtypes):
    """``symbol`` of the OpenBLAS bundled with numpy, typed, or None.

    numpy's wheels ship an ILP64 OpenBLAS under ``numpy.libs`` whose
    symbols carry a ``scipy_`` prefix and a ``64_`` suffix; opening the
    path numpy has already loaded returns that same library, so no second
    BLAS runtime starts.
    """
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "*openblas*"))):
        try:
            fn = getattr(ctypes.CDLL(path), symbol)
        except (OSError, AttributeError):
            continue
        fn.argtypes = list(argtypes)
        fn.restype = None
        return fn
    return None


# integers are int64 (ILP64); CBLAS enums are C ints; LAPACK takes every
# argument by reference
_I64, _ENUM, _F64, _PTR = (ctypes.c_int64, ctypes.c_int, ctypes.c_double,
                           ctypes.c_void_p)
_I64_REF = ctypes.POINTER(_I64)
# (order, side, uplo, trans, diag, m, n, alpha, a, lda, b, ldb)
_DTRSM = _bundled("scipy_cblas_dtrsm64_", *[_ENUM] * 5, _I64, _I64, _F64,
                  _PTR, _I64, _PTR, _I64)
# (order, uplo, trans, n, k, alpha, a, lda, beta, c, ldc)
_DSYRK = _bundled("scipy_cblas_dsyrk64_", *[_ENUM] * 3, _I64, _I64, _F64,
                  _PTR, _I64, _F64, _PTR, _I64)
# (order, transa, transb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
_DGEMM = _bundled("scipy_cblas_dgemm64_", *[_ENUM] * 3, _I64, _I64, _I64,
                  _F64, _PTR, _I64, _PTR, _I64, _F64, _PTR, _I64)
# (uplo, n, a, lda, info)
_DPOTRF = _bundled("scipy_dpotrf_64_", ctypes.c_char_p, _I64_REF, _PTR,
                   _I64_REF, _I64_REF)


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


def activate(kind, z, in_place=False):
    """Element-wise layer activation or target g. sign maps 0 to exactly 0.

    ``z`` is left unchanged unless ``in_place``, which overwrites a float
    array with the result; mod2 wraps into [0, 2).
    """
    out = z if in_place else None
    if kind == "relu":
        return np.maximum(z, 0.0, out=out)
    if kind == "sign":
        return sign_in_place(z) if in_place else np.sign(z)
    if kind == "tanh":
        return np.tanh(z, out=out)
    if kind == "identity":
        return z
    if kind == "mod2":
        return np.mod(z, 2.0, out=out)
    if kind == "square":
        return np.square(z, out=out)
    raise ValueError(f"unknown activation {kind!r}")


def add_gram(ata, atz, a, z):
    """Add a.T @ a to ``ata`` and a.T @ z to ``atz``, in place.

    ``ata`` (m, m) and ``atz`` (m, k) are C-ordered float64 sums, ``a``
    (b, m) and ``z`` (b, k) one batch. On numpy's OpenBLAS, ``cblas_dsyrk``
    adds into the upper triangle of ``ata`` only and ``cblas_dgemm`` into
    ``atz``, with no temporary; ``mirror_upper`` makes ``ata`` whole again.
    Elsewhere numpy adds whole products.
    """
    b, m = a.shape
    k = z.shape[1]
    if (ata.shape != (m, m) or atz.shape != (m, k) or z.shape[0] != b
            or not (ata.flags.c_contiguous and atz.flags.c_contiguous)
            or ata.dtype != np.float64 or atz.dtype != np.float64):
        raise ValueError("Gram sums and batch do not conform")
    if _DSYRK is None or _DGEMM is None:
        ata += a.T @ a
        atz += a.T @ z
        return
    a = np.ascontiguousarray(a, dtype=np.float64)
    z = np.ascontiguousarray(z, dtype=np.float64)
    _DSYRK(_ROW_MAJOR, _UPPER, _TRANS, m, b, 1.0, a.ctypes.data, m, 1.0,
           ata.ctypes.data, m)
    _DGEMM(_ROW_MAJOR, _TRANS, _NO_TRANS, m, k, b, 1.0, a.ctypes.data, m,
           z.ctypes.data, k, 1.0, atz.ctypes.data, k)


def mirror_upper(s):
    """Copy the upper triangle of square ``s`` onto its lower one, in place.

    One pass over ``s`` by blocks of rows; returns ``s``, now exactly
    symmetric.
    """
    n = s.shape[0]
    for i in range(0, n, SYMMETRY_BLOCK_ROWS):
        j = min(i + SYMMETRY_BLOCK_ROWS, n)
        s[i:j, :i] = s[:i, i:j].T
        block = s[i:j, i:j]
        block[...] = np.triu(block) + np.triu(block, 1).T
    return s


def spd_solve(g, b):
    """Solve g @ x = b for symmetric positive definite ``g``.

    One Cholesky factorisation g = L L.T checks definiteness and the
    pivots, then two in-place triangular solves on a C-ordered copy of
    ``b`` give x: L y = b, then L.T x = y. Both run on numpy's OpenBLAS
    (``dpotrf`` on a C-ordered copy of ``g``, then ``cblas_dtrsm``); where
    numpy bundles none, ``np.linalg.cholesky`` and ``np.linalg.solve`` do
    the same checks and give x. ``g`` and ``b`` are left unchanged.

    Parameters
    ----------
    g : (n, n) symmetric positive definite matrix.
    b : (n, k) right-hand side.

    Returns
    -------
    x : (n, k) solution, C-ordered.

    Raises
    ------
    ValueError
        If ``g`` is not square, has non-finite entries or is not symmetric,
        or shapes do not conform.
    NotPositiveDefiniteError
        If the factorisation fails or a squared pivot falls below
        PIVOT_FLOOR relative to the largest diagonal entry. The error
        carries the 0-based index of the failing pivot.
    """
    return _spd_solve_owned(np.array(as_matrix(g, "g"), order="C"),
                            as_matrix(b, "b"))


def _spd_solve_owned(g, b, scale=1.0):
    """``spd_solve`` of ``g`` x = ``scale`` * ``b`` on a C-ordered float64
    ``g`` that the caller owns and gives up: where ``cblas_dtrsm`` is bound,
    the factor is written over ``g``, so the solve holds no second copy of
    the system. ``b`` is left unchanged; the solve's one copy of it takes
    the scale.
    """
    n = g.shape[0]
    if g.shape[1] != n:
        raise ValueError(f"g must be square, got shape {g.shape}")
    if b.shape[0] != n:
        raise ValueError(f"b has {b.shape[0]} rows, expected {n}")
    hi, lo = float(g.max()), float(g.min())
    if not (math.isfinite(hi) and math.isfinite(lo)):
        raise ValueError("g contains non-finite entries")
    tol = 1e-8 * max(1.0, hi, -lo)
    # a block of rows at a time, so no temporary the size of g is built
    for i in range(0, n, SYMMETRY_BLOCK_ROWS):
        rows = slice(i, i + SYMMETRY_BLOCK_ROWS)
        if not np.abs(g[rows] - g[:, rows].T).max() <= tol:
            raise ValueError("g is not symmetric")
    # read off g, which the factor may overwrite, not off the factor: a
    # pivot is small relative to g's largest diagonal entry
    floor = PIVOT_FLOOR * max(1.0, float(np.max(np.abs(np.diagonal(g)))))

    # the solution overwrites this copy; allocated after g and before the
    # factor is written into g, it keeps the fit's peak RSS down. A scale
    # of 1 copies b's values bit for bit
    x = np.multiply(b, scale, order="C")
    # np.linalg.solve, the fallback without cblas_dtrsm, solves with g
    # itself, so g is factored in place only where dtrsm does the solve
    factor = _cholesky(g, overwrite=_DTRSM is not None)
    diag = np.diagonal(factor)
    small = np.nonzero(diag * diag < floor)[0]
    if small.size:
        raise NotPositiveDefiniteError(int(small[0]), message=(
            f"pivot {int(small[0])} below floor: {float(diag[small[0]] ** 2):.3e}"
        ))
    if _DTRSM is None:
        return ensure_finite(np.linalg.solve(g, x), "spd_solve result")
    k = x.shape[1]
    for trans in (_NO_TRANS, _TRANS):
        _DTRSM(_ROW_MAJOR, _LEFT, _LOWER, trans, _NON_UNIT, n, k, 1.0,
               factor.ctypes.data, n, x.ctypes.data, k)
    return ensure_finite(x, "spd_solve result")


def _cholesky(g, overwrite=False):
    """C-ordered Cholesky factor of ``g`` in its lower triangle.

    ``dpotrf`` factors a C-ordered copy of ``g`` in place, or with
    ``overwrite`` ``g`` itself if it is C-ordered: uplo 'U' on a column-major
    view of it is the lower factor in row-major order, and the upper
    triangle keeps g's entries. Its ``info`` is the order of the first
    minor that is not positive definite. Without the binding,
    ``np.linalg.cholesky`` factors and a bisection finds that order.
    Raises NotPositiveDefiniteError carrying the 0-based failing pivot.
    """
    if _DPOTRF is None:
        try:
            return np.ascontiguousarray(np.linalg.cholesky(g))
        except np.linalg.LinAlgError:
            raise NotPositiveDefiniteError(_first_failing_pivot(g)) from None
    factor = g if overwrite and g.flags.c_contiguous else np.array(g, order="C")
    n, info = _I64(g.shape[0]), _I64()
    _DPOTRF(b"U", n, factor.ctypes.data, n, info)
    if info.value < 0:
        raise ValueError(f"dpotrf rejected argument {-info.value}")
    if info.value > 0:
        raise NotPositiveDefiniteError(info.value - 1)
    return factor


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

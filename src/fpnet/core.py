"""Randomised target generation and streaming ridge regression.

This is the heart of the training method. For a layer with input
activations ``a`` (one row per sample) and one-hot labels ``y``, target
potentials are

    ztil = g(a @ q) + g(y @ u) + alpha

with fixed random projections ``q`` and ``u`` drawn once per layer. The
layer weights are then the ridge solution

    w = inv(a.T @ a + lam * I) @ (a.T @ ztil)

computed from running sums a.T @ a and a.T @ ztil, so only one pass over
the data is needed and memory does not grow with sample count.

A layer that has seen fewer rows n than it has inputs d keeps the rows
instead and solves the dual w = a.T @ inv(a @ a.T + lam * I) @ ztil, an
n x n system. Memory still does not grow with n: the kept rows never
outweigh the d x d sums they stand in for, and they are folded into the
sums as soon as n reaches d.
"""

from dataclasses import dataclass

import numpy as np

from . import accounting
from .errors import DivergenceError
from .linalg import as_matrix, ensure_finite, sign_in_place, spd_solve

TARGET_NONLINEARITIES = ("sign", "identity", "tanh")

# Ridge strengths that work across the benchmark tasks without tuning.
HIDDEN_LAMBDA = 10.0
OUTPUT_LAMBDA = 1.0

# Accumulator entries above this trigger automatic downscaling in the solve.
RESCALE_THRESHOLD = 1e12

# A batch loss this many times that of zero weights on the same batch means
# the gradient steps diverge (eta above 2 / the batch Hessian's top eigenvalue).
DIVERGENCE_RATIO = 1e6


def apply_g(name, x, in_place=False):
    """Element-wise target nonlinearity. sign maps 0 to exactly 0.

    ``x`` is left unchanged unless ``in_place``, which overwrites a float
    array with g(x).
    """
    out = x if in_place else None
    if name == "sign":
        return sign_in_place(x) if in_place else np.sign(x)
    if name == "identity":
        return x
    if name == "tanh":
        return np.tanh(x, out=out)
    raise ValueError(f"unknown target nonlinearity {name!r}")


@dataclass(frozen=True)
class TargetGenSpec:
    """How a layer's target potentials are produced.

    g : one of TARGET_NONLINEARITIES.
    alpha : constant offset added to every target entry. Zero for standard
        nets; 0.5 lifts targets into the operating range of activations
        such as mod2 or square.
    q_seed, u_seed : seeds for the input projection q and label projection u.
    """

    g: str = "sign"
    alpha: float = 0.0
    q_seed: int = 0
    u_seed: int = 1

    def __post_init__(self):
        if self.g not in TARGET_NONLINEARITIES:
            raise ValueError(
                f"g must be one of {TARGET_NONLINEARITIES}, got {self.g!r}")
        if not np.isfinite(self.alpha):
            raise ValueError("alpha must be finite")


@dataclass(frozen=True)
class RidgeConfig:
    """Ridge strength and optional accumulator rescale factor.

    tau multiplies both sides of the normal equations; it cancels
    algebraically and exists only to keep very large accumulator entries
    inside comfortable floating-point range. Must satisfy 0 < tau <= 1.
    """

    lam: float = HIDDEN_LAMBDA
    tau: float = 1.0

    def __post_init__(self):
        if self.lam < 0 or not np.isfinite(self.lam):
            raise ValueError(f"lam must be >= 0, got {self.lam}")
        if not (0.0 < self.tau <= 1.0):
            raise ValueError(f"tau must be in (0, 1], got {self.tau}")


def generate_targets(a_prev, y, q, u, spec):
    """Target potentials ztil = g(a_prev @ q) + g(y @ u) + alpha.

    a_prev : (B, m_in) activations from the previous layer.
    y : (B, m_L) label matrix aligned row-for-row with a_prev.
    q : (m_in, m_out) input projection.
    u : (m_L, m_out) label projection.
    """
    a_prev = as_matrix(a_prev, "a_prev")
    y = as_matrix(y, "y")
    q = as_matrix(q, "q")
    u = as_matrix(u, "u")
    b, m_in = a_prev.shape
    if y.shape[0] != b:
        raise ValueError(f"y has {y.shape[0]} rows, a_prev has {b}")
    if q.shape[0] != m_in:
        raise ValueError(f"q expects {q.shape[0]} inputs, a_prev has {m_in}")
    if u.shape[0] != y.shape[1]:
        raise ValueError(f"u expects {u.shape[0]} label dims, y has {y.shape[1]}")
    if q.shape[1] != u.shape[1]:
        raise ValueError(
            f"q and u disagree on output width: {q.shape[1]} vs {u.shape[1]}")
    # both products are fresh, so g and the sums overwrite them: one
    # (B, m_out) temporary besides the result, with the same values
    ztil = apply_g(spec.g, a_prev @ q, in_place=True)
    ztil += apply_g(spec.g, y @ u, in_place=True)
    if spec.alpha != 0.0:
        ztil += spec.alpha
    accounting.add_macs("target_gen",
                        accounting.matmul_macs(b, m_in, q.shape[1])
                        + accounting.matmul_macs(b, y.shape[1], u.shape[1]))
    return ensure_finite(ztil, "targets")


class GramAccumulator:
    """Running sums a.T @ a and a.T @ ztil over a stream of batches.

    Sufficient statistics for the ridge fit: once every batch has been
    folded in, the solve needs nothing else. Accumulation is a plain sum,
    so batch order and batch boundaries do not matter beyond floating-point
    rounding.

    While fewer than ``in_dim`` rows have arrived, the batches themselves
    are kept, by reference and not copied, in ``kept``: n < d rows of width
    d take less memory than the d x d sums they would build, and
    ``fit_weights`` solves the n x n dual system from them. The batch that
    brings ``n_seen`` to ``in_dim`` folds the kept batches into the sums in
    arrival order, so the sums are bit for bit those of summing every batch
    on arrival. Reading ``ata`` or ``atz`` folds as well. A batch must not
    be modified after it is passed in.

    Not safe for concurrent writers.
    """

    def __init__(self, in_dim, out_dim):
        in_dim, out_dim = int(in_dim), int(out_dim)
        if in_dim < 1 or out_dim < 1:
            raise ValueError("accumulator dimensions must be positive")
        self.in_dim, self.out_dim = in_dim, out_dim
        self.kept = []
        self._ata = self._atz = None
        self.n_seen = 0

    @property
    def ata(self):
        self._fold()
        return self._ata

    @property
    def atz(self):
        self._fold()
        return self._atz

    @property
    def nbytes(self):
        """Bytes held: the kept batches, or the two sums once folded."""
        if self._ata is None:
            return sum(a.nbytes + z.nbytes for a, z in self.kept)
        return self._ata.nbytes + self._atz.nbytes

    def update(self, a_batch, z_batch):
        a = as_matrix(a_batch, "a_batch")
        z = as_matrix(z_batch, "z_batch")
        if a.shape[1] != self.in_dim:
            raise ValueError(
                f"batch has {a.shape[1]} columns, accumulator expects "
                f"{self.in_dim}")
        if z.shape != (a.shape[0], self.out_dim):
            raise ValueError(
                f"targets shaped {z.shape}, expected "
                f"({a.shape[0]}, {self.out_dim})")
        self.n_seen += a.shape[0]
        if self._ata is None and self.n_seen < self.in_dim:
            self.kept.append((a, z))
            accounting.note_matrices(self)
            return
        self._fold()
        self._add(a, z)
        accounting.note_matrices(self, a, z)

    def stacked(self):
        """The kept batches as one (rows, targets) pair, in arrival order."""
        if len(self.kept) > 1:
            self.kept = [tuple(np.concatenate(part) for part in zip(*self.kept))]
        return self.kept[0]

    def _add(self, a, z):
        self._ata += a.T @ a
        self._atz += a.T @ z
        b, m = a.shape
        accounting.add_macs("gram",
                            accounting.matmul_macs(m, b, m)
                            + accounting.matmul_macs(m, b, z.shape[1]))

    def _fold(self):
        if self._ata is None:
            self._ata = np.zeros((self.in_dim, self.in_dim))
            self._atz = np.zeros((self.in_dim, self.out_dim))
        while self.kept:
            self._add(*self.kept.pop(0))


def _auto_tau(gram, tau):
    """tau, or 1 / max|gram| when tau is left at 1 and an entry of ``gram``
    exceeds RESCALE_THRESHOLD."""
    if tau == 1.0:
        peak = float(np.max(np.abs(gram)))
        if peak > RESCALE_THRESHOLD:
            return 1.0 / peak
    return tau


def ridge_solve(ata, atz, lam, tau=1.0, penalty_diag=None):
    """Solve (tau*ata + tau*lam*P) w = tau*atz for w.

    P defaults to the identity; ``penalty_diag`` replaces its diagonal to
    leave selected coordinates unpenalised (an intercept, say). When tau is
    left at 1 and any accumulator entry exceeds RESCALE_THRESHOLD, both
    sides are automatically downscaled by the largest entry; the solution
    is unchanged by construction. The solution is C-contiguous.
    """
    ata = as_matrix(ata, "ata")
    atz = as_matrix(atz, "atz")
    n = ata.shape[0]
    tau = _auto_tau(ata, tau)
    if penalty_diag is None:
        penalty_diag = np.ones(n)
    else:
        penalty_diag = np.asarray(penalty_diag, dtype=np.float64)
        if penalty_diag.shape != (n,):
            raise ValueError("penalty_diag length must match ata")
    # the penalty only touches the diagonal, so no n x n copy of it is held
    # next to g and the C-ordered copy of w below
    g = tau * ata
    g[np.diag_indices(n)] += (tau * lam) * penalty_diag
    # spd_solve returns C order, as a loaded checkpoint has, so BLAS rounds
    # products with fitted and reloaded weights alike
    w = spd_solve(g, tau * atz)
    accounting.add_macs("solve", accounting.cholesky_solve_macs(n, atz.shape[1]))
    accounting.note_matrices(ata, atz, g, w)
    return w


def _dual_solve(a, z, lam, tau, intercept):
    """Ridge weights from the n x n dual system of n rows of width d > n.

    w = a.T @ inv(a @ a.T + lam * I) @ z is the primal ridge solution
    (Woodbury identity), for n^2 d Gram MACs and an n x n solve instead of
    n d^2 and a d x d one. tau and its auto-rescale act on a @ a.T as in
    ``ridge_solve`` on a.T @ a. With ``intercept``, a's last column is an
    unpenalised constant 1: rows and targets are centred, that column is
    dropped, and its weight row is recovered as mean(z) - mean(a) @ w.
    """
    if intercept:
        mean_a, mean_z = a[:, :-1].mean(axis=0), z.mean(axis=0)
        a, z = a[:, :-1] - mean_a, z - mean_z
    n, d = a.shape
    k = z.shape[1]
    g = a @ a.T
    tau = _auto_tau(g, tau)
    if tau != 1.0:
        g *= tau
        z = tau * z
    g[np.diag_indices(n)] += tau * lam
    w = a.T @ spd_solve(g, z)
    macs = accounting.cholesky_solve_macs(n, k) + accounting.matmul_macs(d, n, k)
    if intercept:
        w = np.vstack([w, mean_z - mean_a @ w])
        macs += accounting.matmul_macs(1, d, k)
    accounting.add_macs("gram", accounting.matmul_macs(n, d, n))
    accounting.add_macs("solve", macs)
    accounting.note_matrices(a, z, g, w)
    return w


def fit_weights(acc, cfg=RidgeConfig(), penalty_diag=None):
    """Closed-form ridge weights from an accumulator.

    While the accumulator still keeps its batches (fewer rows than inputs)
    and lam > 0, the weights come from the n x n dual system; this needs a
    ``penalty_diag`` that is all ones, or all ones but a final 0 on an
    intercept column of ones. Otherwise the batches are folded and
    ``ridge_solve``, which gets ``penalty_diag``, solves the d x d system;
    so with lam = 0 a rank-deficient Gram matrix surfaces as
    NotPositiveDefiniteError. Raises ValueError on an empty accumulator.
    """
    if acc.n_seen < 1:
        raise ValueError("accumulator has seen no samples")
    pen = (np.ones(acc.in_dim) if penalty_diag is None
           else np.asarray(penalty_diag, dtype=np.float64))
    if (acc.kept and cfg.lam > 0 and pen.shape == (acc.in_dim,)
            and np.all(pen[:-1] == 1.0) and pen[-1] in (0.0, 1.0)):
        a, z = acc.stacked()
        intercept = pen[-1] == 0.0
        if not intercept or np.all(a[:, -1] == 1.0):
            return _dual_solve(a, z, cfg.lam, cfg.tau, intercept)
    return ridge_solve(acc.ata, acc.atz, cfg.lam, tau=cfg.tau,
                       penalty_diag=penalty_diag)


def iterative_update(w, a_batch, ztil, eta, lam, penalty_diag=None):
    """One gradient step on the batch ridge objective.

    grad = (2/B) * a.T @ (a @ w - ztil) + (2/B) * lam * P @ w
    w_next = w - eta * grad

    P is the identity unless ``penalty_diag`` gives its diagonal, as in
    ``ridge_solve``. The 2/B factor is part of the objective's definition
    (mean squared error over the batch), kept explicit so step sizes
    transfer between batch sizes.

    Raises DivergenceError when the batch's squared residual exceeds
    DIVERGENCE_RATIO times that of zero weights, or the step leaves
    non-finite weights.
    """
    w = as_matrix(w, "w")
    a = as_matrix(a_batch, "a_batch")
    z = as_matrix(ztil, "ztil")
    b = a.shape[0]
    if a.shape[1] != w.shape[0] or z.shape != (b, w.shape[1]):
        raise ValueError("shapes do not conform for an update step")
    penalised = w
    if penalty_diag is not None:
        penalty_diag = np.asarray(penalty_diag, dtype=np.float64)
        if penalty_diag.shape != (w.shape[0],):
            raise ValueError("penalty_diag length must match w's rows")
        penalised = penalty_diag[:, None] * w
    resid = a @ w - z
    loss, zero_loss = float(np.vdot(resid, resid)), float(np.vdot(z, z))
    if zero_loss > 0 and not loss <= DIVERGENCE_RATIO * zero_loss:
        raise DivergenceError(
            f"batch loss {loss:.3g} is over {DIVERGENCE_RATIO:g} times that of "
            f"zero weights ({zero_loss:.3g}); lower eta")
    grad = (2.0 / b) * (a.T @ resid) + (2.0 / b) * lam * penalised
    accounting.add_macs("gram",
                        accounting.matmul_macs(b, a.shape[1], w.shape[1])
                        + accounting.matmul_macs(a.shape[1], b, w.shape[1]))
    w = w - eta * grad
    if not np.isfinite(w).all():
        raise DivergenceError("updated weights are non-finite; lower eta")
    return w

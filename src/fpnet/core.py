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

import operator
from dataclasses import dataclass

import numpy as np

from . import accounting
from .errors import DivergenceError
from .linalg import (SIGN_BLOCK_FLOATS, _spd_solve_owned, activate,
                     add_gram, as_matrix, ensure_finite, mirror_upper)

TARGET_NONLINEARITIES = ("sign", "identity", "tanh")

# Ridge strengths that work across the benchmark tasks without tuning.
HIDDEN_LAMBDA = 10.0
OUTPUT_LAMBDA = 1.0

# Accumulator entries above this trigger automatic downscaling in the solve.
RESCALE_THRESHOLD = 1e12

# A batch loss this many times that of zero weights on the same batch means
# the gradient steps diverge (eta above 2 / the batch Hessian's top eigenvalue).
DIVERGENCE_RATIO = 1e6


def _integer(value, name):
    """``value`` as an int; a float, even an integral one, is a ValueError."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


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
        for name in ("q_seed", "u_seed"):
            seed = _integer(getattr(self, name), name)
            if seed < 0:
                raise ValueError(f"{name} must be >= 0, got {seed}")


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

    a_prev : (B, m_in) activations from the previous layer, the rows of N
        samples in sample order, B / N consecutive rows each (one per
        window position of a conv layer, one in all for a dense layer).
    y : (N, m_L) label matrix, one row per sample, whose label term
        g(y @ u) goes to each of the sample's rows (``_add_label_term``).
    q : (m_in, m_out) input projection.
    u : (m_L, m_out) label projection.
    """
    a_prev = as_matrix(a_prev, "a_prev")
    y = as_matrix(y, "y")
    q = as_matrix(q, "q")
    u = as_matrix(u, "u")
    b, m_in = a_prev.shape
    if q.shape[0] != m_in:
        raise ValueError(f"q expects {q.shape[0]} inputs, a_prev has {m_in}")
    if u.shape[0] != y.shape[1]:
        raise ValueError(f"u expects {u.shape[0]} label dims, y has {y.shape[1]}")
    if q.shape[1] != u.shape[1]:
        raise ValueError(
            f"q and u disagree on output width: {q.shape[1]} vs {u.shape[1]}")
    # a_prev @ q is fresh, so g and the label term overwrite it
    ztil = _add_label_term(activate(spec.g, a_prev @ q, in_place=True),
                           y, u, spec.g)
    if spec.alpha != 0.0:
        ztil += spec.alpha
    accounting.add_macs("target_gen",
                        accounting.matmul_macs(b, m_in, q.shape[1]))
    return ensure_finite(ztil, "targets")


def _add_label_term(ztil, y, u, g):
    """Add g(y @ u) of each of the N samples of ``y`` to its B / N rows of
    the C-ordered (B, m) ``ztil`` in place, and return ztil. The term is
    built for a chunk of samples of at most SIGN_BLOCK_FLOATS floats at a
    time; with one-hot labels a chunk's rows are those of the whole product.
    """
    (b, m), n = ztil.shape, y.shape[0]
    if b % n:
        raise ValueError(f"y has {n} rows, the batch {b}, not a multiple")
    per_sample = ztil.reshape(n, b // n, m)  # a view: ztil is C-ordered
    step = max(1, SIGN_BLOCK_FLOATS // m)
    for i in range(0, n, step):
        per_sample[i:i + step] += activate(g, y[i:i + step] @ u,
                                           in_place=True)[:, None]
    accounting.add_macs("target_gen",
                        accounting.matmul_macs(n, y.shape[1], m))
    return ztil


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

    The sums are added to in place (``linalg.add_gram``), with no per-batch
    temporary. Only the upper triangle of ``ata`` is accumulated; reading
    ``ata`` mirrors it onto the lower one, so what a reader gets is exactly
    symmetric.

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
        return mirror_upper(self._ata)

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
            return
        self._fold()
        self._add(a, z)

    def stacked(self):
        """The kept batches as one (rows, targets) pair, in arrival order."""
        if len(self.kept) > 1:
            self.kept = [tuple(np.concatenate(part) for part in zip(*self.kept))]
        return self.kept[0]

    def _add(self, a, z):
        add_gram(self._ata, self._atz, a, z)
        b, m = a.shape
        # logical MACs of a.T @ a; the rank-k update runs m(m+1)/2 b of them
        accounting.add_macs("gram",
                            accounting.matmul_macs(m, b, m)
                            + accounting.matmul_macs(m, b, z.shape[1]))

    def _fold(self):
        if self._ata is None:
            self._ata = np.zeros((self.in_dim, self.in_dim))
            self._atz = np.zeros((self.in_dim, self.out_dim))
        while self.kept:
            self._add(*self.kept.pop(0))


def ridge_solve(ata, atz, lam, tau=1.0, intercept=False):
    """Solve (tau*ata + tau*lam*P) w = tau*atz for w; every closed-form fit
    ends here, ``ata`` being a.T @ a or the dual's a @ a.T (``_dual_solve``).

    P is the identity, or with ``intercept`` the identity with its last
    diagonal entry zeroed, which leaves the last weight row (an intercept's)
    unpenalised. When tau is left at 1 and an entry of ``ata`` exceeds
    RESCALE_THRESHOLD, both sides are downscaled by the largest entry. The
    arguments are not modified; the solution is C-contiguous.
    """
    ata = as_matrix(ata, "ata")
    atz = as_matrix(atz, "atz")
    n = ata.shape[0]
    if tau == 1.0:
        peak = max(float(ata.max()), -float(ata.min()))
        if peak > RESCALE_THRESHOLD:
            tau = 1.0 / peak
    # the penalty only touches the diagonal, so no n x n copy of it is held
    # next to g; g is this call's own and C-ordered, so the solve writes
    # the factor over it: g, then the scaled C-ordered copy of atz that
    # becomes w, are the heap's two n-sized arrays, in that order
    g = np.multiply(ata, tau, order="C")
    g[np.diag_indices(n - intercept)] += tau * lam
    # the solve returns C order, as a loaded checkpoint has, so BLAS rounds
    # products with fitted and reloaded weights alike
    w = _spd_solve_owned(g, atz, scale=tau)
    accounting.add_macs("solve", accounting.cholesky_solve_macs(n, atz.shape[1]))
    accounting.note_matrices(ata, atz, g, w)
    return w


def _dual_solve(a, z, lam, tau, intercept):
    """Ridge weights from the n x n dual system of n rows of width d > n.

    w = a.T @ inv(a @ a.T + lam * I) @ z is the primal ridge solution
    (Woodbury identity), for n^2 d Gram MACs and an n x n solve instead of
    n d^2 and a d x d one. The n x n system goes through ``ridge_solve``,
    so tau, its auto-rescale and the pivot checks act on a @ a.T as they
    do on a.T @ a. With ``intercept``, a's last column is an unpenalised
    constant 1: rows and targets are centred, that column is dropped, and
    its weight row is recovered as mean(z) - mean(a) @ w.
    """
    if intercept:
        mean_a, mean_z = a[:, :-1].mean(axis=0), z.mean(axis=0)
        a, z = a[:, :-1] - mean_a, z - mean_z
    n, d = a.shape
    k = z.shape[1]
    g = a @ a.T
    accounting.add_macs("gram", accounting.matmul_macs(n, d, n))
    w = a.T @ ridge_solve(g, z, lam, tau)
    macs = accounting.matmul_macs(d, n, k)
    if intercept:
        w = np.vstack([w, mean_z - mean_a @ w])
        macs += accounting.matmul_macs(1, d, k)
    accounting.add_macs("solve", macs)
    accounting.note_matrices(a, z, g, w)
    return w


def fit_weights(acc, cfg=RidgeConfig(), intercept=False):
    """Closed-form ridge weights from an accumulator.

    ``intercept`` leaves the last weight row unpenalised, as in
    ``ridge_solve``; the last input column is then meant to be a constant 1.
    While the accumulator still keeps its batches (fewer rows than inputs)
    and lam > 0, the weights come from the n x n dual system, unless
    ``intercept`` is set and that column of the kept rows is not all ones.
    Otherwise the batches are folded and ``ridge_solve`` solves the d x d
    system; so with lam = 0 a rank-deficient Gram matrix surfaces as
    NotPositiveDefiniteError. Raises ValueError on an empty accumulator.
    """
    if acc.n_seen < 1:
        raise ValueError("accumulator has seen no samples")
    if acc.kept and cfg.lam > 0:
        a, z = acc.stacked()
        if not intercept or np.all(a[:, -1] == 1.0):
            return _dual_solve(a, z, cfg.lam, cfg.tau, intercept)
    return ridge_solve(acc.ata, acc.atz, cfg.lam, tau=cfg.tau,
                       intercept=intercept)


def iterative_update(w, a_batch, ztil, eta, lam, intercept=False):
    """One gradient step on the batch ridge objective.

    grad = (2/B) * a.T @ (a @ w - ztil) + (2/B) * lam * P @ w
    w_next = w - eta * grad

    P is the identity, or with ``intercept`` the identity with its last
    diagonal entry zeroed, as in ``ridge_solve``: the last weight row then
    gets no lam term. The 2/B factor is part of the objective's definition
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
    resid = a @ w - z
    loss, zero_loss = float(np.vdot(resid, resid)), float(np.vdot(z, z))
    if zero_loss > 0 and not loss <= DIVERGENCE_RATIO * zero_loss:
        raise DivergenceError(
            f"batch loss {loss:.3g} is over {DIVERGENCE_RATIO:g} times that of "
            f"zero weights ({zero_loss:.3g}); lower eta")
    grad = (2.0 / b) * (a.T @ resid)
    penalised = slice(w.shape[0] - intercept)  # every row but an intercept's
    grad[penalised] += (2.0 / b) * lam * w[penalised]
    accounting.add_macs("gram",
                        accounting.matmul_macs(b, a.shape[1], w.shape[1])
                        + accounting.matmul_macs(a.shape[1], b, w.shape[1]))
    w = w - eta * grad
    if not np.isfinite(w).all():
        raise DivergenceError("updated weights are non-finite; lower eta")
    return w

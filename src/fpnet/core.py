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
"""

from dataclasses import dataclass

import numpy as np

from . import accounting
from .errors import NotPositiveDefiniteError
from .linalg import as_matrix, ensure_finite, spd_solve

TARGET_NONLINEARITIES = ("sign", "identity", "tanh")

# Ridge strengths that work across the benchmark tasks without tuning.
HIDDEN_LAMBDA = 10.0
OUTPUT_LAMBDA = 1.0

# Accumulator entries above this trigger automatic downscaling in the solve.
RESCALE_THRESHOLD = 1e12


def apply_g(name, x):
    """Element-wise target nonlinearity. sign maps 0 to exactly 0."""
    if name == "sign":
        return np.sign(x)
    if name == "identity":
        return x
    if name == "tanh":
        return np.tanh(x)
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
    ztil = apply_g(spec.g, a_prev @ q) + apply_g(spec.g, y @ u)
    if spec.alpha != 0.0:
        ztil = ztil + spec.alpha
    accounting.add_macs("target_gen",
                        accounting.matmul_macs(b, m_in, q.shape[1])
                        + accounting.matmul_macs(b, y.shape[1], u.shape[1]))
    return ensure_finite(ztil, "targets")


class GramAccumulator:
    """Running sums a.T @ a and a.T @ ztil over a stream of batches.

    Sufficient statistics for the ridge fit: once every batch has been
    folded in, the solve needs nothing else. Accumulation is a plain sum,
    so batch order and batch boundaries do not matter beyond floating-point
    rounding, and two accumulators built on disjoint shards can be merged.

    Not safe for concurrent writers.
    """

    def __init__(self, in_dim, out_dim):
        in_dim, out_dim = int(in_dim), int(out_dim)
        if in_dim < 1 or out_dim < 1:
            raise ValueError("accumulator dimensions must be positive")
        self.ata = np.zeros((in_dim, in_dim))
        self.atz = np.zeros((in_dim, out_dim))
        self.n_seen = 0

    def update(self, a_batch, z_batch):
        a = as_matrix(a_batch, "a_batch")
        z = as_matrix(z_batch, "z_batch")
        if a.shape[1] != self.ata.shape[0]:
            raise ValueError(
                f"batch has {a.shape[1]} columns, accumulator expects "
                f"{self.ata.shape[0]}")
        if z.shape != (a.shape[0], self.atz.shape[1]):
            raise ValueError(
                f"targets shaped {z.shape}, expected "
                f"({a.shape[0]}, {self.atz.shape[1]})")
        self.ata += a.T @ a
        self.atz += a.T @ z
        self.n_seen += a.shape[0]
        b, m = a.shape
        accounting.add_macs("gram",
                            accounting.matmul_macs(m, b, m)
                            + accounting.matmul_macs(m, b, z.shape[1]))
        accounting.note_matrices(self.ata, self.atz, a, z)

    def merge(self, other):
        """Combine two accumulators built on disjoint shards.

        Returns a new accumulator; inputs are left untouched. The summed
        ata is re-symmetrised to stop rounding skew from compounding
        across repeated merges.
        """
        if self.ata.shape != other.ata.shape or self.atz.shape != other.atz.shape:
            raise ValueError("accumulator shapes do not match")
        merged = GramAccumulator(self.ata.shape[0], self.atz.shape[1])
        s = self.ata + other.ata
        merged.ata = (s + s.T) / 2.0
        merged.atz = self.atz + other.atz
        merged.n_seen = self.n_seen + other.n_seen
        return merged


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
    if tau == 1.0:
        peak = float(np.max(np.abs(ata)))
        if peak > RESCALE_THRESHOLD:
            tau = 1.0 / peak
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
    # LAPACK returns Fortran order; C order matches a loaded checkpoint, so
    # BLAS rounds products with fitted and reloaded weights alike
    w = np.ascontiguousarray(spd_solve(g, tau * atz))
    accounting.add_macs("solve", accounting.cholesky_solve_macs(n, atz.shape[1]))
    accounting.note_matrices(ata, atz, g, w)
    return w


def fit_weights(acc, cfg=RidgeConfig()):
    """Closed-form ridge weights from an accumulator.

    Raises ValueError on an empty accumulator. With lam = 0 a rank-deficient
    Gram matrix surfaces as NotPositiveDefiniteError from the solve.
    """
    if acc.n_seen < 1:
        raise ValueError("accumulator has seen no samples")
    return ridge_solve(acc.ata, acc.atz, cfg.lam, tau=cfg.tau)


def iterative_update(w, a_batch, ztil, eta, lam):
    """One gradient step on the batch ridge objective.

    grad = (2/B) * a.T @ (a @ w - ztil) + (2/B) * lam * w
    w_next = w - eta * grad

    The 2/B factor is part of the objective's definition (mean squared
    error over the batch), kept explicit so step sizes transfer between
    batch sizes.
    """
    w = as_matrix(w, "w")
    a = as_matrix(a_batch, "a_batch")
    z = as_matrix(ztil, "ztil")
    b = a.shape[0]
    if a.shape[1] != w.shape[0] or z.shape != (b, w.shape[1]):
        raise ValueError("shapes do not conform for an update step")
    resid = a @ w - z
    grad = (2.0 / b) * (a.T @ resid) + (2.0 / b) * lam * w
    accounting.add_macs("gram",
                        accounting.matmul_macs(b, a.shape[1], w.shape[1])
                        + accounting.matmul_macs(a.shape[1], b, w.shape[1]))
    return ensure_finite(w - eta * grad, "updated weights")

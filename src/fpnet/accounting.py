"""Logical cost accounting: multiply-accumulate counts and peak matrix memory.

Counts are logical MACs implied by the mathematical operation (a matmul of
(m, k) by (k, n) costs m*k*n), not hardware instruction counts. So a Gram
update a.T @ a of a (b, m) batch counts m*b*m, though the symmetric rank-k
update that computes it does m(m+1)/2*b multiplies. A ledger is
installed for the duration of a ``track`` block; library code reports into
whichever ledger is active and stays silent otherwise.
"""

from contextlib import contextmanager
from dataclasses import dataclass, field

PHASES = ("forward", "target_gen", "gram", "solve")


@dataclass
class CostLedger:
    """Per-phase MAC totals plus the peak bytes held in live fitting matrices.

    `peak_matrix_bytes` tracks the largest simultaneous footprint reported
    via ``note_matrices`` (arrays, or anything with ``nbytes``, such as a
    GramAccumulator); it deliberately excludes the dataset itself so that
    streaming fits report a footprint independent of sample count.
    """

    macs: dict = field(default_factory=lambda: {p: 0 for p in PHASES})
    peak_matrix_bytes: int = 0

    def add_macs(self, phase, count):
        if phase not in self.macs:
            raise ValueError(f"unknown phase {phase!r}")
        self.macs[phase] += int(count)

    def note_matrices(self, *arrays):
        total = sum(int(a.nbytes) for a in arrays if a is not None)
        if total > self.peak_matrix_bytes:
            self.peak_matrix_bytes = total

    @property
    def total_macs(self):
        return sum(self.macs.values())


_ACTIVE = None


@contextmanager
def track(ledger=None):
    """Install ``ledger`` (or a fresh one) as the active cost sink."""
    global _ACTIVE
    if ledger is None:
        ledger = CostLedger()
    previous = _ACTIVE
    _ACTIVE = ledger
    try:
        yield ledger
    finally:
        _ACTIVE = previous


def add_macs(phase, count):
    if _ACTIVE is not None:
        _ACTIVE.add_macs(phase, count)


def note_matrices(*arrays):
    if _ACTIVE is not None:
        _ACTIVE.note_matrices(*arrays)


def matmul_macs(m, k, n):
    """Logical MACs for an (m, k) @ (k, n) product."""
    return int(m) * int(k) * int(n)


def cholesky_solve_macs(n, k):
    """Factorisation (n^3/6) plus two triangular solves (n^2 * k).

    Bounded by 2 * max(n, k)^3 for every n, k >= 1; the solve phase of a
    single layer therefore never exceeds twice the cube of its larger
    Gram dimension.
    """
    n, k = int(n), int(k)
    return n * n * n // 6 + n * n * k

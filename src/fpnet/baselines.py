"""Reference training schemes the main method is compared against.

random_features        : hidden weights stay at the frozen random
                         projection q; only the output layer is fitted.
label_projection       : hidden targets are y @ u with no input term.
noisy_label_projection : label_projection plus i.i.d. Gaussian noise.

All three reuse the per-layer seeds from the layer specs, so q and u match
the run under comparison wherever both schemes use them, and the output
layer is fitted exactly as in the main method. The label schemes read only
u, so their fits draw no q: a fitted layer draws it on its first read.
"""

from dataclasses import dataclass

import numpy as np

from .core import _add_label_term
from .layers import fit_network
from .linalg import SeededRng

BASELINES = ("random_features", "label_projection", "noisy_label_projection")


@dataclass(frozen=True)
class BaselineKind:
    name: str
    noise_sigma: float = 1.0

    def __post_init__(self):
        if self.name not in BASELINES:
            raise ValueError(f"name must be one of {BASELINES}, got {self.name!r}")
        if self.name == "noisy_label_projection" and self.noise_sigma <= 0:
            raise ValueError("noise_sigma must be positive")


def make_baseline_targets(kind, y, u, rng=None, n_rows=None):
    """Target potentials for one batch, or None when nothing is fitted.

    y holds one label row per sample, of n_rows (default len(y)) design
    rows in all: each sample's label term y @ u goes to its n_rows / len(y)
    consecutive rows (window positions) as in ``generate_targets``, onto
    zeros, or onto noise drawn per design row.
    """
    if kind.name == "random_features":
        return None
    shape = (len(y) if n_rows is None else n_rows, u.shape[1])
    if kind.name == "noisy_label_projection":
        if rng is None:
            raise ValueError("noisy_label_projection needs an rng")
        ztil = rng.normal(shape, kind.noise_sigma)
    else:
        ztil = np.zeros(shape)
    return _add_label_term(ztil, y, u, "identity")


def fit_baseline_network(kind, specs, dataset, batch_size=256, noise_seed=0,
                         mode="closed_form"):
    """Fit ``specs`` under a baseline scheme: the main network fit, with the
    baseline's hidden-layer targets in place of the main method's.

    Each layer draws the projections its targets read from its seeds. One
    rng seeded by ``noise_seed`` draws the noise of every layer in turn.
    """
    rng = SeededRng(noise_seed)

    def targets(rows, y, q, u, target_spec):
        return make_baseline_targets(kind, y, u, rng, n_rows=len(rows))

    return fit_network(specs, dataset, mode=mode, batch_size=batch_size,
                       targets=targets)

"""Shared fixtures and the acceptance summary printed after a run.

The image benchmark tests need the four classic IDX files (Fashion-MNIST)
on local disk; this sandbox has no network access, so those tests skip
with instructions when the files are absent. Set FPNET_FMNIST_DIR or drop
the unzipped files into data/fmnist/ next to the package root.
"""

import os

import pytest

from fpnet import layers
from fpnet.data import load_idx, synthetic_gaussian_task
from fpnet.linalg import SeededRng

FMNIST_FILES = {
    "train_images": "train-images-idx3-ubyte",
    "train_labels": "train-labels-idx1-ubyte",
    "test_images": "t10k-images-idx3-ubyte",
    "test_labels": "t10k-labels-idx1-ubyte",
}


def fmnist_dir():
    default = os.path.join(os.path.dirname(__file__), "..", "data", "fmnist")
    return os.environ.get("FPNET_FMNIST_DIR", os.path.normpath(default))


def _fmnist_paths_or_skip():
    d = fmnist_dir()
    paths = {k: os.path.join(d, v) for k, v in FMNIST_FILES.items()}
    missing = [os.path.basename(p) for p in paths.values()
               if not os.path.exists(p)]
    if missing:
        pytest.skip(
            f"Fashion-MNIST IDX files not found under {d} (missing: "
            f"{', '.join(missing)}). Download the four files, gunzip them "
            f"there or point FPNET_FMNIST_DIR at them.")
    return paths


@pytest.fixture(scope="session")
def fmnist():
    """(train, test) Datasets of the full image benchmark, or skip."""
    paths = _fmnist_paths_or_skip()
    train = load_idx(paths["train_images"], paths["train_labels"])
    test = load_idx(paths["test_images"], paths["test_labels"])
    return train, test


@pytest.fixture(scope="session")
def blobs():
    """Separable 4-class Gaussian blobs: (train, test)."""
    rng = SeededRng(1234)
    train = synthetic_gaussian_task(800, 16, 4, 4.0, rng)
    test = synthetic_gaussian_task(400, 16, 4, 4.0, rng)
    return train, test


def seeded_projections(specs, sample_shape, label_dim):
    """The (q, u) pair each layer of ``specs`` draws from its seeds when
    fitted on samples shaped ``sample_shape``, None for pooling and output
    layers: the oracle a fitted layer's q and u are compared against."""
    walk = layers._fit_walk(specs, sample_shape, label_dim)
    return [None if spec.kind in ("global_avg_pool", "output")
            else (layers._draw_q(spec, width),
                  layers._draw(spec, label_dim, "u_seed"))
            for spec, (width, _, _) in zip(specs, walk)]


_acceptance_results = {}


def pytest_runtest_logreport(report):
    if "test_acceptance" not in report.nodeid:
        return
    if report.when == "call" or (report.when == "setup" and
                                 (report.skipped or report.failed)):
        if report.skipped:
            status = "SKIP"
        elif report.passed:
            status = "PASS"
        else:
            status = "FAIL"
        _acceptance_results[report.nodeid] = status


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_results:
        return
    terminalreporter.section("acceptance criteria")
    for nodeid in sorted(_acceptance_results):
        name = nodeid.split("::")[-1]
        terminalreporter.write_line(f"{_acceptance_results[nodeid]:<4}  {name}")

"""Fits at different BLAS thread counts.

OpenBLAS splits a large product or factorisation across its threads, and
how it splits can change the order of a sum, so fits at 1 and at 2 threads
may differ by rounding: the promise that rerunning ``resolved_config.json``
reproduces a checkpoint bit for bit holds at one thread count. These tests
fit fixed nets, each wide enough for OpenBLAS to split its calls, in fresh
interpreters started with ``OPENBLAS_NUM_THREADS`` set, and check that the
weights stay within rounding and the predicted classes the same across
thread counts, and are byte-identical at the same count.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

NETS = ("dense", "dual", "conv")

# each net's weights, layer by layer, and its argmax on a fixed test split;
# asserts that OpenBLAS, where it says, runs the threads asked for
_FIT = """
import ctypes, os, sys
import numpy as np
from fpnet import linalg
from fpnet.bench import mlp_specs
from fpnet.core import TargetGenSpec
from fpnet.data import Dataset, one_hot, synthetic_gaussian_task
from fpnet.layers import LayerSpec, fit_network, predict
from fpnet.linalg import SeededRng

threads = linalg._bundled("scipy_openblas_get_num_threads64_")
cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
         else os.cpu_count())
if threads is not None and cores >= int(sys.argv[2]):
    threads.restype = ctypes.c_int
    assert threads() == int(sys.argv[2]), threads()


def gaussian(n, test_n, seed):
    rng = SeededRng(seed)
    return (synthetic_gaussian_task(n, 300, 10, 3.0, rng),
            synthetic_gaussian_task(test_n, 300, 10, 3.0, rng))


def images(n, seed):
    x = SeededRng(seed).standard_normal((n, 1, 20, 20))
    return Dataset(x, one_hot(np.arange(n) % 3), ["a", "b", "c"])


conv = [LayerSpec("conv2d", 16, (5, 5), 1, "relu",
                  TargetGenSpec(g="sign", q_seed=41, u_seed=42)),
        LayerSpec("conv2d", 32, (3, 3), 2, "relu",
                  TargetGenSpec(g="sign", q_seed=43, u_seed=44)),
        LayerSpec("global_avg_pool"), LayerSpec("output")]
nets = {
    # 300 -> 400 x 2 on 2000 rows: the primal Gram sums
    "dense": (mlp_specs((400, 400), seed=31), *gaussian(2000, 500, 31)),
    # 150 rows narrower than 301 columns: the dual solve
    "dual": (mlp_specs((400, 400), seed=32), *gaussian(150, 500, 32)),
    # 20 x 20 images through a 5 x 5 and a strided 3 x 3 conv layer
    "conv": (conv, images(200, 33), images(100, 34)),
}
out = {}
for name, (specs, train, test) in nets.items():
    net = fit_network(specs, train)
    for k, tl in enumerate(net.layers):
        if tl.w is not None:
            out[f"{name}/w{k}"] = tl.w
    out[f"{name}/argmax"] = predict(net, test.x)[1]
np.savez(sys.argv[1], **out)
"""


@pytest.fixture(scope="module")
def fits(tmp_path_factory):
    """{run: {key: array}} of the runs "1", "2" and "2 again", each at that
    many OpenBLAS threads."""
    tmp = tmp_path_factory.mktemp("threads")
    src = Path(__file__).resolve().parents[1] / "src"
    runs = {}
    for run, threads in (("1", "1"), ("2", "2"), ("2 again", "2")):
        path = tmp / f"{run}.npz"
        proc = subprocess.run(
            [sys.executable, "-c", _FIT, str(path), threads],
            capture_output=True, text=True, cwd=tmp,
            env={**os.environ, "PYTHONPATH": str(src),
                 "OPENBLAS_NUM_THREADS": threads})
        assert proc.returncode == 0, proc.stdout + proc.stderr
        with np.load(path) as arrays:
            runs[run] = dict(arrays)
    return runs


def _weights(run, net):
    return {key: w for key, w in run.items() if key.startswith(f"{net}/w")}


@pytest.mark.parametrize("net", NETS)
def test_weights_within_rounding_across_thread_counts(fits, net):
    one, two = _weights(fits["1"], net), _weights(fits["2"], net)
    assert one.keys() == two.keys() and one
    for key, w in one.items():
        assert np.linalg.norm(w - two[key]) <= 1e-9 * np.linalg.norm(w), key


@pytest.mark.parametrize("net", NETS)
def test_same_classes_across_thread_counts(fits, net):
    assert np.array_equal(fits["1"][f"{net}/argmax"],
                          fits["2"][f"{net}/argmax"])


@pytest.mark.parametrize("net", NETS)
def test_weights_byte_identical_at_one_thread_count(fits, net):
    again, two = _weights(fits["2 again"], net), _weights(fits["2"], net)
    assert again.keys() == two.keys() and again
    for key, w in again.items():
        assert w.tobytes() == two[key].tobytes(), key

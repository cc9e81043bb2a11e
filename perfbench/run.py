"""Run the fpnet benchmark against this checkout's ``src/fpnet``.

    python3 perfbench/run.py --workload mlp-fit --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --seed 1        # every workload, one process each

One run sets the workload up SETUP_REPEATS times from ``--seed``, runs one
untraced warm-up repetition that no metric includes, then repeats the
timed phase until ``--seconds`` (counted from the warm-up) are used, checks
the outputs, and prints a readable table followed by one JSON object as the
last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``attempted`` counts output checks and ``failed`` those that did not hold.
With ``--trace 0`` the metrics are the end-to-end metrics of
BENCHMARK.json, each the median over at least MIN_REPS repetitions. With
``--trace 1`` traced and untraced repetitions alternate; the metrics are
the per-layer ones, medians over traced repetitions, derived from spans
that are also written to ``.perfbench/``. Before fpnet is imported, glibc's
malloc is told to keep freed memory (``keep_freed_memory``).
"""

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

SETUP_REPEATS = 3
MIN_REPS = 3
MIN_TRACED_REPS = 2
WORKLOAD_NAMES = ("mlp-fit", "conv-fit", "fewshot", "serve")


def import_fpnet():
    """Import fpnet from this checkout's src/, and refuse any other copy."""
    if not (SRC / "fpnet" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no fpnet package under {SRC}")
    sys.path.insert(0, str(SRC))
    import fpnet
    where = Path(fpnet.__file__).resolve().parent
    if where != SRC / "fpnet":
        raise SystemExit(f"perfbench: fpnet imported from {where}, "
                         f"not from {SRC / 'fpnet'}")
    return fpnet


def _blas_threads(numpy):
    """Thread count of the OpenBLAS bundled with numpy, or None."""
    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _git_commit():
    """HEAD of the checkout; None when it is not the top of a git repository."""
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                               "--show-toplevel", "HEAD"],
                              capture_output=True, text=True)
    except OSError:  # no git
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def provenance(fpnet):
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": _blas_threads(numpy),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "python": platform.python_version(),
            "commit": _git_commit(),
            "fpnet": str(Path(fpnet.__file__).resolve().relative_to(ROOT))}


def _peak_rss_mb():
    """Peak resident set size of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(run, state, seconds, traced):
    """Repeat the timed phase for ``seconds``, after one untraced warm-up.

    The warm-up pays first-touch costs (allocator, BLAS threads) and is left
    out of every metric. Untraced: at least MIN_REPS repetitions. Traced:
    traced and untraced repetitions alternate, at least MIN_TRACED_REPS of
    each. Returns the warm-up, the untraced and the traced repetitions, the
    spans of each traced one, and the last repetition, the only one whose
    outputs are kept for verification.
    """
    from tracing import Tracer, layer_metrics
    tracer = Tracer() if traced else None
    start = time.perf_counter()
    warmup = run(state, None)
    warmup.keep = None
    plain, with_trace, spans = [], [], []
    while True:
        if traced and len(plain) >= len(with_trace):
            tracer.reset()
            with tracer:
                rep = run(state, tracer)
            rep.layers = layer_metrics(tracer)
            spans.append(tracer.spans)
            with_trace.append(rep)
        else:
            rep = run(state, None)
            plain.append(rep)
        if traced:
            enough = min(len(plain), len(with_trace)) >= MIN_TRACED_REPS
        else:
            enough = len(plain) >= MIN_REPS
        if enough and time.perf_counter() - start + rep.wall_s > seconds:
            return warmup, plain, with_trace, spans, rep
        rep.keep = None


def end_to_end(reps, setups, peak_rss_mb):
    """End-to-end metrics: medians over repetitions (setup_s over setups)."""
    m = {"setup_s": (median(setups), "s"),
         "wall_s": (median([r.wall_s for r in reps]), "s"),
         "predict_rows_per_s": (median([r.predict_rows / r.predict_s
                                         for r in reps]), "rows/s"),
         "peak_rss_mb": (peak_rss_mb, "MB"),
         "test_accuracy": (median([r.accuracy for r in reps]), "fraction"),
         "auc_macro": (median([r.auc_macro for r in reps]), "fraction")}
    # printed, not in the JSON: each applies to some workloads only
    extra = {}
    if reps[0].fit_s is not None:
        extra["fit_s"] = (median([r.fit_s for r in reps]), "s")
    if reps[0].explain_maps:
        extra["explain_maps_per_s"] = (median([r.explain_maps / r.explain_s
                                                for r in reps]), "maps/s")
    return m, extra


def per_layer(plain, with_trace):
    """The per_layer metrics of BENCHMARK.json, with the units listed there.

    Medians over traced repetitions, except the explain call latencies,
    which are quantiles of every call of every traced repetition.
    """
    from tracing import quantile
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    overhead = (median([r.wall_s for r in with_trace])
                - median([r.wall_s for r in plain]))
    calls = [c for r in with_trace for c in r.layers["explain.calls_ms"]]
    pooled = {"trace.overhead_s": overhead,
              "explain.call_ms_p50": quantile(calls, 50),
              "explain.call_ms_p90": quantile(calls, 90)}
    return {e["name"]: (pooled[e["name"]] if e["name"] in pooled else
                        median([r.layers[e["name"]] for r in with_trace]),
                        e["unit"])
            for e in listed}


def keep_freed_memory():
    """Make glibc's malloc keep the memory that numpy frees, for reuse.

    By default each large array is mapped fresh and handed back when freed,
    so every repetition pays to fault its temporaries in again. On a virtual
    machine that cost is set by the host (how soon it reclaims memory the
    guest has freed, how busy its memory is), and it moved the timings of
    image workloads by up to 25% between runs of the same code. Without
    mmap and trimming, a repetition reuses the pages the last one touched.
    Peak RSS is then the heap's high-water mark, which fragmentation puts
    above the sum of live arrays (serve: 800 MB against 636 MB).
    """
    libc = ctypes.CDLL(None)
    m_trim_threshold, m_mmap_max = -1, -4  # from glibc's malloc.h
    if not (libc.mallopt(m_mmap_max, 0)
            and libc.mallopt(m_trim_threshold, 2**31 - 1)):
        raise SystemExit("perfbench: mallopt refused the settings")


def run_one(args):
    keep_freed_memory()
    fpnet = import_fpnet()
    # both import fpnet, so they load only once src/ is on the path
    import workloads
    from tracing import write_spans
    setup, run, verify = workloads.WORKLOADS[args.workload]
    prov = provenance(fpnet)
    print("provenance " + json.dumps(prov, sort_keys=True))
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            state = None  # free one set-up's inputs before the next is built
            t0 = time.perf_counter()
            state = setup(args.seed, str(workdir))
            setups.append(time.perf_counter() - t0)
        setup_rss_mb = _peak_rss_mb()
        warmup, plain, with_trace, spans, last = measure(
            run, state, args.seconds, bool(args.trace))
        # read before verify(), whose reference computations are not measured
        peak_rss_mb = _peak_rss_mb()
        reps = [warmup] + plain + with_trace
        outcomes = [(n, ok) for r in reps for n, ok in r.checks.items()]
        outcomes += verify(state, last).items()
        if args.workload == "mlp-fit" and with_trace:
            ratios = sorted({r.layers["layers.replay_ratio"] for r in with_trace})
            outcomes.append((f"layers.replay_ratio {ratios} equals "
                             f"{workloads.MLP_REPLAY_RATIO}",
                             ratios == [workloads.MLP_REPLAY_RATIO]))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(outcomes)
    failed = sum(1 for _, ok in outcomes if not ok)
    checks = {}
    for name, ok in outcomes:
        checks[name] = checks.get(name, True) and ok
    e2e, extra = end_to_end(plain, setups, peak_rss_mb)
    extra["setup_peak_rss_mb"] = (setup_rss_mb, "MB")
    metrics = per_layer(plain, with_trace) if args.trace else e2e

    print(f"workload {args.workload}  seed {args.seed}  repetitions "
          f"{len(plain)} untraced, {len(with_trace)} traced, after a warm-up")
    print("  wall_s per repetition: " + ", ".join(
        f"{r.wall_s:.3f}{'*' if r in with_trace else ''}" for r in reps)
          + "  (first: warm-up, *: traced)")
    for name, ok in checks.items():
        print(f"  check {'ok  ' if ok else 'FAIL'} {name}")
    shown = dict(e2e, **extra,
                 failed_frac=(failed / attempted, "fraction"))
    if args.trace:
        shown.update(metrics)
        path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        write_spans(path, spans, {"workload": args.workload, "seed": args.seed,
                                  "provenance": prov})
        print(f"  spans written to {path.relative_to(ROOT)}")
    for name, (value, unit) in shown.items():
        print(f"  {name:34s} {value:>16.6g} {unit}")
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {n: {"value": v, "unit": u}
                          for n, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0


def run_all(args):
    """Every workload in its own process, so each has its own peak RSS."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"perfbench: workload {name} failed "
                             f"(exit {proc.returncode})")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=("all",) + WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())

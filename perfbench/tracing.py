"""Spans around calls into fpnet's public functions, for the traced run.

A ``Tracer`` replaces each traced function with a timing wrapper in every
fpnet module namespace that holds it, so a call is caught where its caller
looks the name up (``fpnet.layers.generate_targets`` as well as
``fpnet.core.generate_targets``). Nothing in fpnet changes on disk and
``uninstall`` puts every original back.

Spans stay in memory with a link to the span that was open when they
started; ``layer_metrics`` derives self time and the per-layer metrics from
them once a repetition ends. Each per-layer fit also runs under its own
``accounting.track`` ledger, whose costs are handed on to the ledger that
was active outside it, so the caller's totals are unchanged.
"""

import functools
import inspect
import json
import os
import statistics
import sys
import time
from collections import Counter

from fpnet import accounting

# Public functions timed in the traced run, as "<module>.<name>" under fpnet.
# The baseline's hidden-layer fit has no public entry point; it is wrapped by
# its private name so that baseline layers get a ledger like the others.
TRACED = (
    "layers.fit_network", "layers.fit_layer", "layers.fit_output_layer",
    "layers.forward", "layers.potentials", "layers.extract_windows",
    "layers.predict", "layers.network_forward",
    "core.generate_targets", "core.GramAccumulator.update",
    "core.fit_weights", "core.ridge_solve",
    "linalg.spd_solve", "linalg.gaussian_matrix", "linalg.pseudo_inverse_rows",
    "data.load_idx", "data.few_shot_subsample",
    "checkpoint.load_network",
    "baselines.fit_baseline_network", "baselines._fit_hidden_baseline",
    "baselines.make_baseline_targets",
    "metrics.metric_report",
    "explain.explain_layer", "explain.render_map", "explain.write_map_csv",
    "explain.write_map_pgm", "explain.reconstruct_input",
    "bench.fewshot_sweep", "bench.run_benchmark", "bench.fit_method",
)

NET_FITS = frozenset({"layers.fit_network", "baselines.fit_baseline_network"})
LAYER_FITS = frozenset({"layers.fit_layer", "layers.fit_output_layer",
                        "baselines._fit_hidden_baseline"})
FIT_SPANS = NET_FITS | LAYER_FITS | {"bench.fit_method"}

# Span name -> fitting phase, for the L<k>.<phase>_s metrics.
PHASE_OF = {
    "layers.forward": "forward",
    "core.generate_targets": "target_gen",
    "baselines.make_baseline_targets": "target_gen",
    "core.GramAccumulator.update": "gram",
    "core.ridge_solve": "solve",
}

N_LAYERS = 4


class Span:
    __slots__ = ("name", "parent", "start", "end", "info")

    def __init__(self, name, parent, start):
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start
        self.info = None


class _Bytes:
    """Stands in for an array in accounting.note_matrices, which reads only nbytes."""

    def __init__(self, nbytes):
        self.nbytes = nbytes


def _fpnet_modules():
    return [m for n, m in sys.modules.items()
            if n == "fpnet" or n.startswith("fpnet.")]


class Tracer:
    """Records spans, and MAC counts when ``costs`` is set, while installed.

    With ``costs=False`` only the named functions are wrapped; accounting is
    left as it is.
    """

    def __init__(self, names=TRACED, costs=True):
        self.names = names
        self.costs = costs
        self._undo = []
        self._stack = []
        self.reset()

    def reset(self):
        self.spans = []
        self.macs = dict.fromkeys(accounting.PHASES, 0)
        self.peak_matrix_bytes = 0

    # --- installing -----------------------------------------------------

    def install(self):
        modules = _fpnet_modules()
        self._add_macs = accounting.add_macs
        self._note_matrices = accounting.note_matrices
        if self.costs:
            self._bind([(accounting, "add_macs")], self._count_macs)
            self._bind([(accounting, "note_matrices")], self._count_matrices)
        for dotted in self.names:  # names fpnet no longer has are skipped
            module_name, _, attr = dotted.partition(".")
            owner = sys.modules.get(f"fpnet.{module_name}")
            if "." in attr:  # a method: patch it on its class
                class_name, attr = attr.split(".")
                owner = getattr(owner, class_name, None)
                original = vars(owner).get(attr) if owner else None
                sites = [(owner, attr)]
            else:  # a function: patch every fpnet name bound to it
                original = getattr(owner, attr, None)
                sites = [(m, a) for m in modules
                         for a, v in list(vars(m).items()) if v is original]
            if original is not None:
                self._bind(sites, self._wrap(dotted, original))

    def uninstall(self):
        for holder, attr, original in reversed(self._undo):
            setattr(holder, attr, original)
        self._undo = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _bind(self, sites, wrapper):
        for holder, attr in sites:
            self._undo.append((holder, attr, getattr(holder, attr)))
            setattr(holder, attr, wrapper)

    def _count_macs(self, phase, count):
        self.macs[phase] = self.macs.get(phase, 0) + int(count)
        self._add_macs(phase, count)

    def _count_matrices(self, *arrays):
        total = sum(int(a.nbytes) for a in arrays if a is not None)
        self.peak_matrix_bytes = max(self.peak_matrix_bytes, total)
        self._note_matrices(*arrays)

    # --- spans -------------------------------------------------------------

    def _open(self, name):
        span = Span(name, self._stack[-1] if self._stack else -1,
                    time.perf_counter())
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()

    def _enclosing(self, names):
        for i in reversed(self._stack):
            if self.spans[i].name in names:
                return self.spans[i]
        return None

    def _wrap(self, name, fn):
        sig = inspect.signature(fn)
        if name in LAYER_FITS:
            return self._wrap_layer_fit(name, fn, sig)
        enter = exit_ = None
        if name == "layers.forward":
            enter = lambda a: id(a["layer"])
        elif name in NET_FITS:
            enter = lambda a: list(a["specs"])
        elif name == "layers.predict":
            enter = lambda a: len(a["x"])
        elif name == "checkpoint.load_network":
            enter = lambda a: os.path.getsize(a["path"])
        elif name == "layers.extract_windows":
            exit_ = lambda result: int(result.nbytes)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            if enter is not None:
                span.info = enter(sig.bind(*args, **kwargs).arguments)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if exit_ is not None:
                span.info = exit_(result)
            return result

        return wrapper

    def _wrap_layer_fit(self, name, fn, sig):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spec = sig.bind(*args, **kwargs).arguments["spec"]
            net = self._enclosing(NET_FITS)
            k = next((i for i, s in enumerate(net.info) if s is spec), -1) \
                if net is not None else -1
            ledger = accounting.CostLedger()
            span = self._open(name)
            span.info = (k, ledger)
            try:
                with accounting.track(ledger):
                    return fn(*args, **kwargs)
            finally:
                self._close(span)
                # hand the layer's costs on to the ledger active outside it
                for phase, count in ledger.macs.items():
                    self._add_macs(phase, count)
                self._note_matrices(_Bytes(ledger.peak_matrix_bytes))

        return wrapper


def quantile(values, q):
    """The q-th percentile of values; 0 when there are none."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(tracer):
    """Per-layer metrics of one traced repetition, keyed as in BENCHMARK.json."""
    spans = tracer.spans
    n = len(spans)
    dur = [s.end - s.start for s in spans]
    child = [0.0] * n
    under_fit = [False] * n      # a fit wrapper is an ancestor
    under_forward = [False] * n  # a layers.forward span is an ancestor
    layer_of = [-1] * n          # index of the layer being fitted
    net_of = [-1] * n            # index of the enclosing network-fit span
    for i, s in enumerate(spans):
        p = s.parent
        if p >= 0:
            parent = spans[p]
            child[p] += dur[i]
            under_fit[i] = under_fit[p] or parent.name in FIT_SPANS
            under_forward[i] = under_forward[p] or parent.name == "layers.forward"
            layer_of[i] = layer_of[p]
            net_of[i] = net_of[p]
        if s.name in LAYER_FITS:
            layer_of[i] = s.info[0]
        if s.name in NET_FITS:
            net_of[i] = i

    def total(name):
        return sum(d for s, d in zip(spans, dur) if s.name == name)

    m = {}
    fwd_fit = fwd_predict = 0.0
    replays = {}
    phase_s = Counter()
    for i, s in enumerate(spans):
        if s.name == "layers.forward" and not under_forward[i]:
            if under_fit[i]:
                fwd_fit += dur[i]
                if net_of[i] >= 0:
                    replays.setdefault(net_of[i], Counter())[s.info] += 1
            else:
                fwd_predict += dur[i]
        phase = PHASE_OF.get(s.name)
        if phase is not None and layer_of[i] >= 0 and not under_forward[i]:
            phase_s[layer_of[i], phase] += dur[i]
    m["layers.forward_fit_s"] = fwd_fit
    m["layers.forward_predict_s"] = fwd_predict
    # forwards run per batch over those needed: every layer forwarded during a
    # fit is needed once per batch, and the layer forwarded least often
    # (the last hidden one) is forwarded exactly once per batch
    needed = sum(len(c) * min(c.values()) for c in replays.values())
    run = sum(sum(c.values()) for c in replays.values())
    m["layers.replay_ratio"] = run / needed if needed else 0.0
    m["layers.extract_windows_s"] = total("layers.extract_windows")
    m["layers.extract_windows_bytes"] = sum(
        s.info for s in spans if s.name == "layers.extract_windows")
    m["layers.stream_wait_s"] = sum(
        dur[i] - child[i] for i, s in enumerate(spans) if s.name in LAYER_FITS)

    layer_macs = Counter()
    for s in spans:
        if s.name in LAYER_FITS and s.info[0] >= 0:
            for phase, count in s.info[1].macs.items():
                layer_macs[s.info[0], phase] += count
    for k in range(N_LAYERS):
        for phase in accounting.PHASES:
            m[f"L{k}.{phase}_s"] = phase_s[k, phase]
            m[f"L{k}.{phase}_macs"] = layer_macs[k, phase]

    core_s = {"target_gen": total("core.generate_targets"),
              "gram": total("core.GramAccumulator.update"),
              "solve": total("core.ridge_solve")}
    for phase, seconds in core_s.items():
        m[f"core.{phase}_s"] = seconds
    for phase, seconds in core_s.items():
        m[f"core.{phase}_gmacs_per_s"] = (
            tracer.macs[phase] / seconds / 1e9 if seconds > 0 else 0.0)

    m["linalg.spd_solve_s"] = total("linalg.spd_solve")
    m["linalg.spd_solve_calls"] = sum(
        1 for s in spans if s.name == "linalg.spd_solve")
    m["linalg.gaussian_matrix_s"] = total("linalg.gaussian_matrix")
    m["linalg.pseudo_inverse_rows_s"] = total("linalg.pseudo_inverse_rows")

    for phase in accounting.PHASES:
        m[f"macs.{phase}"] = tracer.macs[phase]
    m["macs.total"] = sum(tracer.macs.values())
    m["peak_matrix_bytes"] = tracer.peak_matrix_bytes

    m["data.load_idx_s"] = total("data.load_idx")
    m["checkpoint.load_s"] = total("checkpoint.load_network")
    m["checkpoint.bytes"] = sum(
        s.info for s in spans if s.name == "checkpoint.load_network")
    m["baselines.fit_s"] = total("baselines.fit_baseline_network")
    m["metrics.metric_report_s"] = total("metrics.metric_report")

    m["explain.explain_layer_s"] = total("explain.explain_layer")
    m["explain.render_map_s"] = total("explain.render_map")
    m["explain.write_map_s"] = (total("explain.write_map_csv")
                                + total("explain.write_map_pgm"))
    # not a metric itself: run.py pools these over the traced repetitions
    # into explain.call_ms_p50 and explain.call_ms_p90
    m["explain.calls_ms"] = [d * 1e3 for s, d in zip(spans, dur)
                             if s.name == "explain.explain_layer"]

    cells = [d for s, d in zip(spans, dur) if s.name == "bench.run_benchmark"]
    m["bench.fewshot_cell_s"] = statistics.median(cells) if cells else 0.0
    m["trace.spans"] = n
    return m


def write_spans(path, traced_reps, header):
    """Write the spans of every traced repetition as JSON lines."""
    with open(path, "w") as fh:
        fh.write(json.dumps(header) + "\n")
        for rep, spans in enumerate(traced_reps):
            for i, s in enumerate(spans):
                fh.write(json.dumps({"rep": rep, "id": i, "name": s.name,
                                     "parent": s.parent, "start": s.start,
                                     "end": s.end}) + "\n")

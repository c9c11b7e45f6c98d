"""Per-layer spans and counts, recorded from outside the program.

A traced pass replaces each function in ``SPANS`` and ``COUNTERS`` with a
wrapper at every place a dibmix module looks it up (``dibmix.kernels`` and
``dibmix.cli`` both hold ``estimate_conditional``, for example), so calls are
seen whichever module makes them.  The originals are put back after the
pass.  No file of the program changes.

A span's self time is its duration minus the time of the spans it encloses.
``infotheory`` is not wrapped: its time is part of ``dib.objective``.
"""

import functools
import importlib
import sys
import time
from collections import defaultdict

import numpy as np

# (layer, module, function) whose calls get a timed span.  "Encoder.x" names
# a classmethod of a class defined in the module.
SPANS = (
    ("dataset", "dibmix.dataset", "read_csv"),
    ("dataset", "dibmix.dataset", "standardize"),
    ("dataset", "dibmix.dataset", "load_labels"),
    ("datagen", "dibmix.datagen", "generate"),
    ("bandwidth", "dibmix.bandwidth", "choose_bandwidths"),
    ("bandwidth", "dibmix.bandwidth", "default_s"),
    ("bandwidth", "dibmix.bandwidth", "select_lambda"),
    ("kernels", "dibmix.kernels", "estimate_conditional"),
    ("dib", "dibmix.dib", "dib_fit"),
    ("dib", "dibmix.dib", "dib_fit_density"),
    ("dib", "dibmix.dib", "objective"),
    ("dib", "dibmix.dib", "Encoder.from_assignment"),
    ("baselines", "dibmix.baselines", "gower"),
    ("baselines", "dibmix.baselines", "pam_fit"),
    ("baselines", "dibmix.baselines", "kprototypes_fit"),
    ("metrics", "dibmix.metrics", "ari"),
    ("benchmark", "dibmix.benchmark", "run_benchmark"),
    ("cli", "dibmix.cli", "main"),
)

# (counter, module, function, predicate on the return value): calls counted
# without a span, because they are many and short.
COUNTERS = (
    ("kernels.factor_builds", "dibmix.kernels", "gaussian_kernel", lambda r: np.ndim(r) == 2),
    ("kernels.factor_builds", "dibmix.kernels", "aitchison_aitken", lambda r: np.ndim(r) == 2),
    ("bandwidth.variance_evals", "dibmix.bandwidth",
     "kernel_factor_variance_continuous", lambda r: True),
    ("bandwidth.variance_evals", "dibmix.bandwidth",
     "kernel_factor_variance_categorical", lambda r: True),
)

# Per-layer metrics of one pass: name -> (unit, how to read it from a Trace).
LAYER_METRICS = {
    "dib.fit_s": ("s", lambda t: t.total["dib.dib_fit_density"]),
    "dib.decoder_refresh_s": ("s", lambda t: t.self["dib.from_assignment"]),
    "dib.objective_s": ("s", lambda t: t.self["dib.objective"]),
    "dib.self_s": ("s", lambda t: t.self["dib.dib_fit_density"] + t.self["dib.dib_fit"]),
    "dib.restarts": ("count", lambda t: t.counts["dib.restarts"]),
    "dib.iterations": ("count", lambda t: t.counts["dib.iterations"]),
    "dib.converged": ("count", lambda t: t.counts["dib.converged"]),
    "dib.cycles": ("count", lambda t: t.counts["dib.cycles"]),
    "dib.iter_ms": ("ms", lambda t: 1e3 * t.total["dib.dib_fit_density"]
                    / max(1, t.counts["dib.iterations"])),
    "kernels.estimate_conditional_s": ("s", lambda t: t.self["kernels.estimate_conditional"]),
    "kernels.factor_builds": ("count", lambda t: t.counts["kernels.factor_builds"]),
    "bandwidth.select_lambda_s": ("s", lambda t: t.self["bandwidth.select_lambda"]),
    "bandwidth.variance_evals": ("count", lambda t: t.counts["bandwidth.variance_evals"]),
    "dataset.read_csv_s": ("s", lambda t: t.self["dataset.read_csv"]),
    "dataset.standardize_s": ("s", lambda t: t.self["dataset.standardize"]),
    "baselines.gower_s": ("s", lambda t: t.self["baselines.gower"]),
    "baselines.pam_fit_s": ("s", lambda t: t.self["baselines.pam_fit"]),
    "baselines.kprototypes_fit_s": ("s", lambda t: t.self["baselines.kprototypes_fit"]),
    "datagen.generate_s": ("s", lambda t: t.self["datagen.generate"]),
    "metrics.ari_s": ("s", lambda t: t.self["metrics.ari"]),
    "benchmark.self_s": ("s", lambda t: t.self["benchmark.run_benchmark"]),
    "cli.self_s": ("s", lambda t: t.self["cli.main"]),
}


class Trace:
    """Spans and counts of one pass."""

    def __init__(self):
        self.self = defaultdict(float)
        self.total = defaultdict(float)
        self.counts = defaultdict(int)
        self._open = []  # time covered by children, per open span

    def span(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._open.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                children = self._open.pop()
                self.self[name] += duration - children
                self.total[name] += duration
                if self._open:
                    self._open[-1] += duration
            if name == "dib.dib_fit_density":
                self._count_restarts(result)
            return result

        return wrapper

    def counter(self, name, fn, predicate):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if predicate(result):
                self.counts[name] += 1
            return result

        return wrapper

    def _count_restarts(self, result):
        for r in result.restart_summary:
            self.counts["dib.restarts"] += 1
            self.counts["dib.iterations"] += r.iterations
            self.counts["dib.converged"] += int(r.converged)
            self.counts["dib.cycles"] += int(r.cycle_detected)

    def metrics(self):
        return {name: read(self) for name, (_, read) in LAYER_METRICS.items()}


def _sites(module_name, attr):
    """Every (holder, name, original) through which dibmix code reaches the
    function: the defining module and each module that imported it."""
    module = importlib.import_module(module_name)
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(module, cls_name)
        return [(cls, meth, cls.__dict__[meth])]
    fn = getattr(module, attr)
    return [
        (mod, name, fn)
        for mod_name, mod in sorted(sys.modules.items())
        if mod_name == "dibmix" or mod_name.startswith("dibmix.")
        for name, value in list(vars(mod).items())
        if value is fn
    ]


class Patches:
    """Installs a Trace's wrappers for the duration of a ``with`` block."""

    def __init__(self, trace):
        self._trace = trace
        self._saved = []

    def __enter__(self):
        for layer, module_name, attr in SPANS:
            name = f"{layer}.{attr.split('.')[-1]}"
            for holder, key, orig in _sites(module_name, attr):
                if isinstance(orig, classmethod):
                    wrapped = classmethod(self._trace.span(name, orig.__func__))
                else:
                    wrapped = self._trace.span(name, orig)
                self._install(holder, key, orig, wrapped)
        for name, module_name, attr, predicate in COUNTERS:
            for holder, key, orig in _sites(module_name, attr):
                self._install(holder, key, orig, self._trace.counter(name, orig, predicate))
        return self._trace

    def _install(self, holder, key, orig, wrapped):
        self._saved.append((holder, key, orig))
        setattr(holder, key, wrapped)

    def __exit__(self, *exc):
        for holder, key, orig in reversed(self._saved):
            setattr(holder, key, orig)
        self._saved.clear()
        return False

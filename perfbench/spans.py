"""Spans around sandharm's public functions, and the per-layer metrics built from them.

The tracer rebinds each listed public function in every loaded ``sandharm``
module that holds it, so calls that one layer makes into another (``cli``
into ``harmonic``, ``sandpile`` into itself) are nested spans.  A span holds
its name, start, end, parent and the index of the benchmark task that was
running.  A span's self time is its duration minus the durations of its
children; calls are sequential, so children never overlap.

Spans stay in memory for one pass; ``layer_metrics`` reduces them to the
named per-layer metrics and ``uninstall`` restores the original functions.
"""

import functools
import importlib
import re
import sys
import time
from collections import Counter, defaultdict

# Public functions traced, by layer (the package's modules).  ``window`` has
# no entry: its helpers are cheap and their cost lands in the callers' self time.
TRACED = {
    "green": ("compute_green", "walk_series_oracle", "entropy_quadrature", "fundamental_residual"),
    "sandpile": (
        "stabilize",
        "burning_test",
        "random_recurrent",
        "group_add",
        "correct_to_recurrent",
        "count_recurrent",
        "toppling_determinant_exact",
    ),
    "harmonic": (
        "xi_apply",
        "standard_specs",
        "harmonicity_residual",
        "equivariance_residual",
        "kernel_witness",
        "separation_check",
        "poly_action",
        "addition_operator_demo",
    ),
    "laurent": ("ideal_certificate", "multiplier_sum", "divide_by"),
    "cli": ("main",),
}

# Command kinds the cli-requests workload sends; each gets a ``cli.<kind>.s`` metric.
CLI_KINDS = (
    "xi_check",
    "xi_apply",
    "xi_demo_addition",
    "sandpile_stabilize",
    "sandpile_burn",
    "sandpile_count",
    "sandpile_entropy",
    "ideal",
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "task", "child_s", "counts")

    def __init__(self, name, start, parent, task):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.task = task
        self.child_s = 0.0
        self.counts = {}

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_s(self):
        return self.duration - self.child_s


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _span_name(qualname, args, kwargs):
    if qualname == "green.compute_green":
        d, gamma = _arg(args, kwargs, 0, "d"), _arg(args, kwargs, 1, "gamma")
        return qualname + (".critical" if gamma == 2 * d else ".dissipative")
    if qualname == "cli.main":
        argv = _arg(args, kwargs, 0, "argv")
        words = [w for w in argv[:2] if not w.startswith("-")]
        if words and words[0] in ("green", "ideal"):
            words = words[:1]
        return "cli." + "_".join(w.replace("-", "_") for w in words)
    return qualname


def _span_counts(qualname, args, kwargs, result):
    """Exact work counts read from a call's arguments and result."""
    if qualname == "green.compute_green":
        n = int(re.search(r"\[N=(\d+)\]", result.method).group(1))
        d = result.dim
        return {"fft_points": (n // 2) ** d + n**d, "grid_bytes": 8 * n**d, "accuracy": result.accuracy}
    if qualname == "sandpile.stabilize":
        return {"topplings": int(result[1].counts.sum())}
    if qualname == "sandpile.burning_test":
        v = _arg(args, kwargs, 0, "v")
        # burn_order is in round order, so the last entry holds the final round
        rounds = result.burn_order[-1][0] if result.burn_order else 0
        return {"rounds": rounds, "sites": v.window.size}
    if qualname == "sandpile.correct_to_recurrent":
        return {"support_sites": len(result.terms)}
    if qualname == "sandpile.count_recurrent":
        if kwargs.get("backend", args[2] if len(args) > 2 else "determinant") != "bruteforce":
            return {}
        window, gamma = _arg(args, kwargs, 0, "window"), _arg(args, kwargs, 1, "gamma")
        return {"configs_enumerated": gamma**window.size, "recurrent": int(result)}
    if qualname == "harmonic.xi_apply":
        return {"sites": int(result.values.size)}
    return {}


class Tracer:
    """Rebinds the functions in ``TRACED`` to span-recording wrappers."""

    def __init__(self):
        self.spans = []
        self.task = None
        self._stack = []
        self._patched = []

    def install(self):
        for layer in TRACED:
            importlib.import_module("sandharm." + layer)
        modules = {name: mod for name, mod in sys.modules.items() if name.split(".")[0] == "sandharm"}
        for layer, names in TRACED.items():
            home = modules["sandharm." + layer]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(layer + "." + fname, original)
                for mod in modules.values():
                    if getattr(mod, fname, None) is original:
                        setattr(mod, fname, wrapper)
                        self._patched.append((mod, fname, original))

    def uninstall(self):
        for mod, fname, original in reversed(self._patched):
            setattr(mod, fname, original)
        self._patched.clear()

    def reset(self):
        self.spans = []
        self._stack = []

    def _wrap(self, qualname, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            span = Span(_span_name(qualname, args, kwargs), time.perf_counter(), parent, tracer.task)
            tracer.spans.append(span)
            tracer._stack.append(span)
            try:
                result = fn(*args, **kwargs)
                span.counts = _span_counts(qualname, args, kwargs, result)
                return result
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
                if parent is not None:
                    parent.child_s += span.duration

        return traced


def metric_units():
    """Name and unit of every per-layer metric ``layer_metrics`` returns."""
    units = {}
    for layer, names in TRACED.items():
        units[layer + ".self_s"] = "s"
        if layer == "cli":
            continue
        for fname in names:
            units["%s.%s.self_s" % (layer, fname)] = "s"
            units["%s.%s.calls" % (layer, fname)] = "count"
    units.update(
        {
            "green.compute_green.critical.self_s": "s",
            "green.compute_green.dissipative.self_s": "s",
            "green.fft_points": "count",
            "green.grid_bytes_computed": "B",
            "green.accuracy_max": "1",
            "sandpile.stabilize.topplings": "count",
            "sandpile.stabilize.topplings_per_s": "1/s",
            "sandpile.burning_test.rounds": "count",
            "sandpile.burning_test.sites_per_s": "1/s",
            "sandpile.correct_to_recurrent.support_sites": "count",
            "sandpile.count_recurrent.configs_enumerated": "count",
            "sandpile.count_recurrent.recurrent_ratio": "ratio",
            "harmonic.xi_apply.sites_per_s": "1/s",
            "cli.calls": "count",
            "cli.bytes_written": "B",
            "span_coverage": "ratio",
            "cert_err_max": "1",
            "trace_overhead_s": "s",
        }
    )
    for kind in CLI_KINDS:
        units["cli.%s.s" % kind] = "s"
    return units


# Metrics that count work; they must repeat exactly between passes and runs.
EXACT_COUNTS = tuple(sorted(name for name, unit in metric_units().items() if unit in ("count", "B")))


def _rate(amount, seconds):
    return amount / seconds if seconds > 0 else 0.0


def layer_metrics(spans, pass_wall_s, bytes_written, cert_err_max):
    """Per-layer metrics of one traced pass; ``trace_overhead_s`` is added by the caller."""
    self_s = defaultdict(float)
    incl_s = defaultdict(float)
    calls = Counter()
    counts = Counter()
    maxima = defaultdict(float)
    covered = 0.0
    for s in spans:
        self_s[s.name] += s.self_s
        incl_s[s.name] += s.duration
        calls[s.name] += 1
        if s.parent is None:
            covered += s.duration
        for key, value in s.counts.items():
            if key in ("grid_bytes", "accuracy"):
                maxima[key] = max(maxima[key], value)
            else:
                counts[s.name + "." + key] += value

    m = {}
    for layer, names in TRACED.items():
        m[layer + ".self_s"] = sum(t for name, t in self_s.items() if name.startswith(layer + "."))
        if layer == "cli":
            continue
        for fname in names:
            q = layer + "." + fname
            keys = [n for n in self_s if n == q or n.startswith(q + ".")]
            m[q + ".self_s"] = sum(self_s[k] for k in keys)
            m[q + ".calls"] = sum(calls[k] for k in keys)
    for kind in ("critical", "dissipative"):
        m["green.compute_green.%s.self_s" % kind] = self_s["green.compute_green." + kind]
    m["green.fft_points"] = sum(v for k, v in counts.items() if k.endswith(".fft_points"))
    m["green.grid_bytes_computed"] = int(maxima["grid_bytes"])
    m["green.accuracy_max"] = maxima["accuracy"]

    topplings = counts["sandpile.stabilize.topplings"]
    m["sandpile.stabilize.topplings"] = topplings
    m["sandpile.stabilize.topplings_per_s"] = _rate(topplings, self_s["sandpile.stabilize"])
    m["sandpile.burning_test.rounds"] = counts["sandpile.burning_test.rounds"]
    m["sandpile.burning_test.sites_per_s"] = _rate(
        counts["sandpile.burning_test.sites"], self_s["sandpile.burning_test"]
    )
    m["sandpile.correct_to_recurrent.support_sites"] = counts["sandpile.correct_to_recurrent.support_sites"]
    enumerated = counts["sandpile.count_recurrent.configs_enumerated"]
    m["sandpile.count_recurrent.configs_enumerated"] = enumerated
    m["sandpile.count_recurrent.recurrent_ratio"] = (
        counts["sandpile.count_recurrent.recurrent"] / enumerated if enumerated else 0.0
    )
    m["harmonic.xi_apply.sites_per_s"] = _rate(counts["harmonic.xi_apply.sites"], self_s["harmonic.xi_apply"])

    m["cli.calls"] = sum(c for name, c in calls.items() if name.startswith("cli."))
    m["cli.bytes_written"] = bytes_written
    for kind in CLI_KINDS:
        m["cli.%s.s" % kind] = incl_s["cli." + kind]
    m["span_coverage"] = covered / pass_wall_s
    m["cert_err_max"] = cert_err_max
    return m

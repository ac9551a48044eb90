"""Outside-in span tracer for the sinrdist package, and the per-layer summary.

The tracer never edits the package. It replaces the public functions of each
layer module (and every name another module re-binds with ``from .x import y``)
with timing wrappers, records one span per call in memory, and puts the
original objects back on ``uninstall``. Nothing is patched unless ``install``
is called, so an untraced run executes the package untouched.

A span is ``(id, name, start, end, thread, parent)``. Nested calls of one span
name (``PsiEvaluator.value`` calling ``psi_power_law``, ``run_campaign``
calling ``run_trials``) collapse into the outermost span, so a count means one
evaluation at the layer boundary. Trial spans start on pool threads with an
empty stack; they take the open ``simulator.campaign`` span as parent, so self
time and concurrency stay right with several workers.

``summarize`` and ``layer_metrics`` turn a dumped span list into the
per-layer metrics; they import nothing from sinrdist.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import statistics
import threading
import time
from collections import defaultdict

LAYERS = ("specfun", "intensity", "interference", "distribution", "simulator", "cli")

# (module, attribute, span name). A dotted attribute names a method.
TRACED = (
    ("specfun", "ln_gamma", "specfun.ln_gamma"),
    ("specfun", "regularized_upper_gamma", "specfun.upper_gamma"),
    ("specfun", "hyp2f1_first_unit", "specfun.hyp2f1"),
    ("specfun", "integrate_radial", "specfun.quad"),
    ("intensity", "mean_count", "intensity.mean_count"),
    ("intensity", "location_pdf", "intensity.location_pdf"),
    ("intensity", "sample_location", "intensity.sample"),
    ("intensity", "fit_polynomial", "intensity.fit_polynomial"),
    ("interference", "psi_power_law", "interference.psi"),
    ("interference", "psi_piecewise", "interference.psi"),
    ("interference", "psi_polynomial", "interference.psi"),
    ("interference", "psi_gaussian", "interference.psi"),
    ("interference", "psi_quadrature", "interference.psi"),
    ("interference", "psi_quadrature_radial", "interference.psi"),
    ("interference", "PsiEvaluator.value", "interference.psi"),
    ("interference", "psi_derivative", "interference.dpsi"),
    ("interference", "PsiEvaluator.derivative", "interference.dpsi"),
    ("distribution", "cdf_gamma", "distribution.cdf"),
    ("distribution", "cdf_gamma_double_sum", "distribution.cdf_double_sum"),
    ("distribution", "pdf_gamma", "distribution.pdf"),
    ("distribution", "outage_probability", "distribution.outage"),
    ("distribution", "antenna_gain_delta", "distribution.antenna_gain_delta"),
    ("distribution", "scaling_limit", "distribution.scaling_limit"),
    ("distribution", "regularized_gamma_limit_scan", "distribution.limit_scan"),
    ("simulator", "trial_rng", "simulator.rng"),
    ("simulator", "draw_network", "simulator.network"),
    ("simulator", "draw_channels", "simulator.channels"),
    ("simulator", "mmse_sinr", "simulator.mmse"),
    ("simulator", "run_trial", "simulator.trial"),
    ("simulator", "run_trials", "simulator.campaign"),
    ("simulator", "run_campaign", "simulator.campaign"),
    ("simulator", "default_truncation_radius", "simulator.truncation"),
    ("simulator", "EmpiricalDistribution.ks_distance", "simulator.ks"),
    ("cli", "parse_config", "cli.parse"),
    ("cli", "run_experiment", "cli.run"),
    ("cli", "main", "cli.main"),
)

# Spans whose children may run on other threads.
FANOUT = {"simulator.campaign"}


# draw_channels returns (g_t, G); the shape (L, n) of G is kept per call for
# the computed flop and byte counts.
SHAPE_COUNTER = "simulator.channels"


class Tracer:
    """In-memory span recorder that patches the sinrdist layer modules."""

    def __init__(self):
        self.spans = []
        self.counters = defaultdict(list)
        self._ids = itertools.count()
        self._local = threading.local()
        self._fanout = []
        self._patched = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name):
        fanout = name in FANOUT
        count_shape = name == SHAPE_COUNTER
        spans, counters, ids, fanouts = self.spans, self.counters, self._ids, self._fanout
        clock, ident = time.perf_counter, threading.get_ident

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack and stack[-1][1] == name:
                return fn(*args, **kwargs)
            if stack:
                parent = stack[-1][0]
            else:
                parent = fanouts[-1] if fanouts else -1
            sid = next(ids)
            stack.append((sid, name))
            if fanout:
                fanouts.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if fanout:
                    fanouts.pop()
                spans.append((sid, name, start, end, ident(), parent))
            if count_shape:
                counters[name].append(result[1].shape)
            return result

        wrapper.__traced__ = name
        return wrapper

    def install(self):
        """Patch every traced name in sinrdist and its layer modules."""
        if self._patched:
            raise RuntimeError("tracer is already installed")
        package = importlib.import_module("sinrdist")
        modules = [package] + [importlib.import_module(f"sinrdist.{m}") for m in LAYERS]
        replacements = {}
        for module_name, attr, name in TRACED:
            owner = importlib.import_module(f"sinrdist.{module_name}")
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                wrapper = self.wrap(original, name)
                # PsiEvaluator.__call__ is an alias of value: keep them one object
                for alias, obj in list(vars(cls).items()):
                    if obj is original:
                        self._patched.append((cls, alias, obj))
                        setattr(cls, alias, wrapper)
            else:
                original = getattr(owner, attr)
                replacements[id(original)] = (original, self.wrap(original, name))
        for module in modules:
            for attr, obj in list(vars(module).items()):
                hit = replacements.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patched.append((module, attr, obj))
                    setattr(module, attr, hit[1])

    def uninstall(self):
        """Restore every patched name."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []

    def dump(self):
        """JSON-ready spans (sorted by id) and counters."""
        spans = sorted(self.spans)
        names = sorted({s[1] for s in spans})
        index = {n: i for i, n in enumerate(names)}
        threads = {}
        rows = []
        for sid, name, start, end, thread, parent in spans:
            tid = threads.setdefault(thread, len(threads))
            rows.append([sid, index[name], start, end, tid, parent])
        return {"names": names, "spans": rows, "counters": dict(self.counters)}


# ---------------------------------------------------------------------------
# summary


def _union_length(intervals, lo, hi):
    total, cursor = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def _percentile_us(durations, q):
    if not durations:
        return 0.0
    ordered = sorted(durations)
    rank = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[rank] * 1e6


def summarize(dump):
    """Per-span-name statistics from one dumped trace.

    Returns ``{name: {"calls", "total_s", "self_s", "durations", "first"}}``
    where ``first`` is the (start, duration) of the earliest span.
    """
    names = dump["names"]
    spans = {row[0]: row for row in dump["spans"]}
    children = defaultdict(list)
    for sid, _n, start, end, _t, parent in dump["spans"]:
        if parent in spans:
            children[parent].append((start, end))
    stats = {}
    for sid, n, start, end, _t, _p in dump["spans"]:
        s = stats.setdefault(
            names[n],
            {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": [], "first": None},
        )
        duration = end - start
        s["calls"] += 1
        s["total_s"] += duration
        s["self_s"] += duration - _union_length(children.get(sid, ()), start, end)
        s["durations"].append(duration)
        if s["first"] is None or start < s["first"][0]:
            s["first"] = (start, duration)
    return stats


def _descendant_names(dump):
    """For each span id, the set of span names found below it."""
    names = dump["names"]
    below = defaultdict(set)
    # ids grow with start order, so a child always has a larger id than its
    # parent; walking ids downward fills each parent after all its children.
    for sid, n, _s, _e, _t, parent in sorted(dump["spans"], reverse=True):
        if parent >= 0:
            below[parent].add(names[n])
            below[parent] |= below[sid]
    return below


def layer_metrics(dump):
    """The per-layer metrics of one traced round (no process metrics)."""
    stats = summarize(dump)
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": [], "first": None}

    def get(name):
        return stats.get(name, empty)

    m = {}
    for key in ("specfun.quad", "specfun.hyp2f1", "specfun.upper_gamma"):
        m[f"{key}.calls"] = get(key)["calls"]
        m[f"{key}.self_s"] = get(key)["self_s"]
    for key in ("interference.psi", "interference.dpsi"):
        s = get(key)
        m[f"{key}.calls"] = s["calls"]
        m[f"{key}.self_s"] = s["self_s"]
        m[f"{key}.p50_us"] = _percentile_us(s["durations"], 0.50)
        m[f"{key}.p99_us"] = _percentile_us(s["durations"], 0.99)
    for key in ("distribution.cdf", "distribution.pdf"):
        m[f"{key}.calls"] = get(key)["calls"]
        m[f"{key}.self_s"] = get(key)["self_s"]
    m["distribution.outage.calls"] = get("distribution.outage")["calls"]
    m["distribution.scaling_limit.s"] = get("distribution.scaling_limit")["total_s"]
    sample = get("intensity.sample")
    m["intensity.sample.calls"] = sample["calls"]
    m["intensity.sample.self_s"] = sample["self_s"]
    m["intensity.sample.first_call_s"] = sample["first"][1] if sample["first"] else 0.0
    m["intensity.mean_count.calls"] = get("intensity.mean_count")["calls"]
    trial = get("simulator.trial")
    m["simulator.trials"] = trial["calls"]
    m["simulator.trial.p50_us"] = _percentile_us(trial["durations"], 0.50)
    m["simulator.trial.p99_us"] = _percentile_us(trial["durations"], 0.99)
    for key in ("rng", "network", "channels", "mmse"):
        m[f"simulator.{key}.self_s"] = get(f"simulator.{key}")["self_s"]
    campaign = get("simulator.campaign")
    m["simulator.campaign.s"] = campaign["total_s"]
    m["simulator.campaign.concurrency"] = (
        trial["total_s"] / campaign["total_s"] if campaign["total_s"] > 0 else 0.0
    )
    m["simulator.ks.s"] = get("simulator.ks")["total_s"]
    shapes = dump["counters"].get("simulator.channels", [])
    m["simulator.gram.flops_computed"] = sum(8 * L * L * n for L, n in shapes)
    m["simulator.channels.bytes_computed"] = sum(16 * L * (n + 1) for L, n in shapes)
    m["cli.parse.s"] = get("cli.parse")["total_s"]
    m["cli.self_s"] = get("cli.run")["self_s"]

    # Shares of experiment time: pdf evaluations, and cdf/outage evaluations
    # that never reached the quadrature (closed-form cells). outage_probability
    # calls cdf_gamma, so only cells not nested in another cell count.
    run_total = get("cli.run")["total_s"]
    names = dump["names"]
    span_name = {row[0]: names[row[1]] for row in dump["spans"]}
    below = _descendant_names(dump)
    cells = ("distribution.cdf", "distribution.outage")
    pdf_s = closed_s = 0.0
    for sid, n, start, end, _t, parent in dump["spans"]:
        name = names[n]
        if name == "distribution.pdf":
            pdf_s += end - start
        elif (
            name in cells
            and span_name.get(parent) not in cells
            and "specfun.quad" not in below.get(sid, ())
        ):
            closed_s += end - start
    m["distribution.pdf.share"] = pdf_s / run_total if run_total > 0 else 0.0
    m["distribution.closed_form.share"] = closed_s / run_total if run_total > 0 else 0.0
    return m


def median_metrics(rounds):
    """Metric-wise median over a list of metric dicts with equal keys."""
    return {key: statistics.median(r[key] for r in rounds) for key in rounds[0]}

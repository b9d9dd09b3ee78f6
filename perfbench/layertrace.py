"""Span tracing around the public functions of each dampcert layer.

The tracer measures the package from outside: it replaces functions with
timing wrappers at every name a caller looks up, and restores them on
``uninstall``.  ``certify`` binds ``check_entry_analytic``,
``hurwitz_classification`` and ``reduced_network`` by name, ``config`` binds
``make_entry`` and ``cli`` binds most of the analysis and certify API, so a
wrapper installed only in the defining module would intercept nothing.
``install`` therefore patches every ``dampcert`` module attribute that is
the original function object.  Methods are patched on their class.

Spans (name, start, end, parent) are kept in memory while the run lasts and
written out by ``write_spans`` when it ends.  Spans recorded inside
process-pool children stay in the children and are lost.
"""

from __future__ import annotations

import statistics
import sys
import warnings
from collections import Counter, defaultdict
from concurrent.futures import ProcessPoolExecutor
from functools import wraps
from time import perf_counter

#: (module, attribute, span name); "Class.method" attributes patch the class
SPANS = (
    ("ratcalc", "Polynomial.shifted", "ratcalc.shifted"),
    ("ratcalc", "Polynomial.roots", "ratcalc.roots"),
    ("ratcalc", "hurwitz_classification", "ratcalc.hurwitz_classification"),
    ("devices", "make_entry", "devices.make_entry"),
    ("devices", "check_entry_analytic", "devices.check_entry_analytic"),
    ("netmodel", "assemble_Y", "netmodel.assemble_Y"),
    ("netmodel", "kron_reduce", "netmodel.kron_reduce"),
    ("netmodel", "reduced_network", "netmodel.reduced_network"),
    ("netmodel", "static_network", "netmodel.static_network"),
    ("domain", "discretize_boundary", "domain.discretize_boundary"),
    ("certify", "feasible_region", "certify.feasible_region"),
    ("certify", "boundary_certificate", "certify.boundary_certificate"),
    ("certify", "DynamicNetwork.row_series", "certify.row_series"),
    ("certify", "sweep_all", "certify.sweep_all"),
    ("certify", "certify_all", "certify.certify_all"),
    ("certify", "_nonvanishing_rational", "certify.nonvanishing"),
    ("analysis", "closed_loop_poles", "analysis.closed_loop_poles"),
    ("analysis", "step_response", "analysis.step_response"),
    ("analysis", "screen_poles", "analysis.screen_poles"),
    ("config", "load_config", "config.load_config"),
    ("cli", "main", "cli"),
)

SPAN_NAMES = tuple(name for _, _, name in SPANS)

#: spans whose busy time in the set-up phase is reported on its own
SETUP_SPANS = ("netmodel.static_network", "domain.discretize_boundary", "config.load_config")

#: parent span of a ``roots`` call -> the use it serves
ROOTS_PARENTS = {
    "devices.check_entry_analytic": "screen",
    "certify.nonvanishing": "fallback",
}

#: counts reported besides calls/busy_s/self_s, with their units
COUNT_METRICS = (
    ("ratcalc.roots.screen_calls", "count"),
    ("ratcalc.roots.screen_busy_s", "s"),
    ("ratcalc.roots.fallback_calls", "count"),
    ("ratcalc.roots.fallback_busy_s", "s"),
    ("ratcalc.roots.ill_conditioned", "count"),
    ("certify.nonvanishing.roots_fallback_ratio", "ratio"),
    ("domain.samples", "count"),
    ("certify.grid_points", "count"),
    ("certify.feasible_ratio", "ratio"),
    ("certify.sweep_all.pool_starts", "count"),
    ("analysis.step_response.steps", "count"),
    ("cli.rows_written", "count"),
    *((f"{name}.setup_busy_s", "s") for name in SETUP_SPANS),
    ("trace.overhead", "ratio"),
    ("trace.self_coverage", "ratio"),
)

ILL_CONDITIONED_PREFIX = "poorly conditioned roots"


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


class Tracer:
    """Records spans and counts while ``active``; wrappers stay passive
    otherwise, so set-up, traced passes and output checks can be told apart
    by toggling ``active`` and choosing ``phase``."""

    def __init__(self):
        self.active = False
        self.phase = "setup"
        self.spans = []  # [name, start, end, parent index, phase]
        self.counts = Counter()
        self._stack = []
        self._patched = []  # (owner, attribute, original)

    # -- installation -------------------------------------------------

    def install(self):
        modules = [m for k, m in sys.modules.items() if k == "dampcert" or k.startswith("dampcert.")]
        hooks = {
            "certify.feasible_region": self._after_feasible_region,
            "certify.boundary_certificate": self._after_boundary_certificate,
            "analysis.step_response": self._after_step_response,
        }
        for mod_name, attr, name in SPANS:
            mod = sys.modules[f"dampcert.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                self._set(cls, meth, self._wrap(name, cls.__dict__[meth], hooks.get(name)))
                continue
            orig = getattr(mod, attr)
            wrapped = self._wrap(name, orig, hooks.get(name))
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._set(m, key, wrapped)
        cli = sys.modules["dampcert.cli"]
        self._set(cli, "_write_tsv", self._count_rows(cli._write_tsv))
        certify = sys.modules["dampcert.certify"]
        self._set(certify, "ProcessPoolExecutor", self._counting_pool())
        ratcalc = sys.modules["dampcert.ratcalc"]
        self._set(ratcalc, "warnings", _CountingWarnings(self))

    def uninstall(self):
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched = []

    def _set(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, name, fn, after=None):
        tracer = self
        spans = self.spans
        stack = self._stack

        @wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            rec = [name, perf_counter(), 0.0, stack[-1] if stack else -1, tracer.phase]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, kwargs, out)
            return out

        return traced

    def _count_rows(self, fn):
        tracer = self

        @wraps(fn)
        def counted(path, header, rows):
            if tracer.active:
                tracer.counts["cli.rows_written"] += len(rows)
            return fn(path, header, rows)

        return counted

    def _counting_pool(self):
        tracer = self

        class CountingPool(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                if tracer.active:
                    tracer.counts["certify.sweep_all.pool_starts"] += 1
                super().__init__(*args, **kwargs)

        return CountingPool

    # -- count hooks ----------------------------------------------------

    def _after_feasible_region(self, args, kwargs, mask):
        self.counts["certify.grid_points"] += mask.grid.size
        self.counts["certify.feasible_points"] += int(mask.flags.sum())
        self._count_samples(len(_arg(args, kwargs, 5, "samples")))

    def _after_boundary_certificate(self, args, kwargs, report):
        self._count_samples(len(_arg(args, kwargs, 4, "samples")))

    def _count_samples(self, n):
        self.counts["domain.samples_total"] += n
        self.counts["domain.certificate_calls"] += 1

    def _after_step_response(self, args, kwargs, resp):
        self.counts["analysis.step_response.steps"] += len(resp.time) - 1

    # -- reduction ------------------------------------------------------

    def layer_metrics(self, traced_walls, untraced_walls):
        """Per-pass layer metrics over the spans of phase "pass", plus the
        set-up busy times and the tracing overhead."""
        spans = self.spans
        n_pass = max(len(traced_walls), 1)
        calls = Counter()
        busy = defaultdict(float)
        self_t = defaultdict(float)
        setup_busy = defaultdict(float)
        roots = defaultdict(float)
        child = defaultdict(float)
        for rec in spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        for k, (name, t0, t1, parent, phase) in enumerate(spans):
            dur = t1 - t0
            parent_name = spans[parent][0] if parent >= 0 else None
            nested = self._nested_in_same(k)
            if phase == "setup":
                if not nested:
                    setup_busy[name] += dur
                continue
            calls[name] += 1
            self_t[name] += dur - child[k]
            if not nested:
                busy[name] += dur
            if name == "ratcalc.roots":
                use = ROOTS_PARENTS.get(parent_name, "other")
                roots[f"{use}_calls"] += 1
                roots[f"{use}_busy_s"] += dur
            elif name == "ratcalc.hurwitz_classification" and parent_name == "certify.nonvanishing":
                roots["routh_tests"] += 1
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = (calls[name] / n_pass, "count")
            out[f"{name}.busy_s"] = (busy[name] / n_pass, "s")
            out[f"{name}.self_s"] = (self_t[name] / n_pass, "s")
        c = self.counts
        for use in ("screen", "fallback"):
            out[f"ratcalc.roots.{use}_calls"] = (roots[f"{use}_calls"] / n_pass, "count")
            out[f"ratcalc.roots.{use}_busy_s"] = (roots[f"{use}_busy_s"] / n_pass, "s")
        out["ratcalc.roots.ill_conditioned"] = (c["ratcalc.roots.ill_conditioned"] / n_pass, "count")
        out["certify.nonvanishing.roots_fallback_ratio"] = (
            _ratio(roots["fallback_calls"], roots["routh_tests"]), "ratio")
        out["domain.samples"] = (_ratio(c["domain.samples_total"], c["domain.certificate_calls"]), "count")
        out["certify.grid_points"] = (c["certify.grid_points"] / n_pass, "count")
        out["certify.feasible_ratio"] = (
            _ratio(c["certify.feasible_points"], c["certify.grid_points"]), "ratio")
        for key in ("certify.sweep_all.pool_starts", "analysis.step_response.steps", "cli.rows_written"):
            out[key] = (c[key] / n_pass, "count")
        for name in SETUP_SPANS:
            out[f"{name}.setup_busy_s"] = (setup_busy[name], "s")
        overhead = statistics.median(traced_walls) / statistics.median(untraced_walls) - 1.0
        out["trace.overhead"] = (overhead, "ratio")
        covered = sum(self_t.values())
        out["trace.self_coverage"] = (_ratio(covered, sum(traced_walls)), "ratio")
        return out

    def _nested_in_same(self, k):
        name = self.spans[k][0]
        parent = self.spans[k][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write("name\tstart\tend\tparent\tphase\n")
            for name, t0, t1, parent, phase in self.spans:
                fh.write(f"{name}\t{t0:.9f}\t{t1:.9f}\t{parent}\t{phase}\n")


class _CountingWarnings:
    """Stand-in for the ``warnings`` module inside ``dampcert.ratcalc``.

    Counts the ill-conditioned-roots warnings and passes every warning on,
    so nothing is silenced.  ``stacklevel`` grows by two: one frame for this
    shim and one for the span wrapper around ``Polynomial.roots``, so the
    warning still names the caller of ``roots``.
    """

    def __init__(self, tracer):
        self._tracer = tracer

    def __getattr__(self, attr):
        return getattr(warnings, attr)

    def warn(self, message, category=None, stacklevel=1, **kwargs):
        if self._tracer.active and str(message).startswith(ILL_CONDITIONED_PREFIX):
            self._tracer.counts["ratcalc.roots.ill_conditioned"] += 1
        warnings.warn(message, category, stacklevel=stacklevel + 2, **kwargs)


def _ratio(num, den):
    return num / den if den else 0.0

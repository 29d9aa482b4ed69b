"""Spans and counts around the calls into cpwloss, installed from outside.

install() replaces each public function named in WRAPPED by a wrapper
that records a span, in every cpwloss module that bound the function
(cli and tlsloss both bound circlefit.fit_resonance, for example). It
also replaces scipy's least_squares, in scipy.optimize and in every
cpwloss module that bound it; that wrapper counts calls and function
evaluations and credits them to the nearest calling function inside
cpwloss, so a lazy import or a shared solver helper is still counted
under the stage that asked for the solve. The package itself carries
no tracing code.

A span is (name, start, end, parent index). Spans stay in memory and
are written out once, by Tracer.write.
"""

import functools
import importlib
import json
import os
import sys
import time

# Functions timed as spans, as (module, function). A name missing at
# some commit is reported as absent.
WRAPPED = (
    ("cli", "scan_windows"),
    ("dataio", "parse_sweep_file"), ("dataio", "write_report"),
    ("dataio", "write_sweep_file"), ("dataio", "read_report"),
    ("circlefit", "fit_resonance"), ("circlefit", "estimate_delay"),
    ("circlefit", "fit_circle"), ("circlefit", "synthesize_notch"),
    ("tlsloss", "fit_tls"), ("tlsloss", "assemble_series"),
    ("filmchar", "fit_peaks"), ("filmchar", "extract_tc_rrr"),
    ("filmchar", "sheet_stats"),
    ("lossbudget", "decompose"),
    ("stats", "group_by_process"),
    ("synth", "synthesize_feedline"),
)
# Spans the benchmark opens itself, around the import and cli.main.
OWN_SPANS = ("cli.import", "cli.main")
# Functions whose least_squares solves are reported as lsq.<function>.
LSQ_CALLERS = ("estimate_delay", "_fit_phase", "_refine", "fit_tls", "_fit_one_peak")


class Tracer:
    """Spans and counters of one process."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = {}
        self.absent = []
        self._stack = []

    def begin(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        return index

    def end(self, index):
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": self.counts,
                       "absent": self.absent}, fh)


def _size(path):
    return os.path.getsize(path) if os.path.exists(path) else 0


def _extra_counts(name, args, result):
    """Work counts beside the span: rows parsed, bytes written."""
    if name == "dataio.parse_sweep_file":
        return {"rows": len(result.frequency_hz)}
    if name == "dataio.write_report":
        paths = result if isinstance(result, (list, tuple)) else args[:1]
        return {"bytes": sum(_size(p) for p in paths)}
    if name == "dataio.write_sweep_file":
        return {"bytes": _size(args[0])}
    return {}


def _wrap(tracer, name, func):
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        tracer.count(name + ".calls")
        index = tracer.begin(name)
        try:
            result = func(*args, **kwargs)
        except Exception:
            tracer.count(name + ".failed")
            raise
        finally:
            tracer.end(index)
        for key, n in _extra_counts(name, args, result).items():
            tracer.count(f"{name}.{key}", n)
        return result
    return wrapper


def _cpwloss_caller(frame):
    """Outermost function name of the nearest frame that runs cpwloss code."""
    while frame is not None:
        if frame.f_globals.get("__name__", "").startswith("cpwloss"):
            code = frame.f_code
            return getattr(code, "co_qualname", code.co_name).split(".<locals>")[0]
        frame = frame.f_back
    return "other"


def _wrap_least_squares(tracer, func):
    @functools.wraps(func)
    def least_squares(*args, **kwargs):
        name = "lsq." + _cpwloss_caller(sys._getframe(1))
        index = tracer.begin(name)
        try:
            result = func(*args, **kwargs)
        finally:
            tracer.end(index)
        tracer.count(name + ".calls")
        tracer.count(name + ".nfev", int(result.nfev))
        return result
    return least_squares


def _rebind(old, new, modules):
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is old:
                setattr(module, attr, new)


def install(tracer):
    """Wrap WRAPPED and least_squares; record missing names in tracer.absent.

    Every wrapped module, and scipy.optimize, is imported here if the
    program has not imported it yet, so time the import before calling
    this.
    """
    homes = {}
    for module_name, _ in WRAPPED:
        try:
            homes[module_name] = importlib.import_module(f"cpwloss.{module_name}")
        except ImportError:
            homes[module_name] = None
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "cpwloss" or n.startswith("cpwloss."))]
    for module_name, func_name in WRAPPED:
        name = f"{module_name}.{func_name}"
        func = getattr(homes[module_name], func_name, None)
        if func is None:
            tracer.absent.append(name)
            continue
        _rebind(func, _wrap(tracer, name, func), modules)

    import scipy.optimize
    func = scipy.optimize.least_squares
    _rebind(func, _wrap_least_squares(tracer, func), modules + [scipy.optimize])


def summarize(spans):
    """{name: [total seconds, self seconds]} of one process's spans.

    Self time is a span's duration minus the durations of its child
    spans; one thread runs each process, so children never overlap.
    """
    out = {}
    for name, start, end, parent in spans:
        if end is None:
            continue
        duration = end - start
        entry = out.setdefault(name, [0.0, 0.0])
        entry[0] += duration
        entry[1] += duration
        if parent >= 0 and spans[parent][0] in out:
            out[spans[parent][0]][1] -= duration
    return out


def span_names():
    return list(OWN_SPANS) + [f"{m}.{f}" for m, f in WRAPPED] + \
        [f"lsq.{f}" for f in LSQ_CALLERS]

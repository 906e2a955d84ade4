"""Span tracer around the calls into each mibounds layer.

The tracer wraps the public functions listed in TARGETS. Wrapping works
by rebinding: every loaded mibounds module that holds the function,
under any name or as a value of a module-level dict (such as
``figures.FIGURES``), gets the wrapper, and ``restore`` puts every
original back. Spans are kept in memory as dicts with an id, a parent
id, a name, start and end times and per-function extras, and are
written out by the caller at the end of the run.
"""

import functools
import sys
import time
import tracemalloc

# layer -> (home module, attribute, metric name) of every wrapped function
TARGETS = {
    "cli": [("mibounds.cli", "main", "main")],
    "numerics": [("mibounds.numerics", n, n) for n in (
        "fourier_modes", "coefficients_to_density", "discrete_gaussian_fit",
        "differential_entropy")],
    "channels": [("mibounds.channels", n, n) for n in (
        "overlap_function", "purified_state_family", "chi_closed_form",
        "dephasing_qfi")],
    "bounds": [("mibounds.bounds", n, n) for n in (
        "fourier_bound_from_overlap", "fourier_bound_from_states",
        "fisher_bound", "sigma_squared")],
    "qpe_strategy": [("mibounds.qpe_strategy", "enhancement_term",
                      "enhancement_term")],
    "protocols": [("mibounds.protocols", n, n) for n in (
        "optimize_en_state", "two_seed_experiment", "posterior_entropy",
        "discrete_mi")] + [("mibounds.protocols", "minimize", "lbfgs")],
    "figures": [("mibounds.figures", n, n) for n in (
        "figure_chi_qpe", "figure_transition", "figure_b_sigma",
        "figure_entropy2")],
    "svgplot": [("mibounds.svgplot", "render_line_plot", "render_line_plot")],
    "checks": [("mibounds.checks", "run_suite", "run_suite")],
}

ALLOC_TRACED = ("bounds.fourier_bound_from_states",
                "channels.purified_state_family", "channels.overlap_function")

COMPLEX_BYTES = 16


def _bytes_fourier_modes(f, *args, **kwargs):
    # the grid values read, the FFT output and its scaled copy
    return 3 * COMPLEX_BYTES * int(f.n_grid)


def _bytes_states_route(family, *args, **kwargs):
    # the (G, dim) states read, the prior-weighted copy and its FFT
    g, dim = family.states.shape
    return 3 * COMPLEX_BYTES * int(g) * int(dim)


BYTES_COMPUTED = {
    "numerics.fourier_modes": _bytes_fourier_modes,
    "bounds.fourier_bound_from_states": _bytes_states_route,
}


class Tracer:
    """Wraps the TARGETS functions and records one span per call."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._bindings = []
        self._next_id = 1
        self._alloc_active = False

    def install(self):
        modules = [m for name, m in list(sys.modules.items())
                   if name == "mibounds" or name.startswith("mibounds.")]
        for layer, entries in TARGETS.items():
            for home, attr, short in entries:
                original = getattr(sys.modules[home], attr)
                wrapper = self._wrap(f"{layer}.{short}", original)
                for module in modules:
                    self._rebind(vars(module), original, wrapper)

    def _rebind(self, namespace, original, wrapper):
        for key, value in list(namespace.items()):
            if isinstance(key, str) and key.startswith("__"):
                continue
            if value is original:
                self._bindings.append((namespace, key, original))
                namespace[key] = wrapper
            elif type(value) is dict:
                self._rebind(value, original, wrapper)

    def restore(self):
        for namespace, key, original in reversed(self._bindings):
            namespace[key] = original
        self._bindings.clear()

    def take_spans(self):
        spans, self.spans = self.spans, []
        return spans

    def _wrap(self, name, fn):
        tracer = self
        alloc = name in ALLOC_TRACED
        bytes_fn = BYTES_COMPUTED.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {"id": tracer._next_id,
                    "parent": tracer._stack[-1]["id"] if tracer._stack else None,
                    "name": name}
            tracer._next_id += 1
            tracer._stack.append(span)
            own_alloc = alloc and not tracer._alloc_active
            if own_alloc:
                tracer._alloc_active = True
                tracemalloc.start()
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except SystemExit as exc:
                span["exit"] = exc.code
                raise
            except BaseException as exc:
                span["failed"] = type(exc).__name__
                raise
            finally:
                span["end"] = time.perf_counter()
                if own_alloc:
                    span["peak_alloc_b"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    tracer._alloc_active = False
                tracer._stack.pop()
                tracer.spans.append(span)
            if bytes_fn is not None:
                span["bytes_computed"] = bytes_fn(*args, **kwargs)
            if name == "protocols.lbfgs":
                span["nit"] = int(result.nit)
                span["nfev"] = int(result.nfev)
                span["success"] = bool(result.success)
            return result

        wrapper.__bench_traced__ = True
        return wrapper


def wrapped_bindings():
    """(module, key) of every binding in mibounds that still holds a wrapper."""
    found = []
    for name, module in list(sys.modules.items()):
        if name == "mibounds" or name.startswith("mibounds."):
            for key, value in vars(module).items():
                values = value.values() if type(value) is dict else (value,)
                if any(getattr(v, "__bench_traced__", False) for v in values):
                    found.append((name, key))
    return found


def aggregate(span_lists):
    """Per-function calls, busy and self seconds plus extras.

    ``span_lists`` holds one span list per process; ids are unique
    within a list. Self time is a span's duration minus the durations
    of its direct children. Busy time counts only spans with no
    ancestor of the same name, so a recursive call is not counted twice.
    """
    out = {}

    def add(key, value):
        out[key] = out.get(key, 0) + value

    for spans in span_lists:
        by_id = {s["id"]: s for s in spans}
        child_time = {}
        for s in spans:
            if s["parent"] is not None:
                child_time[s["parent"]] = (child_time.get(s["parent"], 0.0)
                                           + s["end"] - s["start"])
        for s in spans:
            name = s["name"]
            dur = s["end"] - s["start"]
            add(f"{name}.calls", 1)
            add(f"{name}.self_s", dur - child_time.get(s["id"], 0.0))
            parent = by_id.get(s["parent"])
            while parent is not None and parent["name"] != name:
                parent = by_id.get(parent["parent"])
            if parent is None:
                add(f"{name}.busy_s", dur)
            if "failed" in s:
                add(f"{name.split('.')[0]}.failed", 1)
            if "peak_alloc_b" in s:
                key = f"{name}.peak_alloc_mb"
                out[key] = max(out.get(key, 0.0), s["peak_alloc_b"] / 2**20)
            if "bytes_computed" in s:
                add(f"{name}.bytes_computed", s["bytes_computed"])
            if name == "protocols.lbfgs":
                add("protocols.lbfgs.iterations", s["nit"])
                add("protocols.lbfgs.fevals", s["nfev"])
                add("protocols.lbfgs.not_converged", 0 if s["success"] else 1)
    return out

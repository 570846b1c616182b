"""In-memory span tracer installed around ebpolicy's functions from outside.

Every function defined in an ebpolicy module is wrapped at each module
attribute that names it, because that attribute is what callers look up:
``bootstrap.run_shrink``, ``simulate.run_shrink``,
``posterior._gaussian_log_kernel`` and each module's ``eigh2`` import are
all separate wrappers around the same function. A span records its id,
function name, layer (the defining module), lookup site, start, end,
parent span and run id. ``restore`` puts the original attributes back.

Hooks the per-layer metrics depend on are listed in ``EXPECTED``; one that
is missing or renamed is reported as absent instead of failing the run.
"""

import functools
import importlib
import inspect
import itertools
import time
import types

PACKAGE = "ebpolicy"
LAYERS = ("ingest", "moments", "npmle", "posterior", "planner", "bootstrap",
          "simulate", "pipeline", "linalg2", "cli")

EXPECTED = ("npmle._em", "npmle.fit_npmle", "npmle.likelihood_matrix",
            "posterior.shrink_all", "pipeline.run_shrink", "bootstrap.couple",
            "bootstrap.evaluate_pipeline", "simulate.draw",
            "simulate.oracle_posterior_means", "simulate.rate_table",
            "linalg2.eigh2", "cli.main")

OBSERVE_LAYER = "trace"


class Tracer:
    def __init__(self, run_id, layers=LAYERS):
        self.run_id = run_id
        self.layers = layers
        # (id, name, layer, site, start, end, parent, run_id), appended on close
        self.spans = []
        self.observations = {}
        self.observers = {}
        self.absent = []
        self.observer_errors = []
        self._stack = []
        self._ids = itertools.count()
        self._patches = []

    def observe(self, name, fn):
        """Call fn(tracer, bound_arguments, result) after each successful
        call of name, inside a span of the trace layer so that its cost
        stays out of the program's layers."""
        self.observers[name] = fn

    def record(self, name, value):
        self.observations.setdefault(name, []).append(value)

    def _wrap(self, fn, name, layer, site):
        # the hot path keeps to local names: eigh2 alone is called ~10^5 times
        clock = time.perf_counter
        stack = self._stack
        append = self.spans.append
        ids = self._ids
        run_id = self.run_id

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                append((sid, name, layer, site, start, end, parent, run_id))

        observer = self.observers.get(name)
        if observer is None:
            return wrapper
        signature = inspect.signature(fn)
        inner = self._wrap(self._observed(observer, signature), f"{OBSERVE_LAYER}.{name}",
                           OBSERVE_LAYER, site)

        @functools.wraps(fn)
        def observed(*args, **kwargs):
            result = wrapper(*args, **kwargs)
            inner(args, kwargs, result)
            return result

        return observed

    def _observed(self, observer, signature):
        def run(args, kwargs, result):
            try:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                observer(self, bound.arguments, result)
            except Exception as exc:  # a changed return type must not fail the run
                self.observer_errors.append(f"{observer.__name__}: {exc!r}")
        return run

    def install(self):
        """Wrap every package function at every module attribute naming it."""
        modules = {}
        for layer in self.layers:
            try:
                modules[layer] = importlib.import_module(f"{PACKAGE}.{layer}")
            except ImportError:
                self.absent.append(layer)
        prefix = PACKAGE + "."
        for site, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if not isinstance(obj, types.FunctionType):
                    continue
                if not obj.__module__.startswith(prefix):
                    continue
                layer = obj.__module__[len(prefix):]
                name = f"{layer}.{obj.__name__}"
                self._patches.append((module, attr, obj))
                setattr(module, attr, self._wrap(obj, name, layer, site))
        for name in EXPECTED:
            layer, attr = name.split(".", 1)
            fn = getattr(modules.get(layer), attr, None)
            if not isinstance(fn, types.FunctionType):
                self.absent.append(name)
        return modules

    def restore(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()


def self_times(spans):
    """Self time per span id: duration minus the union of the intervals
    its direct children cover, clipped to the span itself."""
    children = {}
    for s in spans:
        if s[6] is not None:
            children.setdefault(s[6], []).append((s[4], s[5]))
    out = {}
    for s in spans:
        start, end = s[4], s[5]
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(s[0], ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s[0]] = (end - start) - covered
    return out


def outermost(spans, match):
    """Spans satisfying match with no ancestor that also satisfies it."""
    by_id = {s[0]: s for s in spans}
    picked = []
    for s in spans:
        if not match(s):
            continue
        p = s[6]
        while p is not None and not match(by_id[p]):
            p = by_id[p][6]
        if p is None:
            picked.append(s)
    return picked

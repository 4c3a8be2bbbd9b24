"""Opt-in per-layer tracer that wraps specmesh functions from outside the package.

``Tracer.install()`` swaps selected module and class attributes for timing
wrappers and ``uninstall()`` puts every original back, so a run that never
installs a tracer executes the package untouched. Names are wrapped where
their callers look them up: ``refine`` imports the geometry kernels by name,
so ``specmesh.refine.ray_crossings`` is wrapped, not the kernels module.

A span is one call of a wrapped function. Its self time is its duration
minus the durations of the wrapped calls made inside it, so the self times
of every span inside an interval add up to the time the wrapped functions
covered. Totals are kept in memory per span name while ``recording`` is on;
``take()`` hands them over and starts a fresh tally.

Autodiff ops are wrapped twice: the op function (forward span and node
count) and the ``_backward`` closure of each tensor it returns (backward
span), so backward time is attributed per op type.
"""
from __future__ import annotations

import functools
import importlib
import time
import tracemalloc

# Autodiff functions that create one tape node per call.
AUTODIFF_PRIMITIVES = (
    "add", "neg", "mul", "div", "matmul", "reshape", "transpose", "concat",
    "getitem", "take", "reduce_sum", "reduce_max", "relu", "absolute", "exp",
    "sqrt", "softmax", "axis_matrix", "cheb_filter",
)
# Autodiff functions built from primitives; wrapped for self time only.
AUTODIFF_COMPOSITES = ("reduce_mean", "layer_norm", "linear")


def _pairs(first, second):
    """Counter for kernels: rows of the first array times rows of the second."""
    def count(args, kwargs, result):
        return len(args[first]) * len(args[second])
    return count


def _iterations(args, kwargs, result):
    return result.iterations


# (owner, attribute, span name, extra counter name, counter function)
SPANS = (
    ("specmesh.model", "build_assets", "model.build_assets", None, None),
    ("specmesh.model", "segment", "segmentation.segment", None, None),
    ("specmesh.model", "lambda_max", "graphs.lambda_max", None, None),
    ("specmesh.model", "build_pyramid", "pyramid.build_pyramid", None, None),
    ("specmesh.model", "init_parameters", "model.init_parameters", None, None),
    ("specmesh.model", "fusion_forward", "model.fusion_forward", None, None),
    ("specmesh.model", "transformer_forward", "model.transformer_forward", None, None),
    ("specmesh.model", "decoder_forward", "model.decoder_forward", None, None),
    ("specmesh.model", "compute_losses", "model.compute_losses", None, None),
    ("specmesh.model", "fuse_views", "model.fuse_views", None, None),
    ("specmesh.model", "camera_head", "model.camera_head", None, None),
    ("specmesh.model", "_first_nonfinite", "model.first_nonfinite", None, None),
    ("specmesh.autodiff.Tensor", "backward", "autodiff.backward", None, None),
    ("specmesh.refine", "refine_mesh", "refine.refine_mesh", "refine.iterations", _iterations),
    ("specmesh.refine", "collision_mask", "refine.collision_mask", None, None),
    ("specmesh.refine", "plausibility_metrics", "refine.plausibility_metrics", None, None),
    ("specmesh.refine", "ray_crossings", "kernels.ray_crossings",
     "kernels.ray_crossings.pair_tests", _pairs(0, 2)),
    ("specmesh.refine", "nearest_vertex", "kernels.nearest_vertex",
     "kernels.nearest_vertex.pair_tests", _pairs(0, 1)),
    ("specmesh.refine", "point_triangle_dists", "kernels.point_triangle_dists",
     "kernels.point_triangle_dists.pair_tests", _pairs(0, 1)),
    ("specmesh.refine", "is_watertight", "meshes.is_watertight", None, None),
    ("specmesh.refine", "edge_set", "meshes.edge_set", None, None),
)
ADAM_STEP = ("specmesh.autodiff.Adam", "step", "autodiff.Adam.step")

MARKER = "__perfbench_original__"


def _resolve(path: str):
    """Module or class named by a dotted path (``pkg.module.Class``)."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, attr = path.rpartition(".")
        return getattr(importlib.import_module(module), attr)


def targets() -> list:
    """Every (owner, attribute) pair the tracer swaps while installed."""
    pairs = [(_resolve(owner), attr) for owner, attr, *_ in SPANS]
    pairs.append((_resolve(ADAM_STEP[0]), ADAM_STEP[1]))
    autodiff = _resolve("specmesh.autodiff")
    pairs += [(autodiff, name) for name in AUTODIFF_PRIMITIVES + AUTODIFF_COMPOSITES]
    return pairs


class Tracer:
    """Span totals per name, plus counters, for the calls made while recording."""

    def __init__(self):
        self.recording = False
        self.probe_memory = False  # measure Adam.step's peak allocation, untimed
        self.adam_peak_bytes = 0
        self._saved: list = []  # (owner, attribute, original)
        self._open: list = []  # child-time accumulator of each open span
        self._reset()

    def _reset(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.total_s: dict[str, float] = {}  # inclusive of wrapped children
        self.counters: dict[str, float] = {}
        self.covered_s = 0.0  # total duration of spans with no wrapped parent

    # -- installation -----------------------------------------------------
    def install(self):
        """Wrap every target; raises ``LookupError`` if one no longer exists."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        try:
            for owner, attr, name, counter, count in SPANS:
                self._swap(_resolve(owner), attr,
                           lambda fn, n=name, c=counter, f=count: self._span_wrapper(fn, n, c, f))
            owner, attr, name = ADAM_STEP
            self._swap(_resolve(owner), attr, lambda fn: self._adam_wrapper(fn, name))
            autodiff = _resolve("specmesh.autodiff")
            for op in AUTODIFF_PRIMITIVES:
                self._swap(autodiff, op, lambda fn, o=op: self._node_wrapper(fn, o))
            for op in AUTODIFF_COMPOSITES:
                self._swap(autodiff, op, lambda fn, o=op:
                           self._span_wrapper(fn, f"autodiff.{o}.fwd", None, None))
        except BaseException:
            self.uninstall()
            raise
        return self

    def uninstall(self):
        self.recording = False
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _swap(self, owner, attr, make):
        namespace = vars(owner)
        if attr not in namespace:
            # a renamed or moved function would otherwise report 0 silently
            raise LookupError(f"{owner.__name__}.{attr} is not defined; "
                              "update the targets in perfbench/tracer.py")
        original = namespace[attr]
        wrapper = functools.wraps(original)(make(original))
        setattr(wrapper, MARKER, original)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    # -- spans ------------------------------------------------------------
    def _timed(self, name, fn, args, kwargs):
        child = [0.0]
        self._open.append(child)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            self._open.pop()
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_s[name] = self.self_s.get(name, 0.0) + duration - child[0]
            self.total_s[name] = self.total_s.get(name, 0.0) + duration
            if self._open:
                self._open[-1][0] += duration
            else:
                self.covered_s += duration

    def count(self, name, amount):
        self.counters[name] = self.counters.get(name, 0) + amount

    def _span_wrapper(self, fn, name, counter, count):
        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            result = self._timed(name, fn, args, kwargs)
            if counter is not None:
                self.count(counter, count(args, kwargs, result))
            return result
        return wrapper

    def _node_wrapper(self, fn, op):
        fwd, bwd = f"autodiff.{op}.fwd", f"autodiff.{op}.bwd"

        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            out = self._timed(fwd, fn, args, kwargs)
            self.count(f"autodiff.{op}.nodes", 1)
            if out.data.base is None:  # views allocate no tensor data
                self.count("autodiff.tensor_bytes", out.data.nbytes)
            backward = out._backward
            if backward is not None:
                out._backward = lambda g: (self._timed(bwd, backward, (g,), {})
                                           if self.recording else backward(g))
            return out
        return wrapper

    def _adam_wrapper(self, fn, name):
        # tracemalloc slows every allocation, so the peak is taken on calls
        # that are not timed (warm-up ops) and timed calls run without it
        def wrapper(opt, params):
            if self.recording:
                return self._timed(name, fn, (opt, params), {})
            if not self.probe_memory:
                return fn(opt, params)
            tracemalloc.start()
            try:
                return fn(opt, params)
            finally:
                _, peak = tracemalloc.get_traced_memory()
                tracemalloc.stop()
                self.adam_peak_bytes = max(self.adam_peak_bytes, peak)
        return wrapper

    # -- results ----------------------------------------------------------
    def take(self) -> dict:
        """Totals since the last take, keyed by span or counter name."""
        out = {"calls": self.calls, "self_s": self.self_s, "total_s": self.total_s,
               "counters": self.counters, "covered_s": self.covered_s}
        self._reset()
        return out


def installed_wrappers() -> list:
    """Names of traced targets that currently hold a tracer wrapper."""
    return [f"{owner.__name__}.{attr}" for owner, attr in targets()
            if hasattr(getattr(owner, attr, None), MARKER)]

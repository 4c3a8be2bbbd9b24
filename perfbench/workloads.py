"""The benchmark's four workloads and the closed loop that times them.

A run builds its inputs from the workload seed, sets the program up one or
more times (``setup_s`` is their mean; some may run after timed ops),
runs untimed warm-up ops, then a fixed number of timed ops with one op in
flight, and checks the output of every op.
The number of timed ops follows from the requested seconds and a nominal op
time, so a run of a given seed and length does the same arithmetic every
time: losses and traced counts repeat exactly.

Run as a script, it is the child process of ``run.py``: it runs one workload
and prints its result as one JSON line.

    python3 perfbench/workloads.py WORKLOAD SEED SECONDS TRACE(0|1)
"""
from __future__ import annotations

import contextlib
import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
import time

import numpy as np
import scipy

from specmesh import autodiff as ad
from specmesh import kernels
from specmesh import model as M
from specmesh import primitives, refine, scenes
from specmesh.errors import NumericalError

from tracer import ADAM_STEP, Tracer

SCENES_PER_RUN = 4  # training and inference rotate over this many scenes
PAIR_RADIUS = 0.05  # meters; icosphere radius of both meshes in a pair
PAIR_SHIFT = 0.1  # meters; bound of the seeded translation of a pair per axis
# Source offsets from the target center: 87.5 mm apart, about 12 mm of overlap,
# in three directions that meet the icosphere's triangles differently.
PLACEMENTS = 0.0875 * np.array([[1.0, 0.0, 0.0],
                                [0.0, 0.6, 0.8],
                                [0.48, -0.6, 0.64]])
REFINE_CONFIG = refine.RefineConfig(max_iters=30)
SETUP_SPANS = ("model.build_assets", "segmentation.segment", "graphs.lambda_max",
               "pyramid.build_pyramid", "model.init_parameters")


def seeded_scenes(seed, assets, config) -> list:
    rng = np.random.default_rng(seed)
    return [scenes.build_scene(scenes.SceneSpec(seed=int(s)), assets, config)
            for s in rng.integers(0, 2**31, size=SCENES_PER_RUN)]


class Workload:
    """One op type; subclasses define set-up, inputs, the op and its checks."""

    setup_repeats: int  # set-ups per run; setup_s is their mean
    setup_between_ops = False  # spread set-ups over the gaps between timed ops
    nominal_op_s: float  # sets the timed op count for a requested length
    warmup_ops = 1

    def __init__(self, seed: int):
        self.seed = seed
        self.last = None

    def setup(self):
        """Program set-up timed as ``setup_s``; replaces any earlier state."""

    def make_inputs(self, n_ops: int):
        """Generate every op's input from the seed (not timed)."""

    def prime(self):
        """Set-up that needs the generated inputs; timed with ``setup``."""

    def op(self, i: int):
        raise NotImplementedError

    def check(self, i: int, out) -> list[str]:
        """Names of the checks that the output of op ``i`` fails."""
        raise NotImplementedError

    def context(self) -> dict:
        """Workload-specific figures printed next to the metrics."""
        return {}


class Train(Workload):
    """One ``model.train_step`` per op, rotating over seeded scenes."""

    def __init__(self, seed, config):
        super().__init__(seed)
        self.config = config

    def setup(self):
        self.assets = self.params = self.opt = None
        gc.collect()
        self.assets = M.build_assets(self.config)
        self.params = M.init_parameters(self.config, self.assets)
        self.opt = ad.Adam(self.params, lr=self.config.learning_rate)
        self.bn_state = {}

    def make_inputs(self, n_ops):
        self.scenes = seeded_scenes(self.seed, self.assets, self.config)

    def op(self, i):
        try:
            return M.train_step(self.params, self.opt, self.scenes[i % len(self.scenes)],
                                self.assets, self.config, self.bn_state)
        except NumericalError as exc:
            return exc

    def check(self, i, out):
        if isinstance(out, Exception):
            return ["numerical_error"]
        self.last = out
        return [] if all(math.isfinite(v) for v in out.values()) else ["finite_losses"]

    def context(self):
        return {"loss_end": self.last["total"] if self.last else None}


class TrainFull(Train):
    nominal_op_s = 3.5
    # A full-config set-up takes 8-13 s, so one is already a long sample;
    # a second one would add a fifth to the run's length.
    setup_repeats = 1

    def __init__(self, seed):
        super().__init__(seed, M.ModelConfig())


class TrainToy(Train):
    setup_repeats = 11  # one set-up takes about 30 ms
    warmup_ops = 10
    nominal_op_s = 0.045

    def __init__(self, seed):
        super().__init__(seed, M.toy_config())


class InferFull(Workload):
    """One eval-mode ``model.forward`` per op on the full config."""

    nominal_op_s = 0.7
    setup_repeats = 1  # as for TrainFull

    def __init__(self, seed):
        super().__init__(seed)
        self.config = M.ModelConfig()

    def setup(self):
        self.assets = self.params = None
        gc.collect()
        self.assets = M.build_assets(self.config)
        self.params = M.init_parameters(self.config, self.assets)

    def make_inputs(self, n_ops):
        self.scenes = seeded_scenes(self.seed, self.assets, self.config)

    def prime(self):
        # a train-mode forward fills the batch-norm running statistics
        self.bn_state = {}
        M.forward(self.scenes[0].features, self.params, self.assets, self.config,
                  self.bn_state, train=True)

    def op(self, i):
        out = M.forward(self.scenes[i % len(self.scenes)].features, self.params,
                        self.assets, self.config, self.bn_state, train=False)
        return out.pred_vertices.data

    def check(self, i, out):
        failed = []
        if out.shape != (2 * self.assets.n_hand_vertices, 3):
            failed.append("shape")
        if not np.all(np.isfinite(out)):
            failed.append("finite")
        self.last = (i, out)
        return failed

    def context(self):
        if self.last is None:
            return {}
        i, pred = self.last
        scene = self.scenes[i % len(self.scenes)]
        return {"mpve_mm": M.mpve(pred, scene.gt_vertices)}


class RefinePairs(Workload):
    """``refine.refine_mesh`` then ``refine.plausibility_metrics`` on an
    overlapping pair of 642-vertex icospheres.

    Op ``i`` places the source at a fixed offset from the target (the
    ``i``-th of ``PLACEMENTS``) and moves the whole pair by a seeded
    translation. Refinement and the plausibility voxel grid are translation
    invariant, so every seed does the same work, while the seed still changes
    every coordinate the kernels see. A seeded rotation would turn the pair
    against the axis-aligned voxel grid and change the work from seed to seed.
    """

    # One set-up takes 4-7 ms of pure Python, which follows the machine's
    # speed more than the ops do. 600 set-ups take a few seconds; spread
    # over the gaps between timed ops, they sample the whole run.
    setup_repeats = 600
    setup_between_ops = True
    nominal_op_s = 4.5

    def setup(self):
        self.template = primitives.icosphere(3, radius=PAIR_RADIUS)

    def make_inputs(self, n_ops):
        rng = np.random.default_rng(self.seed)
        self.pairs = []
        for i in range(n_ops):
            shift = rng.uniform(-PAIR_SHIFT, PAIR_SHIFT, size=3)
            target = self.template.positions + shift
            self.pairs.append((self.template.with_positions(target + PLACEMENTS[i % len(PLACEMENTS)]),
                               self.template.with_positions(target)))
        self.penetration = []

    def op(self, i):
        source, target = self.pairs[i]
        result = refine.refine_mesh(source, target, REFINE_CONFIG)
        report = refine.plausibility_metrics(result.mesh, target)
        return result, report

    def check(self, i, out):
        result, report = out
        failed = []
        if result.diverged:
            failed.append("diverged")
        if not result.after.max_penetration_mm <= result.before.max_penetration_mm:
            failed.append("penetration_not_reduced")
        if not np.array_equal(result.mesh.faces, self.pairs[i][0].faces):
            failed.append("faces_changed")
        if not np.all(np.isfinite(result.mesh.positions)):
            failed.append("finite")
        if report != result.after:
            failed.append("report_mismatch")
        self.penetration.append((result.before.max_penetration_mm,
                                 result.after.max_penetration_mm))
        return failed

    def context(self):
        before, after = np.mean(self.penetration, axis=0)
        return {"penetration_before_mm": float(before), "penetration_after_mm": float(after)}


WORKLOADS = {
    "train_full": TrainFull,
    "train_toy": TrainToy,
    "infer_full": InferFull,
    "refine_pairs": RefinePairs,
}


def calibrate() -> float:
    """Median ms of a fixed pure-Python loop: a gauge of the machine, not the code."""
    samples = []
    for _ in range(31):
        start = time.perf_counter()
        total = 0
        for k in range(40_000):
            total += k * k
        samples.append(time.perf_counter() - start)
    return 1000.0 * statistics.median(samples)


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "kernel_backend": kernels.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
    }


def layer_metrics(setup_tally: dict, op_tally: dict, n_ops: int) -> dict:
    """Per-layer figures: set-up spans per set-up, all others per timed op.

    ``.ms`` is self time, ``.incl_ms`` includes the wrapped calls inside.
    """
    metrics = {}

    def spans(tally, keep, per):
        for name, calls in tally["calls"].items():
            if not keep(name):
                continue
            ms = 1000.0 * tally["self_s"][name] / per
            if name.endswith((".fwd", ".bwd")):
                metrics[f"{name}_ms"] = ms
            else:
                metrics[f"{name}.ms"] = ms
                metrics[f"{name}.incl_ms"] = 1000.0 * tally["total_s"][name] / per
                metrics[f"{name}.calls"] = calls / per

    spans(setup_tally, lambda n: n in SETUP_SPANS, 1)
    spans(op_tally, lambda n: n not in SETUP_SPANS, n_ops)
    counters = op_tally["counters"]
    nodes = 0
    for name, value in counters.items():
        if name.endswith("_bytes"):
            metrics[name[:-len("_bytes")] + "_mb"] = value / n_ops / 2**20
        else:
            metrics[name] = value / n_ops
        if name.endswith(".nodes"):
            nodes += value
    metrics["autodiff.tape_nodes"] = nodes / n_ops
    return metrics


@contextlib.contextmanager
def switched_on(tracer, flag: str):
    """Set a tracer flag (``recording`` or ``probe_memory``) for a block; no-op untraced."""
    if tracer:
        setattr(tracer, flag, True)
    try:
        yield
    finally:
        if tracer:
            setattr(tracer, flag, False)


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload in this process; returns metrics, checks and context."""
    wl = WORKLOADS[name](seed)
    n_ops = max(1, math.ceil(seconds / wl.nominal_op_s))
    calibration_before = calibrate()
    tracer = Tracer().install() if trace else None
    setup_times = []

    def set_up(count: int):
        for _ in range(count):
            with switched_on(tracer, "recording"):
                start = time.perf_counter()
                wl.setup()
                elapsed = time.perf_counter() - start
            if not setup_times:
                wl.make_inputs(wl.warmup_ops + n_ops)
            with switched_on(tracer, "recording"):
                start = time.perf_counter()
                wl.prime()
                setup_times.append(elapsed + time.perf_counter() - start)

    # Set-ups are split between the start of the run and the end of its
    # timed ops, or spread over the gaps between timed ops, so that their
    # mean samples the machine over the whole run. A traced run sets up once.
    if trace:
        first, after_op = 1, [0] * n_ops
    else:
        slots = n_ops + 1 if wl.setup_between_ops else 2
        split = [wl.setup_repeats // slots + (k < wl.setup_repeats % slots)
                 for k in range(slots)]
        first, after_op = split[0], [0] * (n_ops + 1 - slots) + split[1:]

    def minor_faults() -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

    try:
        set_up(first)
        setup_tally = tracer.take() if tracer else None

        failures: dict[str, int] = {}
        ok = 0

        def checked(i, out):
            nonlocal ok
            failed = wl.check(i, out)
            for f in failed:
                failures[f] = failures.get(f, 0) + 1
            ok += not failed

        with switched_on(tracer, "probe_memory"):
            start = time.perf_counter()
            for i in range(wl.warmup_ops):
                checked(i, wl.op(i))
            warmup_s = time.perf_counter() - start

        latencies = []
        window_s, faults = 0.0, 0
        gc.collect()
        for j in range(n_ops):
            i = wl.warmup_ops + j
            faults -= minor_faults()
            window_start = time.perf_counter()
            with switched_on(tracer, "recording"):
                start = time.perf_counter()
                out = wl.op(i)
                latency = time.perf_counter() - start
            checked(i, out)
            window_s += time.perf_counter() - window_start
            faults += minor_faults()
            latencies.append(latency)
            set_up(after_op[j])
        op_tally = tracer.take() if tracer else None
    finally:
        if tracer:
            tracer.uninstall()

    attempted = wl.warmup_ops + n_ops
    result = {
        "attempted": attempted,
        "failed": attempted - ok,
        "failures": failures,
        "metrics": {
            "setup_s": statistics.fmean(setup_times),
            "ops_per_s": n_ops / window_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "success_share": ok / attempted,
        },
        "context": {
            "timed_ops": n_ops,
            "op_p50_ms": 1000.0 * statistics.median(latencies),
            "op_ms": [1000.0 * t for t in latencies],
            "setup_repeats": len(setup_times),
            "setup_s_range": [min(setup_times), max(setup_times)],
            "warmup_ops": wl.warmup_ops,
            "warmup_s": warmup_s,
            "page_faults_per_op": faults / n_ops,
            "calibration_ms": [calibration_before, calibrate()],
            **environment(),
            **wl.context(),
        },
    }
    if trace:
        layers = layer_metrics(setup_tally, op_tally, n_ops)
        layers[f"{ADAM_STEP[2]}.peak_temp_mb"] = tracer.adam_peak_bytes / 2**20
        layers["trace.ops_per_s"] = n_ops / window_s
        # over all timed ops: an unwrapped layer shows in every op, while a
        # pause of the whole process in one short op does not mean one
        layers["trace.attributed_share"] = op_tally["covered_s"] / sum(latencies)
        result["layers"] = layers
    return result


if __name__ == "__main__":
    name, seed, seconds, trace = sys.argv[1:]
    print(json.dumps(run(name, int(seed), float(seconds), trace == "1")))

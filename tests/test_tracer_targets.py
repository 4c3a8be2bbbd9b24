"""The benchmark's tracer wraps specmesh functions by name; a rename in
``src/`` must fail here, not only in a traced benchmark run."""
import importlib.util
import threading
from pathlib import Path

from conftest import LockstepPool
from specmesh import autodiff as ad
from specmesh import model as M
from specmesh import refine
from specmesh.primitives import icosphere
from specmesh.scenes import SceneSpec, build_scene

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
# perfbench/workloads.py::SETUP_SPANS: the spans a model workload's setup_s covers
SETUP_SPANS = ("model.build_assets", "segmentation.segment", "graphs.lambda_max",
               "pyramid.build_pyramid", "model.init_parameters")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_target_exists():
    tracer = _load_tracer()
    missing = [f"{owner.__name__}.{attr}" for owner, attr in tracer.targets()
               if attr not in vars(owner)]
    assert missing == []


def test_setup_spans_are_called():
    # the wrappers sit on model's own names; set-up that reached a function
    # through another module would leave its span, and its metrics, at zero
    tracer = _load_tracer().Tracer().install()
    try:
        tracer.recording = True
        config = M.toy_config()
        M.init_parameters(config, M.build_assets(config))
        calls = tracer.take()["calls"]
    finally:
        tracer.uninstall()
    assert {name: calls.get(name, 0) > 0 for name in SETUP_SPANS} == dict.fromkeys(
        SETUP_SPANS, True)


def test_kernel_pair_counters_read_points_times_faces(monkeypatch):
    # the counters take len() of the kernels' arguments, so an argument
    # without a length would break only traced benchmark runs
    made = {"ray_crossings": 0, "point_triangle_dists": 0}

    def recording(name):
        kernel = getattr(refine, name)

        def call(points, *rest):
            made[name] += points.shape[0] * rest[-1].tri.shape[0]
            return kernel(points, *rest)
        return call

    for name in made:
        monkeypatch.setattr(refine, name, recording(name))
    tracer = _load_tracer().Tracer().install()
    try:
        tracer.recording = True
        refine.refine_mesh(icosphere(1, radius=0.03),
                           icosphere(1, radius=0.03, center=(0.045, 0.0, 0.0)),
                           refine.RefineConfig())
        counters = tracer.take()["counters"]
    finally:
        tracer.uninstall()
    assert made["ray_crossings"] > 0 and made["point_triangle_dists"] > 0
    for name, pairs in made.items():
        assert counters[f"kernels.{name}.pair_tests"] == pairs


def test_no_target_is_entered_off_the_main_thread(monkeypatch):
    # the tracer's span stack and counters are not thread-safe, so the
    # autodiff pool's workers must run array code only
    entered = []
    for owner, attr in _load_tracer().targets():
        def on_main_only(*args, _original=vars(owner)[attr], _name=f"{owner.__name__}.{attr}",
                         **kwargs):
            if threading.current_thread() is not threading.main_thread():
                entered.append(_name)
            return _original(*args, **kwargs)
        monkeypatch.setattr(owner, attr, on_main_only)
    pool = LockstepPool()
    monkeypatch.setattr(ad, "POOL", pool)
    try:
        # the toy config's runs all stay under the pool's floor; these widths
        # put attention, linear, upconv3x3, Adam and the finiteness scan above it
        config = M.toy_config(n_tokens=256, feature_width=125, backbone_channels=256)
        assets = M.build_assets(config)
        params = M.init_parameters(config, assets)
        scene = build_scene(SceneSpec(seed=1), assets, config)
        bn_state = {}
        M.train_step(params, ad.Adam(params, lr=config.learning_rate), scene, assets, config,
                     bn_state)
        M.forward(scene.features, params, assets, config, bn_state, train=False)
    finally:
        pool.close()
    assert pool.pooled_runs > 0 and len(pool.threads) == 2
    assert entered == []

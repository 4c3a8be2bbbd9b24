"""Smoke tests of the benchmark itself.

Each workload runs at minimum length, untraced and traced, in this process.
The untraced run must never install a wrapper; the traced run must put every
wrapped function back. The command-line contract is checked on the cheapest
workload. About two minutes on two cores; run with

    python3 -m pytest perfbench -q
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _originals():
    return {(owner, attr): vars(owner).get(attr) for owner, attr in tracer.targets()}


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def runs(request):
    """Untraced and traced minimum-length runs of one workload, observed."""
    name = request.param
    cls = workloads.WORKLOADS[name]
    seen = {"untraced": [], "traced": []}
    phase = ["untraced"]
    check = cls.check

    def observed_check(self, i, out):
        seen[phase[0]].append(tracer.installed_wrappers())
        return check(self, i, out)

    def refuse_install(self):
        raise AssertionError("an untraced run installed the tracer")

    before = _originals()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cls, "check", observed_check)
        mp.setattr(tracer.Tracer, "install", refuse_install)
        plain = workloads.run(name, seed=3, seconds=0, trace=False)
    phase[0] = "traced"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cls, "check", observed_check)
        traced = workloads.run(name, seed=3, seconds=0, trace=True)
    return {"name": name, "plain": plain, "traced": traced, "seen": seen,
            "before": before, "after": _originals()}


def test_untraced_run_installs_no_wrapper(runs):
    assert runs["seen"]["untraced"], "no op was checked"
    assert all(wrapped == [] for wrapped in runs["seen"]["untraced"])


def test_traced_run_restores_every_wrapped_function(runs):
    assert all(runs["seen"]["traced"]), "the traced run wrapped nothing"
    assert runs["after"] == runs["before"]
    assert tracer.installed_wrappers() == []


def test_every_op_passes_its_checks(runs):
    for kind in ("plain", "traced"):
        result = runs[kind]
        assert result["failed"] == 0, result["failures"]
        assert result["metrics"]["success_share"] == 1.0


def test_end_to_end_metrics_are_reported(runs):
    names = {m["name"] for m in SPEC["end_to_end"]}
    assert names <= set(runs["plain"]["metrics"])
    assert all(runs["plain"]["metrics"][n] > 0 for n in names)


def test_traced_self_times_cover_the_op(runs):
    share = runs["traced"]["layers"]["trace.attributed_share"]
    assert 0.9 <= share <= 1.0 + 1e-9


LAYERS_DOING_WORK = {
    "train_full": ("model.build_assets.ms", "autodiff.matmul.bwd_ms", "autodiff.Adam.step.ms",
                   "autodiff.Adam.step.peak_temp_mb"),
    "train_toy": ("autodiff.tape_nodes", "autodiff.take.bwd_ms", "autodiff.tensor_mb"),
    "infer_full": ("model.transformer_forward.ms", "model.fusion_forward.ms",
                   "pyramid.build_pyramid.calls"),
    "refine_pairs": ("refine.refine_mesh.ms", "refine.iterations",
                     "kernels.ray_crossings.pair_tests", "meshes.is_watertight.calls"),
}


def test_traced_run_reports_the_layers_that_work(runs):
    layers = runs["traced"]["layers"]
    for name in LAYERS_DOING_WORK[runs["name"]]:
        assert layers.get(name, 0) > 0, name


def test_every_listed_per_layer_metric_is_produced():
    adam = tracer.ADAM_STEP[2]
    produced = {"trace.ops_per_s", "trace.attributed_share", "autodiff.tape_nodes",
                "autodiff.tensor_mb", f"{adam}.ms", f"{adam}.peak_temp_mb"}
    for owner, attr, name, counter, _ in tracer.SPANS:
        produced |= {f"{name}.ms", f"{name}.incl_ms", f"{name}.calls"}
        produced |= {counter} if counter else set()
    for op in tracer.AUTODIFF_PRIMITIVES:
        produced |= {f"autodiff.{op}.fwd_ms", f"autodiff.{op}.bwd_ms", f"autodiff.{op}.nodes"}
    missing = [m["name"] for m in SPEC["per_layer"] if m["name"] not in produced]
    assert missing == []


def test_every_tracer_target_exists():
    missing = [f"{owner.__name__}.{attr}" for owner, attr in tracer.targets()
               if attr not in vars(owner)]
    assert missing == []


def test_install_refuses_a_missing_target_and_restores_the_rest():
    before = _originals()
    gone = ("specmesh.refine", "no_such_function", "refine.gone", None, None)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tracer, "SPANS", tracer.SPANS + (gone,))
        with pytest.raises(LookupError, match="no_such_function"):
            tracer.Tracer().install()
    assert _originals() == before
    assert tracer.installed_wrappers() == []


def _command(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_command_prints_the_result_line(trace):
    proc = _command(ROOT, "--workload", "train_toy", "--seed", "5", "--seconds", "1",
                    "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    listed = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in listed}


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _command(tmp_path, "--workload", "train_toy", "--seed", "1", "--seconds", "1",
                    "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

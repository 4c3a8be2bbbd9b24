"""The benchmark's tracer wraps specmesh functions by name; a rename in
``src/`` must fail here, not only in a traced benchmark run."""
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_target_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"{owner.__name__}.{attr}" for owner, attr in tracer.targets()
               if attr not in vars(owner)]
    assert missing == []

import importlib
import re
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # Python 3.11+

PYPROJECT = tomllib.loads((Path(__file__).resolve().parents[1] / "pyproject.toml").read_text())


def test_console_scripts_resolve_to_callables():
    for name, target in PYPROJECT["project"].get("scripts", {}).items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), name


def test_build_requires_no_extension_compiler():
    names = {re.split(r"[\s<>=!~;\[]", req, maxsplit=1)[0].casefold()
             for req in PYPROJECT["build-system"]["requires"]}
    assert "Cython".casefold() not in names

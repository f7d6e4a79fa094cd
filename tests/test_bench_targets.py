"""Every function the benchmark's tracer patches still exists under its name."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while it loads
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return [(mod, attr) for mod, attr, *_ in module.TARGETS if mod.startswith("rootedpoly")]


@pytest.mark.parametrize("modname, attr", _targets())
def test_traced_target_resolves(modname, attr):
    owner = importlib.import_module(modname)
    if "." in attr:  # Class.method, patched in the class's own namespace
        cls_name, method = attr.split(".")
        assert callable(vars(getattr(owner, cls_name)).get(method))
    else:
        assert callable(getattr(owner, attr, None))

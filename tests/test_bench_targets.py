"""The benchmark's tracer still fits the program: every function it patches
exists under its name, and its probes read the values they return."""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from rootedpoly import cli

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while it loads
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def _targets():
    return [(mod, attr) for mod, attr, *_ in _load_tracing().TARGETS if mod.startswith("rootedpoly")]


@pytest.mark.parametrize("modname, attr", _targets())
def test_traced_target_resolves(modname, attr):
    owner = importlib.import_module(modname)
    if "." in attr:  # Class.method, patched in the class's own namespace
        cls_name, method = attr.split(".")
        assert callable(vars(getattr(owner, cls_name)).get(method))
    else:
        assert callable(getattr(owner, attr, None))


def test_traced_run_records_probes(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"p": 3, "edges": [{"a": 1, "b": 2}, {"a": 2, "b": 3, "w": "1/2"}],
                                "loops": [{"at": 1, "b": -1}]}))
    # under matching-minus w1 = -1, so the tier recursion multiplies the
    # root-deleted branch by w1 and divides by w1**k, real Poly.__mul__ calls
    spec = tmp_path / "dendrimer.json"
    spec.write_text(json.dumps({"core": {"p": 1},
                                "unit": {"p": 2, "edges": [{"a": 1, "b": 2}], "root": 1,
                                         "loops": [{"at": 2, "b": 1}]},
                                "attach_sites": [2], "generations": 1}))
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        assert cli.main(["poly", str(path), "--full", "--format", "json"]) == 0
        assert cli.main(["spectrum", str(path)]) == 0
        assert cli.main(["spectrum", "--dendrimer", str(spec), "--mode", "matching-minus"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    probed = {s.name for s in tracer.spans if s is not None and s.probe is not None}
    assert {"oracle.circuit_poly", "oracle.specialize", "poly.mul", "spectra.roots"} <= probed

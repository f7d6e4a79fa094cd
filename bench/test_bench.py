"""Tests of the benchmark itself: python3 -m pytest bench

Every workload runs in smoke mode, traced and untraced, and every check is
shown to reject a wrong answer.
"""

import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import reference as ref  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from reference import CheckError  # noqa: E402

WORKLOADS = list(workloads.WORKLOADS)
E2E = {"setup_s", "wall_s", "op_p50_s", "peak_rss_mb"}


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_references_against_closed_forms():
    ref.self_test()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_end_to_end(workload):
    out = result(bench("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", "0", "--smoke"))
    assert out["correct"] is True
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert set(out["metrics"]) == E2E
    assert all(m["value"] > 0 for m in out["metrics"].values())
    # only the overflowing spectrum fails, once per round
    assert out["failed"] == (1 if workload == "small-graphs" else 0)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_traced(workload):
    out = result(bench("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", "1", "--smoke"))
    assert out["correct"] is True
    metrics = {k: v["value"] for k, v in out["metrics"].items()}
    assert list(metrics) == list(tracing.METRICS)
    layer = {"dendrimer-spectrum": "sympy.sqf_list.calls", "dendrimer-poly": "factor.dendrimer_poly_s",
             "small-graphs": "oracle.reenumerations", "verify": "verify.spectral_s"}[workload]
    assert metrics[layer] > 0


def test_tracer_patches_every_alias_and_restores_them():
    import numpy
    import sympy
    from rootedpoly import cli, factor, oracle, poly, spectra, verify

    before = (cli.circuit_poly, factor.numeric_roots, spectra.roots, verify.SUITES["products"],
              poly.Poly.__mul__, poly.Poly.__rmul__, sympy.Poly.sqf_list, numpy.roots)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        during = (cli.circuit_poly, factor.numeric_roots, spectra.roots, verify.SUITES["products"],
                  poly.Poly.__mul__, poly.Poly.__rmul__, sympy.Poly.sqf_list, numpy.roots)
        assert all(a is not b for a, b in zip(before, during))
        oracle.simple_circuit_poly(oracle.Graph(p=2, arcs={(1, 2): 1, (2, 1): 1}), oracle.PERMANENTAL)
        assert {s.name for s in tracer.spans} >= {"oracle.circuit_poly", "oracle.specialize"}
    finally:
        tracer.uninstall()
    after = (cli.circuit_poly, factor.numeric_roots, spectra.roots, verify.SUITES["products"],
             poly.Poly.__mul__, poly.Poly.__rmul__, sympy.Poly.sqf_list, numpy.roots)
    assert all(a is b for a, b in zip(before, after))


def test_inputs_depend_only_on_the_seed(tmp_path):
    def docs(seed, sub):
        (tmp_path / sub).mkdir()
        workloads.small_graphs(random.Random(seed), tmp_path / sub, smoke=True)
        return {p.name: p.read_text() for p in (tmp_path / sub).iterdir()}

    first = docs(3, "a")
    assert first == docs(3, "b")
    assert first != docs(4, "c")


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "verify", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout


# -- every check rejects a wrong answer -----------------------------------


def run_op(op):
    output = op.run()
    op.check(output)  # the right answer passes
    return output


def small_graph_ops(tmp_path):
    return {op.name: op for op in workloads.small_graphs(random.Random(5), tmp_path, smoke=True)}


def test_simple_polynomial_checks_reject_a_changed_coefficient(tmp_path):
    ops = small_graph_ops(tmp_path)
    for name in ("dense-undirected/poly-characteristic-standard", "dense-undirected/poly-permanental",
                 "dense-undirected/poly-matching-plus", "dense-undirected-loops/poly-matching-minus"):
        doc = json.loads(run_op(ops[name]))
        doc["terms"][0]["coeff"] = str(Fraction(doc["terms"][0]["coeff"]) + 1)
        with pytest.raises(CheckError):
            ops[name].check(json.dumps(doc))


def test_full_polynomial_checks_reject_a_changed_coefficient(tmp_path):
    ops = small_graph_ops(tmp_path)
    for name in ("dense-directed-rational/poly-full-generic",
                 "dense-directed-rational/poly-full-characteristic-standard"):
        doc = json.loads(run_op(ops[name]))
        doc["terms"][-1]["coeff"] = str(Fraction(doc["terms"][-1]["coeff"]) * 2)
        with pytest.raises(CheckError):
            ops[name].check(json.dumps(doc))


def test_spectrum_check_rejects_a_moved_root(tmp_path):
    op = small_graph_ops(tmp_path)["dense-directed-rational/spectrum"]
    doc = json.loads(run_op(op))
    doc["roots"][0]["re"] = str(float(doc["roots"][0]["re"]) + 1e-4)
    with pytest.raises(CheckError):
        op.check(json.dumps(doc))


def test_product_check_rejects_a_different_graph(tmp_path):
    ops = small_graph_ops(tmp_path)
    op = ops["product/restricted"]
    run_op(op)
    out = tmp_path / "product-result.json"
    doc = json.loads(out.read_text())
    doc["arcs"] = doc["arcs"][2:]
    out.write_text(json.dumps(doc))
    with pytest.raises(CheckError):
        op.check("")


def test_dendrimer_spectrum_check_rejects_a_moved_root(tmp_path):
    op = workloads.dendrimer_spectrum(random.Random(5), tmp_path, smoke=True)[0]
    doc = json.loads(run_op(op))
    root = doc["roots"][len(doc["roots"]) // 2]
    root["re"] = str(float(root["re"]) + 1e-3)
    with pytest.raises(CheckError):
        op.check(json.dumps(doc))
    root["re"] = str(float(root["re"]) - 1e-3)
    root["im"] = "1e-3"
    with pytest.raises(CheckError):
        op.check(json.dumps(doc))


def test_dendrimer_poly_check_rejects_a_changed_coefficient(tmp_path):
    from rootedpoly.poly import Poly, X

    op = workloads.dendrimer_poly(random.Random(5), tmp_path, smoke=True)[0]
    poly = run_op(op)
    with pytest.raises(CheckError):
        op.check(poly + Poly.variable(X) ** 2)


def test_verify_check_rejects_a_failed_identity(tmp_path):
    op = workloads.verify(random.Random(5), tmp_path, smoke=True)[0]
    doc = json.loads(run_op(op))
    doc["suites"][0]["identities"][0]["failures"] = 1
    with pytest.raises(CheckError):
        op.check(json.dumps(doc))


def test_overflow_check_wants_both_roots():
    good = {"degree": 2, "cluster_tol": 1e-7,
            "roots": [{"re": repr(2.0 ** 600), "im": "0", "multiplicity": 1, "residual": "0"},
                      {"re": repr(-2.0 ** 600), "im": "0", "multiplicity": 1, "residual": "0"}]}
    workloads.check_overflow(json.dumps(good))
    good["roots"][0]["re"] = repr(2.0 ** 599)
    with pytest.raises(CheckError):
        workloads.check_overflow(json.dumps(good))


def test_a_failure_other_than_the_overflow_makes_the_run_incorrect():
    import run

    def crash():
        raise RuntimeError("boom")

    ops = [workloads.Op("crashes", crash, lambda out: None),
           workloads.Op("overflow", crash, lambda out: None, may_fail=True)]
    outcome = run.run_round(ops)
    assert len(outcome["failures"]) == 2
    assert outcome["wrong"] == ["crashes failed"]


def test_speed_scale_is_the_mean_speed_of_the_samples_in_a_window():
    import speed

    sampler = speed.Sampler()
    ref_s = speed.REFERENCE_S[speed.loop]
    sampler.samples = [(1.0, ref_s), (2.0, ref_s / 2), (5.0, ref_s * 4)]
    assert sampler.scale(0.5, 2.5) == 1.5
    assert sampler.scale(3.9, 4.2) == 0.25  # none inside: the nearest sample
    # the big-integer loop recovers every coefficient it evaluated
    assert speed.bigint_loop() == len(speed._COEFFS)


def test_speed_sampler_samples_while_the_caller_works():
    import time

    import speed

    sampler = speed.Sampler()
    sampler.start()
    end = time.perf_counter() + 5 * speed.INTERVAL
    while time.perf_counter() < end:
        pass
    sampler.stop()
    assert len(sampler.samples) >= 3
    assert sampler.busy >= sum(d for _, d in sampler.samples)

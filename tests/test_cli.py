import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from _brute import ladder, lowest_vertex_matching_poly, reweighted, six_vertex_tree
from rootedpoly.cli import EXIT_CAP, EXIT_INPUT, EXIT_OK, _poly_json, _rootset_json, main
from rootedpoly.graph import graph_from_json, graph_to_json
from rootedpoly.oracle import CHARACTERISTIC_STANDARD, MODES, simple_circuit_poly
from rootedpoly.poly import Poly, X, parse_poly, wvar, xvar, yvar
from rootedpoly.spectra import RootSet


@pytest.fixture()
def files(tmp_path):
    out = {}
    docs = {
        "k2": {"p": 2, "edges": [{"a": 1, "b": 2}]},
        "k1": {"p": 1, "root": 1},
        "k1loop": {"p": 1, "loops": [{"at": 1, "b": 2}]},
        "twig": {"p": 2, "edges": [{"a": 1, "b": 2}], "root": 1},
        "tree": graph_to_json(six_vertex_tree()),
        "dendrimer": {"core": {"p": 1}, "unit": {"p": 2, "edges": [{"a": 1, "b": 2}], "root": 1},
                      "attach_sites": [2], "generations": 3},
        "bad": {"p": "two"},
    }
    for name, doc in docs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        out[name] = str(path)
    out["dir"] = tmp_path
    return out


def test_poly_simple_characteristic(files, capsys):
    rc = main(["poly", files["k2"], "--mode", "characteristic-standard", "--simple"])
    assert rc == EXIT_OK
    assert capsys.readouterr().out.strip() == "x^2 - 1"


def test_poly_full_generic_with_loop(files, capsys):
    rc = main(["poly", files["k1loop"], "--full"])
    assert rc == EXIT_OK
    assert capsys.readouterr().out.strip() == "x1*w1 + 2*w1"


def test_poly_json_terms(files, capsys):
    rc = main(["poly", files["k2"], "--mode", "matching-minus", "--format", "json"])
    assert rc == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["text"] == "x^2 - 1"
    assert {"coeff": "-1", "monomial": {}} in doc["terms"]


def test_product_roundtrip_matches_library(files, capsys, tmp_path):
    out = str(tmp_path / "prod.json")
    rc = main(["product", files["tree"], "--restricted",
               "--h1", files["k1"], "--h2", files["twig"], "-o", out])
    assert rc == EXIT_OK
    doc = json.loads(open(out).read())
    assert len(doc["provenance"]) == 9
    built = graph_from_json({k: v for k, v in doc.items() if k != "provenance"})
    assert built.p == 9
    rc = main(["poly", out, "--mode", "characteristic-standard"])
    assert rc == EXIT_OK
    got = parse_poly(capsys.readouterr().out.strip())
    assert got == simple_circuit_poly(built, CHARACTERISTIC_STANDARD)


def test_product_gamma_arity_error(files, capsys):
    rc = main(["product", files["k2"], "--gamma", files["twig"]])
    assert rc == EXIT_INPUT
    assert "2 vertices" in capsys.readouterr().err


def test_product_gamma(files, capsys):
    rc = main(["product", files["k2"], "--gamma", files["twig"], files["twig"]])
    assert rc == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["p"] == 4


def test_bad_graph_exit_code(files, capsys):
    assert main(["poly", files["bad"]]) == EXIT_INPUT
    assert main(["poly", str(files["dir"] / "missing.json")]) == EXIT_INPUT


def test_cap_exit_code(files, monkeypatch, capsys):
    monkeypatch.setenv("ROOTEDPOLY_CAP", "1")
    assert main(["poly", files["k2"]]) == EXIT_CAP
    monkeypatch.setenv("ROOTEDPOLY_CAP", "9")
    assert main(["poly", files["k2"]]) == EXIT_OK
    monkeypatch.setenv("ROOTEDPOLY_CAP", "zero")
    assert main(["poly", files["k2"]]) == EXIT_INPUT


def test_explicit_cap_flag(files):
    assert main(["poly", files["tree"], "--cap", "5"]) == EXIT_CAP


def test_spectrum_text(files, capsys):
    rc = main(["spectrum", files["k2"]])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "1" in out and "-1" in out


def test_spectrum_dendrimer_json(files, capsys):
    rc = main(["spectrum", "--dendrimer", files["dendrimer"], "--format", "json"])
    assert rc == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["degree"] == 4
    golden = (1 + 5 ** 0.5) / 2
    assert abs(float(doc["roots"][0]["re"]) - golden) < 1e-9


def test_spectrum_requires_input(files, capsys):
    assert main(["spectrum"]) == EXIT_INPUT


def test_verify_dendrimer_suite(files, capsys):
    rc = main(["verify", "--suite", "dendrimer"])
    assert rc == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "pass"
    ids = {i["id"] for s in doc["suites"] for i in s["identities"]}
    assert "path-eigenvalues" in ids and "branch-monoid" in ids


def test_verify_failure_exit_code(files, capsys, monkeypatch):
    import rootedpoly.verify as verify_mod
    from rootedpoly.cli import EXIT_VERIFY

    def broken(cap=0, tol=0.0):
        report = verify_mod.SuiteReport("dendrimer")
        failing = verify_mod.IdentityReport("path-eigenvalues")
        failing.record(False, detail="forced")
        report.identities.append(failing)
        return report

    monkeypatch.setitem(verify_mod.SUITES, "dendrimer", broken)
    rc = main(["verify", "--suite", "dendrimer"])
    assert rc == EXIT_VERIFY
    assert json.loads(capsys.readouterr().out)["status"] == "fail"


def test_spectrum_huge_weight_scales_exactly(tmp_path, capsys):
    # x^2 - 2^1200: the coefficients overflow a double, the roots +-2^600 do not
    doc = {"p": 2, "arcs": [{"from": 1, "to": 2, "w": 2 ** 1200}, {"from": 2, "to": 1, "w": 1}]}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    rc = main(["spectrum", str(path), "--format", "json"])
    assert rc == EXIT_OK
    got = sorted(float(r["re"]) for r in json.loads(capsys.readouterr().out)["roots"])
    assert got == pytest.approx([-2.0 ** 600, 2.0 ** 600], rel=1e-11)


def test_spectrum_beyond_double_range_is_infinite(tmp_path, capsys):
    # x^2 - 2^2100: the roots +-2^1050 exceed the double range and print as +-inf
    doc = {"p": 2, "arcs": [{"from": 1, "to": 2, "w": 2 ** 2100}, {"from": 2, "to": 1, "w": 1}]}
    path = tmp_path / "beyond.json"
    path.write_text(json.dumps(doc))
    assert main(["spectrum", str(path), "--format", "json"]) == EXIT_OK
    got = json.loads(capsys.readouterr().out)["roots"]
    assert [(r["re"], r["im"], r["multiplicity"]) for r in got] == [("inf", "0", 1), ("-inf", "0", 1)]


def test_spectrum_keeps_close_simple_roots_apart(tmp_path, capsys):
    # x^2 - 10^-16: the roots +-1e-8 lie within the cluster tolerance but are simple
    w = "1/100000000"
    doc = {"p": 2, "arcs": [{"from": 1, "to": 2, "w": w}, {"from": 2, "to": 1, "w": w}]}
    path = tmp_path / "close.json"
    path.write_text(json.dumps(doc))
    assert main(["spectrum", str(path), "--format", "json"]) == EXIT_OK
    got = json.loads(capsys.readouterr().out)["roots"]
    assert [r["multiplicity"] for r in got] == [1, 1]
    assert [float(r["re"]) for r in got] == pytest.approx([1e-8, -1e-8], rel=1e-11)


@pytest.mark.parametrize("text, message", [
    ('{"core": {"p": 1}, "unit": {"p": 2, "root": 1}, "generations": 2}',
     "error: dendrimer spec missing field 'attach_sites'\n"),
    ('{"core": {"p": 1},', None),
    ("3", "error: dendrimer spec must be a JSON object\n"),
    ('{"core": {"p": 1}, "unit": {"p": 2, "edges": [{"a": 1, "b": 2}], "root": 1},'
     ' "attach_sites": [2], "generations": 2.5}',
     "error: bad dendrimer spec: generations must be a nonnegative integer\n"),
    ('{"core": {"p": 1}, "unit": {"p": 2, "edges": [{"a": 1, "b": 2}], "root": 1},'
     ' "attach_sites": [2], "generations": true}',
     "error: bad dendrimer spec: generations must be a nonnegative integer\n"),
    ('{"core": {"p": 1}, "unit": {"p": 2, "edges": [{"a": 1, "b": 2}], "root": 1},'
     ' "attach_sites": [true], "generations": 2}',
     "error: bad dendrimer spec: attach site True out of range\n"),
    ('{"core": {"p": true}, "unit": {"p": 2, "root": 1}, "attach_sites": [2], "generations": 2}',
     "error: bad dendrimer spec: 'p' must be a nonnegative integer, got True\n"),
])
def test_bad_dendrimer_spec_exit_code(tmp_path, capsys, text, message):
    path = tmp_path / "spec.json"
    path.write_text(text)
    assert main(["spectrum", "--dendrimer", str(path)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    if message is not None:
        assert err == message
    else:
        assert err.startswith(f"error: {path}:1:")


def test_numeric_failure_exit_code(files, capsys, monkeypatch):
    import rootedpoly.cli as cli_mod

    def overflowing(*args, **kwargs):
        raise OverflowError("int too large to convert to float")

    monkeypatch.setattr(cli_mod, "roots", overflowing)
    assert main(["spectrum", files["k2"]]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err == "error: int too large to convert to float\n"


# Outputs of `poly` recorded before the substitution engines were merged; any
# change to str(Poly), the JSON term order or a coefficient shows here.
PINNED_GRAPH = {"p": 3, "arcs": [{"from": 1, "to": 2, "w": "1/2"}, {"from": 2, "to": 3, "w": "-3/4"},
                                 {"from": 3, "to": 1, "w": 2}, {"from": 2, "to": 1, "w": "5/3"}],
                "loops": [{"at": 1, "b": "2/3"}, {"at": 3, "b": -1}]}
PINNED = json.loads((Path(__file__).parent / "data" / "poly_outputs.json").read_text())


@pytest.mark.parametrize("case", sorted(PINNED))
def test_poly_output_is_pinned(case, tmp_path, capsys):
    mode, form, fmt = case.split()
    path = tmp_path / "g.json"
    path.write_text(json.dumps(PINNED_GRAPH))
    assert main(["poly", str(path), "--mode", mode, f"--{form}", "--format", fmt]) == EXIT_OK
    assert capsys.readouterr().out == PINNED[case]


def run_main(argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of the CLI, without pytest's function-scoped capsys."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


# an int or a "num/den" string, as a graph file holds them
FILE_WEIGHTS = st.one_of(st.integers(-4, 4),
                         st.fractions(min_value=-3, max_value=3, max_denominator=6).map(
                             lambda f: f"{f.numerator}/{f.denominator}"))


@st.composite
def graph_docs(draw):
    p = draw(st.integers(1, 7))
    vertex = st.integers(1, p)
    arcs = draw(st.lists(st.tuples(vertex, vertex, FILE_WEIGHTS).filter(lambda a: a[0] != a[1]),
                         max_size=3 * p))
    loops = draw(st.dictionaries(vertex, FILE_WEIGHTS, max_size=p))
    return {"p": p, "arcs": [{"from": i, "to": j, "w": w} for i, j, w in arcs],
            "loops": [{"at": v, "b": b} for v, b in loops.items()]}


@given(graph_docs())
@example(PINNED_GRAPH)
def test_simple_poly_in_the_recursion_matches_specialize(tmp_path_factory, doc):
    """`poly` applies the mode inside the cover recursion; every mode prints
    byte for byte what specializing the full polynomial prints."""
    path = tmp_path_factory.mktemp("doc") / "g.json"
    path.write_text(json.dumps(doc))
    g = graph_from_json(doc)
    for name, mode in MODES.items():
        want = simple_circuit_poly(g, mode)
        assert run_main(["poly", str(path), "--mode", name]) == (EXIT_OK, f"{want}\n")
        assert run_main(["poly", str(path), "--mode", name, "--format", "json"]) == (
            EXIT_OK, _poly_json(want) + "\n")


def test_matching_poly_past_the_default_cap(tmp_path, capsys):
    """A 30-vertex ladder in matching-minus: the frontier table stops after
    the 2-cycles, and the lowest-vertex recurrence gives the same polynomial."""
    g = reweighted(ladder(15), random.Random(15))
    path = tmp_path / "ladder.json"
    path.write_text(json.dumps(graph_to_json(g)))
    assert main(["poly", str(path), "--mode", "matching-minus", "--cap", "60"]) == EXIT_OK
    assert capsys.readouterr().out == f"{lowest_vertex_matching_poly(g, -1, -1, -1)}\n"


def test_non_array_graph_field_exit_code(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"p": 2, "arcs": 5}))
    assert main(["poly", str(path)]) == EXIT_INPUT
    assert capsys.readouterr().err == "error: 'arcs' must be a JSON array, got 5\n"


def test_weight_with_an_exponent_exit_code(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"p": 2, "edges": [{"a": 1, "b": 2, "w": "1e400"}]}))
    assert main(["poly", str(path)]) == EXIT_INPUT
    assert "bad rational '1e400'" in capsys.readouterr().err


def test_product_unwritable_output_exit_code(files, capsys):
    out = str(files["dir"] / "missing" / "x.json")
    assert main(["product", files["k2"], "--gamma", files["twig"], files["twig"], "-o", out]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith(f"error: {out}: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["spectrum", "{k2}", "--tol", "nan", "--format", "json"],
    ["spectrum", "{k2}", "--tol", "inf"],
    ["spectrum", "{k2}", "--tol", "-0.5"],
    ["verify", "--suite", "dendrimer", "--tol", "nan"],
    ["verify", "--suite", "dendrimer", "--tol", "one"],
    ["poly", "{k2}", "--cap", "0"],
    ["spectrum", "{k2}", "--cap", "-5"],
    ["verify", "--suite", "dendrimer", "--cap", "0"],
])
def test_bad_numeric_option_exits_through_argparse(files, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([a.format(**files) for a in argv])
    assert exc.value.code == EXIT_INPUT
    err = capsys.readouterr().err
    assert "--tol" in err or "--cap" in err


def test_boundary_numeric_options_accepted(files, capsys):
    assert main(["spectrum", files["k2"], "--tol", "0", "--cap", "1"]) == EXIT_CAP
    assert main(["spectrum", files["k2"], "--tol", "0", "--cap", "2"]) == EXIT_OK


def cli_env() -> dict:
    """The environment for running the CLI from this checkout in a subprocess."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def test_closed_stdout_pipe_exits_quietly(files):
    """The reader of stdout is gone before the first write, as in `... | head`."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run([sys.executable, "-m", "rootedpoly.cli", "spectrum", files["tree"]],
                              stdout=write_end, stderr=subprocess.PIPE, env=cli_env(), text=True,
                              timeout=120)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (1, "")


@pytest.mark.parametrize("command", ["poly", "spectrum"])
def test_too_deep_cover_recursion_exits_with_the_cap_code(command, tmp_path):
    """A 1100-vertex path under a cap that admits it needs a cover recursion
    deeper than the interpreter allows; it ends with exit 3 and one line on
    stderr, not a traceback."""
    path = tmp_path / "path1100.json"
    path.write_text(json.dumps({"p": 1100, "edges": [{"a": i, "b": i + 1} for i in range(1, 1100)]}))
    done = subprocess.run([sys.executable, "-m", "rootedpoly.cli", command, str(path), "--cap", "2000"],
                          capture_output=True, env=cli_env(), text=True, timeout=120)
    assert done.returncode == EXIT_CAP
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith("error: graph has 1100 vertices") and done.stderr.count("\n") == 1


# -- the JSON writers against json.dumps ---------------------------------------


def reference_poly_json(p: Poly) -> str:
    """The `poly --format json` document as json.dumps builds it, with the
    terms sorted by the text of their monomial tuples."""
    terms = []
    for mono, coeff in sorted(p.terms().items(), key=lambda kv: str(kv[0])):
        if isinstance(coeff, Fraction):
            text = f"{coeff.numerator}/{coeff.denominator}"
        elif isinstance(coeff, int):
            text = str(coeff)
        else:
            text = f"{coeff:.12g}"
        terms.append({"coeff": text, "monomial": {str(v): e for v, e in mono}})
    return json.dumps({"text": str(p), "terms": terms}, indent=2)


WRITER_VARS = [X, xvar(1), xvar(2), xvar(10), xvar(13), yvar(1), yvar(2), wvar(1), wvar(2), wvar(10)]
EXACT = st.one_of(st.integers(-10 ** 20, 10 ** 20),
                  st.fractions(min_value=-50, max_value=50, max_denominator=60))


@st.composite
def writer_polys(draw):
    p = Poly.zero()
    for _ in range(draw(st.integers(0, 6))):
        pairs = [(v, draw(st.integers(1, 12)))
                 for v in draw(st.sets(st.sampled_from(WRITER_VARS), max_size=4))]
        p = p + Poly.monomial(pairs, draw(EXACT))
    return p


@given(writer_polys())
@example(Poly.zero())
@example(Poly.const(Fraction(-7, 3)))
@example(Poly.const(5))
@example(parse_poly("x10 + x2 - 1/2*x1*x10 + x1*x2^10 + x1*x2^2 + x1 + y1*w1 - w2^3 + y2"))
@example(parse_poly("x1*x2*x3 + x1*x2 - 2/3*x2*x3 - 2/3*x2 - 5/6*x3 - 1/12"))
@example(Poly({((X, 2),): 0.5, ((wvar(1), 1),): -1e-30, (): 3.25}))
def test_poly_writer_matches_json_dumps(p):
    assert _poly_json(p) == reference_poly_json(p)


def reference_rootset_json(rs: RootSet) -> str:
    return json.dumps({
        "degree": rs.source_degree,
        "cluster_tol": rs.cluster_tol,
        "roots": [{"re": f"{v.real:.12g}", "im": f"{v.imag:.12g}",
                   "multiplicity": m, "residual": f"{r:.3g}"}
                  for (v, m), r in zip(rs.roots, rs.residuals)],
    }, indent=2)


PARTS = st.one_of(st.floats(), st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1e-300]))


@st.composite
def rootsets(draw):
    found = draw(st.lists(st.tuples(st.builds(complex, PARTS, PARTS), st.integers(1, 4)), max_size=5))
    return RootSet(roots=tuple(found), source_degree=sum(m for _, m in found),
                   cluster_tol=draw(st.floats(0, 1e300)),
                   residuals=tuple(draw(st.lists(PARTS, min_size=len(found), max_size=len(found)))))


@given(rootsets())
@example(RootSet(roots=(), source_degree=0, cluster_tol=1e-7, residuals=()))
@example(RootSet(roots=((complex(math.inf, 0), 1), (complex(-math.inf, math.nan), 2),
                        (complex(1.5, -2.25), 1)),
                 source_degree=4, cluster_tol=0.0, residuals=(math.inf, math.nan, 3e-16)))
def test_rootset_writer_matches_json_dumps(rs):
    assert _rootset_json(rs) == reference_rootset_json(rs)

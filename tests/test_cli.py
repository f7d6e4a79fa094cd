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
from rootedpoly.cli import (EXIT_CAP, EXIT_INPUT, EXIT_OK, _indented_json, _poly_json, _product_doc,
                           _rootset_json, main)
from rootedpoly.graph import (Graph, NotBipartiteError, bipartition, graph_from_json, graph_to_json,
                              rooted_product)
from rootedpoly.oracle import (CHARACTERISTIC_STANDARD, DEFAULT_CAP, MATCHING_MINUS, MODES, circuit_poly,
                               simple_circuit_poly, specialize)
from rootedpoly.poly import Poly, X, parse_poly, wvar, xvar, yvar
from rootedpoly.spectra import RootSet, roots


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
    rc = main(["poly", files["k2"], "--mode", "characteristic-standard"])
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
    assert doc["cluster_tol"] == 1e-7
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

    def broken(cap=0):
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


def test_spectrum_roots_beyond_the_double_range_at_both_ends_exit_code(tmp_path, capsys):
    # x^2 + 2^1400 x + 1: roots near -2^1400 and -2^-1400, which no single
    # power-of-two scaling brings into the double range
    doc = {"p": 2, "arcs": [{"from": 1, "to": 2, "w": 1}, {"from": 2, "to": 1, "w": -1}],
           "loops": [{"at": 1, "b": -2 ** 1400}]}
    path = tmp_path / "apart.json"
    path.write_text(json.dumps(doc))
    assert main(["spectrum", str(path)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "scaled leading coefficient rounds to 0" in captured.err


def test_spectrum_keeps_close_simple_roots_apart(tmp_path, capsys):
    # x^2 - 10^-16: the roots +-1e-8 lie within the cluster tolerance but are simple
    w = "1/100000000"
    doc = {"p": 2, "arcs": [{"from": 1, "to": 2, "w": w}, {"from": 2, "to": 1, "w": w}]}
    path = tmp_path / "close.json"
    path.write_text(json.dumps(doc))
    assert main(["spectrum", str(path), "--format", "json"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["cluster_tol"] == 1e-7
    got = doc["roots"]
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


@pytest.mark.parametrize("mode", ["generic", "undirected-covers"])
def test_spectrum_refuses_a_symbolic_mode_before_enumerating(files, capsys, monkeypatch, mode):
    import rootedpoly.cli as cli_mod

    def enumerating(*args, **kwargs):
        raise AssertionError("the graph was enumerated")

    monkeypatch.setattr(cli_mod, "simple_circuit_poly", enumerating)
    assert main(["spectrum", files["k2"], "--mode", mode]) == EXIT_INPUT
    assert capsys.readouterr().err == (f"error: mode {mode} leaves w1, w2 symbolic; "
                                       "a spectrum needs a polynomial in x alone\n")


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
    flags = ["--full"] if form == "full" else []
    assert main(["poly", str(path), "--mode", mode, *flags, "--format", fmt]) == EXIT_OK
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
    full = circuit_poly(g, DEFAULT_CAP)
    for name, mode in MODES.items():
        want = specialize(full, mode.simple(), g)
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


def test_matching_spectrum_of_a_looped_ladder_past_the_default_cap(tmp_path, capsys):
    """`spectrum` on the same 30-vertex ladder, 12 of its vertices looped:
    the sweep runs in matching-minus's weights with only the looped vertices
    kept apart, so it finishes, and prints the roots of the simple polynomial."""
    g = reweighted(ladder(15), random.Random(15))
    assert len(g.loops) == 12
    path = tmp_path / "ladder.json"
    path.write_text(json.dumps(graph_to_json(g)))
    assert main(["spectrum", str(path), "--mode", "matching-minus", "--cap", "60", "--format", "json"]) == EXIT_OK
    want = _rootset_json(roots(circuit_poly(g, 60, MATCHING_MINUS.simple())))
    assert capsys.readouterr().out == f"{want}\n"


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


# the --tol rows check that the removed tolerance options are refused
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


# the simple form is what `poly` prints without --full, not a mode
@pytest.mark.parametrize("argv", [
    ["poly", "{k2}", "--mode", "simple"],
    ["poly", "{k2}", "--mode", "simple", "--full"],
    ["spectrum", "{k2}", "--mode", "simple"],
    ["spectrum", "--dendrimer", "{dendrimer}", "--mode", "simple"],
])
def test_unknown_mode_exit_code(files, capsys, argv):
    assert main([a.format(**files) for a in argv]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: unknown weight mode 'simple'; choose from [")
    assert captured.err.count("\n") == 1


def test_boundary_numeric_options_accepted(files, capsys):
    assert main(["spectrum", files["k2"], "--cap", "1"]) == EXIT_CAP
    assert main(["spectrum", files["k2"], "--cap", "2"]) == EXIT_OK


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


def test_generic_poly_of_a_long_path(tmp_path):
    """The cover sweep does not recurse, so a 1100-vertex path, more vertices
    than the interpreter's recursion limit, exits 0 under a cap that admits
    it.  Deleting an end vertex gives P_n = x * w1 * P_(n-1) + w2 * P_(n-2):
    the term of x^i has w1^i and w2^((n - i) / 2)."""
    path = tmp_path / "path1100.json"
    path.write_text(json.dumps({"p": 1100, "edges": [{"a": i, "b": i + 1} for i in range(1, 1100)]}))
    done = subprocess.run([sys.executable, "-m", "rootedpoly.cli", "poly", str(path), "--cap", "2000"],
                          capture_output=True, env=cli_env(), text=True, timeout=120)
    assert (done.returncode, done.stderr) == (EXIT_OK, "")
    before, current = [1], [0, 1]  # the coefficients of P_0 and P_1 by the power of x, ascending
    for _ in range(1099):
        nxt = [0, *current]
        for i, c in enumerate(before):
            nxt[i] += c
        before, current = current, nxt
    want = Poly({((X, i), (wvar(1), i), (wvar(2), (1100 - i) // 2)): c
                 for i, c in enumerate(current) if c})
    assert parse_poly(done.stdout) == want


def test_permanental_poly_of_a_long_path(tmp_path):
    """The permanental mode computes a permanent row by row, so the same
    1100-vertex path exits 0 there too.  On a forest the
    permanental polynomial is the matching-plus polynomial: deleting an end
    vertex gives m_n = x * m_(n-1) + m_(n-2)."""
    path = tmp_path / "path1100.json"
    path.write_text(json.dumps({"p": 1100, "edges": [{"a": i, "b": i + 1} for i in range(1, 1100)]}))
    done = subprocess.run([sys.executable, "-m", "rootedpoly.cli", "poly", str(path), "--mode", "permanental",
                           "--cap", "2000"], capture_output=True, env=cli_env(), text=True, timeout=120)
    assert (done.returncode, done.stderr) == (EXIT_OK, "")
    before, current = [1], [0, 1]  # m_0 and m_1, ascending
    for _ in range(1099):
        nxt = [0, *current]
        for i, c in enumerate(before):
            nxt[i] += c
        before, current = current, nxt
    assert parse_poly(done.stdout) == Poly.from_univariate_coeffs(current[::-1])


# -- the JSON writers against json.dumps ---------------------------------------


def reference_text(p: Poly) -> str:
    """str(p) by the documented rules, from p.terms(): descending total degree,
    then graded-lex on the canonical variable order; the sign as "-" on the
    first term and "- " or "+ " on the others; an exact coefficient of
    magnitude 1 left out of a non-constant term, a float or complex one kept."""
    terms = p.terms()
    if not terms:
        return "0"
    variables = sorted({v for mono in terms for v, _ in mono})

    def order(item):
        exps = dict(item[0])
        row = [exps.get(v, 0) for v in variables]
        return sum(row), row

    out = []
    for mono, c in sorted(terms.items(), key=order, reverse=True):
        negative = not isinstance(c, complex) and c < 0
        mag = -c if negative else c
        if isinstance(mag, Fraction):
            coeff = f"{mag.numerator}/{mag.denominator}"
        elif isinstance(mag, int):
            coeff = str(mag)
        elif isinstance(mag, complex):
            coeff = f"({mag.real:.12g}{mag.imag:+.12g}j)"
        else:
            coeff = f"{mag:.12g}"
        factors = [str(v) if e == 1 else f"{v}^{e}" for v, e in mono]
        if not (mono and isinstance(mag, (int, Fraction)) and mag == 1):
            factors.insert(0, coeff)
        sign = ("-" if negative else "") if not out else ("- " if negative else "+ ")
        out.append(sign + "*".join(factors))
    return " ".join(out)


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
    return json.dumps({"text": reference_text(p), "terms": terms}, indent=2)


WRITER_VARS = [X, xvar(1), xvar(2), xvar(10), xvar(13), yvar(1), yvar(2), wvar(1), wvar(2), wvar(10)]
EXACT = st.one_of(st.integers(-10 ** 20, 10 ** 20),
                  st.fractions(min_value=-50, max_value=50, max_denominator=60))


# float and complex coefficients, as the numeric pipelines make them; 1.0 and -1.0 are kept in the text
NUMERIC = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from([1.0, -1.0, -0.5]),
                    st.complex_numbers(allow_nan=False, allow_infinity=False, max_magnitude=1e6))


@st.composite
def writer_polys(draw, coeffs=EXACT):
    p = Poly.zero()
    for _ in range(draw(st.integers(0, 6))):
        pairs = [(v, draw(st.integers(1, 12)))
                 for v in draw(st.sets(st.sampled_from(WRITER_VARS), max_size=4))]
        p = p + Poly.monomial(pairs, draw(coeffs))
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


@given(writer_polys(st.one_of(EXACT, NUMERIC)))
@example(Poly.zero())
@example(Poly({((X, 2),): 1.0, ((xvar(1), 1),): -1.0, ((wvar(2), 3),): 1, (): -1}))
@example(Poly({((X, 1),): complex(1, -2), ((X, 2),): complex(-1, 0), ((xvar(10), 1), (xvar(2), 1)): -1}))
@example(Poly({((X, 1),): Fraction(-1, 2), (): 1.0}))
def test_poly_text_matches_the_documented_rules(p):
    assert str(p) == reference_text(p)


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


def reference_product_json(product: Graph, core_p: int, maps: list[dict[int, int]]) -> str:
    """The `product` document as json.dumps builds it: the product graph's
    interchange dict, then one provenance entry per core vertex and per
    vertex a member adds, in product vertex order."""
    doc = graph_to_json(product)
    provenance = [{"vertex": v, "origin": "core", "core_vertex": v} for v in range(1, core_p + 1)]
    for k, mapping in enumerate(maps, start=1):
        for member_vertex, product_vertex in sorted(mapping.items(), key=lambda kv: kv[1]):
            if product_vertex > core_p:
                provenance.append({"vertex": product_vertex, "origin": "attachment",
                                   "core_vertex": k, "member_vertex": member_vertex})
    doc["provenance"] = provenance
    return json.dumps(doc, indent=2)


GRAPH_WEIGHTS = st.one_of(st.integers(-10 ** 30, 10 ** 30),
                          st.fractions(min_value=-50, max_value=50, max_denominator=60))


@st.composite
def weighted_graphs(draw, min_p=0, max_p=4, rooted=False):
    p = draw(st.integers(min_p, max_p))
    vertex = st.integers(1, p)
    arcs = draw(st.dictionaries(st.tuples(vertex, vertex).filter(lambda a: a[0] != a[1]), GRAPH_WEIGHTS,
                                max_size=2 * p)) if p > 1 else {}
    loops = draw(st.dictionaries(vertex, GRAPH_WEIGHTS, max_size=p)) if p else {}
    root = draw(vertex) if rooted else draw(st.none() | vertex) if p else None
    return Graph(p=p, arcs=arcs, loops=loops, root=root)


@st.composite
def products(draw):
    core = draw(weighted_graphs())
    product, maps = rooted_product(core, [draw(weighted_graphs(1, 3, rooted=True)) for _ in range(core.p)])
    if draw(st.booleans()):
        try:
            product = Graph(p=product.p, arcs=product.arcs, loops=product.loops, root=product.root,
                            parts=bipartition(product))
        except NotBipartiteError:
            pass
    return product, core.p, maps


@given(products())
@example((Graph(p=0, parts=()), 0, []))
@example((Graph(p=2, arcs={(1, 2): Fraction(-3, 4), (2, 1): 5}, loops={2: Fraction(1, 3)}, root=2,
                parts=(1, 2)), 1, [{1: 1, 2: 2}]))
def test_product_writer_matches_json_dumps(case):
    assert _indented_json(_product_doc(*case)) == reference_product_json(*case)

"""The example scripts run end to end on the sources in src/."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name: str, *args: str) -> str:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_isospectral_pair():
    out = run_script("isospectral_pair.py")
    assert "identical:            True" in out
    assert "(equal: True )" in out


def test_dendrimer_scaling():
    out = run_script("dendrimer_scaling.py", "--max-generations", "4")
    binary, c4 = ([line.split() for line in block.splitlines()[1:]] for block in out.split("\n\n"))
    # generation, then the vertex count of the binary path(3) dendrimer
    assert [(int(r[0]), int(r[1])) for r in binary] == [(j, 2 ** (j + 1) - 1) for j in range(5)]
    # the coprime factors and the largest factor degree
    assert [(int(r[2]), int(r[3])) for r in binary] == [(1, 1), (2, 2), (3, 2), (4, 4), (5, 4)]
    # C4 on C4: a branch of 3 * 2**j - 2 vertices at each of the 4 core
    # vertices, and per generation one more factor, of degree 4 more
    assert [(int(r[0]), int(r[1])) for r in c4] == [(j, 12 * 2 ** j - 8) for j in range(5)]
    assert [(int(r[2]), int(r[3])) for r in c4] == [(2, 2), (3, 6), (4, 10), (5, 14), (6, 18)]


def test_oracle_scaling():
    out = run_script("oracle_scaling.py", "--max-vertices", "4")
    full, matching, char, perm = (block.splitlines() for block in out.split("\n\n"))
    rows = {r[0]: (int(r[1]), int(r[3])) for r in (line.split() for line in full[1:])}
    # vertex and term counts: K4 has 13 monomials, C4 7 and the 2x2 grid is C4
    assert rows == {"K1": (1, 1), "K2": (2, 2), "K3": (3, 5), "K4": (4, 13), "C3": (3, 5),
                    "C4": (4, 7), "grid2x2": (4, 7)}
    # then the simple characteristic polynomial, in the recursion and by the
    # route through the full polynomial on rational arc weights, then writing
    # the full polynomial as JSON and as text, then the memory peak of one
    # more call of the full polynomial
    assert full[0].split()[4:] == ["char_s", "spec_s", "json_s", "text_s", "peak_kb"]
    for line in full[1:]:
        assert all(float(x) >= 0 for x in line.split()[4:9])
    # the matching-minus rows, past --max-vertices: every graph has a perfect
    # matching, so a polynomial on p vertices has a term for each even power
    assert matching[0].split() == ["graph", "vertices", "matching_s", "terms"]
    rows = {r[0]: (int(r[1]), int(r[3])) for r in (line.split() for line in matching[1:])}
    assert rows == {"grid2x4": (8, 5), "grid3x6": (18, 10), "grid4x8": (32, 17), "grid5x10": (50, 26),
                    "ladder10": (10, 6), "ladder20": (20, 11), "ladder40": (40, 21),
                    "ladder80": (80, 41)}
    assert all(float(line.split()[2]) >= 0 for line in matching[1:])
    # the characteristic rows, by the determinant route: a bipartite graph's
    # polynomial has only the powers of p's parity, and a graph with 0 as an
    # eigenvalue of multiplicity m lacks the lowest m/2 of them (the 10 x 10
    # grid, m = 10; the 10- and 40-vertex ladders and C80, m = 2)
    assert char[0].split() == ["graph", "vertices", "char_s", "terms"]
    rows = {r[0]: (int(r[1]), int(r[3])) for r in (line.split() for line in char[1:])}
    assert rows == {"grid2x4": (8, 5), "grid3x6": (18, 10), "grid4x8": (32, 17), "grid5x10": (50, 26),
                    "grid10x10": (100, 46), "ladder10": (10, 5), "ladder20": (20, 11),
                    "ladder40": (40, 20), "ladder80": (80, 41), "P80": (80, 41), "C80": (80, 40)}
    assert all(float(line.split()[2]) >= 0 for line in char[1:])
    # the permanental rows, by the row-by-row permanent: a bipartite graph
    # has only the powers of p's parity, all of them; K_n lacks x^(n-1)
    assert perm[0].split() == ["graph", "vertices", "perm_s", "terms"]
    rows = {r[0]: (int(r[1]), int(r[3])) for r in (line.split() for line in perm[1:])}
    assert rows == {"ladder10": (10, 6), "ladder20": (20, 11), "ladder40": (40, 21), "ladder80": (80, 41),
                    "grid3x8": (24, 13), "grid8x3": (24, 13), "K1": (1, 1), "K2": (2, 2), "K3": (3, 3),
                    "K4": (4, 4)}
    assert all(float(line.split()[2]) >= 0 for line in perm[1:])


def test_verify_profile():
    out = run_script("verify_profile.py", "--suite", "dendrimer")
    header, *rows = (line.split() for line in out.splitlines())
    assert header == ["suite", "seconds", "calls", "distinct", "substitute_s", "mul_s"]
    [(suite, seconds, calls, distinct, substitute_s, mul_s)] = rows
    assert suite == "dendrimer" and float(seconds) > 0
    assert 0 < int(distinct) <= int(calls)
    assert 0 <= float(substitute_s) <= float(seconds)
    assert 0 <= float(mul_s) <= float(seconds)
    # the products suite spends a share of its time in the substitutions and
    # in the multiply-accumulate kernel
    suite, seconds, _, _, substitute_s, mul_s = run_script(
        "verify_profile.py", "--suite", "products").splitlines()[1].split()
    assert suite == "products" and 0 < float(substitute_s) < float(seconds)
    assert 0 < float(mul_s) < float(seconds)

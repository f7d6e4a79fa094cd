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
    rows = [line.split() for line in out.splitlines()[1:]]
    # generation, then the vertex count of the binary path(3) dendrimer
    assert [(int(r[0]), int(r[1])) for r in rows] == [(j, 2 ** (j + 1) - 1) for j in range(5)]
    # the coprime factors and the largest factor degree
    assert [(int(r[2]), int(r[3])) for r in rows] == [(1, 1), (2, 2), (3, 2), (4, 4), (5, 4)]


def test_oracle_scaling():
    out = run_script("oracle_scaling.py", "--max-vertices", "4")
    full, matching = (block.splitlines() for block in out.split("\n\n"))
    rows = {r[0]: (int(r[1]), int(r[3])) for r in (line.split() for line in full[1:])}
    # vertex and term counts: K4 has 13 monomials, C4 7 and the 2x2 grid is C4
    assert rows == {"K1": (1, 1), "K2": (2, 2), "K3": (3, 5), "K4": (4, 13), "C3": (3, 5),
                    "C4": (4, 7), "grid2x2": (4, 7)}
    # the last columns time the simple characteristic polynomial, in the
    # recursion and by the route through the full polynomial on rational arc weights
    assert full[0].split()[4:] == ["char_s", "spec_s"]
    for line in full[1:]:
        assert float(line.split()[4]) >= 0
        assert float(line.split()[5]) >= 0
    # the matching-minus rows, past --max-vertices: every graph has a perfect
    # matching, so a polynomial on p vertices has a term for each even power
    assert matching[0].split() == ["graph", "vertices", "matching_s", "terms"]
    rows = {r[0]: (int(r[1]), int(r[3])) for r in (line.split() for line in matching[1:])}
    assert rows == {"grid2x4": (8, 5), "grid3x6": (18, 10), "grid4x8": (32, 17), "grid5x10": (50, 26),
                    "ladder10": (10, 6), "ladder20": (20, 11), "ladder40": (40, 21),
                    "ladder80": (80, 41)}
    assert all(float(line.split()[2]) >= 0 for line in matching[1:])


def test_verify_profile():
    out = run_script("verify_profile.py", "--suite", "dendrimer")
    header, *rows = (line.split() for line in out.splitlines())
    assert header == ["suite", "seconds", "calls", "distinct"]
    [(suite, seconds, calls, distinct)] = rows
    assert suite == "dendrimer" and float(seconds) > 0
    assert 0 < int(distinct) <= int(calls)

"""README's library example and CLI block run and print what they advertise."""

import json
import re
import shlex
from pathlib import Path

from rootedpoly import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_prints_its_advertised_line(capsys):
    [block] = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    advertised = [line[2:] for line in block.splitlines() if line.startswith("# ")]
    assert advertised == ["x^9 - 8*x^7 + 18*x^5 - 12*x^3"]
    exec(compile(block, str(README), "exec"), {"__name__": "readme_example"})
    assert capsys.readouterr().out.splitlines() == advertised


def cli_runs(block: str) -> list[tuple[list[str], list[str]]]:
    """Each `rootedpoly` command of a shell block, as arguments, with the
    comment lines right below it, the output it advertises."""
    runs, advertised = [], None
    for line in block.splitlines():
        if line.startswith("rootedpoly "):
            advertised = []
            runs.append((shlex.split(line)[1:], advertised))
        elif line.startswith("# ") and advertised is not None:
            advertised.append(line[2:])
        else:
            advertised = None
    return runs


def test_cli_block_prints_its_advertised_lines(tmp_path, monkeypatch, capsys):
    """The block's graph and dendrimer spec are README's two JSON examples;
    k1.json and twig.json are the one-vertex graph and the edge, each rooted
    at vertex 1.  A spectrum row is checked without its residual, which
    depends on the platform's floating point."""
    text = README.read_text()
    tree, dendrimer = map(json.loads, re.findall(r"```json\n(.*?)```", text, flags=re.S))
    [block] = [b for b in re.findall(r"```sh\n(.*?)```", text, flags=re.S) if "rootedpoly product" in b]
    files = {"tree": tree, "dendrimer": dendrimer, "k1": {"p": 1, "root": 1},
             "twig": {"p": 2, "edges": [{"a": 1, "b": 2}], "root": 1}}
    for name, doc in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    monkeypatch.chdir(tmp_path)
    checked = []
    for argv, advertised in cli_runs(block):
        assert cli.main(argv) == cli.EXIT_OK, argv
        out = capsys.readouterr().out.splitlines()
        if argv[0] == "spectrum":
            header, row, rest = advertised
            assert (out[0], rest.strip()) == (header, "...")
            assert out[1].split()[:3] == row.split()[:3]
            checked.append(" ".join(row.split()[:3]))
        elif advertised:
            assert out == advertised
            checked += advertised
    assert checked == ["x^6 - 5*x^4 + 5*x^2 - 1", "x^9 - 8*x^7 + 18*x^5 - 12*x^3",
                       "2.17532774716 0 1", "1.61803398875 0 1"]

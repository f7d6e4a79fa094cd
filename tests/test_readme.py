"""README's library example runs and prints what it advertises."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_prints_its_advertised_line(capsys):
    [block] = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    advertised = [line[2:] for line in block.splitlines() if line.startswith("# ")]
    assert advertised == ["x^9 - 8*x^7 + 18*x^5 - 12*x^3"]
    exec(compile(block, str(README), "exec"), {"__name__": "readme_example"})
    assert capsys.readouterr().out.splitlines() == advertised

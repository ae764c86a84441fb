"""The library example in README.md runs as written."""

import math
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert len(blocks) == 1
    namespace: dict = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    res = namespace["res"]
    assert res.f < res.cost_history[0]
    printed = capsys.readouterr().out.split()
    assert math.isfinite(float(printed[-1]))

"""The README's library quick tour runs as written."""

import re
from pathlib import Path

from entroute import RoutedPath

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quick_tour_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    tour: dict = {}
    exec(compile(blocks[0], str(README), "exec"), tour)
    assert isinstance(tour["best"], RoutedPath)
    assert tour["result"].d_total > 0.0
    assert len(tour["paths"]) == len(tour["cumulative"]) >= 1

"""The README's library quick tour runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_tour_runs():
    text = README.read_text()
    tour = text[text.index("## Library quick tour"):]
    code = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    assert namespace["spectral"].n == len(namespace["graph"].vertices)
    assert namespace["psi"].shape == (namespace["spectral"].n,)
    assert len(namespace["traffic"].measure) == len(namespace["graph"].vertices)

"""The README's Quick tour runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_tour() -> str:
    """The first python block after the README's Quick tour heading."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Quick tour\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quick_tour_runs():
    code = quick_tour()
    # the chain API the tour shows
    assert "ChainElement.basis" in code
    assert "awg(lift) == x" in code
    exec(compile(code, str(README), "exec"), {})

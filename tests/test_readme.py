"""README's Library example runs as written and prints what it says."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_example() -> str:
    section = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_example_runs_and_prints_the_closed_form():
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        exec(compile(_library_example(), str(README), "exec"), {"__name__": "readme"})
    closed_form, mean, stderr = map(float, stdout.getvalue().split())
    assert abs(closed_form - 0.0008) <= 1e-15  # the value its comment states
    assert abs(mean - closed_form) <= 3.0 * stderr

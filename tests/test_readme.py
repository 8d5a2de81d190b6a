"""The README's library example runs against the current API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_example() -> str:
    section = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "README has no python block under '## Library example'"
    return match.group(1)


def test_library_example_runs(capsys):
    namespace: dict = {}
    exec(compile(_library_example(), str(README), "exec"), namespace)
    assert namespace["pair"].residual <= 1e-12
    assert capsys.readouterr().out

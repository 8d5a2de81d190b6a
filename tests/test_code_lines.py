"""The code-line counter in tools/code_lines.py."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)


def test_docstrings_comments_and_blank_lines_are_not_code(tmp_path):
    src = tmp_path / "m.py"
    src.write_text(
        '"""Module\n'
        'docstring."""\n'
        "\n"
        "# a comment\n"
        "def f(x):  # trailing comment\n"
        '    """Function docstring."""\n'
        "    y = (x +\n"
        "         1)\n"
        '    s = """a string\n'
        'that is data"""\n'
        "    return y, s\n"
    )
    # def, the two lines of y, the two lines of s, return
    assert code_lines.code_lines(src) == 6


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text("x = 1\n")
    (tmp_path / "b.py").write_text('"""Doc."""\ny = 2\nz = 3\n')
    assert code_lines.main([str(tmp_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in out] == ["1", "2", "3"]
    assert out[-1].split()[1] == "total"

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

_SOURCE = '''"""Module docstring,
over two lines."""
import os  # a trailing comment keeps its line


# a comment line
class C:
    """Class docstring."""

    y = 1


def f(a, b):
    """Function docstring,

    over three lines."""
    x = os.path.join(
        a,
        b,
    )
    "a string expression that is not first in its body"
    return x
'''


def test_code_lines_counts_only_code():
    # import, class, y = 1, def, the four lines of the call, the string
    # expression and the return
    assert code_lines.code_lines(_SOURCE) == 10
    assert code_lines.code_lines("") == 0
    assert code_lines.code_lines('"""Only a docstring."""\n\n# and a comment\n') == 0


def test_code_lines_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(_SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n")
    (tmp_path / "notes.txt").write_text("x = 1\n")
    assert code_lines.main(["code_lines.py", str(tmp_path)]) == 0
    assert capsys.readouterr().out == "    10  a.py\n     1  b.py\n    11  total\n"

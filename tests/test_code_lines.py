import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

# each code line ends in "# code"; inside the multi-line string the marker
# is part of the string, so it marks that line as well
FIXTURE = '''\
"""Module docstring,
on two lines."""

# a comment
import os  # code


class Shape:  # code
    """Class docstring."""

    sides = 4  # code

    def area(self):  # code
        """Function docstring,

        with a blank line."""
        text = """one  # code
two  # code
three"""  # code
        "a string after the docstring"  # code
        return text  # code


async def wait():  # code
    """Async function docstring."""
'''


def _tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_skips_docstrings_comments_and_blanks(tmp_path):
    # the docstrings of the module, a class and both kinds of function are
    # left out with comments and blank lines; each line of a multi-line
    # string counts, as does a string that is not a docstring
    path = tmp_path / "fixture.py"
    path.write_text(FIXTURE, encoding="utf-8")
    assert FIXTURE.count("# code") == 10
    assert _tool().code_lines(path) == 10


def test_code_lines_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "fixture.py").write_text(FIXTURE, encoding="utf-8")
    (tmp_path / "empty.py").write_text('"""Only a docstring."""\n', encoding="utf-8")
    assert _tool().main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "     0  empty.py",
        "    10  fixture.py",
        "    10  total",
    ]

"""The code-line counter in tools/code_lines.py."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment keeps the line

# a comment line


class A:
    """Class docstring."""

    def f(self, x):
        """Function docstring."""
        s = """a string that is
        not a docstring"""
        return (x +
                math.pi, s)
'''


def test_counts_code_and_skips_docstrings_comments_and_blanks(tmp_path):
    f = tmp_path / "m.py"
    f.write_text(SOURCE)
    # import, class, def, the two-line string, the two-line return
    assert code_lines.code_lines(f) == 7

"""``tools/src_lines.py`` gives the code-only line count of the package; its
rules for what counts are checked here on a small source."""

import importlib.util
import os
import textwrap

SRC_LINES_PY = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                            "tools", "src_lines.py")


def _load_src_lines():
    spec = importlib.util.spec_from_file_location("src_lines", SRC_LINES_PY)
    src_lines = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(src_lines)
    return src_lines


SOURCE = textwrap.dedent('''\
    """Module docstring,
    on two lines."""

    import math   # a trailing comment leaves its line counted

    # a comment-only line


    class Box:
        """Class docstring."""

        def area(self, width,
                 height,
                 depth=1):
            """Function docstring,

            with a blank line inside."""
            label = """a string that is
    not a docstring"""
            return width * height * depth, label
    ''')


def test_code_lines_counts_code_only():
    # import 1, class 1, def over three lines 3, the assigned string's two
    # lines 2, return 1
    assert _load_src_lines().code_lines(SOURCE) == 8


def test_code_lines_of_docstrings_comments_and_blanks_is_zero():
    assert _load_src_lines().code_lines('"""Only a docstring."""\n\n# and a comment\n') == 0

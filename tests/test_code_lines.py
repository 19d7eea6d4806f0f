"""The count behind tools/code_lines.py: a code line holds a token other
than a comment, and docstrings and blank lines do not count."""

import importlib.util
import os

import pytest

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "tools", "code_lines.py")

SNIPPET = '''"""Module docstring,
over two lines."""

import os  # a comment after code


# a comment alone
def f(a,
      b):
    """Function docstring."""

    total = os.path.join(
        a,
        b,
    )
    text = """a string
that is not a docstring"""
    return total, text


class C:
    """Class docstring."""
    x = 1
'''


@pytest.fixture(scope="module")
def code_lines():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_snippet_counts_code_lines_only(code_lines):
    # import; def over 2 lines; the call over 4; the string over 2; return;
    # class; x = 1
    assert code_lines.code_lines(SNIPPET) == 1 + 2 + 4 + 2 + 1 + 1 + 1


def test_docstrings_comments_and_blanks_count_nothing(code_lines):
    assert code_lines.code_lines('"""Only a docstring."""\n\n# and a comment\n') == 0


def test_a_string_statement_after_the_first_is_code(code_lines):
    assert code_lines.code_lines('"""Docstring."""\nx = 1\n"""not a docstring"""\n') == 2


def test_main_prints_each_module_and_the_total(code_lines, tmp_path, capsys):
    (tmp_path / "a.py").write_text("x = 1\ny = 2\n")
    (tmp_path / "b.py").write_text('"""Doc."""\nz = 3\n')
    (tmp_path / "notes.txt").write_text("not a module\n")
    assert code_lines.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["a.py", "2"], ["b.py", "1"], ["total", "3"]]

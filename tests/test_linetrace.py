"""tools/linetrace.py: the step that turns a module's source and the lines a
run executed into the lines no run reached. The traced runs themselves take
too long for this suite."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "linetrace.py"

SMALL = '''"""A module."""

import os

LIMIT = 3  # a constant


def clamp(x):
    """A docstring carries no code."""
    if x > LIMIT:
        # a comment
        return LIMIT
    else:
        return x


def unused():
    return os.sep
'''


def _load_tool():
    spec = importlib.util.spec_from_file_location("linetrace", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


lt = _load_tool()


def test_executable_lines_skip_blanks_comments_docstrings_and_else():
    assert lt.executable_lines(SMALL, "small.py") == {1, 3, 5, 8, 10, 12, 14, 17, 18}


def test_unrun_lines_are_the_executable_ones_no_run_reached(tmp_path):
    path = tmp_path / "small.py"
    path.write_text(SMALL)
    # importing the module and calling clamp(1) runs these lines
    ran = {1, 3, 5, 8, 10, 14, 17}
    assert lt.unrun_lines(path, ran) == [(12, "return LIMIT"), (18, "return os.sep")]
    assert lt.unrun_lines(path, ran | {12, 18}) == []

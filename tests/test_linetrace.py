"""tools/linetrace.py: the steps that turn a module's source and the lines a
run executed into the lines no run reached, and those on no error path into
the check's failures. The traced runs themselves take too long for this
suite."""

import importlib.util
from pathlib import Path

import pytest

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


# one case of each kind of error path, and lines on none
PATHS = '''import sys


def load(path):
    try:
        fh = open(path)
    except OSError as exc:
        print(exc)
        return None
    finally:
        print("tried")
    if fh is None:
        note = "no file"
        raise ValueError(
            note)
    return fh


class Reader:
    def read(self, fh):
        def helper():
            return fh.read()
        return helper()


if __name__ == "__main__":
    sys.exit(load(sys.argv[1]))
'''


def test_error_lines_are_raises_handlers_raising_blocks_finally_and_main():
    tree = lt.ast.parse(PATHS)
    assert lt.error_lines(tree) == {
        7, 8, 9,    # the except handler
        11,         # the finally body
        13, 14, 15,  # the block ending in a multi-line raise
        26, 27,     # the __main__ guard
    }


def test_line_functions_name_module_functions_and_methods():
    owner = lt.line_functions(lt.ast.parse(PATHS), "paths")
    assert owner[6] == owner[16] == "paths.load"
    assert owner[19] == "paths.Reader"
    # a nested function counts as part of the one holding it
    assert owner[21] == owner[22] == owner[23] == "paths.Reader.read"
    assert 1 not in owner and 26 not in owner


def _found(tmp_path, ran):
    path = tmp_path / "paths.py"
    path.write_text(PATHS)
    unrun = lt.unrun_lines(path, ran)
    return [(f"paths.py:{n}", text, function)
            for n, text, function in lt.unexplained(path, unrun)]


# every line of PATHS a plain load() runs: the module, Reader unused
LOADED = {1, 4, 5, 6, 11, 12, 16, 19, 20, 26}


def test_unrun_error_paths_pass_with_no_entry(tmp_path):
    reader = {20, 21, 22, 23}
    assert _found(tmp_path, LOADED | reader) == []
    assert lt.check([], {}, Path("allow.txt")) == []


def test_an_unlisted_unrun_line_fails(tmp_path):
    found = _found(tmp_path, LOADED)
    assert [(where, function) for where, _, function in found] == [
        ("paths.py:21", "paths.Reader.read"), ("paths.py:22", "paths.Reader.read"),
        ("paths.py:23", "paths.Reader.read")]
    failures = lt.check(found, {}, Path("allow.txt"))
    assert failures == [
        "paths.py:21: def helper():  (in paths.Reader.read, which allow.txt "
        "does not list)",
        "paths.py:22: return fh.read()  (in paths.Reader.read, which allow.txt "
        "does not list)",
        "paths.py:23: return helper()  (in paths.Reader.read, which allow.txt "
        "does not list)"]


def test_a_listed_unrun_line_passes(tmp_path):
    allow_path = tmp_path / "allow.txt"
    allow_path.write_text("# header\n\npaths.Reader.read  # a reason\n")
    allow = lt.read_allow(allow_path)
    assert allow == {"paths.Reader.read": (3, "a reason")}
    assert lt.check(_found(tmp_path, LOADED), allow, allow_path) == []


def test_a_stale_entry_fails(tmp_path):
    allow = {"paths.Reader.read": (3, "a reason"), "paths.load": (4, "another")}
    failures = lt.check(_found(tmp_path, LOADED), allow, Path("allow.txt"))
    assert failures == ["allow.txt:4: paths.load holds no unexplained unrun "
                        "line; remove the entry"]


def test_an_entry_needs_a_reason_and_names_one_function(tmp_path):
    path = tmp_path / "allow.txt"
    for text in ("paths.load\n", "paths.load  #  \n", "paths load  # why\n",
                 "paths.load  # why\npaths.load  # again\n"):
        path.write_text(text)
        with pytest.raises(ValueError, match="allow.txt:[12]: "):
            lt.read_allow(path)


def test_the_allow_list_gives_each_entry_a_reason():
    assert 0 < len(lt.read_allow(lt.ALLOW)) <= 15

#!/usr/bin/env python3
"""Line trace of real traffic: fail on a crosscity source line that only
tests, or nothing, reach.

Usage, from the repository root:

    python3 tools/linetrace.py

The tool takes no options. It runs ``bench/run.py --toy --seconds 1
--trace 0`` of each benchmark workload, then ``tools/fingerprint.py --toy
--workload cli-variants``, each in a fresh interpreter that finds a
``sitecustomize.py`` on ``PYTHONPATH``. That module records with
``sys.settrace`` every ``src/crosscity`` line the interpreter runs and
writes the set when it exits, also when a forked worker leaves by
``os._exit``.

It prints every executable ``src/crosscity`` line that no run executed,
as ``module:line: text``, and the count of such lines per module. A line is
executable when compiled code carries it. Then it checks them. An unrun
line on an error path passes: a ``raise`` statement, an ``except`` handler,
a block whose last statement is a ``raise``, a ``finally`` body, or the
``if __name__ == "__main__":`` guard. Any other unrun line fails, with one
``error:`` line, unless ``tools/linetrace_allow.txt`` names its function,
as ``module.qualname  # reason``. An entry that names no function with such
a line fails too, so the list can only shrink.

The runs fork worker processes only on Linux with two or more CPUs to run
on; elsewhere the fork paths would look unrun, so the tool refuses to judge.
It exits 0 when the check passes, and 1 after ``error:`` lines when it
fails, refuses to judge, or a run fails. The whole trace takes about 13 s
on a 2-vCPU VM.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import tempfile
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "crosscity"
ALLOW = ROOT / "tools" / "linetrace_allow.txt"
BENCH_WORKLOADS = ("transfer-small", "city-large", "cli-roundtrip")
RUNS = ([["bench/run.py", "--workload", w, "--seed", "0", "--toy", "--seconds", "1",
          "--trace", "0"] for w in BENCH_WORKLOADS]
        + [["tools/fingerprint.py", "--toy", "--workload", "cli-variants"]])

# records (file, line) of every line run in a file under LINETRACE_SRC and
# writes them to LINETRACE_OUT/<pid>.txt at exit; os._exit, which a forked
# worker leaves by, runs no atexit handler, so it writes them first
SITECUSTOMIZE = '''\
import atexit, os, sys

_prefix, _out = os.environ["LINETRACE_SRC"], os.environ["LINETRACE_OUT"]
_ran = set()


def _line(frame, event, arg):
    if event == "line":
        _ran.add((frame.f_code.co_filename, frame.f_lineno))
    return _line


def _call(frame, event, arg):
    return _line if frame.f_code.co_filename.startswith(_prefix) else None


def _write():
    sys.settrace(None)
    with open(os.path.join(_out, f"{os.getpid()}.txt"), "w") as fh:
        fh.writelines(f"{name}\\t{line}\\n" for name, line in sorted(_ran))


def _exit(status, _os_exit=os._exit):
    _write()
    _os_exit(status)


atexit.register(_write)
os._exit = _exit
sys.settrace(_call)
'''


def executable_lines(source, filename):
    """Numbers of the lines of `source` that carry compiled code."""
    lines, todo = set(), [compile(source, filename, "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for *_, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def unrun_lines(path, ran):
    """(number, stripped text) of each executable line of the file at path
    whose number is not in `ran`, in line order."""
    source = Path(path).read_text()
    rows = source.splitlines()
    return [(n, rows[n - 1].strip())
            for n in sorted(executable_lines(source, str(path)) - set(ran))]


def _span(first, last):
    return range(first.lineno, last.end_lineno + 1)


def _is_main_guard(node):
    test = node.test if isinstance(node, ast.If) else None
    return (isinstance(test, ast.Compare) and isinstance(test.left, ast.Name)
            and test.left.id == "__name__"
            and any(isinstance(c, ast.Constant) and c.value == "__main__"
                    for c in test.comparators))


def error_lines(tree):
    """Numbers of the lines of the module `tree` on an error path: a raise
    statement, an except handler, a block whose last statement is a raise,
    a finally body, and the __main__ guard."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Raise, ast.ExceptHandler)) or _is_main_guard(node):
            lines.update(_span(node, node))
        for field in ("body", "orelse", "finalbody"):
            block = getattr(node, field, None)
            if isinstance(block, list) and block and (
                    field == "finalbody" or isinstance(block[-1], ast.Raise)):
                lines.update(_span(block[0], block[-1]))
    return lines


def line_functions(tree, module):
    """line number -> 'module.qualname' of the function holding it, for
    every line of `tree`'s functions; a function nested in another counts
    as part of it, so the name is that of a module-level function or a
    method, such as 'train.pretrain' or 'graph.RoadGraph.adjacency'. A line
    of a class body outside its methods has the class's name."""
    owner = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                name = f"{prefix}{child.name}"
                owner.update(dict.fromkeys(_span(child, child), f"{module}.{name}"))
                if isinstance(child, ast.ClassDef):
                    visit(child, f"{name}.")

    visit(tree, "")
    return owner


def unexplained(path, unrun):
    """(number, text, function) of each line of `unrun`, the module at
    path's ``unrun_lines``, that is on no error path; function is its
    ``line_functions`` name."""
    tree = ast.parse(Path(path).read_text())
    module = Path(path).stem
    errors, owner = error_lines(tree), line_functions(tree, module)
    return [(n, text, owner.get(n, f"{module}.<module>"))
            for n, text in unrun if n not in errors]


def read_allow(path):
    """function -> (line number, reason) of each entry of the allow-list at
    path, `function  # reason` per line; blank and `#` lines are skipped.
    ValueError names a line with no function or no reason, or a repeat."""
    allow = {}
    for ln, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        name, _, reason = (part.strip() for part in line.partition("#"))
        if not reason or " " in name:
            raise ValueError(f"{path}:{ln}: expected 'module.qualname  # reason', "
                             f"got {line!r}")
        if name in allow:
            raise ValueError(f"{path}:{ln}: {name} repeats the entry of line "
                             f"{allow[name][0]}")
        allow[name] = (ln, reason)
    return allow


def check(found, allow, allow_path):
    """The failures of the check: one per (where, text, function) of
    `found` whose function `allow` lacks, and one per entry of allow, read
    from allow_path, whose function holds none of them."""
    failures = [f"{where}: {text}  (in {function}, which "
                f"{allow_path.name} does not list)"
                for where, text, function in found if function not in allow]
    held = {function for *_, function in found}
    failures += [f"{allow_path}:{ln}: {name} holds no unexplained unrun line; "
                 f"remove the entry"
                 for name, (ln, _) in allow.items() if name not in held]
    return failures


def usable_cpus():
    """CPUs the traced runs may fork workers onto: those this process may
    run on under Linux, where alone ``parallel.worker_count`` forks; else 1."""
    return len(os.sched_getaffinity(0)) if sys.platform == "linux" else 1


def trace_runs(workdir):
    """{source file: numbers of its lines run} over every run of RUNS, each
    traced by SITECUSTOMIZE in workdir. RuntimeError if a run fails."""
    (Path(workdir) / "sitecustomize.py").write_text(SITECUSTOMIZE)
    out = Path(workdir) / "ran"
    out.mkdir()
    env = {**os.environ, "LINETRACE_SRC": str(PACKAGE) + os.sep,
           "LINETRACE_OUT": str(out),
           "PYTHONPATH": os.pathsep.join(
               filter(None, [str(workdir), os.environ.get("PYTHONPATH")]))}
    for argv in RUNS:
        proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}: "
                               f"{proc.stderr.strip()}")
    ran = {}
    for record in out.iterdir():
        for row in record.read_text().splitlines():
            name, _, line = row.rpartition("\t")
            ran.setdefault(name, set()).add(int(line))
    return ran


def main():
    cpus = usable_cpus()
    if cpus < 2:
        print(f"error: the traced runs fork workers only on Linux with 2 or more "
              f"CPUs to run on, and this process has {cpus}: the fork paths "
              f"would look unrun, so the check is not judged", file=sys.stderr)
        return 1
    try:
        allow = read_allow(ALLOW)
        with tempfile.TemporaryDirectory(prefix="linetrace-") as workdir:
            ran = trace_runs(workdir)
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    counts, found = {}, []
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.relative_to(ROOT).as_posix()
        unrun = unrun_lines(path, ran.get(str(path), ()))
        counts[module] = len(unrun)
        for n, text in unrun:
            print(f"{module}:{n}: {text}")
        found += [(f"{module}:{n}", text, function)
                  for n, text, function in unexplained(path, unrun)]
    print()
    for module, count in counts.items():
        print(f"{module}: {count} lines unrun")
    listed = sum(function in allow for *_, function in found)
    print(f"total: {sum(counts.values())} lines unrun, {len(found)} of them on no "
          f"error path; {listed} of those in the {len(allow)} functions "
          f"{ALLOW.name} lists")
    failures = check(found, allow, ALLOW.relative_to(ROOT))
    for failure in failures:
        print(f"error: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

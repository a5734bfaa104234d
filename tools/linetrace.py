#!/usr/bin/env python3
"""Line trace of real traffic: the crosscity source lines no run executes.

Usage, from the repository root:

    python3 tools/linetrace.py

The tool takes no options. It runs ``bench/run.py --toy --seconds 1
--trace 0`` of each benchmark workload, then ``tools/fingerprint.py --toy
--workload cli-variants``, each in a fresh interpreter that finds a
``sitecustomize.py`` on ``PYTHONPATH``. That module records with
``sys.settrace`` every ``src/crosscity`` line the interpreter runs and
writes the set when it exits, also when a forked worker leaves by
``os._exit``.

It then prints every executable ``src/crosscity`` line that no run executed,
as ``module:line: text``, and the count of such lines per module. A line is
executable when compiled code carries it. A reported line that is not an
error path is one that only tests, or no caller at all, reach. The whole
trace takes about 16 s on a 2-vCPU VM. It exits 1 after an ``error:`` line
when a run fails.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "crosscity"
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
    with tempfile.TemporaryDirectory(prefix="linetrace-") as workdir:
        try:
            ran = trace_runs(workdir)
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    counts = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.relative_to(ROOT).as_posix()
        unrun = unrun_lines(path, ran.get(str(path), ()))
        counts[module] = len(unrun)
        for n, text in unrun:
            print(f"{module}:{n}: {text}")
    print()
    for module, count in counts.items():
        print(f"{module}: {count} lines unrun")
    print(f"total: {sum(counts.values())} lines unrun")
    return 0


if __name__ == "__main__":
    sys.exit(main())

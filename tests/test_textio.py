import ast
import os
import sys
from pathlib import Path

import numpy as np
import pytest

from crosscity import checkpoint as ck
from crosscity import cli
from crosscity import data as dio
from crosscity import graph as gr
from crosscity import metrics as mx
from crosscity import node2vec as n2v
from crosscity import parallel
from crosscity import textio
from crosscity.config import ExperimentConfig
from crosscity.train import DomainData, ReplayLog

from conftest import assert_no_child_left
from test_cli import write_specs

PACKAGE = Path(textio.__file__).parent


def _writing_opens(tree):
    """(function, line) of every call in tree that opens a file for writing,
    appending or exclusive creation, or whose mode is not a literal."""
    found, scope = [], []

    class Visitor(ast.NodeVisitor):
        def visit_FunctionDef(self, node):
            scope.append(node.name)
            self.generic_visit(node)
            scope.pop()

        def visit_Call(self, node):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
            mode = node.args[1] if len(node.args) > 1 else next(
                (kw.value for kw in node.keywords if kw.arg == "mode"), None)
            writes = mode is not None and not (
                isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and not set(mode.value) & set("wax+"))
            if (name == "open" and writes) or name in ("write_text", "write_bytes"):
                found.append((scope[-1] if scope else "<module>", node.lineno))
            self.generic_visit(node)

    Visitor().visit(tree)
    return found


def test_only_the_atomic_writer_opens_files_for_writing():
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for func, line in _writing_opens(ast.parse(path.read_text())):
            found.setdefault(f"{path.name}:{func}", []).append(line)
    assert list(found) == ["textio.py:atomic_open"], found
    assert len(found["textio.py:atomic_open"]) == 1


def test_the_guard_sees_write_modes():
    tree = ast.parse("def f(p):\n    open(p, 'a')\n    open(p, mode='x')\n"
                     "    open(p)\n    open(p, 'rb')\n    open(p, m)\n")
    assert _writing_opens(tree) == [("f", 2), ("f", 3), ("f", 6)]


class _FailingFile:
    """A file whose first write stores half its text, then fails."""

    def __init__(self, fh):
        self.fh = fh

    def write(self, text):
        self.fh.write(text[:len(text) // 2])
        self.fh.flush()
        raise OSError(28, "No space left on device")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


def _tiny_graph():
    return gr.RoadGraph(3, [(0, 1), (1, 2)])


def _export_embeddings(path, monkeypatch):
    monkeypatch.setattr(mx, "stage1_embeddings",
                        lambda checkpoint, config, domains: [np.zeros((3, 2))])
    mx.export_embeddings(None, ExperimentConfig(embed_dim=2),
                         [DomainData("a", _tiny_graph(), np.ones((3, 2)))], path)


def _replay_log(path):
    log = ReplayLog()
    log.record(step=0, loss=1.5)
    log.write(path)


WRITERS = {
    "save_graph": lambda path, mp: gr.save_graph(_tiny_graph(), path),
    "save_series": lambda path, mp: dio.save_series(
        dio.TrafficSeries(np.ones((3, 2))), path),
    "save_features": lambda path, mp: n2v.save_features(np.ones((3, 2)), path),
    "save_checkpoint": lambda path, mp: ck.save_checkpoint(
        ck.Checkpoint("pretrained", "abc", 0, {"w": np.ones(2)}), path),
    "MetricReport.write": lambda path, mp: mx.MetricReport(
        "full", 3, 1.0, 2.0, 0.1, 9, 9, 0, "abc").write(path),
    "ReplayLog.write": lambda path, mp: _replay_log(path),
    "write_comparison_csv": lambda path, mp: mx.write_comparison_csv(
        [{"variant": "full", "horizon": 3, "mae": 1.0, "rmse": 2.0,
          "mape": 0.1, "impv_pct_mae": 0.0, "impv_pct_rmse": 0.0,
          "impv_pct_mape": 0.0}], path),
    "export_embeddings": _export_embeddings,
    "config.json": lambda path, mp: cli._echo_config(
        ExperimentConfig(), os.path.dirname(path)),
}


@pytest.mark.parametrize("writer", list(WRITERS))
def test_failed_write_keeps_the_old_file_and_leaves_no_temp(
        writer, tmp_path, monkeypatch):
    path = tmp_path / ("config.json" if writer == "config.json" else "out.txt")
    path.write_text("old\n")
    monkeypatch.setattr(textio, "open",
                        lambda p, mode="r": _FailingFile(open(p, mode)),
                        raising=False)
    with pytest.raises(OSError, match="No space left"):
        WRITERS[writer](str(path), monkeypatch)
    assert path.read_text() == "old\n"
    assert os.listdir(tmp_path) == [path.name]



# -- write_table on several workers -----------------------------------------

def _forking(monkeypatch, cpus):
    """From now on ``parallel.worker_count`` gives min(cpus, tasks) workers."""
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)
    monkeypatch.setattr(sys, "platform", "linux")


@pytest.mark.parametrize("cpus, n_rows", [(2, 1), (4, 3), (2, 7)],
                         ids=["one-row", "fewer-rows-than-cpus", "odd-rows"])
def test_blocks_on_workers_write_the_serial_bytes(tmp_path, monkeypatch, cpus, n_rows):
    header = ["t", "a", "b", "c", "d", "e"]
    values = (np.random.default_rng(n_rows).standard_normal((n_rows, 5))
              * 10.0 ** np.arange(-3, 2))
    values[0, :3] = (-0.0, 5e-324, 1e300)
    rows = [(f"r{i}", row) for i, row in enumerate(values)]
    serial = tmp_path / "serial.csv"
    textio.write_table(serial, header, rows)  # under the cut-off: serial
    _forking(monkeypatch, cpus)
    monkeypatch.setattr(textio, "PARALLEL_CELLS", 0)
    joins, fork_join = [], parallel.fork_join

    def counting(work, workers):
        joins.append(workers)
        fork_join(work, workers)

    monkeypatch.setattr(parallel, "fork_join", counting)
    textio.write_table(tmp_path / "blocks.csv", header, rows)
    assert_no_child_left()
    assert joins == ([] if n_rows == 1 else [min(cpus, n_rows)])
    assert (tmp_path / "blocks.csv").read_bytes() == serial.read_bytes()
    assert sorted(os.listdir(tmp_path)) == ["blocks.csv", "serial.csv"]


@pytest.mark.parametrize("bad_row", [0, 4], ids=["caller", "child"])
def test_a_failing_worker_leaves_no_file(tmp_path, monkeypatch, bad_row):
    _forking(monkeypatch, 2)
    monkeypatch.setattr(textio, "PARALLEL_CELLS", 0)
    rows = [(i, [float(i), 2.0]) for i in range(5)]  # blocks of rows 0-1 and 2-4
    rows[bad_row] = (bad_row, [1.0, "not a number"])
    with pytest.raises(ValueError, match="could not convert string to float"):
        textio.write_table(tmp_path / "t.csv", ["n", "a", "b"], rows)
    assert_no_child_left()
    assert os.listdir(tmp_path) == []


def test_tables_under_the_cut_off_never_fork(tmp_path, monkeypatch):
    _forking(monkeypatch, 2)

    def no_fork(work, workers):
        raise AssertionError(f"fork_join of {workers} workers")

    monkeypatch.setattr(parallel, "fork_join", no_fork)
    mx.MetricReport("full", 3, 1.0, 2.0, 0.1, 9, 9, 0, "abc").write(
        tmp_path / "report.txt")
    WRITERS["write_comparison_csv"](tmp_path / "comparison.csv", monkeypatch)
    assert cli.main(["synth", "--out", str(tmp_path / "data")]
                    + write_specs(tmp_path)) == 0

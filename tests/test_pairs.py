"""tools/pairs.py: a toy pair, the verdict rule and the checks it fails on."""

import contextlib
import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "pairs.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


pairs = _load_tool()


def test_toy_pair_prints_the_document(monkeypatch, capsys):
    # this checkout stands in for the parent's worktree, so no git is needed
    @contextlib.contextmanager
    def checkout(rev):
        yield pairs.ROOT, "0" * 40

    monkeypatch.setattr(pairs.fp, "checkout", checkout)
    code = pairs.main(["--against", "HEAD", "--toy", "--pairs", "1",
                       "--seconds", "1", "--workload", "transfer-small"])
    out = capsys.readouterr().out
    assert code == 0, out
    doc = json.loads(out.splitlines()[-1])
    assert set(doc) == {"env", "runs", "summary"}
    assert {"nproc", "python", "numpy", "blas", "OPENBLAS_NUM_THREADS",
            "against", "against_commit", "seed", "pairs", "seconds",
            "toy"} <= set(doc["env"])
    assert [(r["workload"], r["pair"], r["side"]) for r in doc["runs"]] == [
        ("transfer-small", 0, "parent"), ("transfer-small", 0, "change")]
    for run in doc["runs"]:
        assert set(run["result"]) == {"correct", "attempted", "failed", "metrics"}
    table = doc["summary"]["transfer-small"]
    assert set(table["metrics"]) == {m["name"] for m in pairs.SPEC["end_to_end"]}
    for m in table["metrics"].values():
        assert set(m) == {"parent", "change", "change_won", "parent_won",
                          "pairs", "median_gain", "parent_quartile_distance",
                          "verdict"}
        assert m["verdict"] in ("claim met", "noise", "regression")
    assert table["metrics"]["test_mae_h3"]["verdict"] == "noise"


@pytest.mark.parametrize("change, verdict", [
    ([0.9] * 9 + [1.2], "claim met"),   # 9 of 10 won, by more than the spread
    ([0.9] * 8 + [1.2] * 2, "noise"),   # 8 of 10 won
    ([0.99] * 10, "noise"),             # every pair won, inside the spread
    ([1.0] * 10, "noise"),              # ties count for neither side
    ([1.2] * 9 + [0.9], "regression"),
])
def test_verdict_needs_nine_in_ten_pairs_and_a_gap_above_the_spread(
        change, verdict):
    parent = [0.96, 0.98, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.02, 1.04]
    assert pairs.compare(parent, change, True)["verdict"] == verdict
    # the same numbers read as a metric where higher is better
    flipped = {"claim met": "regression", "regression": "claim met"}
    assert pairs.compare(parent, change, False)["verdict"] == flipped.get(
        verdict, verdict)


def _run(workload, pair, side, mae, failed=0):
    metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]}
               for m in pairs.SPEC["end_to_end"]}
    metrics["test_mae_h3"]["value"] = mae
    return {"workload": workload, "pair": pair, "side": side,
            "result": {"correct": not failed, "attempted": 4, "failed": failed,
                       "metrics": metrics}}


def test_faults_name_an_unequal_error_and_more_failed_operations():
    runs = [_run("w", 0, "parent", 13.5), _run("w", 0, "change", 13.5),
            _run("w", 1, "change", 13.6, failed=1), _run("w", 1, "parent", 13.5)]
    summary = {"w": pairs.summarize(runs, "w")}
    assert pairs.faults(runs, summary) == [
        "w: the change failed 1 of 8 operations, the parent 0 of 8",
        "w pair 1: test_mae_h3 is 13.6 here and 13.5 at the parent"]
    assert pairs.faults(runs[:2], {"w": pairs.summarize(runs[:2], "w")}) == []

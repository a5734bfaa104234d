"""Toy-size smoke test of the benchmark.

Runs every workload shrunk to toy size, untraced and traced, and asserts
that the result line names every metric in BENCHMARK.json with its unit and
that all output checks pass. It also checks that the benchmark refuses to
run without the library sources, and that the transfer-small workload still
mirrors the acceptance test's setup. Not part of the tier-1 test run; use

    python3 bench/smoke.py          # or: python3 -m pytest -q bench/smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload, trace, cwd=ROOT):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", "0",
                             "--seconds", "1", "--trace", str(trace), "--toy"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def _check_result(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (m["name"], got)
        assert isinstance(got["value"], (int, float)), (m["name"], got)
    return result["metrics"]


def test_every_workload_emits_every_metric():
    for w in SPEC["workloads"]:
        e2e = _check_result(w["name"], 0)
        assert all(e2e[k]["value"] > 0 for k in e2e), (w["name"], e2e)
        layers = _check_result(w["name"], 1)
        calls = layers["adversary.adversarial_loss_calls"]["value"]
        assert (calls == 0) == (w["name"] == "cli-roundtrip"), (w["name"], calls)


def test_refuses_to_run_without_sources():
    (BENCH / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BENCH / "out") as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, Path(tmp) / path,
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = _run(SPEC["workloads"][0]["name"], 0, cwd=tmp)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_transfer_small_mirrors_acceptance_setup():
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(BENCH)]
    import test_acceptance
    import workloads
    assert workloads.CITY_SPECS == test_acceptance.CITY_SPECS
    for seed in (0, 3):
        assert (workloads.transfer_config(seed).to_dict()
                == test_acceptance.transfer_config(seed).to_dict())
        bench_cfg = workloads.TransferSmall(seed, False, "").cfg.to_dict()
        ref = test_acceptance.transfer_config(seed).to_dict()
        ref["early_stop_patience"] = ref["finetune_max_epochs"]
        assert bench_cfg == ref


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok {name}")

"""tools/fingerprint.py: a toy-size run, the inputs it mirrors from
test_cli.py, and how it lists differing files."""

import hashlib
import importlib.util
import json
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

from crosscity.config import VARIANTS, ExperimentConfig, variant_stages

from test_cli import SPEC_A, SPEC_B, SPEC_T, tiny_config_file

TOOL = Path(__file__).resolve().parent.parent / "tools" / "fingerprint.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("fingerprint", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


fp = _load_tool()


def test_mirrors_the_tiny_cli_inputs(tmp_path):
    assert fp.TINY_SPECS == {"a.spec": SPEC_A, "b.spec": SPEC_B,
                             "t.spec": SPEC_T}
    _, cfg = tiny_config_file(tmp_path)
    assert ExperimentConfig.from_dict(fp.TINY_CONFIG) == cfg


def test_toy_run_hashes_every_output_file():
    proc = subprocess.run([sys.executable, str(TOOL), "--toy"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    workloads = "|".join(map(re.escape, fp.WORKLOADS))
    for line in lines:
        assert re.fullmatch(rf"[0-9a-f]{{64}}  ({workloads})/\S+", line), line
    digests = {name: digest for digest, name in (ln.split("  ") for ln in lines)}
    assert len(digests) == len(lines)

    wanted = ["transfer-small/pretrained.ckpt", "city-large/finetuned.ckpt",
              "city-large/east.features.csv", "transfer-small/report_ha_h3_s0.txt",
              "cli-roundtrip/run/replay_pretrain.log",
              "cli-roundtrip/run/comparison.csv",
              "cli-variants/isolated/tee.features.csv",
              "cli-variants/serial/finetuned.ckpt"]
    for v in VARIANTS:
        wanted += [f"cli-variants/{v}/{f}" for f in (
            f"report_{v}_h3_s0.txt", "comparison.csv", "finetuned.ckpt",
            "replay_finetune.log")]
    assert set(wanted) <= digests.keys()
    # the refused commands leave nothing, and their bad inputs are gone
    assert not any(name.startswith(("cli-variants/refused", "cli-variants/tmp"))
                   for name in digests)
    for v in VARIANTS:
        pretrains = "pretrain" in variant_stages(v)
        assert (f"cli-variants/{v}/pretrained.ckpt" in digests) == pretrains

    # the serial and forked arms on the wide target leave the same files
    arms = {arm: {name.split("/", 2)[2]: digest for name, digest in digests.items()
                  if name.startswith(f"cli-variants/{arm}/")}
            for arm in ("pinned", "unpinned")}
    assert arms["pinned"] == arms["unpinned"]
    assert arms["pinned"].keys() >= {
        "data/tee.csv", "data/manifest.txt", "run/finetuned.ckpt",
        "run/replay_finetune.log", "run/report_target_only_h3_s0.txt"}
    # its manifest names the paths relative to the arm, so it is hashed
    assert arms["pinned"]["data/manifest.txt"] != hashlib.sha256(b"").hexdigest()

    # every line of a synth manifest names a path, so none is hashed
    empty = hashlib.sha256(b"").hexdigest()
    assert digests["cli-variants/data/manifest.txt"] == empty
    assert digests["cli-roundtrip/data/manifest.txt"] == empty
    config = json.dumps(fp.TINY_CONFIG, indent=2, sort_keys=True).encode()
    assert digests["cli-variants/config.json"] == hashlib.sha256(config).hexdigest()


def test_differences_name_every_file_that_differs():
    ours = {"w/a": "1", "w/b": "2", "w/c": "3"}
    theirs = {"w/a": "1", "w/b": "9", "w/d": "4"}
    assert fp.differences(ours, theirs) == [
        ("differs", "w/b"), ("only here", "w/c"), ("only there", "w/d")]
    assert fp.differences(ours, dict(ours)) == []


def _refusing(effect):
    """A stand-in for crosscity.cli whose main runs effect(argv), then
    prints one error line and exits 1."""
    def main(argv):
        effect(argv)
        print("error: refused", file=sys.stderr)
        return 1
    return types.SimpleNamespace(main=main)


def test_refusal_check_passes_one_error_line_and_no_change(tmp_path):
    (tmp_path / "kept.txt").write_text("kept\n")
    fp._refused(_refusing(lambda argv: print("working")), 1, tmp_path, "cmd")


@pytest.mark.parametrize("effect, code, why", [
    (lambda argv: None, 2, "exited 1 .*; expected exit 2 "),
    (lambda argv: print("warning: late", file=sys.stderr), 1,
     "expected exit 1 and one error: line"),
    (lambda argv: Path(argv[0], "out").mkdir(), 1, "changed out under"),
    (lambda argv: Path(argv[0], "new.txt").write_text(""), 1, "changed new.txt under"),
    (lambda argv: Path(argv[0], "kept.txt").write_text("edited\n"), 1,
     "changed kept.txt under"),
], ids=["exit-code", "two-lines", "new-directory", "new-file", "changed-file"])
def test_refusal_check_fails(tmp_path, effect, code, why):
    (tmp_path / "kept.txt").write_text("kept\n")
    with pytest.raises(fp.FingerprintError, match=why):
        fp._refused(_refusing(effect), code, tmp_path, str(tmp_path))

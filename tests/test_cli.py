import os

import numpy as np
import pytest

from crosscity.cli import EXIT_BAD_ARGS, main
from crosscity.config import ExperimentConfig


SPEC_A = """\
name = alpha
n_nodes = 8
topology = ring
days = 1
seed = 1
"""

SPEC_B = """\
name = beta
n_nodes = 9
topology = grid
days = 1
seed = 2
phase_shift_hours = 1.0
"""

SPEC_T = """\
name = tee
n_nodes = 7
topology = ring
days = 1
seed = 3
"""


def write_specs(tmp_path):
    paths = []
    for fname, text in (("a.spec", SPEC_A), ("b.spec", SPEC_B), ("t.spec", SPEC_T)):
        p = tmp_path / fname
        p.write_text(text)
        paths.append(str(p))
    return paths


def tiny_config_file(tmp_path):
    cfg = ExperimentConfig(
        source_domains=["alpha", "beta"], target_domain="tee",
        history=4, horizon=3, embed_dim=8, hidden_dim=8,
        walks_per_node=4, walk_length=4, skipgram_epochs=1,
        pretrain_epochs=2, pretrain_batches_per_epoch=2,
        finetune_max_epochs=2, finetune_batches_per_epoch=2,
        early_stop_patience=2, batch_size=32, seed=0)
    path = tmp_path / "config.json"
    path.write_text(cfg.to_json())
    return str(path), cfg


@pytest.fixture
def synthed(tmp_path):
    specs = write_specs(tmp_path)
    data = str(tmp_path / "data")
    assert main(["synth", "--out", data] + specs) == 0
    cfg_path, cfg = tiny_config_file(tmp_path)
    return data, cfg_path, cfg, tmp_path


class TestSynth:
    def test_writes_files_and_manifest(self, synthed):
        data, _, _, _ = synthed
        for name in ("alpha", "beta", "tee"):
            assert os.path.exists(os.path.join(data, f"{name}.edges"))
            assert os.path.exists(os.path.join(data, f"{name}.csv"))
        manifest = open(os.path.join(data, "manifest.txt")).read()
        assert "alpha" in manifest and "tee" in manifest

    def test_deterministic(self, tmp_path):
        specs = write_specs(tmp_path)
        out1, out2 = str(tmp_path / "d1"), str(tmp_path / "d2")
        assert main(["synth", "--out", out1] + specs) == 0
        assert main(["synth", "--out", out2] + specs) == 0
        a1 = open(os.path.join(out1, "alpha.csv")).read()
        a2 = open(os.path.join(out2, "alpha.csv")).read()
        assert a1 == a2

    def test_missing_spec(self, tmp_path):
        assert main(["synth", "--out", str(tmp_path / "x"),
                     str(tmp_path / "nope.spec")]) == EXIT_BAD_ARGS

    def test_bad_spec_key(self, tmp_path):
        bad = tmp_path / "bad.spec"
        bad.write_text("name = x\nwheels = 4\n")
        assert main(["synth", "--out", str(tmp_path / "x"), str(bad)]) == 1

    def test_single_node_ring_spec(self, tmp_path, capsys):
        bad = tmp_path / "hamlet.spec"
        bad.write_text("name = hamlet\nn_nodes = 1\ntopology = ring\ndays = 1\n")
        assert main(["synth", "--out", str(tmp_path / "x"), str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "hamlet" in err
        assert "n_nodes = 1" in err and "Traceback" not in err

    @pytest.mark.parametrize("bad_text, code", [
        ("name = hamlet\nn_nodes = 1\ntopology = ring\ndays = 1\n", 1),
        (None, EXIT_BAD_ARGS),
        ("name = hamlet\nn_nodes = ten\ndays = 1\n", 1),
    ], ids=["one-node-ring", "missing", "bad-value"])
    def test_failing_spec_writes_no_city(self, tmp_path, capsys, bad_text, code):
        # the good spec comes first; nothing of it may reach --out
        good = write_specs(tmp_path)[0]
        bad = tmp_path / "hamlet.spec"
        if bad_text is not None:
            bad.write_text(bad_text)
        out = tmp_path / "x"
        assert main(["synth", "--out", str(out), good, str(bad)]) == code
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists() or os.listdir(out) == []

    def test_bad_spec_value_names_file_and_key(self, tmp_path, capsys):
        bad = tmp_path / "town.spec"
        bad.write_text("name = town\nn_nodes = ten\n")
        assert main(["synth", "--out", str(tmp_path / "x"), str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ")
        assert "'n_nodes'" in err and "'ten'" in err and "Traceback" not in err


class TestPipeline:
    def test_full_pipeline(self, synthed):
        data, cfg_path, cfg, tmp_path = synthed
        out = str(tmp_path / "run_full")
        code = main(["pipeline", "--config", cfg_path, "--data", data,
                     "--out", out, "--variant", "full", "--replay-log"])
        assert code == 0
        assert open(os.path.join(out, "stage.txt")).read().strip() == "done"
        assert os.path.exists(os.path.join(out, "pretrained.ckpt"))
        assert os.path.exists(os.path.join(out, "finetuned.ckpt"))
        assert os.path.exists(os.path.join(out, "replay_pretrain.log"))
        assert os.path.exists(os.path.join(out, "config.json"))
        assert os.path.exists(os.path.join(out, "run_info.txt"))
        # horizon 3 reports for the model and the baseline
        assert os.path.exists(os.path.join(out, "report_full_h3_s0.txt"))
        assert os.path.exists(os.path.join(out, "report_ha_h3_s0.txt"))

    def test_target_only_skips_pretrain(self, synthed):
        data, cfg_path, _, tmp_path = synthed
        out = str(tmp_path / "run_tonly")
        code = main(["pipeline", "--config", cfg_path, "--data", data,
                     "--out", out, "--variant", "target_only"])
        assert code == 0
        assert not os.path.exists(os.path.join(out, "pretrained.ckpt"))
        assert os.path.exists(os.path.join(out, "report_target_only_h3_s0.txt"))

    def test_compare_over_reports(self, synthed):
        data, cfg_path, _, tmp_path = synthed
        out = str(tmp_path / "run_cmp")
        assert main(["pipeline", "--config", cfg_path, "--data", data,
                     "--out", out, "--variant", "target_only"]) == 0
        assert main(["compare", out, "--reference", "ha"]) == 0
        text = open(os.path.join(out, "comparison.csv")).read()
        assert text.startswith("variant,horizon,mae")
        assert "target_only" in text

    def test_export_embeddings(self, synthed):
        data, cfg_path, cfg, tmp_path = synthed
        out = str(tmp_path / "run_exp")
        assert main(["embed", "--config", cfg_path, "--data", data]) == 0
        assert main(["pretrain", "--config", cfg_path, "--data", data,
                     "--out", out]) == 0
        assert main(["export-embeddings", "--config", cfg_path, "--data", data,
                     "--out", out]) == 0
        lines = open(os.path.join(out, "embeddings.csv")).read().splitlines()
        n_nodes = 8 + 9 + 7
        assert len(lines) == 1 + 2 * n_nodes  # header + raw + shared per node


class TestErrors:
    def test_missing_data_dir(self, tmp_path):
        cfg_path, _ = tiny_config_file(tmp_path)
        code = main(["pretrain", "--config", cfg_path,
                     "--data", str(tmp_path / "nowhere"),
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_BAD_ARGS

    def test_finetune_without_pretrain_checkpoint(self, synthed):
        data, cfg_path, _, tmp_path = synthed
        assert main(["embed", "--config", cfg_path, "--data", data]) == 0
        code = main(["finetune", "--config", cfg_path, "--data", data,
                     "--out", str(tmp_path / "o"), "--variant", "full"])
        assert code == EXIT_BAD_ARGS

    def test_checkpoints_of_another_config_rejected(self, synthed, capsys):
        data, cfg_path, _, tmp_path = synthed
        out = str(tmp_path / "o")
        common = ["--config", cfg_path, "--data", data, "--out", out]
        assert main(["pipeline", *common, "--variant", "wo_pri"]) == 0
        capsys.readouterr()
        echoed = {f: open(os.path.join(out, f), "rb").read()
                  for f in ("config.json", "run_info.txt")}
        for cmd in ("finetune", "evaluate", "export-embeddings"):
            assert main([cmd, *common, "--variant", "wo_pri", "--seed", "5"]) == 1
            assert "hash mismatch" in capsys.readouterr().err
            # a refused run leaves the run directory's record of its config
            for f, text in echoed.items():
                assert open(os.path.join(out, f), "rb").read() == text, (cmd, f)

    def test_evaluate_rejects_checkpoint_missing_a_tensor(self, synthed,
                                                          capsys):
        data, cfg_path, _, tmp_path = synthed
        out = str(tmp_path / "o")
        common = ["--config", cfg_path, "--data", data, "--out", out,
                  "--variant", "target_only"]
        assert main(["pipeline", *common]) == 0
        path = os.path.join(out, "finetuned.ckpt")
        lines = open(path).read().splitlines(keepends=True)
        with open(path, "w") as fh:
            fh.writelines(ln for ln in lines
                          if not ln.startswith("forecaster.head.b "))
        capsys.readouterr()
        assert main(["evaluate", *common]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "missing parameter forecaster.head.b" in err

    def test_evaluate_rejects_checkpoint_with_nan_values(self, synthed, capsys):
        data, cfg_path, _, tmp_path = synthed
        out = str(tmp_path / "o")
        common = ["--config", cfg_path, "--data", data, "--out", out,
                  "--variant", "target_only"]
        assert main(["pipeline", *common]) == 0
        path = os.path.join(out, "finetuned.ckpt")
        lines = open(path).read().splitlines(keepends=True)
        with open(path, "w") as fh:
            fh.writelines("forecaster.head.b shape 3 values nan nan nan\n"
                          if ln.startswith("forecaster.head.b ") else ln
                          for ln in lines)
        capsys.readouterr()
        assert main(["evaluate", *common]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "forecaster.head.b holds a non-finite value" in err
        assert "line " in err

    def test_compare_needs_two_reports(self, tmp_path):
        os.makedirs(tmp_path / "empty", exist_ok=True)
        assert main(["compare", str(tmp_path / "empty")]) == EXIT_BAD_ARGS

    def test_bad_override(self, tmp_path):
        code = main(["pretrain", "--set", "bogus=1",
                     "--data", str(tmp_path), "--out", str(tmp_path / "o")])
        assert code == 1

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "synth" in capsys.readouterr().out


class TestDeterminism:
    def test_identical_checkpoints_across_runs(self, synthed):
        data, cfg_path, _, tmp_path = synthed
        assert main(["embed", "--config", cfg_path, "--data", data]) == 0
        o1, o2 = str(tmp_path / "r1"), str(tmp_path / "r2")
        for out in (o1, o2):
            assert main(["pretrain", "--config", cfg_path, "--data", data,
                         "--out", out]) == 0
        c1 = open(os.path.join(o1, "pretrained.ckpt")).read()
        c2 = open(os.path.join(o2, "pretrained.ckpt")).read()
        assert c1 == c2

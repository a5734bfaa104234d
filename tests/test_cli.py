import json
import os

import numpy as np
import pytest

from crosscity import cli
from crosscity import data as dio
from crosscity import node2vec as n2v
from crosscity.cli import EXIT_BAD_ARGS, main
from crosscity.config import ExperimentConfig

from conftest import assert_no_child_left


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

    @pytest.mark.parametrize("flag", [
        ["--config", "c.json"], ["--set", "horizon=3"], ["--variant", "full"],
        ["--replay-log"]])
    def test_takes_only_out_seed_and_specs(self, tmp_path, capsys, flag):
        spec = write_specs(tmp_path)[0]
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--out", str(tmp_path / "x"), *flag, spec])
        assert exc.value.code == EXIT_BAD_ARGS
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_city_whose_edge_list_cannot_record_its_nodes(self, tmp_path,
                                                          capsys):
        # a 1-node grid has no edge, so `embed` could not read it back
        good = write_specs(tmp_path)[0]
        bad = tmp_path / "hamlet.spec"
        bad.write_text("name = hamlet\nn_nodes = 1\ntopology = grid\ndays = 1\n")
        out = tmp_path / "x"
        assert main(["synth", "--out", str(out), good, str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1
        assert "'hamlet'" in err and "n_nodes = 1" in err
        assert not out.exists()

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

    def test_synth_writes_where_the_stages_read_by_default(self, tmp_path,
                                                           monkeypatch):
        specs = write_specs(tmp_path)
        cfg_path, _ = tiny_config_file(tmp_path)
        monkeypatch.chdir(tmp_path)
        assert main(["synth"] + specs) == 0
        assert main(["pipeline", "--config", cfg_path]) == 0
        assert open(os.path.join("runs", "run0", "stage.txt")).read() == "done\n"

    def test_target_only_skips_pretrain(self, synthed):
        data, cfg_path, _, tmp_path = synthed
        out = str(tmp_path / "run_tonly")
        code = main(["pipeline", "--config", cfg_path, "--data", data,
                     "--out", out, "--variant", "target_only"])
        assert code == 0
        assert not os.path.exists(os.path.join(out, "pretrained.ckpt"))
        assert os.path.exists(os.path.join(out, "report_target_only_h3_s0.txt"))

    def test_fifteen_minute_city(self, tmp_path):
        specs = write_specs(tmp_path)
        with open(specs[2], "a") as fh:
            fh.write("interval_minutes = 15\n")
        data = str(tmp_path / "data")
        assert main(["synth", "--out", data] + specs) == 0
        cfg_path, _ = tiny_config_file(tmp_path)
        out = str(tmp_path / "run_q")
        assert main(["pipeline", "--config", cfg_path, "--data", data,
                     "--out", out, "--variant", "target_only"]) == 0
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


SOURCE_FILES = [f"{name}{suffix}" for name in ("alpha", "beta")
                for suffix in (".edges", ".csv", ".features.csv")]
TARGET_FILES = ["tee.edges", "tee.csv", "tee.features.csv"]


class TestStageInputs:
    @pytest.mark.parametrize("command, expected", [
        ("embed", ["alpha.edges", "beta.edges", "tee.edges"]),
        ("pretrain", SOURCE_FILES + ["tee.edges", "tee.features.csv"]),
        ("finetune", TARGET_FILES),
        ("evaluate", TARGET_FILES),
        ("export-embeddings", [f"{name}{suffix}"
                               for name in ("alpha", "beta", "tee")
                               for suffix in (".edges", ".features.csv")]),
    ])
    def test_each_command_reads_only_its_inputs(self, synthed, monkeypatch,
                                                command, expected):
        data, cfg_path, _, tmp_path = synthed
        common = ["--config", cfg_path, "--data", data,
                  "--out", str(tmp_path / "o")]
        assert main(["pipeline", *common]) == 0
        opened = []
        for module, name in ((cli, "load_graph"), (dio, "load_series"),
                             (n2v, "load_features")):
            def wrapper(path, *args, _load=getattr(module, name)):
                opened.append(os.path.basename(path))
                return _load(path, *args)
            monkeypatch.setattr(module, name, wrapper)
        assert main([command, *common]) == 0
        assert sorted(opened) == sorted(expected)

    def test_target_stages_ignore_a_malformed_source_series(self, synthed):
        data, cfg_path, _, tmp_path = synthed
        common = ["--config", cfg_path, "--data", data,
                  "--out", str(tmp_path / "o"), "--variant", "target_only"]
        assert main(["embed", *common]) == 0
        with open(os.path.join(data, "alpha.csv"), "a") as fh:
            fh.write("not,a,row\n")
        assert main(["finetune", *common]) == 0
        assert main(["evaluate", *common]) == 0
        # the source series is still read, and refused, where it is an input
        assert main(["pretrain", *common, "--variant", "full"]) == 1


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

    def test_evaluate_rejects_checkpoint_without_the_target_stats(self, synthed,
                                                                  capsys):
        data, cfg_path, _, tmp_path = synthed
        out = str(tmp_path / "o")
        common = ["--config", cfg_path, "--data", data, "--out", out]
        for stage in ("embed", "pretrain", "finetune"):
            assert main([stage, *common]) == 0
        path = os.path.join(out, "finetuned.ckpt")
        lines = open(path).read().splitlines(keepends=True)
        with open(path, "w") as fh:
            fh.writelines(ln for ln in lines if not ln.startswith("stats.tee."))
        capsys.readouterr()
        assert main(["evaluate", *common]) == 1
        err = capsys.readouterr().err
        assert err == ("error: checkpoint holds no normalization stats for "
                       "domain 'tee'\n")
        assert not [f for f in os.listdir(out) if f.startswith("report_")]

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

    @pytest.mark.parametrize("trained, label, message", [
        ("full", "wo_pri", "is not part of a 'wo_pri' model"),
        ("full", "temporal_forecaster",
         "is not part of a 'temporal_forecaster' model"),
        ("wo_pri", "full", "missing parameter encoder.private."),
        ("temporal_forecaster", "full", "missing parameter encoder.target."),
    ])
    def test_evaluate_refuses_a_checkpoint_of_another_variant(
            self, synthed, capsys, trained, label, message):
        data, cfg_path, _, tmp_path = synthed
        out = str(tmp_path / "o")
        common = ["--config", cfg_path, "--data", data, "--out", out]
        assert main(["pipeline", *common, "--variant", trained]) == 0

        def files():
            return {f: open(os.path.join(out, f), "rb").read()
                    for f in sorted(os.listdir(out))}
        before = files()
        capsys.readouterr()
        assert main(["evaluate", *common, "--variant", label]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err
        # no report written, every existing one byte-unchanged
        assert files() == before

    @pytest.mark.parametrize("suffix", [".csv", ".features.csv"])
    def test_unreadable_cell_names_file_line_and_column(self, synthed, capsys,
                                                        suffix):
        data, cfg_path, _, tmp_path = synthed
        assert main(["embed", "--config", cfg_path, "--data", data]) == 0
        path = os.path.join(data, "tee" + suffix)
        lines = open(path).read().splitlines(keepends=True)
        cells = lines[2].split(",")
        cells[1] = "abc"
        lines[2] = ",".join(cells)
        with open(path, "w") as fh:
            fh.writelines(lines)
        column = lines[0].split(",")[1]
        capsys.readouterr()
        assert main(["finetune", "--config", cfg_path, "--data", data,
                     "--out", str(tmp_path / "o"),
                     "--variant", "target_only"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"{path}, line 3, column {column}: cannot read 'abc'" in err

    def test_embed_checks_every_edge_list_before_writing(self, synthed):
        data, cfg_path, _, _ = synthed
        assert main(["embed", "--config", cfg_path, "--data", data]) == 0
        feats = {}
        for name in ("alpha", "beta"):
            with open(os.path.join(data, f"{name}.features.csv"), "rb") as fh:
                feats[name] = fh.read()
        os.remove(os.path.join(data, "tee.edges"))
        assert main(["embed", "--config", cfg_path, "--data", data,
                     "--seed", "5"]) == EXIT_BAD_ARGS
        for name, text in feats.items():
            with open(os.path.join(data, f"{name}.features.csv"), "rb") as fh:
                assert fh.read() == text

    @pytest.mark.parametrize("blas", ["1", None], ids=["forked", "serial"])
    def test_embed_failing_city_leaves_every_features_file(
            self, synthed, capsys, monkeypatch, blas):
        data, cfg_path, _, _ = synthed
        assert main(["embed", "--config", cfg_path, "--data", data]) == 0
        paths = [os.path.join(data, f"{name}.features.csv")
                 for name in ("alpha", "beta", "tee")]
        before = {}
        for path in paths:
            with open(path, "rb") as fh:
                before[path] = fh.read()
        raw_features = n2v.raw_features

        def failing_on_beta(graph, *args):
            if graph.n_nodes == 9:  # beta, the second city
                raise ValueError("beta cannot be embedded")
            return raw_features(graph, *args)

        monkeypatch.setattr(n2v, "raw_features", failing_on_beta)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        if blas:
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", blas)
        capsys.readouterr()
        assert main(["embed", "--config", cfg_path, "--data", data,
                     "--seed", "5"]) == 1
        assert capsys.readouterr().err == "error: beta cannot be embedded\n"
        for path in paths:
            with open(path, "rb") as fh:
                assert fh.read() == before[path]
        assert_no_child_left()

    @pytest.mark.parametrize("key, value", [
        ("horizon", "3"), ("embed_dim", True), ("learning_rate", False),
        ("source_domains", ["alpha", "alpha"]),
        ("source_domains", ["alpha", "tee"]), ("target_train_days", 0),
        ("skipgram_negatives", -1), ("skipgram_window", 0),
        ("target_domain", ""), ("source_domains", ["alpha", ""]),
    ], ids=["str-int", "bool-int", "bool-float", "repeated-source",
            "target-as-source", "no-train-days", "negative-negatives",
            "no-window", "empty-target", "empty-source"])
    def test_config_value_refused_before_any_stage(self, synthed, capsys,
                                                   key, value):
        data, cfg_path, cfg, tmp_path = synthed
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({**cfg.to_dict(), key: value}))
        out = tmp_path / "run"
        assert main(["pipeline", "--config", str(config), "--data", data,
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {config}: ") and err.count("\n") == 1
        assert repr(key) in err
        assert not os.path.exists(os.path.join(data, "alpha.features.csv"))
        assert not os.path.exists(out)

    def test_compare_needs_two_reports(self, tmp_path):
        os.makedirs(tmp_path / "empty", exist_ok=True)
        assert main(["compare", str(tmp_path / "empty")]) == EXIT_BAD_ARGS

    def test_bad_override(self, tmp_path):
        code = main(["pretrain", "--set", "bogus=1",
                     "--data", str(tmp_path), "--out", str(tmp_path / "o")])
        assert code == 1

    @pytest.mark.parametrize("argv, names", [
        (["--set", "horizon=abc"], ["'horizon'", "'abc'"]),
        (["--set", "split_ratios=0.7;x;0.2"], ["'split_ratios'", "'0.7;x;0.2'"]),
        (["--set", "foo"], ["'foo'", "KEY=VALUE"]),
        (["--config", "{config}"], ["{config}: "]),
    ], ids=["int-value", "list-value", "no-equals", "malformed-config"])
    def test_config_errors_name_the_key_item_or_file(self, tmp_path, capsys,
                                                     argv, names):
        config = tmp_path / "broken.json"
        config.write_text('{"horizon": 3,,}')
        argv = [a.format(config=config) for a in argv]
        assert main(["pretrain", *argv, "--data", str(tmp_path),
                     "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        for name in names:
            assert name.format(config=config) in err

    def test_unreadable_edge_list_names_the_file(self, synthed, capsys):
        data, cfg_path, _, _ = synthed
        path = os.path.join(data, "beta.edges")
        with open(path, "w") as fh:
            fh.write("# no edges\n")
        assert main(["embed", "--config", cfg_path, "--data", data]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {path}: empty edge list\n"

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

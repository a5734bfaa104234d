import argparse
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from crosscity import checkpoint as ck
from crosscity import cli
from crosscity import data as dio
from crosscity import node2vec as n2v
from crosscity.cli import EXIT_BAD_ARGS, main
from crosscity.config import VARIANTS, ExperimentConfig, variant_stages

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
        ("name = hamlet\npeak_amplitudes = 300;250;400\npeak_hours = 8\n", 1),
        ("name = hamlet\ntopology = star\ndays = 1\n", 1),
        ("name = alpha\nn_nodes = 5\ntopology = ring\ndays = 1\n", 1),
        ("name = hamlet\ndays = 1\ninterval_minutes = 1440\n", 1),
    ], ids=["one-node-ring", "missing", "bad-value", "unpaired-peaks",
            "unknown-topology", "name-taken", "one-step"])
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

    def test_second_city_of_one_name_names_both_specs(self, tmp_path, capsys):
        good = write_specs(tmp_path)[0]
        bad = tmp_path / "alpha2.spec"
        bad.write_text("name = alpha\nn_nodes = 5\ntopology = ring\ndays = 1\n")
        out = tmp_path / "x"
        assert main(["synth", "--out", str(out), good, str(bad)]) == 1
        assert capsys.readouterr().err == (
            f"error: {bad}: city 'alpha' is also named by {good}\n")
        assert not out.exists()

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

    @pytest.mark.parametrize("key, value, why", [
        ("interval_minutes", "0", "expected at least 1, got 0"),
        ("days", "0", "expected at least 1, got 0"),
        ("days", "-2", "expected at least 1, got -2"),
        ("peak_width_hours", "0", "expected a value above 0, got 0.0"),
        ("peak_width_hours", "-1.5", "expected a value above 0, got -1.5"),
        ("interval_minutes", "2000", "expected at most 1440, got 2000"),
        ("n_nodes", "-3", "expected at least 1, got -3"),
        ("n_nodes", "0", "expected at least 1, got 0"),
        ("topology", "star",
         "expected one of ring, grid, random-geometric, got 'star'"),
        # an empty name would write the hidden files .csv and .edges, a
        # slash a file outside --out, a space an unloadable checkpoint, a
        # comma exported rows wider than their header
        *(("name", name, "expected city names that are not empty and hold "
                         f"no whitespace, '/' or ',', got {name!r}")
          for name in ("", "x/y", "two words", "a,b")),
        # a non-finite value would write a series load_series refuses
        *((key, value, f"expected a finite value, got {got}")
          for key, value, got in (
              ("base_flow", "nan", "nan"),
              ("peak_amplitudes", "nan;250", "(nan, 250.0)"),
              ("peak_hours", "8;inf", "(8.0, inf)"),
              ("phase_shift_hours", "nan", "nan"),
              ("node_scale_spread", "inf", "inf"),
              ("smoothing", "nan", "nan"),
              ("noise_level", "inf", "inf"),
              ("peak_width_hours", "inf", "inf"))),
    ], ids=["no-interval", "no-days", "negative-days", "no-peak-width",
            "negative-peak-width", "interval-over-a-day", "negative-nodes",
            "no-nodes", "unknown-topology", "empty-name", "slash-name",
            "space-name", "comma-name", "nan-base-flow", "nan-peak-amplitude",
            "inf-peak-hour", "nan-phase-shift", "inf-node-scale-spread",
            "nan-smoothing", "inf-noise-level", "inf-peak-width"])
    def test_spec_value_out_of_range_writes_no_city(self, tmp_path, capsys,
                                                    key, value, why):
        # the good spec comes first; nothing of it may reach --out
        good = write_specs(tmp_path)[0]
        bad = tmp_path / "town.spec"
        fields = {"name": "town", "n_nodes": "6", "topology": "ring", key: value}
        bad.write_text("".join(f"{k} = {v}\n" for k, v in fields.items()))
        out = tmp_path / "x"
        assert main(["synth", "--out", str(out), good, str(bad)]) == 1
        assert capsys.readouterr().err == (
            f"error: {bad}: synthetic spec key {key!r}: {why}\n")
        assert not out.exists()

    def test_bad_spec_value_names_file_and_key(self, tmp_path, capsys):
        bad = tmp_path / "town.spec"
        bad.write_text("name = town\nn_nodes = ten\n")
        assert main(["synth", "--out", str(tmp_path / "x"), str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ")
        assert "'n_nodes'" in err and "'ten'" in err and "Traceback" not in err

    def test_repeated_spec_key_writes_nothing(self, tmp_path, capsys):
        bad = tmp_path / "town.spec"
        bad.write_text("name = a\n# a comment\nn_nodes = 6\ntopology = ring\n"
                       "name = b\n")
        out = tmp_path / "x"
        assert main(["synth", "--out", str(out), str(bad)]) == 1
        assert capsys.readouterr().err == (
            f"error: {bad}: synthetic spec key 'name' appears on lines 1 and 5\n")
        assert not out.exists()


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


class TestStageInputsOfEachVariant:
    @pytest.mark.parametrize("variant, command, expected", [
        ("full", "finetune", TARGET_FILES + ["pretrained.ckpt"]),
        ("target_only", "finetune", TARGET_FILES),
        ("temporal_forecaster", "finetune", TARGET_FILES),
        ("target_only", "evaluate", TARGET_FILES + ["finetuned.ckpt"]),
        ("temporal_forecaster", "evaluate", TARGET_FILES + ["finetuned.ckpt"]),
    ])
    def test_reads_the_target_and_only_the_checkpoints_of_its_stages(
            self, synthed, monkeypatch, variant, command, expected):
        data, cfg_path, _, tmp_path = synthed
        common = ["--config", cfg_path, "--data", data,
                  "--out", str(tmp_path / "o"), "--variant", variant]
        assert main(["pipeline", *common]) == 0
        opened = []
        for module, name in ((cli, "load_graph"), (dio, "load_series"),
                             (n2v, "load_features"), (ck, "load_checkpoint")):
            def wrapper(path, *args, _load=getattr(module, name), **kw):
                opened.append(os.path.basename(path))
                return _load(path, *args, **kw)
            monkeypatch.setattr(module, name, wrapper)
        assert main([command, *common]) == 0
        assert sorted(opened) == sorted(expected)


class TestRunner:
    def test_pipeline_parses_its_config_once(self, synthed, monkeypatch):
        data, cfg_path, _, tmp_path = synthed
        texts = []
        from_json = ExperimentConfig.from_json

        def counting(text):
            texts.append(text)
            return from_json(text)
        monkeypatch.setattr(ExperimentConfig, "from_json", counting)
        assert main(["pipeline", "--config", cfg_path, "--data", data,
                     "--out", str(tmp_path / "o")]) == 0
        assert len(texts) == 1

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_manifest_lists_the_variant_stages(self, synthed, variant):
        data, cfg_path, _, tmp_path = synthed
        out = tmp_path / "o"
        assert main(["pipeline", "--config", cfg_path, "--data", data,
                     "--out", str(out), "--variant", variant]) == 0
        lines = (out / "manifest.txt").read_text().splitlines()
        assert lines == ["stages=" + ",".join(variant_stages(variant)),
                         f"variant={variant}"]

    @pytest.mark.parametrize("command", ["pretrain", "finetune", "pipeline"])
    def test_training_commands_take_replay_log(self, command):
        assert cli.build_parser().parse_args([command, "--replay-log"]).replay_log

    @pytest.mark.parametrize("command", ["embed", "evaluate",
                                         "export-embeddings"])
    def test_other_commands_refuse_replay_log(self, tmp_path, capsys, command):
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main([command, "--replay-log", "--data", str(tmp_path),
                  "--out", str(out)])
        assert exc.value.code == EXIT_BAD_ARGS
        assert "unrecognized arguments: --replay-log" in capsys.readouterr().err
        assert not out.exists()


class TestErrors:
    def test_features_of_another_embed_dim_refused_before_any_write(
            self, synthed, capsys):
        data, cfg_path, _, tmp_path = synthed
        assert main(["embed", "--config", cfg_path, "--data", data]) == 0
        out = tmp_path / "o"
        capsys.readouterr()
        assert main(["pretrain", "--config", cfg_path, "--data", data,
                     "--out", str(out), "--set", "embed_dim=16"]) == 1
        path = os.path.join(data, "alpha.features.csv")
        assert capsys.readouterr().err == (
            f"error: {path}: 8 features per node, but embed_dim is 16; "
            f"run `embed` again\n")
        assert not out.exists()

    def test_features_not_one_row_per_node_refused_before_any_write(
            self, synthed, capsys):
        data, cfg_path, _, tmp_path = synthed
        assert main(["embed", "--config", cfg_path, "--data", data]) == 0
        path = os.path.join(data, "tee.features.csv")
        lines = open(path).read().splitlines(keepends=True)
        with open(path, "w") as fh:
            fh.writelines(lines[:-1])  # node 6 of 7 gone
        out = tmp_path / "o"
        capsys.readouterr()
        assert main(["finetune", "--config", cfg_path, "--data", data,
                     "--out", str(out), "--variant", "target_only"]) == 1
        edges = os.path.join(data, "tee.edges")
        assert capsys.readouterr().err == (
            f"error: {path}: 6 rows, but the edge list {edges} has 7 nodes; "
            f"run `embed` again\n")
        assert not out.exists()

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
        assert err == (f"error: {path}: checkpoint missing parameter "
                       f"forecaster.head.b\n")

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
        assert err == (f"error: {path}: checkpoint holds no normalization "
                       f"stats for domain 'tee'\n")
        assert not [f for f in os.listdir(out) if f.startswith("report_")]

    def test_evaluate_rejects_checkpoint_with_zero_std(self, synthed, capsys):
        data, cfg_path, _, tmp_path = synthed
        out = str(tmp_path / "o")
        common = ["--config", cfg_path, "--data", data, "--out", out]
        for stage in ("embed", "pretrain", "finetune"):
            assert main([stage, *common]) == 0
        path = os.path.join(out, "finetuned.ckpt")
        lines = open(path).read().splitlines(keepends=True)
        with open(path, "w") as fh:
            fh.writelines("stats.tee.std shape - values 0.0\n"
                          if ln.startswith("stats.tee.std ") else ln
                          for ln in lines)
        capsys.readouterr()
        assert main(["evaluate", *common]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"{path}: line " in err
        assert "stats.tee.std is 0.0; a std must be above 0" in err
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
        assert f"{path}: line " in err

    def test_evaluate_refuses_a_record_of_negative_dimensions(self, synthed,
                                                               capsys):
        # (-1) * (-8) = 8 values, as many as the record holds
        data, cfg_path, _, tmp_path = synthed
        out = str(tmp_path / "o")
        common = ["--config", cfg_path, "--data", data, "--out", out,
                  "--variant", "full"]
        assert main(["pipeline", *common]) == 0
        path = os.path.join(out, "finetuned.ckpt")
        lines = open(path).read().splitlines(keepends=True)
        name, _, shape, rest = lines[4].split(" ", 3)
        assert shape == "8"
        lines[4] = f"{name} shape -1,-8 {rest}"
        with open(path, "w") as fh:
            fh.writelines(lines)
        before = _file_bytes(out, data)
        capsys.readouterr()
        assert main(["evaluate", *common]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {path}: line 5: bad shape '-1,-8'\n"
        assert _file_bytes(out, data) == before

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
        assert err.startswith(f"error: {os.path.join(out, 'finetuned.ckpt')}: ")
        assert err.count("\n") == 1 and message in err
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
        ("eta", -1.0), ("n_features", 2), ("grad_clip_norm", -1.0),
        ("grad_clip_norm", 0.0), ("early_stop_patience", -5),
        ("early_stop_patience", 0),
        # a one-node walk holds no context pair: `embed` found that only in
        # its workers, after the pipeline had named its stage in RUN
        ("walk_length", 1),
        # JSON's Infinity, which the range rules alone passed: a skipgram_lr
        # of Infinity wrote nan features before the run failed
        ("eta", math.inf), ("learning_rate", math.inf),
        ("skipgram_lr", math.inf), ("walk_p", math.inf), ("walk_q", math.inf),
        ("grad_clip_norm", math.inf),
    ], ids=["str-int", "bool-int", "bool-float", "repeated-source",
            "target-as-source", "no-train-days", "negative-negatives",
            "no-window", "empty-target", "empty-source", "negative-eta",
            "two-features", "negative-clip", "no-clip", "negative-patience",
            "no-patience", "one-node-walk", "infinite-eta",
            "infinite-learning-rate", "infinite-skipgram-lr", "infinite-walk-p",
            "infinite-walk-q", "infinite-clip"])
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

    def test_repeated_config_key_refused_before_any_stage(self, synthed, capsys):
        data, cfg_path, cfg, tmp_path = synthed
        text = cfg.to_json()
        config = tmp_path / "repeated.json"
        config.write_text(text.replace('"seed": 0', '"seed": 0,\n  "seed": 1'))
        out = tmp_path / "run"
        assert main(["pipeline", "--config", str(config), "--data", data,
                     "--out", str(out)]) == 1
        line = text[:text.index('"seed"')].count("\n") + 1
        assert capsys.readouterr().err == (
            f"error: {config}: config key 'seed' appears on lines {line} and "
            f"{line + 1}\n")
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

    @pytest.mark.parametrize("rel, argv", [
        ("data/tee.csv", ["finetune", "--variant", "target_only"]),
        ("data/alpha.edges", ["embed"]),
        ("data/tee.features.csv", ["evaluate", "--variant", "target_only"]),
        ("a.spec", ["synth", "--out", "{tmp}/data2", "{tmp}/a.spec",
                    "{tmp}/b.spec", "{tmp}/t.spec"]),
        ("o/finetuned.ckpt", ["evaluate", "--variant", "target_only"]),
        ("o/report_ha_h3_s0.txt", ["compare", "{tmp}/o"]),
        ("config.json", ["evaluate", "--variant", "target_only"]),
    ], ids=lambda v: v if isinstance(v, str) else v[0])
    def test_input_that_is_not_text_is_refused_by_name(self, synthed, capsys,
                                                       rel, argv):
        data, cfg_path, _, tmp_path = synthed
        common = ["--config", cfg_path, "--data", data, "--out",
                  str(tmp_path / "o")]
        assert main(["pipeline", *common, "--variant", "target_only"]) == 0
        path = str(tmp_path / rel)
        with open(path, "ab") as fh:
            fh.write(b"\xff")
        before = _tree_bytes(tmp_path)
        argv = [a.format(tmp=tmp_path) for a in argv]
        capsys.readouterr()
        # synth and compare take no config
        assert main(argv if argv[0] in ("synth", "compare")
                    else [*argv, *common]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: byte 0xff is not ")
        assert err.count("\n") == 1
        assert _tree_bytes(tmp_path) == before

    @pytest.mark.parametrize("command", ["finetune", "export-embeddings"])
    def test_pretrained_checkpoint_refused_after_loading_names_its_file(
            self, synthed, capsys, command):
        data, cfg_path, _, tmp_path = synthed
        out = str(tmp_path / "o")
        common = ["--config", cfg_path, "--data", data, "--out", out]
        for stage in ("embed", "pretrain"):
            assert main([stage, *common]) == 0
        path = os.path.join(out, "pretrained.ckpt")
        lines = open(path).read().splitlines(keepends=True)
        with open(path, "w") as fh:
            fh.writelines(ln for ln in lines
                          if not ln.startswith("encoder.target.layer0.eps "))
        before = _tree_bytes(tmp_path)
        capsys.readouterr()
        assert main([command, *common]) == 1
        assert capsys.readouterr().err == (
            f"error: {path}: checkpoint missing parameter "
            f"encoder.target.layer0.eps\n")
        assert _tree_bytes(tmp_path) == before

    @pytest.mark.parametrize("command, stage, other", [
        ("finetune", "pretrained", "finetuned"),
        ("export-embeddings", "pretrained", "finetuned"),
        ("evaluate", "finetuned", "pretrained")])
    def test_checkpoint_of_the_other_stage_refused_by_name(
            self, synthed, capsys, command, stage, other):
        data, cfg_path, _, tmp_path = synthed
        out = str(tmp_path / "o")
        common = ["--config", cfg_path, "--data", data, "--out", out]
        assert main(["pipeline", *common]) == 0
        path = os.path.join(out, f"{stage}.ckpt")
        with open(os.path.join(out, f"{other}.ckpt"), "rb") as src:
            with open(path, "wb") as dst:
                dst.write(src.read())
        before = _tree_bytes(tmp_path)
        capsys.readouterr()
        assert main([command, *common]) == 1
        assert capsys.readouterr().err == (
            f"error: {path}: expected a {stage!r} checkpoint, got {other!r}\n")
        assert _tree_bytes(tmp_path) == before

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


class TestSeedAndInterval:
    @pytest.mark.parametrize("command", sorted(cli.COMMANDS))
    def test_negative_seed_flag_refused_before_any_write(self, synthed, capsys,
                                                         command):
        data, cfg_path, _, tmp_path = synthed
        before = sorted(os.listdir(data))
        out = tmp_path / "run"
        assert main([command, "--config", cfg_path, "--data", data,
                     "--out", str(out), "--seed", "-1"]) == 1
        assert capsys.readouterr().err == (
            "error: --seed: expected at least 0, got -1\n")
        assert not out.exists() and sorted(os.listdir(data)) == before

    def test_synth_refuses_a_negative_seed_flag(self, tmp_path, capsys):
        out = tmp_path / "x"
        assert main(["synth", "--out", str(out), "--seed", "-2",
                     *write_specs(tmp_path)]) == 1
        assert capsys.readouterr().err == (
            "error: --seed: expected at least 0, got -2\n")
        assert not out.exists()

    @pytest.mark.parametrize("key, value, why", [
        ("interval_minutes", "7", "expected a divisor of 1440, got 7"),
        ("interval_minutes", "1000", "expected a divisor of 1440, got 1000"),
        ("seed", "-1", "expected at least 0, got -1"),
    ], ids=["seven-minutes", "not-a-whole-day", "negative-seed"])
    def test_spec_refused_writes_no_city(self, tmp_path, capsys, key, value,
                                         why):
        good = write_specs(tmp_path)[0]
        bad = tmp_path / "town.spec"
        bad.write_text(f"name = town\nn_nodes = 6\ntopology = ring\n"
                       f"{key} = {value}\n")
        out = tmp_path / "x"
        assert main(["synth", "--out", str(out), good, str(bad)]) == 1
        assert capsys.readouterr().err == (
            f"error: {bad}: synthetic spec key {key!r}: {why}\n")
        assert not out.exists()


class TestEmptySources:
    @pytest.mark.parametrize("command, variant", [
        *(("pipeline", v) for v in VARIANTS
          if "pretrain" in variant_stages(v)), ("pretrain", "wo_da")])
    def test_refused_before_any_write_when_the_variant_pretrains(
            self, synthed, capsys, command, variant):
        data, _, cfg, tmp_path = synthed
        config = tmp_path / "solo.json"
        config.write_text(json.dumps({**cfg.to_dict(), "source_domains": []}))
        out = tmp_path / "run"
        assert main([command, "--config", str(config), "--data", data,
                     "--out", str(out), "--variant", variant]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "'source_domains'" in err and repr(variant) in err
        assert not out.exists()
        assert not os.path.exists(os.path.join(data, "tee.features.csv"))

    @pytest.mark.parametrize("variant", [
        v for v in VARIANTS if "pretrain" not in variant_stages(v)])
    def test_kept_when_the_variant_does_not_pretrain(self, synthed, variant):
        data, _, cfg, tmp_path = synthed
        config = tmp_path / "solo.json"
        config.write_text(json.dumps({**cfg.to_dict(), "source_domains": []}))
        out = tmp_path / "run"
        assert main(["pipeline", "--config", str(config), "--data", data,
                     "--out", str(out), "--variant", variant]) == 0
        assert open(out / "stage.txt").read() == "done\n"


class TestPretrainVariant:
    @pytest.mark.parametrize("variant", [
        v for v in VARIANTS if "pretrain" not in variant_stages(v)])
    def test_refused_before_any_write_when_the_variant_does_not_pretrain(
            self, synthed, capsys, variant):
        data, cfg_path, _, tmp_path = synthed
        assert main(["embed", "--config", cfg_path, "--data", data]) == 0
        capsys.readouterr()
        out = tmp_path / "run"
        assert main(["pretrain", "--config", cfg_path, "--data", data,
                     "--out", str(out), "--variant", variant]) == 1
        assert capsys.readouterr().err == (
            f"error: pretrain does not apply to variant {variant!r}, whose "
            f"stages are {', '.join(variant_stages(variant))}\n")
        assert not out.exists()


class TestNoReportHorizon:
    # reports are of horizons 3, 6 and 12 within the trained one
    @pytest.mark.parametrize("command", ["pipeline", "evaluate"])
    def test_refused_before_any_read_or_write(self, synthed, capsys, command):
        data, cfg_path, _, tmp_path = synthed
        out = tmp_path / "run"
        assert main([command, "--config", cfg_path, "--data", data,
                     "--out", str(out), "--set", "horizon=2"]) == 1
        assert capsys.readouterr().err == (
            "error: config key 'horizon' is 2, below every report horizon "
            "(3, 6, 12), so `evaluate` would write no report\n")
        assert not out.exists()
        assert not os.path.exists(os.path.join(data, "alpha.features.csv"))


def _file_bytes(*dirs):
    """path -> bytes of every file in the directories dirs."""
    return {os.path.join(d, f): open(os.path.join(d, f), "rb").read()
            for d in dirs for f in sorted(os.listdir(d))}


def _tree_bytes(root):
    """path -> bytes of every file under root, and -> None of every
    directory."""
    out = {}
    for d, dirs, files in os.walk(root):
        out.update({os.path.join(d, x): None for x in dirs})
        out.update({os.path.join(d, f): open(os.path.join(d, f), "rb").read()
                    for f in files})
    return out


class TestFailedStage:
    @pytest.mark.parametrize("argv, why", [
        (["pretrain", "--set", "history=300"], "train segment"),
        (["finetune", "--variant", "target_only", "--set", "history=30"],
         "val segment"),
    ], ids=["pretrain", "finetune"])
    def test_leaves_every_file_of_the_run_as_it_was(self, synthed, capsys,
                                                    argv, why):
        data, cfg_path, _, tmp_path = synthed
        out = str(tmp_path / "run")
        assert main(["pipeline", "--config", cfg_path, "--data", data,
                     "--out", out, "--replay-log"]) == 0
        before = _file_bytes(out, data)
        capsys.readouterr()
        assert main([*argv, "--config", cfg_path, "--data", data,
                     "--out", out, "--replay-log"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert why in err
        assert _file_bytes(out, data) == before

    def test_load_config_knows_no_command(self):
        args = argparse.Namespace(config=None, set=["seed=4"], seed=None)
        assert cli._load_config(args) == ExperimentConfig(seed=4)


class TestDivergence:
    @pytest.mark.parametrize("variant, stage", [
        ("full", "pretrain"), ("target_only", "finetune")])
    def test_ends_in_one_error_line_and_writes_no_checkpoint(
            self, synthed, variant, stage):
        # a subprocess, where numpy's overflow warnings stay warnings
        data, cfg_path, _, tmp_path = synthed
        out = tmp_path / "run"
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
        proc = subprocess.run(
            [sys.executable, "-m", "crosscity.cli", "pipeline", "--config",
             cfg_path, "--data", data, "--out", str(out), "--variant", variant,
             "--set", "learning_rate=1e200"],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        errors = [ln for ln in proc.stderr.splitlines() if ln.startswith("error")]
        assert len(errors) == 1
        assert re.fullmatch(rf"error: {stage} step \d+, domain \w+: "
                            rf"non-finite gradient in [\w.]+", errors[0])
        assert sorted(os.listdir(out)) == ["stage.txt"]
        assert (out / "stage.txt").read_text() == f"{stage}\n"


class TestCompareSeeds:
    def test_two_seeds_of_one_variant_refused(self, synthed, capsys):
        data, cfg_path, _, tmp_path = synthed
        out = str(tmp_path / "run")
        for seed in ("0", "1"):
            assert main(["pipeline", "--config", cfg_path, "--data", data,
                         "--out", out, "--seed", seed]) == 0
        capsys.readouterr()
        assert main(["compare", out, "--reference", "ha"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "seeds 0 and 1" in err
        assert not os.path.exists(os.path.join(out, "comparison.csv"))


def test_compare_of_reports_of_two_configs_is_refused(synthed, capsys):
    data, cfg_path, _, tmp_path = synthed
    out = str(tmp_path / "run")
    common = ["--config", cfg_path, "--data", data, "--out", out]
    assert main(["pipeline", *common, "--variant", "full"]) == 0
    assert main(["pipeline", *common, "--variant", "wo_da",
                 "--set", "hidden_dim=4"]) == 0
    capsys.readouterr()
    assert main(["compare", out, "--reference", "ha"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: reports of different configs: ")
    assert err.count("\n") == 1
    assert not os.path.exists(os.path.join(out, "comparison.csv"))


def test_compare_of_a_mistyped_report_ends_in_one_error_line(synthed, capsys):
    data, cfg_path, _, tmp_path = synthed
    out = tmp_path / "run"
    assert main(["pipeline", "--config", cfg_path, "--data", data,
                 "--out", str(out)]) == 0
    report = out / "report_ha_h3_s0.txt"
    report.write_text(report.read_text().replace("horizon=3\n", "horizon='3'\n"))
    capsys.readouterr()
    assert main(["compare", str(out), "--reference", "ha"]) == 1
    assert capsys.readouterr().err == (
        f"error: {report}: report key 'horizon': expected int, got '3'\n")
    assert not (out / "comparison.csv").exists()


class TestNumericWarnings:
    def test_divergence_writes_only_its_error_line(self, synthed):
        # a subprocess, where numpy's overflow warnings would stay warnings
        data, cfg_path, _, tmp_path = synthed
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
        proc = subprocess.run(
            [sys.executable, "-m", "crosscity.cli", "pipeline", "--config",
             cfg_path, "--data", data, "--out", str(tmp_path / "run"),
             "--set", "learning_rate=1e200"],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 1
        assert re.fullmatch(r"error: pretrain step \d+, domain \w+: "
                            r"non-finite gradient in [\w.]+\n", proc.stderr), proc.stderr


def test_mixed_timezone_series_ends_in_one_error_line(synthed, capsys):
    data, cfg_path, _, tmp_path = synthed
    csv = os.path.join(data, "tee.csv")
    with open(csv) as fh:
        header, first, *rest = fh.read().splitlines(keepends=True)
    with open(csv, "w") as fh:
        fh.writelines([header, first.replace(",", "+00:00,", 1), *rest])
    capsys.readouterr()
    assert main(["pipeline", "--config", cfg_path, "--data", data,
                 "--out", str(tmp_path / "run"), "--variant", "target_only"]) == 1
    assert capsys.readouterr().err == (
        f"error: {csv}, line 3: a timezone-naive timestamp after "
        f"timezone-aware ones\n")

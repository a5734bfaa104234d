"""The three benchmark workloads and the pipeline stages each one times.

Every workload builds its cities in-process, then runs the four stages
embed -> pretrain -> finetune -> evaluate as a closed loop: a stage starts
when the previous one returns. The seed is the experiment seed (walks,
initialisation, batches); every workload keeps its cities fixed so every
seed does the same amount of work. The in-process workloads call the
public API; ``cli-roundtrip`` goes through ``crosscity.cli.main`` so every
stage reads and writes files in one run directory.

Stage functions call the library through module attributes
(``train.pretrain``, not a name imported from it), so the wrappers that the
traced run installs on those attributes see the calls.
"""

from __future__ import annotations

import contextlib
import io
import os

from crosscity import checkpoint as ck
from crosscity import cli
from crosscity import data as dio
from crosscity import graph as gr
from crosscity import metrics as mx
from crosscity import node2vec as n2v
from crosscity import train
from crosscity.config import ExperimentConfig
from crosscity.data import SyntheticCitySpec


class Workload:
    """One benchmark workload.

    ``setup`` builds the inputs (timed as ``setup_s``), ``stage`` runs one
    pipeline stage on a per-repetition context dict, ``outputs`` reads back
    what the output checks compare, and ``domains`` gives the cities with
    their features to the microbenchmarks.
    """

    name = ""
    variant = "full"
    # wrapped functions that must record calls on this workload (beyond the
    # ones every workload exercises) and ones that must record none
    must_fire = ()
    must_not_fire = ()

    def __init__(self, seed, toy, workdir):
        self.seed = seed
        self.toy = toy
        self.workdir = workdir
        self.cfg = self.config()


# -- in-process workloads ---------------------------------------------------

class InProcess(Workload):
    must_fire = ("adversary.adversarial_loss",)

    def specs(self):
        raise NotImplementedError

    def setup(self):
        return [(spec.name,) + dio.synth_generate(spec) for spec in self.specs()]

    def stage(self, name, ctx, inputs):
        cfg = self.cfg
        if name == "embed":
            domains = []
            for city, graph, series in inputs:
                feats = n2v.raw_features(
                    graph, cfg.embed_dim, cfg.walks_per_node, cfg.walk_length,
                    cfg.walk_p, cfg.walk_q, cfg.skipgram_window,
                    cfg.skipgram_negatives, cfg.skipgram_epochs,
                    cfg.skipgram_lr, cfg.seed)
                domains.append(train.DomainData(city, graph, feats, series))
            ctx["sources"], ctx["target"] = domains[:-1], domains[-1]
        elif name == "pretrain":
            series = ctx["target"].series
            before = series.read_count
            ctx["pre"] = train.pretrain(cfg, ctx["sources"], ctx["target"],
                                        variant=self.variant)
            ctx["target_reads"] = series.read_count - before
        elif name == "finetune":
            ctx["fin"] = train.finetune(ctx["pre"], ctx["target"], cfg,
                                        variant=self.variant)
        elif name == "evaluate":
            hs = tuple(h for h in (3, 6, 12) if h <= cfg.horizon)
            ctx["reports"] = (
                mx.evaluate(ctx["fin"], cfg, ctx["target"], hs, self.variant)
                + mx.evaluate_ha(cfg, ctx["target"], hs))

    def outputs(self, ctx, rep):
        """Checkpoint texts, the model and HA MAE at horizon 3, the target
        read count across pretrain, and whether a save/load round-trip of
        both checkpoints compares equal."""
        texts, round_trip = {}, True
        for key in ("pre", "fin"):
            path = os.path.join(self.workdir, f"rep{rep}.{key}.ckpt")
            ck.save_checkpoint(ctx[key], path)
            with open(path) as fh:
                texts[key] = fh.read()
            round_trip = round_trip and ck.load_checkpoint(path) == ctx[key]
            os.remove(path)
        return {
            "ckpt_text": texts,
            "mae_h3": _mae_h3(ctx["reports"], self.variant),
            "ha_mae_h3": _mae_h3(ctx["reports"], "ha"),
            "target_reads": ctx["target_reads"],
            "checks": {"checkpoint_round_trip": round_trip},
        }

    def domains(self, ctx, inputs):
        return ctx["sources"] + [ctx["target"]]


def _mae_h3(reports, variant):
    return next(r.mae for r in reports if r.variant == variant and r.horizon == 3)


# The acceptance transfer setup, mirrored from tests/test_acceptance.py
# (bench/smoke.py checks that the two stay equal).
CITY_SPECS = {
    "metro": SyntheticCitySpec(name="metro", n_nodes=24, topology="ring",
                               days=7, seed=11, phase_shift_hours=0.0,
                               peak_amplitudes=(320.0, 260.0)),
    "port": SyntheticCitySpec(name="port", n_nodes=22, topology="ring",
                              days=7, seed=12, phase_shift_hours=-0.5,
                              peak_amplitudes=(280.0, 300.0)),
    "river": SyntheticCitySpec(name="river", n_nodes=26, topology="ring",
                               days=5, seed=13, phase_shift_hours=0.5,
                               peak_amplitudes=(300.0, 280.0)),
}


def transfer_config(seed):
    return ExperimentConfig(
        source_domains=["metro", "port"], target_domain="river",
        history=12, horizon=3, embed_dim=8, hidden_dim=16,
        classifier_hidden=16,
        walks_per_node=20, walk_length=8, skipgram_epochs=2,
        learning_rate=0.03, momentum=0.0, eta=50.0,
        pretrain_epochs=100, pretrain_batches_per_epoch=8,
        finetune_max_epochs=20, finetune_batches_per_epoch=6,
        early_stop_patience=6, batch_size=64,
        target_train_days=1, seed=seed)


class TransferSmall(InProcess):
    """The acceptance transfer run: three ring cities of 24/22/26 nodes and
    1600 adversarial pretrain steps of a small model."""

    name = "transfer-small"

    def config(self):
        cfg = transfer_config(self.seed)
        # no early stop: every seed does the same finetune work
        cfg.early_stop_patience = cfg.finetune_max_epochs
        if self.toy:
            cfg.walks_per_node, cfg.skipgram_epochs = 2, 1
            cfg.pretrain_epochs, cfg.finetune_max_epochs = 4, 4
        return cfg

    def specs(self):
        return list(CITY_SPECS.values())


class CityLarge(InProcess):
    """Three fixed random-geometric cities of about 500 nodes with the small
    model: graph, windowing and large-batch forecasting dominate."""

    name = "city-large"

    def config(self):
        return ExperimentConfig(
            source_domains=["north", "south"], target_domain="east",
            history=12, horizon=3, embed_dim=8, hidden_dim=16,
            classifier_hidden=16,
            walks_per_node=1, walk_length=8, skipgram_epochs=1,
            learning_rate=0.03, momentum=0.0, eta=50.0,
            pretrain_epochs=2 if self.toy else 4,
            pretrain_batches_per_epoch=8,
            finetune_max_epochs=2 if self.toy else 3,
            finetune_batches_per_epoch=20, early_stop_patience=3, batch_size=64,
            target_train_days=1, seed=self.seed)

    def specs(self):
        sizes = (40, 36, 44) if self.toy else (480, 500, 520)
        shifts = (0.0, -0.5, 0.5)
        amps = ((320.0, 260.0), (280.0, 300.0), (300.0, 280.0))
        return [
            SyntheticCitySpec(name=name, n_nodes=n, topology="random-geometric",
                              days=4, seed=21 + i,
                              phase_shift_hours=shift, peak_amplitudes=amp)
            for i, (name, n, shift, amp) in enumerate(
                zip(("north", "south", "east"), sizes, shifts, amps))
        ]


# -- cli-roundtrip ----------------------------------------------------------

class CliRoundtrip(Workload):
    """synth -> embed -> pretrain -> finetune -> evaluate -> compare through
    ``crosscity.cli.main`` in one run directory, at the paper's default
    widths, variant ``wo_da`` with replay logs on."""

    name = "cli-roundtrip"
    variant = "wo_da"
    must_fire = ("data.load_series", "graph.load_graph",
                 "checkpoint.save_checkpoint", "checkpoint.load_checkpoint",
                 "metrics.MetricReport.read", "node2vec.save_features",
                 "node2vec.load_features")
    must_not_fire = ("adversary.adversarial_loss",)

    def config(self):
        return ExperimentConfig(
            source_domains=["alpha", "beta"], target_domain="gamma",
            history=12, horizon=12,
            embed_dim=16 if self.toy else 64, hidden_dim=16 if self.toy else 64,
            walks_per_node=4, walk_length=8, skipgram_epochs=1,
            pretrain_epochs=4, pretrain_batches_per_epoch=8,
            finetune_max_epochs=4, finetune_batches_per_epoch=8,
            early_stop_patience=4, batch_size=64,
            target_train_days=1, seed=self.seed)

    def _paths(self):
        data = os.path.join(self.workdir, "data")
        return data, os.path.join(self.workdir, "config.json")

    def setup(self):
        data, config_path = self._paths()
        if not os.path.exists(config_path):
            self._write_inputs(config_path)
        _cli("synth", *self._spec_paths(), "--out", data)
        return data

    def _spec_paths(self):
        return [os.path.join(self.workdir, f"{n}.spec")
                for n in self.cfg.source_domains + [self.cfg.target_domain]]

    def _write_inputs(self, config_path):
        os.makedirs(self.workdir, exist_ok=True)
        with open(config_path, "w") as fh:
            fh.write(self.cfg.to_json())
        sizes = (12, 10, 14) if self.toy else (70, 60, 80)
        topologies = ("grid", "random-geometric", "ring")
        for i, (path, n, topo) in enumerate(
                zip(self._spec_paths(), sizes, topologies)):
            name = os.path.basename(path)[:-len(".spec")]
            with open(path, "w") as fh:
                fh.write(f"name = {name}\nn_nodes = {n}\ntopology = {topo}\n"
                         f"days = 4\nseed = {31 + i}\n"
                         f"phase_shift_hours = {0.5 * (i - 1)}\n")

    def _common(self, data, out):
        _, config_path = self._paths()
        return ["--config", config_path, "--data", data, "--out", out,
                "--seed", str(self.seed), "--variant", self.variant]

    def stage(self, name, ctx, data):
        out = ctx["out"]
        common = self._common(data, out)
        if name == "embed":
            _cli("embed", *common)
        elif name == "pretrain":
            _cli("pretrain", *common, "--replay-log")
        elif name == "finetune":
            _cli("finetune", *common, "--replay-log")
        elif name == "evaluate":
            _cli("evaluate", *common)
            _cli("compare", out, "--reference", "ha")

    def outputs(self, ctx, rep):
        """Checkpoint texts, MAE at horizon 3 from the written reports, and
        which domains the pretrained checkpoint holds statistics for."""
        out = ctx["out"]
        texts = {}
        for key, fname in (("pre", "pretrained.ckpt"), ("fin", "finetuned.ckpt")):
            with open(os.path.join(out, fname)) as fh:
                texts[key] = fh.read()
        reports = [mx.MetricReport.read(os.path.join(out, f))
                   for f in sorted(os.listdir(out)) if f.startswith("report_")]
        pre = ck.load_checkpoint(os.path.join(out, "pretrained.ckpt"))
        return {
            "ckpt_text": texts,
            "mae_h3": _mae_h3(reports, self.variant),
            "ha_mae_h3": _mae_h3(reports, "ha"),
            # the CLI never loads the target series for pretrain; its
            # statistics in the checkpoint would show that it was read
            "target_reads": int(self.cfg.target_domain in pre.stats),
            "checks": {"comparison_written": os.path.exists(
                os.path.join(out, "comparison.csv"))},
        }

    def domains(self, ctx, data):
        out = []
        for name in self.cfg.source_domains + [self.cfg.target_domain]:
            graph = gr.load_graph(os.path.join(data, f"{name}.edges"))
            feats = n2v.load_features(os.path.join(data, f"{name}.features.csv"))
            out.append(train.DomainData(name, graph, feats))
        return out


class CliFailed(RuntimeError):
    pass


def _cli(*argv):
    """Run one CLI command with its console output captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        code = cli.main(list(argv))
    if code != 0:
        raise CliFailed(f"crosscity {argv[0]} exited {code}: {buf.getvalue().strip()}")


WORKLOADS = {w.name: w for w in (TransferSmall, CityLarge, CliRoundtrip)}

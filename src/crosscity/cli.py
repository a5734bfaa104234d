"""Command-line entry point orchestrating the experimental protocol.

Subcommands: synth, embed, pretrain, finetune, evaluate, compare,
export-embeddings, pipeline. A run directory always receives the effective
config, the seed, and a version string, which is enough to reproduce the
run exactly.

Data layout inside a directory, per city NAME:
    NAME.edges          edge list ("u,v" per line)
    NAME.csv            traffic series (timestamp,node0,...)
    NAME.features.csv   node2vec raw features (written by `embed`)
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import __version__
from . import checkpoint as ck
from . import data as dio
from . import metrics as mx
from . import node2vec as n2v
from .config import VARIANTS, ExperimentConfig, variant_uses
from .graph import load_graph, save_graph
from .textio import atomic_open
from .train import DomainData, ReplayLog, finetune, pretrain

EXIT_BAD_ARGS = 2


class CliError(RuntimeError):
    def __init__(self, msg, code=1):
        super().__init__(msg)
        self.code = code


def _load_config(args):
    if args.config:
        if not os.path.exists(args.config):
            raise CliError(f"config file not found: {args.config}", EXIT_BAD_ARGS)
        with open(args.config) as fh:
            try:
                cfg = ExperimentConfig.from_json(fh.read())
            except ValueError as exc:
                raise CliError(f"{args.config}: {exc}") from None
    else:
        cfg = ExperimentConfig()
    items = args.set or []
    for kv in items:
        if "=" not in kv:
            raise CliError(f"--set {kv!r}: expected KEY=VALUE")
    cfg = cfg.with_overrides(dict(kv.split("=", 1) for kv in items))
    if args.seed is not None:
        cfg.seed = args.seed
    return cfg


def _echo_config(cfg, out_dir):
    """Record the effective config; call it only once every input check passed."""
    os.makedirs(out_dir, exist_ok=True)
    with atomic_open(os.path.join(out_dir, "config.json")) as fh:
        fh.write(cfg.to_json() + "\n")
    with atomic_open(os.path.join(out_dir, "run_info.txt")) as fh:
        fh.write(f"version={__version__}\nseed={cfg.seed}\n"
                 f"config_hash={cfg.config_hash()}\n")


def _domain_paths(data_dir, name):
    return (os.path.join(data_dir, f"{name}.edges"),
            os.path.join(data_dir, f"{name}.csv"),
            os.path.join(data_dir, f"{name}.features.csv"))


def _existing(path, what):
    if not os.path.exists(path):
        raise CliError(f"missing {path}, the {what}", EXIT_BAD_ARGS)
    return path


def _load_city(data_dir, name, series):
    """City `name`'s graph and node2vec features, and its traffic series
    only when `series` is true."""
    edges, csv, feats = _domain_paths(data_dir, name)
    graph = load_graph(_existing(edges, "edge list"))
    traffic = (dio.load_series(_existing(csv, "series file"), graph)
               if series else None)
    features = n2v.load_features(
        _existing(feats, "features file `embed` writes"))
    return DomainData(name, graph, features, traffic)


# -- subcommands ------------------------------------------------------------

def cmd_synth(args):
    missing = [p for p in args.specs if not os.path.exists(p)]
    if missing:
        raise CliError(f"spec file not found: {missing[0]}", EXIT_BAD_ARGS)
    cities = []
    for spec_path in args.specs:
        spec = dio.load_spec(spec_path)
        if args.seed is not None:
            spec.seed = args.seed
        graph, series = dio.synth_generate(spec)
        if not graph.neighbors[-1]:
            # an edge list records its node count as the highest id it names
            raise CliError(f"{spec_path}: node {graph.n_nodes - 1} of city "
                           f"{spec.name!r} has no edge, so its edge list "
                           f"cannot record n_nodes = {graph.n_nodes}")
        cities.append((spec.name, graph, series))
    # every city generated: only now touch the output directory
    os.makedirs(args.out, exist_ok=True)
    manifest = []
    for name, graph, series in cities:
        edges, csv, _ = _domain_paths(args.out, name)
        save_graph(graph, edges)
        dio.save_series(series, csv)
        manifest.append((name, edges, csv))
    with atomic_open(os.path.join(args.out, "manifest.txt")) as fh:
        for name, edges, csv in manifest:
            fh.write(f"{name} {edges} {csv}\n")
    print(f"wrote {len(manifest)} cities to {args.out}")
    return 0


def cmd_embed(args):
    cfg = _load_config(args)
    names = list(cfg.source_domains) + [cfg.target_domain]
    paths = [_domain_paths(args.data, name) for name in names]
    # every edge list read before any features are written
    graphs = [load_graph(_existing(edges, "edge list")) for edges, _, _ in paths]
    for graph, (_, _, feats_path) in zip(graphs, paths):
        feats = n2v.raw_features(
            graph, cfg.embed_dim, cfg.walks_per_node, cfg.walk_length,
            cfg.walk_p, cfg.walk_q, cfg.skipgram_window, cfg.skipgram_negatives,
            cfg.skipgram_epochs, cfg.skipgram_lr, cfg.seed)
        n2v.save_features(feats, feats_path)
    print(f"embedded {len(names)} cities")
    return 0


def _load_run_checkpoint(args, cfg, stage):
    """The run directory's `stage` checkpoint, written under this config."""
    path = os.path.join(args.out, f"{stage}.ckpt")
    if not os.path.exists(path):
        raise CliError(f"missing {stage} checkpoint {path}", EXIT_BAD_ARGS)
    return ck.load_checkpoint(path, expect_config_hash=cfg.config_hash())


def cmd_pretrain(args):
    cfg = _load_config(args)
    sources = [_load_city(args.data, n, series=True) for n in cfg.source_domains]
    target = _load_city(args.data, cfg.target_domain, series=False)
    _echo_config(cfg, args.out)
    log = ReplayLog() if args.replay_log else None
    ckpt = pretrain(cfg, sources, target, variant=args.variant, replay_log=log)
    ck.save_checkpoint(ckpt, os.path.join(args.out, "pretrained.ckpt"))
    if log is not None:
        log.write(os.path.join(args.out, "replay_pretrain.log"))
    print("pretraining complete")
    return 0


def cmd_finetune(args):
    cfg = _load_config(args)
    target = _load_city(args.data, cfg.target_domain, series=True)
    pre = (_load_run_checkpoint(args, cfg, "pretrained")
           if variant_uses(args.variant).pretrain else None)
    _echo_config(cfg, args.out)
    log = ReplayLog() if args.replay_log else None
    fin = finetune(pre, target, cfg, variant=args.variant, replay_log=log)
    ck.save_checkpoint(fin, os.path.join(args.out, "finetuned.ckpt"))
    if log is not None:
        log.write(os.path.join(args.out, "replay_finetune.log"))
    print("finetuning complete")
    return 0


def cmd_evaluate(args):
    cfg = _load_config(args)
    fin = _load_run_checkpoint(args, cfg, "finetuned")
    target = _load_city(args.data, cfg.target_domain, series=True)
    horizons = tuple(h for h in (3, 6, 12) if h <= cfg.horizon)
    reports = mx.evaluate(fin, cfg, target, horizons, variant=args.variant)
    reports += mx.evaluate_ha(cfg, target, horizons)
    for rep in reports:
        rep.write(os.path.join(
            args.out, f"report_{rep.variant}_h{rep.horizon}_s{rep.seed}.txt"))
    for rep in reports:
        print(f"{rep.variant} h={rep.horizon} MAE={rep.mae:.3f} "
              f"RMSE={rep.rmse:.3f} MAPE={100 * rep.mape:.2f}%")
    return 0


def cmd_compare(args):
    files = [os.path.join(args.reports, f) for f in sorted(os.listdir(args.reports))
             if f.startswith("report_") and f.endswith(".txt")]
    if len(files) < 2:
        raise CliError(f"need at least two reports in {args.reports}", EXIT_BAD_ARGS)
    reports = [mx.MetricReport.read(f) for f in files]
    rows = mx.compare_variants(reports, args.reference)
    out_csv = os.path.join(args.reports, "comparison.csv")
    mx.write_comparison_csv(rows, out_csv)
    print(f"wrote {out_csv}")
    return 0


def cmd_export_embeddings(args):
    cfg = _load_config(args)
    pre = _load_run_checkpoint(args, cfg, "pretrained")
    cities = [_load_city(args.data, n, series=False)
              for n in cfg.source_domains + [cfg.target_domain]]
    out_csv = os.path.join(args.out, "embeddings.csv")
    mx.export_embeddings(pre, cfg, cities, out_csv)
    print(f"wrote {out_csv}")
    return 0


def cmd_pipeline(args):
    _load_config(args)  # a refused config leaves no run directory behind
    os.makedirs(args.out, exist_ok=True)
    stages = ["embed", "finetune", "evaluate"]
    if variant_uses(args.variant).pretrain:
        stages.insert(1, "pretrain")
    marker = os.path.join(args.out, "stage.txt")
    for stage in stages:
        with atomic_open(marker) as fh:
            fh.write(stage + "\n")
        code = {"embed": cmd_embed, "pretrain": cmd_pretrain,
                "finetune": cmd_finetune, "evaluate": cmd_evaluate}[stage](args)
        if code != 0:
            return code
    with atomic_open(os.path.join(args.out, "manifest.txt")) as fh:
        fh.write("stages=" + ",".join(stages) + "\n")
        fh.write(f"variant={args.variant}\n")
    with atomic_open(marker) as fh:
        fh.write("done\n")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="crosscity",
        description="Adversarial cross-city traffic forecasting experiments")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON experiment config")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config key")
        p.add_argument("--out", default="runs/run0", help="run/output directory")
        p.add_argument("--seed", type=int, help="root random seed override")
        p.add_argument("--variant", default="full", choices=VARIANTS,
                       help="model variant")
        p.add_argument("--replay-log", action="store_true",
                       help="write one line per optimizer step")
        p.add_argument("--data", default="runs/data",
                       help="directory with NAME.edges / NAME.csv files")

    p = sub.add_parser("synth", help="generate synthetic cities from spec files")
    p.add_argument("--out", default="runs/data",
                   help="directory the cities are written to, the stages' "
                        "--data default")
    p.add_argument("--seed", type=int,
                   help="seed for every city, replacing its spec's own")
    p.add_argument("specs", nargs="+", help="key=value synthetic city spec files")
    p.set_defaults(func=cmd_synth)

    for name, fn, hlp in [
        ("embed", cmd_embed, "compute node2vec raw features for every city"),
        ("pretrain", cmd_pretrain, "stage-1 adversarial pre-training"),
        ("finetune", cmd_finetune, "stage-2 fine-tuning on the target"),
        ("evaluate", cmd_evaluate, "metrics on the target test split"),
        ("export-embeddings", cmd_export_embeddings,
         "dump raw and shared embeddings as CSV"),
        ("pipeline", cmd_pipeline, "embed -> pretrain -> finetune -> evaluate"),
    ]:
        p = sub.add_parser(name, help=hlp)
        common(p)
        p.set_defaults(func=fn)

    p = sub.add_parser("compare", help="improvement table over a reference variant")
    p.add_argument("reports", help="directory containing report_*.txt files")
    p.add_argument("--reference", default="target_only",
                   help="variant used as the comparison baseline")
    p.set_defaults(func=cmd_compare)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

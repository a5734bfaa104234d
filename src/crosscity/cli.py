"""Command-line entry point orchestrating the experimental protocol.

Subcommands: synth, embed, pretrain, finetune, evaluate, compare,
export-embeddings, pipeline. ``COMMANDS`` is the table of the commands that
run under an experiment config; the parser is built from it, and each such
command loads its config once and hands it to its run. `pipeline` runs the
stages ``config.variant_stages`` names for its variant through the same
table. A training stage that returns records the effective config, the
seed and a version string in its run directory, enough to reproduce it.

Data layout inside a directory, per city NAME:
    NAME.edges          edge list ("u,v" per line)
    NAME.csv            traffic series (timestamp,node0,...)
    NAME.features.csv   node2vec raw features (written by `embed`)
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

import numpy as np

from . import __version__
from . import checkpoint as ck
from . import data as dio
from . import metrics as mx
from . import node2vec as n2v
from .config import VARIANTS, ExperimentConfig, check_pretrain, variant_stages
from .graph import load_graph, save_graph
from .parallel import for_each, shared_empty
from .textio import AT_LEAST_0, atomic_open, open_text
from .train import DomainData, ReplayLog, finetune, pretrain

EXIT_BAD_ARGS = 2


class CliError(RuntimeError):
    def __init__(self, msg, code=1):
        super().__init__(msg)
        self.code = code


def _seed_flag(args):
    """The --seed override, or None; held to the rule of a config's and a
    spec's seed key."""
    expects, ok = AT_LEAST_0
    if args.seed is not None and not ok(args.seed):
        raise CliError(f"--seed: expected {expects}, got {args.seed}")
    return args.seed


def _load_config(args):
    seed = _seed_flag(args)
    if args.config:
        if not os.path.exists(args.config):
            raise CliError(f"config file not found: {args.config}", EXIT_BAD_ARGS)
        with open_text(args.config) as fh:
            text = fh.read()
        try:
            cfg = ExperimentConfig.from_json(text)
        except ValueError as exc:
            raise CliError(f"{args.config}: {exc}") from None
    else:
        cfg = ExperimentConfig()
    items = args.set or []
    for kv in items:
        if "=" not in kv:
            raise CliError(f"--set {kv!r}: expected KEY=VALUE")
    cfg = cfg.with_overrides(dict(kv.split("=", 1) for kv in items))
    if seed is not None:
        cfg.seed = seed
    return cfg


def _echo_config(cfg, out_dir):
    """Record the effective config; call it only once its stage returned."""
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


def _load_city(cfg, args, name, series):
    """City `name`'s graph and node2vec features, and its traffic series
    only when `series` is true. The features must be `embed_dim` wide, one
    row per node of the edge list."""
    edges, csv, feats = _domain_paths(args.data, name)
    graph = load_graph(_existing(edges, "edge list"))
    traffic = (dio.load_series(_existing(csv, "series file"), graph)
               if series else None)
    features = n2v.load_features(
        _existing(feats, "features file `embed` writes"))
    if features.shape[1] != cfg.embed_dim:
        raise CliError(f"{feats}: {features.shape[1]} features per node, but "
                       f"embed_dim is {cfg.embed_dim}; run `embed` again")
    if len(features) != graph.n_nodes:
        raise CliError(f"{feats}: {len(features)} rows, but the edge list "
                       f"{edges} has {graph.n_nodes} nodes; run `embed` again")
    return DomainData(name, graph, features, traffic)


@contextlib.contextmanager
def _checkpoint(cfg, args, stage):
    """The run directory's `stage` checkpoint, written under this config;
    a CheckpointError raised by its stage check or in the block, by a check
    of the checkpoint against the model or the city, names the checkpoint's
    file too."""
    path = _existing(os.path.join(args.out, f"{stage}.ckpt"),
                     f"{stage} checkpoint")
    ckpt = ck.load_checkpoint(path, expect_config_hash=cfg.config_hash())
    try:
        ckpt.check_stage(stage)
        yield ckpt
    except ck.CheckpointError as exc:
        raise ck.CheckpointError(f"{path}: {exc}") from None


# -- commands without a config ----------------------------------------------

def cmd_synth(args):
    seed = _seed_flag(args)
    missing = [p for p in args.specs if not os.path.exists(p)]
    if missing:
        raise CliError(f"spec file not found: {missing[0]}", EXIT_BAD_ARGS)
    cities, spec_of = [], {}
    for spec_path in args.specs:
        spec = dio.load_spec(spec_path)
        if spec.name in spec_of:
            # a second city of one name would overwrite the first's files
            raise CliError(f"{spec_path}: city {spec.name!r} is also named "
                           f"by {spec_of[spec.name]}")
        spec_of[spec.name] = spec_path
        if seed is not None:
            spec.seed = seed
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


# -- commands under a config: each run(cfg, args) gets it loaded ------------

def _embed(cfg, args):
    """node2vec features of every city, into NAME.features.csv. The cities
    are independent, so ``parallel.for_each`` spreads them over worker
    processes, into shared arrays, and no file is written before every city
    is done: a failure leaves the data directory as it was."""
    names = list(cfg.source_domains) + [cfg.target_domain]
    paths = [_domain_paths(args.data, name) for name in names]
    graphs = [load_graph(_existing(edges, "edge list")) for edges, _, _ in paths]
    feats = [shared_empty((graph.n_nodes, cfg.embed_dim)) for graph in graphs]

    def embed(i):
        feats[i][:] = n2v.raw_features(
            graphs[i], cfg.embed_dim, cfg.walks_per_node, cfg.walk_length,
            cfg.walk_p, cfg.walk_q, cfg.skipgram_window, cfg.skipgram_negatives,
            cfg.skipgram_epochs, cfg.skipgram_lr, cfg.seed)

    for_each(embed, range(len(graphs)))
    for city_feats, (_, _, feats_path) in zip(feats, paths):
        n2v.save_features(city_feats, feats_path)
    print(f"embedded {len(names)} cities")


def _train(cfg, args, command, fit):
    """The step `pretrain` and `finetune` share: train with
    `fit(replay_log)`, then echo the config and write the checkpoint and,
    with --replay-log, the log. A fit that fails writes nothing; one that
    diverges ends in one error line."""
    log = ReplayLog() if args.replay_log else None
    try:
        # numpy's overflow and invalid-value warnings of a diverging run
        # would only precede its one error line: the non-finite-gradient
        # check is the failure that counts
        with np.errstate(over="ignore", invalid="ignore"):
            ckpt = fit(log)
    except FloatingPointError as exc:
        raise CliError(str(exc)) from None
    _echo_config(cfg, args.out)
    ck.save_checkpoint(ckpt, os.path.join(args.out, f"{ckpt.stage}.ckpt"))
    if log is not None:
        log.write(os.path.join(args.out, f"replay_{command}.log"))
    print(f"{command} complete")


def _pretrain(cfg, args):
    check_pretrain(args.variant, cfg.source_domains)
    sources = [_load_city(cfg, args, n, series=True)
               for n in cfg.source_domains]
    target = _load_city(cfg, args, cfg.target_domain, series=False)
    _train(cfg, args, "pretrain", lambda log: pretrain(
        cfg, sources, target, variant=args.variant, replay_log=log))


def _finetune(cfg, args):
    target = _load_city(cfg, args, cfg.target_domain, series=True)
    with (_checkpoint(cfg, args, "pretrained")
          if "pretrain" in variant_stages(args.variant)
          else contextlib.nullcontext()) as pre:
        _train(cfg, args, "finetune", lambda log: finetune(
            pre, target, cfg, variant=args.variant, replay_log=log))


REPORT_HORIZONS = (3, 6, 12)


def _report_horizons(cfg):
    """The horizons `evaluate` reports: those of REPORT_HORIZONS within the
    trained one, of which there must be at least one."""
    horizons = tuple(h for h in REPORT_HORIZONS if h <= cfg.horizon)
    if not horizons:
        raise CliError(f"config key 'horizon' is {cfg.horizon}, below every "
                       f"report horizon {REPORT_HORIZONS}, so `evaluate` "
                       f"would write no report")
    return horizons


def _evaluate(cfg, args):
    horizons = _report_horizons(cfg)
    with _checkpoint(cfg, args, "finetuned") as fin:
        target = _load_city(cfg, args, cfg.target_domain, series=True)
        reports = mx.evaluate(fin, cfg, target, horizons, variant=args.variant)
    reports += mx.evaluate_ha(cfg, target, horizons)
    for rep in reports:
        rep.write(os.path.join(
            args.out, f"report_{rep.variant}_h{rep.horizon}_s{rep.seed}.txt"))
        print(f"{rep.variant} h={rep.horizon} MAE={rep.mae:.3f} "
              f"RMSE={rep.rmse:.3f} MAPE={100 * rep.mape:.2f}%")


def _export_embeddings(cfg, args):
    with _checkpoint(cfg, args, "pretrained") as pre:
        cities = [_load_city(cfg, args, n, series=False)
                  for n in cfg.source_domains + [cfg.target_domain]]
        out_csv = os.path.join(args.out, "embeddings.csv")
        mx.export_embeddings(pre, cfg, cities, out_csv)
    print(f"wrote {out_csv}")


def _pipeline(cfg, args):
    """Run the variant's stages in order, naming the one running in
    RUN/stage.txt; a refused config, pre-training or evaluation leaves no
    RUN."""
    stages = variant_stages(args.variant)
    if "pretrain" in stages:
        check_pretrain(args.variant, cfg.source_domains)
    _report_horizons(cfg)  # every variant's stages end in evaluate
    os.makedirs(args.out, exist_ok=True)
    marker = os.path.join(args.out, "stage.txt")
    for stage in stages:
        with atomic_open(marker) as fh:
            fh.write(stage + "\n")
        _, run, _ = COMMANDS[stage]
        run(cfg, args)
    with atomic_open(os.path.join(args.out, "manifest.txt")) as fh:
        fh.write(f"stages={','.join(stages)}\nvariant={args.variant}\n")
    with atomic_open(marker) as fh:
        fh.write("done\n")


# name -> (help, run(cfg, args), whether it trains and so takes --replay-log)
COMMANDS = {
    "embed": ("compute node2vec raw features for every city", _embed, False),
    "pretrain": ("stage-1 adversarial pre-training", _pretrain, True),
    "finetune": ("stage-2 fine-tuning on the target", _finetune, True),
    "evaluate": ("metrics on the target test split", _evaluate, False),
    "export-embeddings": ("dump raw and shared embeddings as CSV",
                          _export_embeddings, False),
    "pipeline": ("embed -> pretrain -> finetune -> evaluate", _pipeline, True),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="crosscity",
        description="Adversarial cross-city traffic forecasting experiments")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate synthetic cities from spec files")
    p.add_argument("--out", default="runs/data",
                   help="directory the cities are written to, the stages' "
                        "--data default")
    p.add_argument("--seed", type=int,
                   help="seed for every city, replacing its spec's own")
    p.add_argument("specs", nargs="+", help="key=value synthetic city spec files")
    p.set_defaults(func=cmd_synth)

    for name, (hlp, run, trains) in COMMANDS.items():
        p = sub.add_parser(name, help=hlp)
        p.add_argument("--config", help="JSON experiment config")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config key")
        p.add_argument("--out", default="runs/run0", help="run/output directory")
        p.add_argument("--seed", type=int, help="root random seed override")
        p.add_argument("--variant", default="full", choices=VARIANTS,
                       help="model variant")
        if trains:
            p.add_argument("--replay-log", action="store_true",
                           help="write one line per optimizer step")
        p.add_argument("--data", default="runs/data",
                       help="directory with NAME.edges / NAME.csv files")
        p.set_defaults(func=lambda args, run=run: run(_load_config(args), args))

    p = sub.add_parser("compare", help="improvement table over a reference variant")
    p.add_argument("reports", help="directory containing report_*.txt files")
    p.add_argument("--reference", default="target_only",
                   help="variant used as the comparison baseline")
    p.set_defaults(func=cmd_compare)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code if isinstance(exc, CliError) else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

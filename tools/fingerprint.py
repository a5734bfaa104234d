#!/usr/bin/env python3
"""Output fingerprints: the sha256 of every file a fixed set of runs writes.

Usage, from the repository root:

    python3 tools/fingerprint.py [--workload W ...] [--toy] [--against REV]

Each workload runs at seed 0 in a temporary directory:

- ``transfer-small``, ``city-large`` and ``cli-roundtrip`` are the
  workloads of ``bench/workloads.py``, run stage by stage as the benchmark
  runs them. For the two in-process ones, the tool writes each city's edge
  list, series and node2vec features, both checkpoints and every metric
  report; ``cli-roundtrip`` leaves its own data and run directories.
- ``cli-variants`` runs ``crosscity pipeline --replay-log`` of every model
  variant, then ``compare --reference ha`` in each run directory, on the
  tiny cities and config of ``tests/test_cli.py`` (mirrored below; a test
  keeps the two equal). Then it takes the paths users take that those runs
  do not: ``export-embeddings`` in the ``full`` run directory, a
  ``pipeline`` with a two-layer encoder, a ``wo_da`` one whose gradient
  clipping and early stop fire, ``synth --seed`` into a second data
  directory, and there an ``embed`` with no config file; an ``embed`` in
  ``isolated``, where the target's node 2 has no edge; and a
  ``target_only`` pipeline in ``serial`` with the BLAS thread variables
  unset, so that it forks no worker, whose every file must equal the
  ``target_only`` run's byte for byte. The tiny cities fork only in
  ``embed``, so the same check runs again where every fork site forks:
  ``synth`` of the tiny sources and a 36-node target into ``data``, then a
  ``target_only`` pipeline into ``run``, in ``pinned`` with BLAS pinned and
  in ``unpinned`` with the BLAS variables unset. The two must leave the
  same bytes, the unpinned one must fork no worker and, on 2 or more CPUs,
  the pinned one must fork in ``write_table``, ``embed`` and
  ``predict_windows``.
  Last come the commands users see refused: ``finetune`` on copies of the
  data directory whose target series holds a cell ``x``, a cell ``nan``,
  no row or a byte ``0xff``, which is not UTF-8 text; ``evaluate`` with no
  finetuned checkpoint (exit 2); ``evaluate`` on copies of the ``full`` run
  directory whose checkpoint's first record has the negative dimensions
  ``-1,-8``, or the shape ``4294967296,4294967296``, whose product wraps to
  0 in int64, and no value; and a ``pretrain`` whose gradients overflow. Each must exit with its code (1 unless said), print
  one stderr line, starting with ``error:``, and leave every file and
  directory under the work directory as it was; the copies are removed
  after.

The tool prints one ``<sha256>  <workload>/<file>`` line per file the run
leaves. Lines of a file that name the run's directory, such as the paths in
a ``synth`` manifest, are left out of its hash. ``--toy`` shrinks the
benchmark workloads to the size of ``bench/smoke.py``.

``--against REV`` checks REV out in a temporary ``git worktree``, runs the
same workloads on its ``src/`` and ``bench/`` and on this checkout's, each in
a fresh interpreter, and lists the files whose hashes differ. It exits 0
whether or not files differ, and 1 after an ``error:`` line when a run, a
check of ``cli-variants`` or git fails. Both sides run on this machine
with BLAS pinned to one thread.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("transfer-small", "city-large", "cli-roundtrip", "cli-variants")
STAGES = ("embed", "pretrain", "finetune", "evaluate")

# the three cities and the config of tests/test_cli.py
TINY_SPECS = {
    "a.spec": "name = alpha\nn_nodes = 8\ntopology = ring\ndays = 1\nseed = 1\n",
    "b.spec": "name = beta\nn_nodes = 9\ntopology = grid\ndays = 1\nseed = 2\n"
              "phase_shift_hours = 1.0\n",
    "t.spec": "name = tee\nn_nodes = 7\ntopology = ring\ndays = 1\nseed = 3\n",
}
TINY_CONFIG = {
    "source_domains": ["alpha", "beta"], "target_domain": "tee",
    "history": 4, "horizon": 3, "embed_dim": 8, "hidden_dim": 8,
    "walks_per_node": 4, "walk_length": 4, "skipgram_epochs": 1,
    "pretrain_epochs": 2, "pretrain_batches_per_epoch": 2,
    "finetune_max_epochs": 2, "finetune_batches_per_epoch": 2,
    "early_stop_patience": 2, "batch_size": 32, "seed": 0,
}
# the tiny target grown to 36 nodes: its series, 288 steps by 36 nodes, is
# over PARALLEL_CELLS, and its validation and test sets each span several
# 512-window batches, so a pinned pipeline on it forks at FORK_SITES
WIDE_TARGET = "name = tee\nn_nodes = 36\ntopology = grid\ndays = 1\nseed = 3\n"
FORK_SITES = ("write_table", "_embed", "predict_windows")


class FingerprintError(RuntimeError):
    pass


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", nargs="+", choices=WORKLOADS,
                   default=list(WORKLOADS), metavar="W",
                   help=f"workloads to run, of {', '.join(WORKLOADS)} (default: all)")
    p.add_argument("--toy", action="store_true",
                   help="shrink the benchmark workloads to toy size")
    p.add_argument("--against", metavar="REV",
                   help="list the files whose hashes differ from those of git "
                        "revision REV")
    p.add_argument("--root", type=Path, default=ROOT,
                   help="checkout whose src/ and bench/ run (default: this one)")
    return p.parse_args(argv)


def file_hash(path, workdir):
    """sha256 of the file's lines that do not name `workdir`."""
    digest, mark = hashlib.sha256(), os.fsencode(workdir)
    with open(path, "rb") as fh:
        for line in fh:
            if mark not in line:
                digest.update(line)
    return digest.hexdigest()


def hash_tree(workload, workdir):
    """(sha256, workload/relative path) of every file under workdir."""
    out = []
    for path in sorted(Path(workdir).rglob("*")):
        if path.is_file():
            rel = path.relative_to(workdir).as_posix()
            out.append((file_hash(path, workdir), f"{workload}/{rel}"))
    return out


def _run(cli, argv):
    """crosscity.cli.main(argv): its exit code and the text it printed to
    stdout and to stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _cli(cli, *argv):
    """crosscity.cli.main(argv), its console output captured; FingerprintError
    unless it exits 0."""
    code, out, err = _run(cli, argv)
    if code != 0:
        raise FingerprintError(f"crosscity {' '.join(argv)} exited {code}: "
                               f"{(err or out).strip()}")


def tree_bytes(workdir):
    """relative path -> bytes of every file under workdir, and -> None of
    every directory."""
    return {path.relative_to(workdir).as_posix():
            path.read_bytes() if path.is_file() else None
            for path in Path(workdir).rglob("*")}


def _refused(cli, code, workdir, *argv):
    """crosscity.cli.main(argv), which must refuse: FingerprintError unless
    it exits `code` after printing one line to stderr, which starts with
    `error:`, and leaves every file and directory under workdir as it was."""
    before = tree_bytes(workdir)
    got, _, err = _run(cli, argv)
    lines = err.splitlines()
    if got != code or len(lines) != 1 or not lines[0].startswith("error:"):
        raise FingerprintError(f"crosscity {' '.join(argv)} exited {got} with "
                               f"stderr {err!r}; expected exit {code} and one "
                               f"error: line")
    after = tree_bytes(workdir)
    changed = sorted(path for path in before.keys() | after.keys()
                     if before.get(path, 0) != after.get(path, 0))
    if changed:
        raise FingerprintError(f"crosscity {' '.join(argv)} was refused, but "
                               f"changed {', '.join(changed)} under {workdir}")


def run_bench_workload(name, toy, workdir):
    """One pipeline of a bench workload at seed 0, its outputs in workdir."""
    from crosscity import checkpoint as ck
    from crosscity import data as dio
    from crosscity import graph as gr
    from crosscity import node2vec as n2v
    from workloads import WORKLOADS as BENCH

    wl = BENCH[name](0, toy, workdir)
    inputs = wl.setup()
    ctx = {"out": os.path.join(workdir, "run")}
    for stage in STAGES:
        wl.stage(stage, ctx, inputs)
    if name == "cli-roundtrip":
        return
    out = Path(workdir)
    for city in wl.domains(ctx, inputs):
        gr.save_graph(city.graph, out / f"{city.name}.edges")
        dio.save_series(city.series, out / f"{city.name}.csv")
        n2v.save_features(city.raw_features, out / f"{city.name}.features.csv")
    ck.save_checkpoint(ctx["pre"], out / "pretrained.ckpt")
    ck.save_checkpoint(ctx["fin"], out / "finetuned.ckpt")
    for rep in ctx["reports"]:
        rep.write(out / f"report_{rep.variant}_h{rep.horizon}_s{rep.seed}.txt")


def run_cli_variants(workdir):
    """`pipeline` of every variant on the tiny cities, then `compare`; then
    the commands, keys and inputs those runs leave out, and last the
    refusals of ``run_refusals``."""
    from crosscity import cli
    from crosscity.config import VARIANTS

    specs = []
    for fname, text in TINY_SPECS.items():
        specs.append(os.path.join(workdir, fname))
        Path(specs[-1]).write_text(text)
    config = os.path.join(workdir, "config.json")
    Path(config).write_text(json.dumps(TINY_CONFIG, indent=2, sort_keys=True))
    data = os.path.join(workdir, "data")
    _cli(cli, "synth", "--out", data, *specs)
    for variant in VARIANTS:
        out = os.path.join(workdir, variant)
        _cli(cli, "pipeline", "--config", config, "--data", data, "--out", out,
             "--variant", variant, "--replay-log")
        _cli(cli, "compare", out, "--reference", "ha")
    _cli(cli, "export-embeddings", "--config", config, "--data", data,
         "--out", os.path.join(workdir, "full"))
    _cli(cli, "pipeline", "--config", config, "--data", data,
         "--out", os.path.join(workdir, "gin2"), "--set", "gin_layers=2")
    # a step too small to lower the validation error: every step clips, and
    # finetune stops after its second epoch
    _cli(cli, "pipeline", "--config", config, "--data", data,
         "--out", os.path.join(workdir, "clipped"), "--variant", "wo_da",
         "--set", "grad_clip_norm=1e-9", "--set", "learning_rate=1e-9",
         "--set", "finetune_max_epochs=4", "--set", "early_stop_patience=1")
    data7 = os.path.join(workdir, "data7")
    _cli(cli, "synth", "--out", data7, "--seed", "7", *specs)
    # the default config, with the tiny config's node2vec keys
    _cli(cli, "embed", "--data", data7, "--set", "source_domains=alpha;beta",
         "--set", "target_domain=tee", "--set", "embed_dim=8",
         "--set", "walks_per_node=4", "--set", "walk_length=4",
         "--set", "skipgram_epochs=1")
    # an edge list whose node 2 has no edge, so its walks end at once
    isolated = os.path.join(workdir, "isolated")
    os.makedirs(isolated)
    for name in ("alpha", "beta"):
        shutil.copy(os.path.join(data, f"{name}.edges"), isolated)
    Path(isolated, "tee.edges").write_text("0,1\n1,3\n")
    _cli(cli, "embed", "--config", config, "--data", isolated)
    # BLAS threads unpinned, as users run: numpy's BLAS is loaded with one
    # thread already, so only the workers change, to none
    pinned = {var: os.environ.pop(var) for var in BLAS_VARS if var in os.environ}
    try:
        _cli(cli, "pipeline", "--config", config, "--data", data,
             "--out", os.path.join(workdir, "serial"), "--variant", "target_only",
             "--replay-log")
    finally:
        os.environ.update(pinned)
    serial, forked = Path(workdir, "serial"), Path(workdir, "target_only")
    for path in sorted(serial.rglob("*")):
        twin = forked / path.relative_to(serial)
        if path.is_file() and not (twin.is_file()
                                   and twin.read_bytes() == path.read_bytes()):
            raise FingerprintError(f"{path} differs from {twin}")
    run_fork_pair(cli, workdir, config, specs[:2])
    run_refusals(cli, workdir, config, data)


@contextlib.contextmanager
def _forks():
    """A set that gets the name of every function on the stack of each
    os.fork made within."""
    names, fork = set(), os.fork

    def recording():
        frame = sys._getframe(1)
        while frame is not None:
            names.add(frame.f_code.co_name)
            frame = frame.f_back
        return fork()

    os.fork = recording
    try:
        yield names
    finally:
        os.fork = fork


def run_fork_pair(cli, workdir, config, sources):
    """`synth` of the source specs and WIDE_TARGET into `data`, then a
    `target_only` pipeline into `run`, once in `pinned` with BLAS pinned to
    one thread and once in `unpinned` with the BLAS thread variables unset.
    FingerprintError unless both leave the same files, byte for byte, the
    unpinned arm forks no worker and, when this process may run on 2 CPUs,
    the pinned arm forks at each of FORK_SITES."""
    target = os.path.join(workdir, "wide.spec")
    Path(target).write_text(WIDE_TARGET)
    pinned = {var: os.environ[var] for var in BLAS_VARS if var in os.environ}
    arms = {}
    for arm in ("pinned", "unpinned"):
        os.makedirs(os.path.join(workdir, arm))
        if arm == "unpinned":
            for var in pinned:
                del os.environ[var]
        cwd = os.getcwd()
        os.chdir(os.path.join(workdir, arm))  # so the synth manifests match
        try:
            with _forks() as arms[arm]:
                _cli(cli, "synth", "--out", "data", *sources, target)
                _cli(cli, "pipeline", "--config", config, "--data", "data",
                     "--out", "run", "--variant", "target_only", "--replay-log")
        finally:
            os.chdir(cwd)
            os.environ.update(pinned)
    trees = [tree_bytes(os.path.join(workdir, arm)) for arm in arms]
    differ = sorted(path for path in trees[0].keys() | trees[1].keys()
                    if trees[0].get(path, 0) != trees[1].get(path, 0))
    if differ:
        raise FingerprintError(f"pinned and unpinned runs differ in "
                               f"{', '.join(differ)}")
    if arms["unpinned"]:
        raise FingerprintError("the unpinned run forked a worker")
    cpus = len(os.sched_getaffinity(0)) if sys.platform == "linux" else 1
    missed = [site for site in FORK_SITES if site not in arms["pinned"]]
    if cpus >= 2 and missed:
        raise FingerprintError(f"the pinned run forked no worker in "
                               f"{', '.join(missed)}")


def run_refusals(cli, workdir, config, data):
    """Commands users run that must be refused, each checked by ``_refused``:
    a target series with a bad cell, no row or a byte that is not text,
    `evaluate` with no checkpoint or with a record of negative or
    overflowing dimensions in the `full` run's, and a pre-training whose
    gradients overflow."""
    series = Path(data, "tee.csv").read_bytes()
    header, row, *rest = series.decode().splitlines(keepends=True)
    kept, tail = row.rsplit(",", 1)[0], "".join(rest)
    for text in (f"{header}{kept},x\n{tail}".encode(),
                 f"{header}{kept},nan\n{tail}".encode(), header.encode(),
                 series + b"\xff"):
        with tempfile.TemporaryDirectory(dir=workdir) as bad:
            shutil.copytree(data, bad, dirs_exist_ok=True)
            Path(bad, "tee.csv").write_bytes(text)
            _refused(cli, 1, workdir, "finetune", "--config", config,
                     "--data", bad, "--out", os.path.join(workdir, "refused"),
                     "--variant", "target_only")
    _refused(cli, 2, workdir, "evaluate", "--config", config, "--data", data,
             "--out", os.path.join(workdir, "refused"))
    # (-1) * (-8) asks for the 8 values the first record holds, and
    # 2**32 * 2**32, which wraps to 0 in int64, for none
    for record in (r" shape -1,-8 values \1", " shape 4294967296,4294967296 values"):
        with tempfile.TemporaryDirectory(dir=workdir) as run:
            shutil.copytree(os.path.join(workdir, "full"), run, dirs_exist_ok=True)
            ckpt = Path(run, "finetuned.ckpt")
            ckpt.write_text(re.sub(r" shape 8 values (.*)", record,
                                   ckpt.read_text(), count=1))
            _refused(cli, 1, workdir, "evaluate", "--config", config,
                     "--data", data, "--out", run, "--variant", "full")
    _refused(cli, 1, workdir, "pretrain", "--config", config, "--data", data,
             "--out", os.path.join(workdir, "refused"),
             "--set", "learning_rate=1e300", "--set", "grad_clip_norm=1e300")


def fingerprints(root, workloads, toy):
    """(sha256, name) of every output file of `workloads`, run on the
    sources of the checkout `root`."""
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    import crosscity
    package = (root / "src" / "crosscity").resolve()
    if Path(crosscity.__file__).resolve().parent != package:
        raise FingerprintError(f"crosscity imported from {crosscity.__file__}, "
                               f"not {package}")
    out = []
    for name in workloads:
        with tempfile.TemporaryDirectory(prefix=f"fingerprint-{name}-") as work:
            if name == "cli-variants":
                run_cli_variants(work)
            else:
                run_bench_workload(name, toy, work)
            out += hash_tree(name, work)
    return out


def fingerprints_of(root, workloads, toy):
    """fingerprints() of the checkout `root`, run in a fresh interpreter;
    name -> sha256."""
    cmd = [sys.executable, __file__, "--root", str(root),
           "--workload", *workloads] + (["--toy"] if toy else [])
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        raise FingerprintError(f"fingerprints of {root} failed: "
                               f"{proc.stderr.strip() or proc.stdout.strip()}")
    return {name: digest for digest, name in
            (line.split("  ", 1) for line in proc.stdout.splitlines())}


def differences(ours, theirs):
    """(kind, name) of every file whose hash differs between the name ->
    sha256 maps, sorted by name; kind is 'differs', 'only here' or 'only
    there'."""
    out = []
    for name in sorted(ours.keys() | theirs.keys()):
        if name not in theirs:
            out.append(("only here", name))
        elif name not in ours:
            out.append(("only there", name))
        elif ours[name] != theirs[name]:
            out.append(("differs", name))
    return out


def _git(*argv):
    proc = subprocess.run(["git", "-C", str(ROOT), *argv],
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise FingerprintError(f"git {' '.join(argv)}: {proc.stderr.strip()}")
    return proc.stdout.strip()


@contextlib.contextmanager
def checkout(rev):
    """(directory, full commit id) of git revision REV, checked out in a
    temporary `git worktree` that is removed on leaving."""
    commit = _git("rev-parse", "--verify", f"{rev}^{{commit}}")
    with tempfile.TemporaryDirectory(prefix="fingerprint-rev-") as tmp:
        tree = Path(tmp) / "tree"
        _git("worktree", "add", "--detach", str(tree), commit)
        try:
            yield tree, commit
        finally:
            _git("worktree", "remove", "--force", str(tree))


def against(rev, workloads, toy):
    """Print the files whose hashes differ between REV and this checkout."""
    with checkout(rev) as (tree, commit):
        theirs = fingerprints_of(tree, workloads, toy)
    ours = fingerprints_of(ROOT, workloads, toy)
    diff = differences(ours, theirs)
    for kind, name in diff:
        print(f"{kind:<10}  {name}")
    total = len(ours.keys() | theirs.keys())
    print(f"{len(diff)} of {total} files differ from {rev} ({commit[:12]})"
          if diff else f"no file differs from {rev} ({commit[:12]}), "
                       f"{total} files")


def main(argv=None):
    args = parse_args(argv)
    for var in BLAS_VARS:  # before numpy loads, here and in the children
        os.environ[var] = "1"
    try:
        if args.against:
            against(args.against, args.workload, args.toy)
        else:
            for digest, name in fingerprints(args.root.resolve(),
                                             args.workload, args.toy):
                print(f"{digest}  {name}")
    except FingerprintError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

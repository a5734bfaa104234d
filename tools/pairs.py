#!/usr/bin/env python3
"""Bench pairs: the benchmark of a parent revision against this checkout.

Usage, from the repository root:

    python3 tools/pairs.py --against REV [--workload W ...] [--seed S]
                           [--pairs N] [--seconds T] [--toy]

REV is checked out in a temporary ``git worktree``, as ``tools/fingerprint.py
--against`` does. For each workload the tool runs N pairs: in each pair, the
command of ``BENCHMARK.json`` (``bench/run.py --trace 0``) once on REV's
files and once on this checkout's, each a fresh process in its own tree.
REV runs first in even pairs and second in odd ones.

For every end-to-end metric of ``BENCHMARK.json`` it prints each side's
median and quartiles, the pairs each side won (a tie counts for neither),
the median difference, the parent's quartile distance and a verdict:

- ``claim met``: the change won at least 9 in 10 of the pairs, and its
  median is better than the parent's by more than the parent's quartile
  distance;
- ``regression``: the same rule, with the sides swapped;
- ``noise``: neither.

It also prints the share of failed operations of each side. The last line
of standard output is one JSON document: ``env``, the bench's own ``env``
line (CPU count, Python, numpy, BLAS and its thread variables) with the
settings, every run's last line under ``runs`` and the table under
``summary``.

It exits 0 when every run ends in a result line, the change fails no larger
share of operations than the parent, and ``test_mae_h3`` is equal in every
pair; otherwise 1, after an ``error:`` line on standard error. A run at the
default 30 s takes about a minute per pair and workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
import fingerprint as fp  # noqa: E402  (after the path it is found on)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
WIN_SHARE = 0.9  # of the pairs, for a claim or a regression
EXACT = "test_mae_h3"  # equal in every pair, as outputs are unchanged


class PairsError(RuntimeError):
    pass


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--against", metavar="REV", required=True,
                   help="git revision of the parent side")
    p.add_argument("--workload", nargs="+", choices=WORKLOADS,
                   default=WORKLOADS, metavar="W",
                   help=f"workloads to run, of {', '.join(WORKLOADS)} (default: all)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=SPEC["run_seconds"],
                   help="the bench's --seconds (default: BENCHMARK.json's)")
    p.add_argument("--toy", action="store_true",
                   help="shrink the workloads to toy size")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    return args


def bench_run(root, workload, args):
    """The `env` line and the last line of standard output of one bench run
    in the checkout `root`, as dicts."""
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(args.seed),
                             "--seconds", str(args.seconds), "--trace", "0"]
    if args.toy:
        cmd.append("--toy")
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    try:
        env = next(json.loads(ln[4:]) for ln in lines if ln.startswith("env "))
        return env, json.loads(lines[-1])
    except (StopIteration, IndexError, json.JSONDecodeError):
        raise PairsError(f"{' '.join(cmd)} in {root} exited {proc.returncode} "
                         f"with no result line: {proc.stderr.strip()[-500:]}") from None


def quartiles(values):
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def compare(parent, change, lower_is_better):
    """Summary of one metric over the pairs (parent[i], change[i])."""
    sign = 1 if lower_is_better else -1
    won = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    lost = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    (p1, pm, p3), (c1, cm, c3) = quartiles(parent), quartiles(change)
    gain, spread = sign * (pm - cm), p3 - p1
    need = WIN_SHARE * len(parent)
    verdict = ("claim met" if won >= need and gain > spread else
               "regression" if lost >= need and -gain > spread else "noise")
    return {"parent": {"q1": p1, "median": pm, "q3": p3},
            "change": {"q1": c1, "median": cm, "q3": c3},
            "change_won": won, "parent_won": lost, "pairs": len(parent),
            "median_gain": gain, "parent_quartile_distance": spread,
            "verdict": verdict}


def summarize(runs, workload):
    """metric -> compare() of the workload's runs, and the failed and
    attempted operations of each side."""
    sides = {side: [r["result"] for r in runs
                    if r["workload"] == workload and r["side"] == side]
             for side in ("parent", "change")}
    out = {"metrics": {}}
    for metric in SPEC["end_to_end"]:
        name = metric["name"]
        values = [[res["metrics"][name]["value"] for res in sides[side]]
                  for side in ("parent", "change")]
        if None in values[0] + values[1]:
            continue
        out["metrics"][name] = compare(*values, metric["better"] == "lower")
    for side, results in sides.items():
        out[side] = {key: sum(res[key] for res in results)
                     for key in ("failed", "attempted")}
    return out


def run_pairs(args, parent_root):
    """The `env` line of the first run, less its workload, and every run's
    record in the order run: workload, pair, side, result."""
    env, runs = None, []
    for workload in args.workload:
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                root = parent_root if side == "parent" else ROOT
                env_line, result = bench_run(root, workload, args)
                env = env or {k: v for k, v in env_line.items() if k != "workload"}
                runs.append({"workload": workload, "pair": pair, "side": side,
                             "result": result})
                print(f"{workload} pair {pair} {side}: "
                      f"{json.dumps(result['metrics'])}", file=sys.stderr,
                      flush=True)
    return env, runs


def report(summary):
    for workload, table in summary.items():
        print(f"{workload}: failed operations, parent "
              f"{table['parent']['failed']}/{table['parent']['attempted']}, "
              f"change {table['change']['failed']}/{table['change']['attempted']}")
        print(f"  {'metric':<12} {'parent q1/median/q3':>30} "
              f"{'change q1/median/q3':>30} {'won':>7} {'gain':>10} "
              f"{'spread':>10}  verdict")
        for name, m in table["metrics"].items():
            sides = ["/".join(f"{m[s][k]:.4g}" for k in ("q1", "median", "q3"))
                     for s in ("parent", "change")]
            print(f"  {name:<12} {sides[0]:>30} {sides[1]:>30} "
                  f"{m['change_won']:>3}/{m['pairs']:<3} "
                  f"{m['median_gain']:>10.4g} "
                  f"{m['parent_quartile_distance']:>10.4g}  {m['verdict']}")


def faults(runs, summary):
    """One line per reason the comparison fails."""
    out = []
    for workload, table in summary.items():
        share = {side: table[side]["failed"] / max(1, table[side]["attempted"])
                 for side in ("parent", "change")}
        if share["change"] > share["parent"]:
            out.append(f"{workload}: the change failed {table['change']['failed']} "
                       f"of {table['change']['attempted']} operations, the "
                       f"parent {table['parent']['failed']} of "
                       f"{table['parent']['attempted']}")
    exact = {}
    for run in runs:
        value = run["result"]["metrics"][EXACT]["value"]
        exact.setdefault((run["workload"], run["pair"]), {})[run["side"]] = value
    for (workload, pair), sides in exact.items():
        if sides["parent"] != sides["change"]:
            out.append(f"{workload} pair {pair}: {EXACT} is {sides['change']} "
                       f"here and {sides['parent']} at the parent")
    return out


def main(argv=None):
    args = parse_args(argv)
    try:
        with fp.checkout(args.against) as (tree, commit):
            env, runs = run_pairs(args, tree)
    except (fp.FingerprintError, PairsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    summary = {w: summarize(runs, w) for w in args.workload}
    report(summary)
    env.update(against=args.against, against_commit=commit,
               pairs=args.pairs, seconds=args.seconds)
    print(json.dumps({"env": env, "runs": runs, "summary": summary}))
    problems = faults(runs, summary)
    for line in problems:
        print(f"error: {line}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

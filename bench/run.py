#!/usr/bin/env python3
"""Pipeline benchmark: stage wall times end to end, per-layer numbers from a
separate traced run.

Usage, from the repository root:

    python3 bench/run.py --workload transfer-small --seed 0 --seconds 30 --trace 0

``--trace 0`` times repeated untraced set-ups and pipelines and prints the
end-to-end metrics; ``--trace 1`` runs the pipeline once more with every public
library function wrapped, then the layer microbenchmarks, and prints the
per-layer metrics. The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``. See
bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

E2E_UNITS = {
    "setup_s": "s", "pipeline_s": "s", "peak_rss_mb": "MB", "test_mae_h3": "vph",
}
LAYER_UNITS = {
    "stage.embed_s": "s", "stage.pretrain_s": "s", "stage.finetune_s": "s",
    "stage.evaluate_s": "s",
    "autodiff.backward_s": "s", "autodiff.backward_calls": "count",
    "autodiff.tape_nodes_per_step": "count",
    "forecaster.forecast_s": "s", "forecaster.forecast_calls": "count",
    "forecaster.fwd_ms": "ms", "forecaster.bwd_ms": "ms",
    "gin.encoder_forward_s": "s", "gin.encoder_forward_calls": "count",
    "gin.layer_fwd_ms": "ms", "gin.layer_bwd_ms": "ms",
    "graph.mean_aggregation_matrix_s": "s",
    "graph.aggregation_reuse_ratio": "ratio", "graph.adjacency_mb": "MB",
    "adversary.adversarial_loss_s": "s", "adversary.adversarial_loss_calls": "count",
    "adversary.fwd_ms": "ms", "adversary.bwd_ms": "ms",
    "train.steps": "count", "train.step_ms_p50": "ms", "train.step_ms_p99": "ms",
    "train.sgdm_step_s": "s", "train.sgdm_step_ms": "ms", "train.clip_s": "s",
    "train.clip_fired_ratio": "ratio",
    "node2vec.build_corpus_s": "s", "node2vec.train_skipgram_s": "s",
    "node2vec.pairs": "count", "node2vec.pairs_per_s": "1/s",
    "node2vec.walks_s": "s", "node2vec.skipgram_epoch_s": "s",
    "data.make_windows_s": "s", "data.windows": "count",
    "data.chrono_split_s": "s", "data.load_series_s": "s",
    "data.load_series_mb": "MB", "data.synth_generate_s": "s",
    "metrics.evaluate_s": "s", "metrics.evaluate_ha_s": "s",
    "metrics.report_read_s": "s",
    "checkpoint.save_s": "s", "checkpoint.load_s": "s", "checkpoint.mb": "MB",
    "trace.overhead_ratio": "ratio", "trace.pretrain_unattributed_ratio": "ratio",
}

# Wrapped functions every workload must call; each workload adds its own.
MUST_FIRE = (
    "autodiff.Tensor.backward", "forecaster.forecast", "forecaster.source_loss",
    "gin.SpatialEncoder.forward", "graph.RoadGraph.mean_aggregation_matrix",
    "train.pretrain", "train.finetune", "train.Sgdm.step",
    "train.clip_global_norm", "node2vec.build_corpus", "node2vec.train_skipgram",
    "data.synth_generate", "data.make_windows", "data.chrono_split",
    "data.normalize", "metrics.evaluate", "metrics.evaluate_ha",
)

STAGES = ("embed", "pretrain", "finetune", "evaluate")
# before each pipeline the workload is set up at least SETUP_MIN times and
# for at least SETUP_BUDGET_S, so setup_s is a median over samples spread
# across the whole run, not taken in one burst of machine noise
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 2, 400, 1.0
MAX_REPS = 10
TAPE_SAMPLE_EVERY = 8
MB = float(1 << 20)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0,
                   help="measure repetitions for about this long (at least two "
                        "untraced pipelines, or one untraced and one traced)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--toy", action="store_true",
                   help="shrink the workload to toy size (smoke test)")
    return p.parse_args(argv)


def environment(args):
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    env = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "toy": args.toy, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
    }
    env.update({var: os.environ.get(var) for var in BLAS_VARS})
    return env


class Outcome:
    """Counts attempted and failed stages and output checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, name, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
        print(f"check {'ok' if ok else 'FAILED'} {name}"
              + (f": {detail}" if detail and not ok else ""))
        return ok


def run_pipeline(wl, inputs, rep, outcome, tracer=None):
    """One closed-loop pass over the stages; returns (stage -> wall time,
    ctx), or None if a stage raised."""
    ctx = {"out": os.path.join(wl.workdir, f"run{rep}")}
    times = {}
    for stage in STAGES:
        outcome.attempted += 1
        span = (tracer.span(f"stage.{stage}") if tracer
                else contextlib.nullcontext())
        t0 = perf_counter()
        try:
            with span:
                wl.stage(stage, ctx, inputs)
        except Exception:  # a failed stage is counted, not fatal to the run
            outcome.failed += 1
            print(f"stage FAILED {stage} (repetition {rep})")
            traceback.print_exc(file=sys.stdout)
            return None
        times[stage] = perf_counter() - t0
    return times, ctx


def check_outputs(wl, ctx, rep, outcome, reference):
    """Per-repetition output checks; the first repetition's outputs are the
    reference the later ones must repeat exactly."""
    try:
        got = wl.outputs(ctx, rep)
    except Exception:  # unreadable outputs count as one failed check
        traceback.print_exc(file=sys.stdout)
        outcome.check(f"outputs readable (repetition {rep})", False)
        return reference
    mae, ha = got["mae_h3"], got["ha_mae_h3"]
    outcome.check(f"test_mae_h3 finite and below HA (repetition {rep})",
                  math.isfinite(mae) and mae < ha,
                  f"model {mae} vs HA {ha}")
    outcome.check(f"target series unread during pretrain (repetition {rep})",
                  got["target_reads"] == 0, f"{got['target_reads']} reads")
    for name, ok in got["checks"].items():
        outcome.check(f"{name} (repetition {rep})", ok)
    if reference is None:
        return got
    outcome.check(f"same seed, same test_mae_h3 (repetition {rep})",
                  mae == reference["mae_h3"], f"{mae} vs {reference['mae_h3']}")
    outcome.check(f"same seed, same checkpoint text (repetition {rep})",
                  got["ckpt_text"] == reference["ckpt_text"])
    return reference


def timed_setup(wl, outcome):
    """Set the workload up several times; returns (list of seconds, inputs
    from the last set-up)."""
    times, inputs = [], None
    while len(times) < SETUP_MIN or (sum(times) < SETUP_BUDGET_S
                                     and len(times) < SETUP_MAX):
        t0 = perf_counter()
        inputs = wl.setup()
        times.append(perf_counter() - t0)
    outcome.attempted += len(times)
    return times, inputs


# -- traced run --------------------------------------------------------------

class Observations:
    """Counts taken at the wrapped boundaries of the traced run."""

    def __init__(self, tracer):
        from crosscity import node2vec as n2v
        self.tracer = tracer
        self.backward_calls = 0
        self.tape_nodes = []  # (outermost span, node count)
        self.clip_fired = 0
        self.graphs = {}
        self.pairs = 0
        self.windows = 0
        self.series_bytes = 0
        self.ckpt_bytes = 0
        self._skipgram_sig = inspect.signature(n2v.train_skipgram)
        tracer.observers.update({
            "autodiff.Tensor.backward": self._backward,
            "train.clip_global_norm": self._clip,
            "graph.RoadGraph.mean_aggregation_matrix": self._graph,
            "node2vec.train_skipgram": self._skipgram,
            "data.make_windows": self._windows,
            "data.load_series": self._series,
            "checkpoint.save_checkpoint": self._ckpt,
        })

    def _backward(self, args, kwargs, result):
        self.backward_calls += 1
        if self.backward_calls % TAPE_SAMPLE_EVERY == 0:
            self.tape_nodes.append((self.tracer.current_root(), tape_size(args[0])))

    def _clip(self, args, kwargs, result):
        self.clip_fired += result is not args[0]

    def _graph(self, args, kwargs, result):
        self.graphs[id(args[0])] = args[0]  # held so ids stay unique

    def _skipgram(self, args, kwargs, result):
        bound = self._skipgram_sig.bind(*args, **kwargs)
        bound.apply_defaults()
        window = bound.arguments["window"]
        per_epoch = sum(min(len(w), i + window + 1) - max(0, i - window) - 1
                        for w in bound.arguments["corpus"] for i in range(len(w)))
        self.pairs += per_epoch * bound.arguments["epochs"]

    def _windows(self, args, kwargs, result):
        self.windows += len(result)

    def _series(self, args, kwargs, result):
        self.series_bytes += os.path.getsize(args[0])

    def _ckpt(self, args, kwargs, result):
        self.ckpt_bytes += os.path.getsize(args[1])


def tape_size(loss):
    """Tape nodes reachable from the loss through _parents, leaves included."""
    seen = {id(loss)}
    stack = [loss]
    while stack:
        for p in stack.pop()._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


def step_times_ms(tracer):
    """Optimizer step durations: from one Sgdm.step's end to the next one's,
    within a stage, counting only intervals holding exactly one forecast
    (intervals across validation or a stage's start are left out)."""
    out, last_end, forecasts = [], None, 0
    for name, start, end, parent in tracer.spans:
        if name.startswith("stage."):
            last_end, forecasts = None, 0
        elif name == "forecaster.forecast":
            forecasts += 1
        elif name == "train.Sgdm.step":
            if last_end is not None and forecasts == 1:
                out.append(1e3 * (end - last_end))
            last_end, forecasts = end, 0
    return out


def layer_metrics(tracer, obs, micro_out, overhead_ratio):
    import numpy as np
    totals = tracer.totals()

    def self_s(name):
        return totals.get(name, (0, 0.0))[1]

    def calls(name):
        return totals.get(name, (0, 0.0))[0]

    steps = step_times_ms(tracer)
    pretrain_nodes = [n for root, n in obs.tape_nodes if root == "stage.pretrain"]
    nodes = pretrain_nodes or [n for _, n in obs.tape_nodes]
    pre_span, unattributed = pretrain_unattributed(tracer)
    agg_calls = calls("graph.RoadGraph.mean_aggregation_matrix")
    skipgram_s = self_s("node2vec.train_skipgram")
    out = {
        "autodiff.backward_s": self_s("autodiff.Tensor.backward"),
        "autodiff.backward_calls": calls("autodiff.Tensor.backward"),
        "autodiff.tape_nodes_per_step": float(np.median(nodes)) if nodes else 0.0,
        "forecaster.forecast_s": self_s("forecaster.forecast"),
        "forecaster.forecast_calls": calls("forecaster.forecast"),
        "gin.encoder_forward_s": self_s("gin.SpatialEncoder.forward"),
        "gin.encoder_forward_calls": calls("gin.SpatialEncoder.forward"),
        "graph.mean_aggregation_matrix_s": self_s("graph.RoadGraph.mean_aggregation_matrix"),
        "graph.aggregation_reuse_ratio": (len(obs.graphs) / agg_calls
                                          if agg_calls else 0.0),
        "graph.adjacency_mb": sum(g.adjacency.nbytes for g in obs.graphs.values()) / MB,
        "adversary.adversarial_loss_s": self_s("adversary.adversarial_loss"),
        "adversary.adversarial_loss_calls": calls("adversary.adversarial_loss"),
        "train.steps": calls("train.Sgdm.step"),
        "train.step_ms_p50": float(np.percentile(steps, 50)) if steps else 0.0,
        "train.step_ms_p99": float(np.percentile(steps, 99)) if steps else 0.0,
        "train.sgdm_step_s": self_s("train.Sgdm.step"),
        "train.clip_s": self_s("train.clip_global_norm"),
        "train.clip_fired_ratio": (obs.clip_fired / calls("train.clip_global_norm")
                                   if calls("train.clip_global_norm") else 0.0),
        "node2vec.build_corpus_s": self_s("node2vec.build_corpus"),
        "node2vec.train_skipgram_s": skipgram_s,
        "node2vec.pairs": obs.pairs,
        "node2vec.pairs_per_s": obs.pairs / skipgram_s if skipgram_s else 0.0,
        "data.make_windows_s": self_s("data.make_windows"),
        "data.windows": obs.windows,
        "data.chrono_split_s": self_s("data.chrono_split"),
        "data.load_series_s": self_s("data.load_series"),
        "data.load_series_mb": obs.series_bytes / MB,
        "data.synth_generate_s": self_s("data.synth_generate"),
        "metrics.evaluate_s": self_s("metrics.evaluate"),
        "metrics.evaluate_ha_s": self_s("metrics.evaluate_ha"),
        "metrics.report_read_s": self_s("metrics.MetricReport.read"),
        "checkpoint.save_s": self_s("checkpoint.save_checkpoint"),
        "checkpoint.load_s": self_s("checkpoint.load_checkpoint"),
        "checkpoint.mb": obs.ckpt_bytes / MB,
        "trace.overhead_ratio": overhead_ratio,
        "trace.pretrain_unattributed_ratio": (unattributed / pre_span
                                              if pre_span else 0.0),
    }
    out.update(micro_out)
    return out


def pretrain_unattributed(tracer):
    """(pretrain stage seconds, seconds not inside any wrapped layer below
    the entry point): the stage's own self time plus that of train.pretrain
    called directly under it, i.e. the training loop body and the autodiff
    ops and batch sampling it runs outside forecaster, gin and adversary."""
    span_s = unattributed = 0.0
    for (name, start, end, parent), s in zip(tracer.spans, tracer.self_times()):
        if name == "stage.pretrain":
            span_s += end - start
            unattributed += s
        elif (name == "train.pretrain" and parent >= 0
              and tracer.spans[parent][0] == "stage.pretrain"):
            unattributed += s
    return span_s, unattributed


def self_times_by_stage(tracer):
    """stage -> {module: self seconds}, the module being a span name up to
    its first dot; a stage's own self time is listed under its name."""
    roots, out = [], {}
    for i, ((name, _, _, parent), s) in enumerate(zip(tracer.spans,
                                                      tracer.self_times())):
        roots.append(i if parent < 0 else roots[parent])
        stage = tracer.spans[roots[i]][0]
        key = "(stage)" if i == roots[i] else name.split(".")[0]
        mods = out.setdefault(stage, {})
        mods[key] = mods.get(key, 0.0) + s
    return {stage: dict(sorted(mods.items(), key=lambda kv: -kv[1]))
            for stage, mods in out.items()}


def traced_pass(wl, outcome, reference, untraced_pipeline_s, trace_path):
    import micro
    from spans import Tracer

    tracer = Tracer()
    obs = Observations(tracer)
    tracer.install()
    try:
        missing = tracer.unpatched_call_sites()
        outcome.check("call-site bindings wrapped", not missing, ", ".join(missing))
        with tracer.span("stage.setup"):
            inputs = wl.setup()
        result = run_pipeline(wl, inputs, "traced", outcome, tracer)
    finally:
        tracer.uninstall()
    if result is None:
        return None
    times, ctx = result
    check_outputs(wl, ctx, "traced", outcome, reference)
    totals = tracer.totals()
    for name in MUST_FIRE + wl.must_fire:
        outcome.check(f"wrapper {name} recorded calls", name in totals)
    for name in wl.must_not_fire:
        outcome.check(f"wrapper {name} recorded no calls", name not in totals,
                      f"{totals.get(name, (0,))[0]} calls")
    traced_pipeline_s = sum(times.values())
    micro_out = micro.run(wl.cfg, wl.domains(ctx, inputs))
    metrics = layer_metrics(tracer, obs, micro_out,
                            traced_pipeline_s / untraced_pipeline_s)
    by_stage = self_times_by_stage(tracer)
    print("self time by stage and module (s):")
    for stage, mods in by_stage.items():
        total = sum(mods.values())
        print(f"  {stage:<16} {total:9.4f}  " + "  ".join(
            f"{mod} {val:.4f} ({100 * val / total:.1f}%)"
            for mod, val in mods.items() if total))
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    with open(trace_path, "w") as fh:
        json.dump({"spans": tracer.spans, "self_s_by_stage": by_stage,
                   "traced_stage_s": times, "metrics": metrics}, fh)
    print(f"spans written to {trace_path.relative_to(ROOT)} "
          f"({len(tracer.spans)} spans)")
    return metrics


# -- entry point -------------------------------------------------------------

def emit(outcome, values, units):
    print(f"stage_fail_ratio {outcome.failed / max(1, outcome.attempted):.6g} ratio "
          f"({outcome.failed} failed of {outcome.attempted} stages and checks)")
    for name, unit in units.items():
        print(f"  {name:<36} {values.get(name)!s:>22} {unit}")
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": values.get(name), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if outcome.failed == 0 else 1


def main(argv=None):
    args = parse_args(argv)
    for var in BLAS_VARS:  # before numpy is imported: one BLAS thread
        os.environ[var] = "1"
    package = ROOT / "src" / "crosscity"
    if not (package / "__init__.py").is_file():
        print(f"error: no crosscity sources at {package}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import crosscity
    if Path(crosscity.__file__).resolve().parent != package:
        print(f"error: crosscity imported from {crosscity.__file__}", file=sys.stderr)
        return 2

    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    print("env " + json.dumps(environment(args)))
    workdir = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, WORKLOADS[args.workload](args.seed, args.toy,
                                                      str(workdir)))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, wl):
    outcome = Outcome()
    units = LAYER_UNITS if args.trace else E2E_UNITS
    # untraced: two pipelines at least, so the outputs can be compared; the
    # traced run compares its one untraced pipeline with the traced one and
    # leaves half the time to that and the microbenchmarks
    min_reps = 1 if args.trace else 2
    budget_s = args.seconds / 2 if args.trace else args.seconds
    setups, reps, reference = [], [], None
    started = perf_counter()
    while True:
        t0 = perf_counter()
        try:
            times, inputs = timed_setup(wl, outcome)
        except Exception:  # counted like a failed stage
            traceback.print_exc(file=sys.stdout)
            outcome.attempted += 1
            outcome.failed += 1
            break
        setups += times
        result = run_pipeline(wl, inputs, len(reps), outcome)
        if result is None:
            break
        times, ctx = result
        print(f"repetition {len(reps)}: " + ", ".join(
            f"{stage} {t:.3f}" for stage, t in times.items()) + " s")
        reference = check_outputs(wl, ctx, len(reps), outcome, reference)
        reps.append(times)
        del ctx, result, inputs
        # another pipeline only if it should end by half of one past the budget
        rep_s = perf_counter() - t0
        if len(reps) >= min_reps and (perf_counter() - started + rep_s / 2 > budget_s
                                      or len(reps) >= MAX_REPS):
            break
    if len(reps) < min_reps:
        return emit(outcome, {}, units)

    stage_s = {stage: statistics.median(t[stage] for t in reps) for stage in STAGES}
    pipeline_s = statistics.median(sum(t.values()) for t in reps)
    print(f"median of {len(reps)} pipelines: " + ", ".join(
        f"{stage} {t:.3f}" for stage, t in stage_s.items())
        + f" s; set-up {statistics.median(setups):.4f} s over {len(setups)} runs")
    if args.trace:
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        values = traced_pass(wl, outcome, reference, pipeline_s, trace_path) or {}
        values.update({f"stage.{stage}_s": t for stage, t in stage_s.items()})
        return emit(outcome, values, units)

    return emit(outcome, {
        "setup_s": statistics.median(setups),
        "pipeline_s": pipeline_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "test_mae_h3": reference["mae_h3"],
    }, units)


if __name__ == "__main__":
    sys.exit(main())

import contextlib
import os
import sys
import threading
import weakref

import numpy as np
import pytest

from crosscity import autodiff as ad
from crosscity import forecaster as fc
from crosscity import gin
from crosscity import parallel
from crosscity import train
from crosscity.autodiff import Tensor
from crosscity.config import VARIANTS, ExperimentConfig, variant_uses
from crosscity.data import NormalizationStats, TrafficSeries, make_windows
from crosscity.graph import RoadGraph
from crosscity.train import (DomainData, FinetuneModel, PretrainModel,
                             ProtocolError, ReplayLog, Sgdm, clip_global_norm,
                             collect_grads, finetune, pretrain)

import composed
from conftest import (assert_grads_close, assert_no_child_left,
                      target_uses_per_epoch)


# -- optimizer --------------------------------------------------------------

class TestSgdm:
    def test_hand_sequence(self):
        # x0=1, loss x^2 so g=2x, lr=0.1, mu=0.9:
        #   v1=2.0    -> x1 = 1.0 - 0.2  = 0.8
        #   v2=0.9*2.0+1.6=3.4 -> x2 = 0.8 - 0.34 = 0.46
        p = {"x": Tensor(np.array(1.0), requires_grad=True)}
        opt = Sgdm(0.1, 0.9)
        opt.step(p, {"x": np.array(2.0)})
        assert abs(float(p["x"].data) - 0.8) < 1e-15
        opt.step(p, {"x": np.array(2 * 0.8)})
        assert abs(float(p["x"].data) - 0.46) < 1e-15

    def test_zero_momentum_is_plain_sgd(self, rng):
        p = {"w": Tensor(rng.standard_normal(4), requires_grad=True)}
        w0 = p["w"].data.copy()
        g = rng.standard_normal(4)
        Sgdm(0.05, 0.0).step(p, {"w": g})
        assert np.allclose(p["w"].data, w0 - 0.05 * g, atol=1e-15)

    def test_velocity_carries_after_zero_grad(self):
        # momentum keeps moving the weight one step after the gradient stops
        opt = Sgdm(0.1, 0.9)
        p = {"x": Tensor(np.array(1.0), requires_grad=True)}
        opt.step(p, {"x": np.array(2.0)})
        x_after_first = float(p["x"].data)
        opt.step(p, {"x": np.array(0.0)})
        assert float(p["x"].data) == pytest.approx(x_after_first - 0.1 * 0.9 * 2.0)

    def test_clip_global_norm(self):
        grads = {"a": np.array([3.0, 0.0]), "b": np.array([0.0, 4.0])}
        clipped = clip_global_norm(grads, 1.0)
        total = np.sqrt(sum((g ** 2).sum() for g in clipped.values()))
        assert abs(total - 1.0) < 1e-12
        assert np.allclose(clipped["a"], [0.6, 0.0])
        small = clip_global_norm(grads, 100.0)
        assert small is grads

    def test_clip_rejects_non_finite(self):
        grads = {"a": np.array([1.0]), "b": np.array([np.nan, 1.0]),
                 "c": np.array([np.inf])}
        with pytest.raises(FloatingPointError, match="non-finite gradient in b"):
            clip_global_norm(grads, 5.0)

    def test_collect_grads_fills_missing(self):
        p = {"a": Tensor(np.ones(3), requires_grad=True)}
        grads = collect_grads(p)
        assert np.array_equal(grads["a"], np.zeros(3))


# -- tiny experiment fixtures ----------------------------------------------

def tiny_config(**overrides):
    base = dict(
        source_domains=["a", "b"], target_domain="t",
        history=4, horizon=2, embed_dim=8, hidden_dim=8,
        walks_per_node=4, walk_length=4,
        pretrain_epochs=2, pretrain_batches_per_epoch=2,
        finetune_max_epochs=3, finetune_batches_per_epoch=2,
        early_stop_patience=2, batch_size=16, seed=0,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def tiny_domain(name, n_nodes, seed, config, with_series=True):
    rng = np.random.default_rng(seed)
    graph = RoadGraph(n_nodes, [(i, (i + 1) % n_nodes) for i in range(n_nodes)])
    raw = rng.standard_normal((n_nodes, config.embed_dim))
    series = None
    if with_series:
        t = np.arange(120, dtype=float)
        base = 50 + 20 * np.sin(2 * np.pi * t / 24)
        series = TrafficSeries(
            base[:, None] + 2 * rng.standard_normal((120, n_nodes)))
    return DomainData(name, graph, raw, series)


@pytest.fixture
def setup():
    config = tiny_config()
    sources = [tiny_domain("a", 5, 1, config), tiny_domain("b", 6, 2, config)]
    target = tiny_domain("t", 4, 3, config)
    return config, sources, target


# -- stage 1 ----------------------------------------------------------------

class TestPretrain:
    def test_round_robin_visit_order(self, setup):
        config, sources, target = setup
        log = ReplayLog()
        pretrain(config, sources, target, replay_log=log)
        visits = [rec["domain"] for rec in log.steps]
        assert visits == ["a", "b"] * (config.pretrain_epochs
                                       * config.pretrain_batches_per_epoch)

    def test_factor_ramps_from_zero(self, setup):
        config, sources, target = setup
        log = ReplayLog()
        pretrain(config, sources, target, replay_log=log)
        factors = [rec["factor"] for rec in log.steps]
        assert factors[0] == 0.0
        assert factors == sorted(factors)
        assert factors[-1] > 0.0

    def test_target_signals_never_read(self, setup):
        config, sources, target = setup
        before = target.series.read_count
        pretrain(config, sources, target)
        assert target.series.read_count == before

    def test_reads_each_source_series_once(self, setup):
        config, sources, target = setup
        pretrain(config, sources, target)
        assert [s.series.read_count for s in sources] == [1, 1]

    def test_read_guard_trips(self, setup):
        config, sources, target = setup

        # simulate a code path that peeks at target labels mid-stage
        orig_forward = PretrainModel.params

        def peeking_params(self):
            target.series.signal()
            return orig_forward(self)

        PretrainModel.params = peeking_params
        try:
            with pytest.raises(ProtocolError, match="target-domain signals"):
                pretrain(config, sources, target)
        finally:
            PretrainModel.params = orig_forward

    @pytest.mark.parametrize("names", [("a", "a"), ("a", "t")],
                             ids=["repeated-source", "target-as-source"])
    def test_sources_distinct_and_exclude_the_target(self, setup, names):
        config, _, target = setup
        sources = [tiny_domain(n, 5, i, config) for i, n in enumerate(names)]
        with pytest.raises(ProtocolError, match="must be distinct and exclude"):
            pretrain(config, sources, target)
        assert target.series.read_count == 0

    def test_target_embedding_used_every_epoch(self, setup):
        config, sources, target = setup
        log = ReplayLog()
        pretrain(config, sources, target, replay_log=log)
        uses = target_uses_per_epoch(log)
        assert len(uses) == config.pretrain_epochs
        assert all(n >= 1 for n in uses)

    def test_wo_da_freezes_classifier_and_target_encoder(self, setup):
        config, sources, target = setup
        rng = np.random.default_rng([config.seed, 0x1A17])
        ref = PretrainModel(config, ["a", "b"], rng)
        init = {k: p.data.copy() for k, p in ref.params().items()}
        ckpt = pretrain(config, sources, target, variant="wo_da")
        for name, arr in ckpt.tensors.items():
            if name.startswith(("classifier.", "encoder.target")):
                assert np.array_equal(arr, init[name]), name
            elif name.startswith("forecaster."):
                assert not np.array_equal(arr, init[name]), name

    def test_checkpoint_contents(self, setup):
        config, sources, target = setup
        ckpt = pretrain(config, sources, target)
        assert ckpt.stage == "pretrained"
        assert ckpt.config_hash == config.config_hash()
        assert set(ckpt.stats) == {"a", "b"}
        groups = {"encoder.src.a", "encoder.src.b", "encoder.target",
                  "forecaster", "classifier"}
        for g in groups:
            assert any(k.startswith(g) for k in ckpt.tensors), g

    def test_deterministic(self, setup):
        config, sources, target = setup
        c1 = pretrain(config, sources, target)
        c2 = pretrain(config, sources, target)
        assert c1 == c2

    def test_loss_decreases(self):
        config = tiny_config(pretrain_epochs=12, pretrain_batches_per_epoch=4)
        sources = [tiny_domain("a", 5, 1, config), tiny_domain("b", 6, 2, config)]
        target = tiny_domain("t", 4, 3, config)
        log = ReplayLog()
        pretrain(config, sources, target, replay_log=log)
        losses = [rec["loss_src"] for rec in log.steps]
        k = len(losses) // 4
        assert np.mean(losses[-k:]) < np.mean(losses[:k])

    def test_requires_sources(self, setup):
        config, _, target = setup
        with pytest.raises(ValueError, match="at least one source"):
            pretrain(config, [], target)


# -- stage 2 ----------------------------------------------------------------

class TestFinetune:
    def test_transfers_pretrained_weights(self, setup):
        config, sources, target = setup
        pre = pretrain(config, sources, target)
        fast = tiny_config(finetune_max_epochs=0)
        fin = finetune(pre, target, fast)
        # zero fine-tune epochs: transferred weights come back unchanged
        for name, arr in fin.tensors.items():
            if name.startswith(("encoder.target", "forecaster.")):
                assert np.array_equal(arr, pre.tensors[name]), name
        # private encoder is fresh, not a copy of the shared one
        pri = {k.replace("encoder.private", "encoder.target"): v
               for k, v in fin.tensors.items() if k.startswith("encoder.private")}
        assert any(not np.array_equal(pri[k], fin.tensors[k]) for k in pri)

    def test_variant_parameter_sets(self, setup):
        config, sources, target = setup
        pre = pretrain(config, sources, target)
        fin_full = finetune(pre, target, config, variant="full")
        assert any(k.startswith("encoder.private") for k in fin_full.tensors)
        assert any(k.startswith("combiner.") for k in fin_full.tensors)
        fin_wo_pri = finetune(pre, target, config, variant="wo_pri")
        assert not any(k.startswith(("encoder.private", "combiner."))
                       for k in fin_wo_pri.tensors)
        fin_tonly = finetune(None, target, config, variant="target_only")
        assert any(k.startswith("encoder.target") for k in fin_tonly.tensors)
        fin_temp = finetune(None, target, config, variant="temporal_forecaster")
        assert not any(k.startswith("encoder") for k in fin_temp.tensors)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_model_params_name_the_checkpoint(self, setup, variant):
        config, sources, target = setup
        uses = variant_uses(variant)
        pre = (pretrain(config, sources, target, variant=variant)
               if uses.pretrain else None)
        fin = finetune(pre, target, config, variant=variant)
        model = FinetuneModel(config, uses, np.random.default_rng(0))
        assert list(model.params()) == list(fin.tensors)

    def test_stage_checks(self, setup):
        config, sources, target = setup
        with pytest.raises(ValueError, match="requires a pretrained"):
            finetune(None, target, config, variant="full")
        pre = pretrain(config, sources, target)
        fin = finetune(pre, target, config)
        with pytest.raises(ValueError, match="pretrained"):
            finetune(fin, target, config)
        with pytest.raises(ValueError, match="variant"):
            finetune(pre, target, config, variant="bogus")

    def test_stats_include_target(self, setup):
        config, sources, target = setup
        pre = pretrain(config, sources, target)
        fin = finetune(pre, target, config)
        assert set(fin.stats) == {"a", "b", "t"}
        assert fin.stage == "finetuned"

    def test_reads_the_target_series_once(self, setup):
        config, _, target = setup
        finetune(None, target, config, variant="target_only")
        assert target.series.read_count == 1

    def test_deterministic(self, setup):
        config, sources, target = setup
        pre = pretrain(config, sources, target)
        f1 = finetune(pre, target, config)
        f2 = finetune(pre, target, config)
        assert f1 == f2

    def test_early_stop_restores_best(self, setup):
        config, sources, target = setup
        pre = pretrain(config, sources, target)
        log = ReplayLog()
        fin = finetune(pre, target, tiny_config(finetune_max_epochs=6,
                                                early_stop_patience=1),
                       replay_log=log)
        assert fin.stage == "finetuned"


def poison_gradient(monkeypatch, name, at_call):
    """Make collect_grads return NaN for parameter `name` on its at_call-th
    call (0-based)."""
    calls = []

    def poisoned(params):
        grads = collect_grads(params)
        if len(calls) == at_call:
            grads[name] = np.full_like(grads[name], np.nan)
        calls.append(1)
        return grads

    monkeypatch.setattr(train, "collect_grads", poisoned)


class TestNonFiniteGradients:
    def test_pretrain_names_stage_step_domain_and_parameter(self, setup,
                                                           monkeypatch):
        config, sources, target = setup
        poison_gradient(monkeypatch, "forecaster.head.b", at_call=3)
        with pytest.raises(FloatingPointError) as exc:
            pretrain(config, sources, target)
        msg = str(exc.value)
        for part in ("pretrain", "step 3", "domain b", "forecaster.head.b"):
            assert part in msg, msg

    def test_finetune_names_stage_step_domain_and_parameter(self, setup,
                                                           monkeypatch):
        config, sources, target = setup
        poison_gradient(monkeypatch, "combiner.cmb.w", at_call=1)
        with pytest.raises(FloatingPointError) as exc:
            finetune(None, target, config, variant="target_only")
        msg = str(exc.value)
        for part in ("finetune", "step 1", "domain t", "combiner.cmb.w"):
            assert part in msg, msg


def run_variant(variant, config, sources, target):
    """The stage(s) a variant calls for: (pretrained or None, finetuned)."""
    pre = (pretrain(config, sources, target, variant=variant)
           if variant_uses(variant).pretrain else None)
    return pre, finetune(pre, target, config, variant=variant)


class TestRunVariant:
    def test_target_only_skips_pretrain(self, setup):
        config, sources, target = setup
        pre, fin = run_variant("target_only", config, sources, target)
        assert pre is None and fin.stage == "finetuned"

    def test_full_runs_both(self, setup):
        config, sources, target = setup
        pre, fin = run_variant("full", config, sources, target)
        assert pre.stage == "pretrained" and fin.stage == "finetuned"

    def test_unknown_variant(self, setup):
        config, sources, target = setup
        with pytest.raises(ValueError, match="variant"):
            run_variant("nope", config, sources, target)


# -- batched inference --------------------------------------------------------

UNIT = NormalizationStats(0.0, 1.0)  # normalizes every value to its own bits

def test_predict_windows_equals_per_batch_composed_forecast(rng):
    dataset = make_windows(rng.standard_normal((200, 7)), 12, 3)
    assert len(dataset) > 1024 and len(dataset) % 512  # a short last batch
    p = fc.ForecasterParams(1, 6, 4, 3, rng)
    emb = Tensor(rng.standard_normal((7, 4)))
    want = [composed.forecast(p, Tensor(dataset.inputs[lo:lo + 512].copy()),
                              Tensor(emb.data[dataset.node_ids[lo:lo + 512]])).data
            for lo in range(0, len(dataset), 512)]
    got = train.predict_windows(p, emb, dataset, UNIT)
    assert got.shape == (len(dataset), 3, 1)
    assert np.array_equal(got, np.concatenate(want, axis=0))


def _pin_blas(monkeypatch, env, cpus):
    """The environment and CPU affinity `parallel.worker_count` reads."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cpus),
                        raising=False)


def _count_forks(monkeypatch):
    """The pids of the children `os.fork` starts from now on."""
    forks = []
    fork = os.fork

    def counting():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting)
    return forks


@pytest.mark.parametrize("windows", [300, 1024, 1300, 2048, 2100],
                         ids=["one-partial-batch", "two-batches",
                              "three-batches-partial-last", "four-batches",
                              "five-batches-partial-last"])
def test_predict_windows_forked_equals_serial_bit_for_bit(
        windows, rng, monkeypatch):
    n_nodes = 4
    dataset = make_windows(rng.standard_normal((windows // n_nodes + 14, n_nodes)),
                           12, 3)
    assert len(dataset) == windows
    p = fc.ForecasterParams(1, 16, 8, 3, rng)
    emb = Tensor(rng.standard_normal((n_nodes, 8)))
    per_batch = np.concatenate(
        [fc.predict(p, dataset.inputs[lo:lo + 512],
                    emb.data[dataset.node_ids[lo:lo + 512]])
         for lo in range(0, windows, 512)], axis=0)
    forks = _count_forks(monkeypatch)
    _pin_blas(monkeypatch, {}, range(2))
    serial = train.predict_windows(p, emb, dataset, UNIT)
    assert forks == []
    _pin_blas(monkeypatch, {"OPENBLAS_NUM_THREADS": "1"}, range(2))
    split = train.predict_windows(p, emb, dataset, UNIT)
    assert len(forks) == min(2, -(-windows // 512)) - 1
    assert_no_child_left()
    assert split.shape == serial.shape == (windows, 3, 1)
    assert np.array_equal(split, serial)
    assert np.array_equal(serial, per_batch)


def test_predict_windows_with_more_threads_than_cores(rng, monkeypatch):
    # eight workers, likely more than the CPUs, on nine batches: a batch
    # written to the wrong slice or lost would show
    dataset = make_windows(rng.standard_normal((600, 7)), 12, 3)
    assert -(-len(dataset) // 512) == 9
    p = fc.ForecasterParams(1, 8, 4, 3, rng)
    emb = Tensor(rng.standard_normal((7, 4)))
    _pin_blas(monkeypatch, {}, range(8))
    serial = train.predict_windows(p, emb, dataset, UNIT)
    forks = _count_forks(monkeypatch)
    _pin_blas(monkeypatch, {"OPENBLAS_NUM_THREADS": "1"}, range(8))
    split = train.predict_windows(p, emb, dataset, UNIT)
    assert len(forks) == 7
    assert_no_child_left()
    assert np.array_equal(split, serial)


def test_predict_windows_raises_a_failed_workers_exception(rng, monkeypatch):
    dataset = make_windows(rng.standard_normal((114, 7)), 12, 3)
    assert -(-len(dataset) // 512) == 2  # the child's batch is the second
    p = fc.ForecasterParams(1, 8, 4, 3, rng)
    emb = Tensor(rng.standard_normal((7, 4)))
    predict, calls = fc.predict, []

    def failing_after_first_batch(params, inputs, f_v):
        if not np.array_equal(inputs, dataset.inputs[:512]):
            raise ValueError("no forecast past the first batch")
        calls.append(len(inputs))
        return predict(params, inputs, f_v)

    monkeypatch.setattr(fc, "predict", failing_after_first_batch)
    forks = _count_forks(monkeypatch)
    _pin_blas(monkeypatch, {"OPENBLAS_NUM_THREADS": "1"}, range(2))
    with pytest.raises(ValueError, match="^no forecast past the first batch$"):
        train.predict_windows(p, emb, dataset, UNIT)
    assert len(forks) == 1 and calls == [512]  # the caller's batch ran
    assert_no_child_left()


@contextlib.contextmanager
def _another_thread():
    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    other.start()
    try:
        yield
    finally:
        stop.set()
        other.join()


@pytest.mark.parametrize("env, cpus, batches, want, context", [
    ({}, range(4), 8, 1, None),
    ({"OPENBLAS_NUM_THREADS": "4"}, range(4), 8, 1, None),
    ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, range(4), 8, 1,
     None),
    ({"OPENBLAS_NUM_THREADS": "1"}, [0], 8, 1, None),
    ({"OPENBLAS_NUM_THREADS": "1"}, range(4), 8, 4, None),
    ({"OMP_NUM_THREADS": "1"}, range(4), 8, 4, None),
    ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}, range(4), 3, 3,
     None),
    ({"OPENBLAS_NUM_THREADS": "1"}, range(4), 0, 1, None),
    ({"OPENBLAS_NUM_THREADS": "1"}, range(4), 8, 1, "another-thread"),
    ({"OPENBLAS_NUM_THREADS": "1"}, range(4), 8, 1, "darwin"),
], ids=["blas-unpinned", "blas-four-threads", "openblas-over-omp",
        "one-cpu", "pinned", "omp-pinned", "capped-at-batches", "no-batches",
        "another-thread-alive", "not-linux"])
def test_predict_threads_rule(env, cpus, batches, want, context, monkeypatch):
    _pin_blas(monkeypatch, env, cpus)
    if context == "darwin":
        monkeypatch.setattr(sys, "platform", "darwin")
    with (_another_thread() if context == "another-thread"
          else contextlib.nullcontext()):
        assert parallel.worker_count(batches) == want


def _record_forecast_outputs(monkeypatch):
    """Weak references to the data of every `fc.forecast` output, as made."""
    outputs = []
    forecast = fc.forecast

    def recording(*args):
        preds = forecast(*args)
        outputs.append(weakref.ref(preds.data))
        return preds

    monkeypatch.setattr(fc, "forecast", recording)
    return outputs


def test_no_training_tape_alive_during_finetune_validation(setup,
                                                          monkeypatch):
    config, _, target = setup
    outputs = _record_forecast_outputs(monkeypatch)
    validations = []
    predict_windows = train.predict_windows

    def checking(*args):
        validations.append(len(outputs))
        assert outputs and all(ref() is None for ref in outputs)
        return predict_windows(*args)

    monkeypatch.setattr(train, "predict_windows", checking)
    finetune(None, target, config, variant="target_only")
    assert len(validations) == config.finetune_max_epochs


@pytest.mark.parametrize("variant", ["full", "wo_da"])
def test_previous_pretrain_step_tape_dead_at_next_forward(variant, setup,
                                                          monkeypatch):
    config, sources, target = setup
    outputs = _record_forecast_outputs(monkeypatch)
    stepped, forwards = [], []
    update, forward = train._update, gin.SpatialEncoder.forward

    def recording(params, loss, *rest):
        update(params, loss, *rest)
        stepped.append(weakref.ref(loss.data))
        stepped.extend(outputs)
        outputs.clear()

    def checking(self, *args):
        forwards.append(len(stepped))
        assert all(ref() is None for ref in stepped)
        return forward(self, *args)

    monkeypatch.setattr(train, "_update", recording)
    monkeypatch.setattr(gin.SpatialEncoder, "forward", checking)
    pretrain(config, sources, target, variant=variant)
    steps = config.pretrain_epochs * config.pretrain_batches_per_epoch * 2
    assert len(stepped) == 2 * steps
    assert forwards[-1] == 2 * (steps - 1)


# -- fused model units on the training tapes -----------------------------------

def _step_grads(monkeypatch, run):
    """Every parameter's gradient, before clipping, at each step of run(),
    and the checkpoint run() returns."""
    steps = []

    def recording(params):
        grads = collect_grads(params)
        steps.append({k: g.copy() for k, g in grads.items()})
        return grads

    monkeypatch.setattr(train, "collect_grads", recording)
    return steps, run()


def _assert_same_steps(got, want, n_steps):
    assert len(got) == len(want) == n_steps
    for step, (g, w) in enumerate(zip(got, want)):
        assert g.keys() == w.keys()
        for k in w:
            assert np.array_equal(g[k], w[k]), f"step {step}: {k}"


@pytest.mark.parametrize("gin_layers", [1, 2])
def test_pretrain_step_gradients_equal_composed_exactly(gin_layers, setup,
                                                        monkeypatch):
    # three domain groups share the classifier, so its gradients hold three
    # terms whose order of accumulation shows in the last bits
    config, sources, target = setup
    config.gin_layers = gin_layers
    config.pretrain_epochs, config.pretrain_batches_per_epoch = 1, 2

    def run():
        return pretrain(config, sources, target)

    got, got_ckpt = _step_grads(monkeypatch, run)
    with monkeypatch.context() as m:
        m.setattr(train, "adversarial_loss", composed.adversarial_loss)
        m.setattr(gin.GinLayer, "forward", composed.gin_layer)
        m.setattr(fc, "source_loss", composed.source_loss)
        want, want_ckpt = _step_grads(m, run)
    _assert_same_steps(got, want, 4)
    assert got_ckpt == want_ckpt


@pytest.mark.parametrize("gin_layers", [1, 2])
def test_finetune_step_gradients_equal_composed_exactly(gin_layers, setup,
                                                        monkeypatch):
    # variant full: the shared and the private encoder both feed the
    # combiner, so its backward reaches both encoders' parameters
    config, sources, target = setup
    config.gin_layers = gin_layers
    pre = pretrain(config, sources, target)

    def run():
        return finetune(pre, target, config, variant="full")

    got, got_ckpt = _step_grads(monkeypatch, run)
    with monkeypatch.context() as m:
        m.setattr(train.CombinerParams, "combine", composed.combine)
        m.setattr(fc, "source_loss", composed.source_loss)
        want, want_ckpt = _step_grads(m, run)
    steps = config.finetune_max_epochs * config.finetune_batches_per_epoch
    _assert_same_steps(got, want, steps)
    assert any(k.startswith("combiner.") for k in got[0])
    assert got_ckpt == want_ckpt


def test_combine_gradient_vs_finite_diff(rng):
    combiner = train.CombinerParams(4, rng)
    for p in combiner.params().values():  # biases off zero, as after a step
        p.data = p.data + 0.1 * rng.standard_normal(p.shape)
    shared = Tensor(rng.standard_normal((5, 4)), requires_grad=True)
    private = Tensor(rng.standard_normal((5, 4)), requires_grad=True)
    weights = Tensor(rng.standard_normal((5, 4)))
    params = {**combiner.params(), "shared": shared, "private": private}
    assert_grads_close(
        lambda: ad.tsum(composed.mul(combiner.combine(shared, private),
                                     weights)), params)


def _op_nodes(loss):
    """Nodes with a backward rule on loss's tape, counted once each."""
    seen, stack, ops = {id(loss)}, [loss], 0
    while stack:
        node = stack.pop()
        ops += node._backward is not None
        for p in node._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return ops


def _count_update_tapes(monkeypatch):
    """The op-node count of every loss `train._update` steps on."""
    counts = []
    update = train._update

    def counting(params, loss, *rest):
        counts.append(_op_nodes(loss))
        return update(params, loss, *rest)

    monkeypatch.setattr(train, "_update", counting)
    return counts


@pytest.mark.parametrize("gin_layers", [1, 2])
def test_pretrain_step_tape_holds_one_node_per_unit(gin_layers, setup,
                                                    monkeypatch):
    # per step: one node per GIN layer of the three encoders, the domain
    # head, the row gather, the GRU window, the L1 loss, and the sum of the
    # two losses
    config, sources, target = setup
    config.gin_layers = gin_layers
    config.pretrain_epochs, config.pretrain_batches_per_epoch = 1, 1
    counts = _count_update_tapes(monkeypatch)
    pretrain(config, sources, target)
    assert counts == [3 * gin_layers + 5] * len(sources)


@pytest.mark.parametrize("gin_layers", [1, 2])
def test_finetune_step_tape_holds_one_node_per_unit(gin_layers, setup,
                                                    monkeypatch):
    # per step of variant full: one node per GIN layer of the shared and
    # the private encoder, the combiner, the row gather, the GRU window and
    # the L1 loss
    config, sources, target = setup
    config.gin_layers = gin_layers
    pre = pretrain(config, sources, target)
    config.finetune_max_epochs = 1
    counts = _count_update_tapes(monkeypatch)
    finetune(pre, target, config, variant="full")
    assert counts == [2 * gin_layers + 4] * config.finetune_batches_per_epoch

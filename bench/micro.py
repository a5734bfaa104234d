"""Layer microbenchmarks at a workload's own shapes.

Each timing is the median over repeated calls, with a fresh forward pass
before every backward pass. Run these with the tracer uninstalled so the
library's own functions are timed, not the wrappers.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

from crosscity import autodiff as ad
from crosscity import forecaster as fc
from crosscity import node2vec as n2v
from crosscity.adversary import DomainClassifier, adversarial_loss
from crosscity.autodiff import Tensor
from crosscity.gin import GinLayer
from crosscity.train import PretrainModel, Sgdm

MIN_REPS = 5
BUDGET_S = 0.3


def _fwd_bwd(forward, backward):
    """Median forward and backward milliseconds over repeated pairs."""
    fwd, bwd = [], []
    started = perf_counter()
    while len(fwd) < MIN_REPS or perf_counter() - started < BUDGET_S:
        t0 = perf_counter()
        out = forward()
        t1 = perf_counter()
        backward(out)
        t2 = perf_counter()
        fwd.append(t1 - t0)
        bwd.append(t2 - t1)
    return 1e3 * statistics.median(fwd), 1e3 * statistics.median(bwd)


def _repeat_ms(fn):
    times = []
    started = perf_counter()
    while len(times) < MIN_REPS or perf_counter() - started < BUDGET_S:
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return 1e3 * statistics.median(times)


def run(cfg, domains):
    """domains: DomainData list (sources then target) with raw features."""
    rng = np.random.default_rng([cfg.seed, 0xB3])
    out = {}
    d = cfg.embed_dim

    # GRU over the history window at the training batch size
    params = fc.ForecasterParams(cfg.n_features, cfg.hidden_dim, d,
                                 cfg.horizon, rng)
    b = cfg.batch_size
    inputs = rng.standard_normal((b, cfg.history, cfg.n_features))
    targets = rng.standard_normal((b, cfg.horizon, cfg.n_features))
    f_v = Tensor(rng.standard_normal((b, d)), requires_grad=True)
    out["forecaster.fwd_ms"], out["forecaster.bwd_ms"] = _fwd_bwd(
        lambda: fc.forecast(params, inputs, f_v),
        lambda preds: fc.source_loss(preds, targets).backward())

    # one GIN layer on the largest city
    big = max(domains, key=lambda dom: dom.graph.n_nodes)
    layer = GinLayer(d, d, rng=rng)
    x = Tensor(big.raw_features, requires_grad=True)
    agg = Tensor(big.graph.mean_aggregation_matrix())
    out["gin.layer_fwd_ms"], out["gin.layer_bwd_ms"] = _fwd_bwd(
        lambda: layer.forward(x, agg), lambda h: ad.tsum(h).backward())

    # domain classifier plus adversarial loss over every domain
    clf = DomainClassifier(d, len(domains), cfg.classifier_hidden, rng)
    groups = [(Tensor(dom.raw_features, requires_grad=True), i)
              for i, dom in enumerate(domains)]
    out["adversary.fwd_ms"], out["adversary.bwd_ms"] = _fwd_bwd(
        lambda: adversarial_loss(clf, groups, reversal_factor=0.5),
        lambda loss: loss.backward())

    # one optimizer step over the full pretrain parameter dict
    model = PretrainModel(cfg, [dom.name for dom in domains[:-1]], rng)
    pdict = model.params()
    grads = {k: rng.standard_normal(p.data.shape) * 1e-6 for k, p in pdict.items()}
    opt = Sgdm(cfg.learning_rate, cfg.momentum)
    out["train.sgdm_step_ms"] = _repeat_ms(lambda: opt.step(pdict, grads))

    # walk generation and one skip-gram epoch on the largest city
    t0 = perf_counter()
    corpus = n2v.build_corpus(big.graph, cfg.walks_per_node, cfg.walk_length,
                              cfg.walk_p, cfg.walk_q, cfg.seed)
    t1 = perf_counter()
    n2v.train_skipgram(corpus, big.graph.n_nodes, d, window=cfg.skipgram_window,
                       negatives=cfg.skipgram_negatives, epochs=1,
                       lr=cfg.skipgram_lr, seed=cfg.seed)
    t2 = perf_counter()
    out["node2vec.walks_s"] = t1 - t0
    out["node2vec.skipgram_epoch_s"] = t2 - t1
    return out

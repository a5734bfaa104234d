import os

import numpy as np
import pytest


def finite_diff(loss_fn, params, h=1e-5):
    """Central finite differences of a scalar loss w.r.t. every parameter
    tensor. loss_fn() must rebuild the graph from params' current .data."""
    grads = {}
    for name, p in params.items():
        g = np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = float(loss_fn().data)
            flat[i] = orig - h
            down = float(loss_fn().data)
            flat[i] = orig
            gflat[i] = (up - down) / (2 * h)
        grads[name] = g
    return grads


def analytic_grads(loss_fn, params):
    for p in params.values():
        p.grad = None
    loss_fn().backward()
    return {name: (np.zeros_like(p.data) if p.grad is None else p.grad)
            for name, p in params.items()}


def assert_grads_close(loss_fn, params, rel_tol=1e-4, h=1e-5):
    ana = analytic_grads(loss_fn, params)
    num = finite_diff(loss_fn, params, h)
    for name in params:
        denom = np.maximum(np.abs(num[name]), 1e-6)
        rel = np.abs(ana[name] - num[name]) / denom
        assert rel.max() < rel_tol, f"{name}: max rel err {rel.max():.3e}"


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def assert_no_child_left():
    """Every child process this one started has been reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def target_uses_per_epoch(log):
    """Per pretrain epoch of a replay log, the steps whose domain loss took
    in the target embeddings: the steps that updated the classifier."""
    uses = {}
    for rec in log.steps:
        uses[rec["epoch"]] = uses.get(rec["epoch"], 0) + rec["classifier_updated"]
    return list(uses.values())

"""The GRU forecaster composed from per-step autodiff ops, and windowing
as a loop of copies.

This is the reference ``forecaster.forecast`` must equal bit for bit: about
25 tape nodes per recurrent step, each with its own textbook backward rule.
The ops here are the ones nothing in the library needs any more; the tests
in test_autodiff.py check them like any other op. ``make_windows`` is the
per-window loop that ``data.make_windows``' strided views must equal.
"""

from __future__ import annotations

import numpy as np

from crosscity import autodiff as ad
from crosscity.autodiff import ShapeError, Tensor
from crosscity.data import DataError, WindowedDataset


def sigmoid(a):
    out = np.empty_like(a.data)
    pos = a.data >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-a.data[pos]))
    e = np.exp(a.data[~pos])
    out[~pos] = e / (1.0 + e)
    def bwd(g):
        a._accum(g * out * (1.0 - out))
    return Tensor._result(out, (a,), bwd)


def tanh(a):
    out = np.tanh(a.data)
    def bwd(g):
        a._accum(g * (1.0 - out * out))
    return Tensor._result(out, (a,), bwd)


def transpose(a):
    if a.data.ndim != 2:
        raise ShapeError(f"transpose: expected 2-d, got {a.shape}")
    def bwd(g):
        a._accum(g.T)
    return Tensor._result(a.data.T.copy(), (a,), bwd)


def concat(a, b, axis=0):
    if a.data.ndim != b.data.ndim:
        raise ShapeError(f"concat: ranks differ ({a.shape} vs {b.shape})")
    if axis >= a.data.ndim or axis < -a.data.ndim:
        raise ShapeError(f"concat: axis {axis} out of range for rank {a.data.ndim}")
    for d in range(a.data.ndim):
        if d != axis % a.data.ndim and a.shape[d] != b.shape[d]:
            raise ShapeError(f"concat: shapes {a.shape} and {b.shape} differ off-axis")
    na = a.shape[axis]
    def bwd(g):
        ga, gb = np.split(g, [na], axis=axis)
        a._accum(ga)
        b._accum(gb)
    return Tensor._result(np.concatenate([a.data, b.data], axis=axis), (a, b), bwd)


def gru_step(params, x_t, h_prev, f_v):
    """One recurrent update on a batch: x_t (B, N_f), h_prev (B, hidden),
    f_v (B, D_f); returns (B, hidden)."""
    xh = concat(x_t, h_prev, axis=1)
    u = sigmoid(ad.add_rowvec(ad.matmul(xh, transpose(params.theta_u)), params.b_u))
    r = sigmoid(ad.add_rowvec(ad.matmul(xh, transpose(params.theta_r)), params.b_r))
    xrh = concat(x_t, ad.mul(r, h_prev), axis=1)
    c = tanh(ad.add_rowvec(ad.matmul(xrh, transpose(params.theta_c)), params.b_c))
    blended = ad.add(ad.mul(u, h_prev),
                     ad.mul(ad.sub(Tensor(1.0), u), c))
    fe = concat(f_v, blended, axis=1)
    return ad.add_rowvec(ad.matmul(fe, params.mix_w), params.mix_b)


def forecast(params, inputs, f_v):
    """Same contract as ``forecaster.forecast``, one step at a time."""
    x = inputs if isinstance(inputs, Tensor) else Tensor(inputs)
    fv = f_v if isinstance(f_v, Tensor) else Tensor(f_v)
    batch, hist, _ = x.shape
    h = Tensor(np.zeros((batch, params.hidden_dim)))
    for t in range(hist):
        h = gru_step(params, _slice_time(x, t), h, fv)
    out = ad.add_rowvec(ad.matmul(h, params.head_w), params.head_b)
    return _reshape_pred(out, batch, params.horizon, params.n_features)


def _slice_time(x, t):
    """Pick time step t from a (B, H', N_f) tensor."""
    def bwd(g):
        buf = np.zeros_like(x.data)
        buf[:, t, :] = g
        x._accum(buf)
    return Tensor._result(x.data[:, t, :].copy(), (x,), bwd)


def _reshape_pred(out, batch, horizon, n_features):
    def bwd(g):
        out._accum(g.reshape(batch, horizon * n_features))
    return Tensor._result(out.data.reshape(batch, horizon, n_features), (out,), bwd)


def make_windows(series, history, horizon):
    """Same contract as ``data.make_windows``, one copied window at a time."""
    x = series.signal()
    t_len, n_nodes = x.shape
    count = t_len - history - horizon + 1
    if count < 1:
        raise DataError(
            f"series of length {t_len} too short for history {history} + horizon {horizon}")
    node_ids, inputs, targets = [], [], []
    for start in range(count):
        for v in range(n_nodes):
            node_ids.append(v)
            inputs.append(x[start:start + history, v])
            targets.append(x[start + history:start + history + horizon, v])
    return WindowedDataset(
        np.array(node_ids, dtype=np.intp),
        np.array(inputs)[:, :, None],
        np.array(targets)[:, :, None],
    )
